//! Grayscale images, synthetic image generation and convolution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A grayscale image with `f32` pixels in `[0, 255]`.
///
/// The edge-detection case study of the paper runs on 1024 × 1024 images;
/// the synthetic generator below produces images with gradients, shapes
/// and noise so that the four detectors have real work to do and their
/// relative costs (Quick Mask < Sobel < Prewitt < Canny) are preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<f32>,
}

impl GrayImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        GrayImage {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Creates an image from raw pixels (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<f32>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// Generates a deterministic synthetic test image: a diagonal
    /// gradient, a bright rectangle, a filled disc and uniform noise.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut img = GrayImage::new(width, height);
        let (cx, cy) = (width as f32 * 0.7, height as f32 * 0.3);
        let radius = (width.min(height) as f32) * 0.15;
        for y in 0..height {
            for x in 0..width {
                let mut v = 128.0 * (x + y) as f32 / (width + height) as f32;
                // Rectangle.
                if x > width / 8 && x < width / 3 && y > height / 2 && y < height * 3 / 4 {
                    v = 220.0;
                }
                // Disc.
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                if (dx * dx + dy * dy).sqrt() < radius {
                    v = 40.0;
                }
                // Noise.
                v += rng.gen_range(-8.0..8.0);
                img.set(x, y, v.clamp(0.0, 255.0));
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Returns the pixel at `(x, y)`, clamping coordinates to the border
    /// (replicate padding).
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[y * self.width + x]
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// Raw pixel slice (row-major).
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f32 {
        self.pixels.iter().sum::<f32>() / self.pixels.len() as f32
    }

    /// Fraction of pixels above `threshold` (useful to quantify how many
    /// edge pixels a detector produced).
    pub fn fraction_above(&self, threshold: f32) -> f32 {
        let count = self.pixels.iter().filter(|&&p| p > threshold).count();
        count as f32 / self.pixels.len() as f32
    }

    /// Convolves the image with a square kernel (odd side length),
    /// replicate padding, returning the absolute response.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty or not square with odd side.
    pub fn convolve(&self, kernel: &[f32], side: usize) -> GrayImage {
        assert!(side % 2 == 1 && side > 0, "kernel side must be odd");
        assert_eq!(kernel.len(), side * side, "kernel must be square");
        let half = (side / 2) as isize;
        let mut out = GrayImage::new(self.width, self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let mut acc = 0.0f32;
                for ky in 0..side {
                    for kx in 0..side {
                        let px = x as isize + kx as isize - half;
                        let py = y as isize + ky as isize - half;
                        acc += kernel[ky * side + kx] * self.get_clamped(px, py);
                    }
                }
                out.set(x, y, acc.abs());
            }
        }
        out
    }

    /// Combines two gradient responses into a magnitude image
    /// `sqrt(gx² + gy²)`, clamped to `[0, 255]`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn gradient_magnitude(gx: &GrayImage, gy: &GrayImage) -> GrayImage {
        assert_eq!(gx.width, gy.width);
        assert_eq!(gx.height, gy.height);
        let pixels = gx
            .pixels
            .iter()
            .zip(&gy.pixels)
            .map(|(a, b)| (a * a + b * b).sqrt().min(255.0))
            .collect();
        GrayImage::from_pixels(gx.width, gx.height, pixels)
    }

    /// Applies a binary threshold, producing a 0/255 edge map.
    pub fn threshold(&self, level: f32) -> GrayImage {
        let pixels = self
            .pixels
            .iter()
            .map(|&p| if p >= level { 255.0 } else { 0.0 })
            .collect();
        GrayImage::from_pixels(self.width, self.height, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        img.set(2, 1, 42.0);
        assert_eq!(img.get(2, 1), 42.0);
        assert_eq!(img.get_clamped(-5, 1), img.get(0, 1));
        assert_eq!(img.get_clamped(100, 1), img.get(3, 1));
        assert_eq!(img.pixels().len(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        let _ = GrayImage::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let img = GrayImage::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = GrayImage::synthetic(64, 64, 7);
        let b = GrayImage::synthetic(64, 64, 7);
        let c = GrayImage::synthetic(64, 64, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.mean() > 0.0 && a.mean() < 255.0);
    }

    #[test]
    fn identity_convolution() {
        let img = GrayImage::synthetic(16, 16, 1);
        let identity = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let out = img.convolve(&identity, 3);
        for y in 0..16 {
            for x in 0..16 {
                assert!((out.get(x, y) - img.get(x, y)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gradient_magnitude_and_threshold() {
        let gx = GrayImage::from_pixels(2, 1, vec![3.0, 0.0]);
        let gy = GrayImage::from_pixels(2, 1, vec![4.0, 0.0]);
        let mag = GrayImage::gradient_magnitude(&gx, &gy);
        assert!((mag.get(0, 0) - 5.0).abs() < 1e-5);
        let edges = mag.threshold(4.0);
        assert_eq!(edges.get(0, 0), 255.0);
        assert_eq!(edges.get(1, 0), 0.0);
        assert!(edges.fraction_above(128.0) > 0.0);
    }

    proptest! {
        /// Convolution with a zero kernel yields a zero image.
        #[test]
        fn prop_zero_kernel(seed in 0u64..100) {
            let img = GrayImage::synthetic(8, 8, seed);
            let out = img.convolve(&[0.0; 9], 3);
            prop_assert!(out.pixels().iter().all(|&p| p == 0.0));
        }

        /// The synthetic generator always stays within [0, 255].
        #[test]
        fn prop_pixel_range(seed in 0u64..50, w in 4usize..32, h in 4usize..32) {
            let img = GrayImage::synthetic(w, h, seed);
            prop_assert!(img.pixels().iter().all(|&p| (0.0..=255.0).contains(&p)));
        }
    }
}
