//! The edge-detection case study (Section IV-A, Figure 6).
//!
//! Four detectors of increasing cost and quality — Quick Mask, Sobel,
//! Prewitt and Canny — process the same image in parallel. A
//! [`tpdf_core::KernelKind::Clock`] watchdog fires every 500 ms and the
//! Transaction kernel selects, among the detectors that have finished,
//! the one with the highest quality priority
//! (Canny > Prewitt > Sobel > Quick Mask). "When dealing with timing
//! constraint, an average quality result at the right time is far better
//! than an excellent result, later."

use crate::image::GrayImage;
use tpdf_core::actors::KernelKind;
use tpdf_core::graph::TpdfGraph;
use tpdf_core::rate::RateSeq;

/// The four edge detectors evaluated by the paper, ordered by increasing
/// quality (and cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EdgeDetector {
    /// 3×3 "quick mask" difference filter — cheapest, noisiest.
    QuickMask,
    /// Sobel gradient operator.
    Sobel,
    /// Prewitt gradient operator.
    Prewitt,
    /// Canny-style detector (Gaussian smoothing, Sobel gradients,
    /// non-maximum suppression, hysteresis thresholding) — most
    /// expensive, best quality.
    Canny,
}

impl EdgeDetector {
    /// All detectors in priority order (lowest to highest quality).
    pub const ALL: [EdgeDetector; 4] = [
        EdgeDetector::QuickMask,
        EdgeDetector::Sobel,
        EdgeDetector::Prewitt,
        EdgeDetector::Canny,
    ];

    /// Human-readable name matching the paper's Figure 6.
    pub fn name(&self) -> &'static str {
        match self {
            EdgeDetector::QuickMask => "Quick Mask",
            EdgeDetector::Sobel => "Sobel",
            EdgeDetector::Prewitt => "Prewitt",
            EdgeDetector::Canny => "Canny",
        }
    }

    /// Quality priority (higher is better), the `α` priority used by the
    /// Transaction kernel.
    pub fn priority(&self) -> u32 {
        match self {
            EdgeDetector::QuickMask => 1,
            EdgeDetector::Sobel => 2,
            EdgeDetector::Prewitt => 3,
            EdgeDetector::Canny => 4,
        }
    }

    /// The execution time reported by the paper for a 1024 × 1024 image
    /// on the authors' Core i3 (milliseconds, Figure 6 table).
    pub fn paper_time_ms(&self) -> u64 {
        match self {
            EdgeDetector::QuickMask => 200,
            EdgeDetector::Sobel => 473,
            EdgeDetector::Prewitt => 522,
            EdgeDetector::Canny => 1040,
        }
    }

    /// Runs the detector on an image, returning a 0/255 edge map.
    pub fn run(&self, image: &GrayImage) -> GrayImage {
        match self {
            EdgeDetector::QuickMask => quick_mask(image),
            EdgeDetector::Sobel => sobel(image),
            EdgeDetector::Prewitt => prewitt(image),
            EdgeDetector::Canny => canny(image),
        }
    }
}

/// Quick Mask: a single 3×3 difference kernel followed by a threshold.
pub fn quick_mask(image: &GrayImage) -> GrayImage {
    #[rustfmt::skip]
    let kernel = [
        0.0, -1.0,  0.0,
       -1.0,  4.0, -1.0,
        0.0, -1.0,  0.0,
    ];
    image.convolve(&kernel, 3).threshold(60.0)
}

/// Sobel gradient magnitude followed by a threshold.
pub fn sobel(image: &GrayImage) -> GrayImage {
    #[rustfmt::skip]
    let gx = [
        -1.0, 0.0, 1.0,
        -2.0, 0.0, 2.0,
        -1.0, 0.0, 1.0,
    ];
    #[rustfmt::skip]
    let gy = [
        -1.0, -2.0, -1.0,
         0.0,  0.0,  0.0,
         1.0,  2.0,  1.0,
    ];
    let mag = GrayImage::gradient_magnitude(&image.convolve(&gx, 3), &image.convolve(&gy, 3));
    mag.threshold(100.0)
}

/// Prewitt gradient magnitude followed by a threshold.
pub fn prewitt(image: &GrayImage) -> GrayImage {
    #[rustfmt::skip]
    let gx = [
        -1.0, 0.0, 1.0,
        -1.0, 0.0, 1.0,
        -1.0, 0.0, 1.0,
    ];
    #[rustfmt::skip]
    let gy = [
        -1.0, -1.0, -1.0,
         0.0,  0.0,  0.0,
         1.0,  1.0,  1.0,
    ];
    let mag = GrayImage::gradient_magnitude(&image.convolve(&gx, 3), &image.convolve(&gy, 3));
    mag.threshold(90.0)
}

/// Canny-style detector: 5×5 Gaussian smoothing, Sobel gradients,
/// non-maximum suppression and double (hysteresis-like) thresholding.
pub fn canny(image: &GrayImage) -> GrayImage {
    #[rustfmt::skip]
    let gauss: [f32; 25] = [
        2.0,  4.0,  5.0,  4.0, 2.0,
        4.0,  9.0, 12.0,  9.0, 4.0,
        5.0, 12.0, 15.0, 12.0, 5.0,
        4.0,  9.0, 12.0,  9.0, 4.0,
        2.0,  4.0,  5.0,  4.0, 2.0,
    ];
    let norm: Vec<f32> = gauss.iter().map(|v| v / 159.0).collect();
    let smoothed = image.convolve(&norm, 5);

    #[rustfmt::skip]
    let sx = [
        -1.0, 0.0, 1.0,
        -2.0, 0.0, 2.0,
        -1.0, 0.0, 1.0,
    ];
    #[rustfmt::skip]
    let sy = [
        -1.0, -2.0, -1.0,
         0.0,  0.0,  0.0,
         1.0,  2.0,  1.0,
    ];
    let gx = smoothed.convolve(&sx, 3);
    let gy = smoothed.convolve(&sy, 3);
    let mag = GrayImage::gradient_magnitude(&gx, &gy);

    // Non-maximum suppression along the dominant axis.
    let (w, h) = (mag.width(), mag.height());
    let mut suppressed = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let m = mag.get(x, y);
            let horiz = gx.get(x, y).abs() >= gy.get(x, y).abs();
            let (n1, n2) = if horiz {
                (
                    mag.get_clamped(x as isize - 1, y as isize),
                    mag.get_clamped(x as isize + 1, y as isize),
                )
            } else {
                (
                    mag.get_clamped(x as isize, y as isize - 1),
                    mag.get_clamped(x as isize, y as isize + 1),
                )
            };
            if m >= n1 && m >= n2 {
                suppressed.set(x, y, m);
            }
        }
    }

    // Double threshold with a weak-pixel promotion pass.
    let (low, high) = (40.0, 90.0);
    let mut edges = GrayImage::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let v = suppressed.get(x, y);
            if v >= high {
                edges.set(x, y, 255.0);
            } else if v >= low {
                edges.set(x, y, 128.0);
            }
        }
    }
    let snapshot = edges.clone();
    for y in 0..h {
        for x in 0..w {
            if snapshot.get(x, y) == 128.0 {
                let mut promote = false;
                for dy in -1..=1isize {
                    for dx in -1..=1isize {
                        if snapshot.get_clamped(x as isize + dx, y as isize + dy) == 255.0 {
                            promote = true;
                        }
                    }
                }
                edges.set(x, y, if promote { 255.0 } else { 0.0 });
            }
        }
    }
    edges
}

/// The edge-detection application: the TPDF graph of Figure 6 plus the
/// executable detectors.
#[derive(Debug, Clone)]
pub struct EdgeDetectionApp {
    /// Deadline of the Clock control actor, in the same time unit as the
    /// detector execution times (the paper uses 500 ms).
    pub deadline: u64,
    /// Per-detector execution times used by the timed model. Defaults to
    /// the paper's measurements (Figure 6 table).
    pub execution_times: [(EdgeDetector, u64); 4],
}

impl Default for EdgeDetectionApp {
    fn default() -> Self {
        EdgeDetectionApp {
            deadline: 500,
            execution_times: [
                (
                    EdgeDetector::QuickMask,
                    EdgeDetector::QuickMask.paper_time_ms(),
                ),
                (EdgeDetector::Sobel, EdgeDetector::Sobel.paper_time_ms()),
                (EdgeDetector::Prewitt, EdgeDetector::Prewitt.paper_time_ms()),
                (EdgeDetector::Canny, EdgeDetector::Canny.paper_time_ms()),
            ],
        }
    }
}

impl EdgeDetectionApp {
    /// Creates the application with the paper's timings and a custom
    /// deadline.
    pub fn with_deadline(deadline: u64) -> Self {
        EdgeDetectionApp {
            deadline,
            ..Default::default()
        }
    }

    /// Execution time configured for one detector.
    pub fn execution_time(&self, detector: EdgeDetector) -> u64 {
        self.execution_times
            .iter()
            .find(|(d, _)| *d == detector)
            .map(|(_, t)| *t)
            .expect("all detectors configured")
    }

    /// Builds the TPDF graph of Figure 6: `IRead → IDuplicate → {Quick
    /// Mask, Sobel, Prewitt, Canny} → Trans → IWrite`, with a Clock
    /// control actor firing at the deadline and steering the Transaction
    /// kernel. Omitted rates equal the image size `p×q`, modelled here as
    /// a single "image token" per firing.
    pub fn graph(&self) -> TpdfGraph {
        let mut b = TpdfGraph::builder()
            .kernel_with("IRead", KernelKind::Regular, 10)
            .kernel_with("IDuplicate", KernelKind::SelectDuplicate, 1)
            .kernel_with(
                "Clock",
                KernelKind::Clock {
                    period: self.deadline,
                },
                0,
            )
            .kernel_with("Trans", KernelKind::Transaction { votes_required: 0 }, 1)
            .kernel_with("IWrite", KernelKind::Regular, 10)
            .channel(
                "IRead",
                "IDuplicate",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
            )
            .control_channel("Clock", "Trans", RateSeq::constant(1), RateSeq::constant(1))
            .channel(
                "Trans",
                "IWrite",
                RateSeq::constant(1),
                RateSeq::constant(1),
                0,
            );
        for detector in EdgeDetector::ALL {
            let name = detector_node_name(detector);
            b = b
                .kernel_with(&name, KernelKind::Regular, self.execution_time(detector))
                .channel(
                    "IDuplicate",
                    &name,
                    RateSeq::constant(1),
                    RateSeq::constant(1),
                    0,
                )
                .channel_with_priority(
                    &name,
                    "Trans",
                    RateSeq::constant(1),
                    RateSeq::constant(1),
                    0,
                    detector.priority(),
                );
        }
        b.build().expect("edge-detection graph is well-formed")
    }

    /// The detector the Transaction kernel selects at the deadline when
    /// detectors run in parallel (one PE each): the highest-priority
    /// detector whose execution time fits within the deadline.
    ///
    /// Returns `None` if even Quick Mask misses the deadline.
    pub fn expected_selection(&self) -> Option<EdgeDetector> {
        EdgeDetector::ALL
            .iter()
            .rev()
            .copied()
            .find(|d| self.execution_time(*d) <= self.deadline)
    }

    /// Runs every detector on `image` and returns `(detector, edge map)`
    /// pairs, mimicking the speculative parallel execution of the graph.
    pub fn run_all(&self, image: &GrayImage) -> Vec<(EdgeDetector, GrayImage)> {
        EdgeDetector::ALL
            .iter()
            .map(|&d| (d, d.run(image)))
            .collect()
    }
}

/// Graph node name of a detector.
pub fn detector_node_name(detector: EdgeDetector) -> String {
    match detector {
        EdgeDetector::QuickMask => "QMask".to_string(),
        EdgeDetector::Sobel => "Sobel".to_string(),
        EdgeDetector::Prewitt => "Prewitt".to_string(),
        EdgeDetector::Canny => "Canny".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use tpdf_core::analysis::analyze;

    fn test_image() -> GrayImage {
        GrayImage::synthetic(96, 96, 42)
    }

    #[test]
    fn detectors_produce_edge_maps() {
        let img = test_image();
        for detector in EdgeDetector::ALL {
            let edges = detector.run(&img);
            assert_eq!(edges.width(), img.width());
            assert_eq!(edges.height(), img.height());
            let frac = edges.fraction_above(200.0);
            assert!(frac > 0.0, "{} found no edges", detector.name());
            assert!(frac < 0.9, "{} marked almost everything", detector.name());
        }
    }

    #[test]
    fn detector_metadata() {
        assert_eq!(EdgeDetector::QuickMask.paper_time_ms(), 200);
        assert_eq!(EdgeDetector::Canny.paper_time_ms(), 1040);
        assert!(EdgeDetector::Canny.priority() > EdgeDetector::Prewitt.priority());
        assert!(EdgeDetector::Prewitt.priority() > EdgeDetector::Sobel.priority());
        assert!(EdgeDetector::Sobel.priority() > EdgeDetector::QuickMask.priority());
        assert_eq!(EdgeDetector::Sobel.name(), "Sobel");
    }

    #[test]
    fn relative_cost_ordering_holds() {
        // The reproduction claim of Figure 6's table: QuickMask is the
        // cheapest, Canny the most expensive. Measure on a synthetic
        // image large enough to dominate constant overheads.
        let img = GrayImage::synthetic(192, 192, 3);
        let mut times = Vec::new();
        for detector in EdgeDetector::ALL {
            let start = Instant::now();
            let _ = detector.run(&img);
            times.push((detector, start.elapsed()));
        }
        let quick = times[0].1;
        let canny = times[3].1;
        assert!(
            canny > quick,
            "Canny ({canny:?}) must be slower than Quick Mask ({quick:?})"
        );
    }

    #[test]
    fn graph_is_bounded_and_has_deadline_clock() {
        let app = EdgeDetectionApp::default();
        let g = app.graph();
        assert_eq!(g.node_count(), 9);
        let report = analyze(&g).unwrap();
        assert!(report.is_bounded());
        let clock = g.node_by_name("Clock").unwrap();
        assert_eq!(
            g.node(clock).kernel_kind().unwrap().clock_period(),
            Some(500)
        );
        let trans = g.node_by_name("Trans").unwrap();
        assert!(g.control_port(trans).is_some());
        assert_eq!(g.data_input_channels(trans).count(), 4);
    }

    #[test]
    fn expected_selection_follows_deadline() {
        // 500 ms deadline: Prewitt (473? no — 522 > 500) … the paper's
        // table gives Quick Mask 200, Sobel 473, Prewitt 522, Canny 1040,
        // so Sobel is the best detector finishing before 500 ms.
        let app = EdgeDetectionApp::default();
        assert_eq!(app.expected_selection(), Some(EdgeDetector::Sobel));
        // A relaxed 1200 ms deadline lets Canny win.
        let relaxed = EdgeDetectionApp::with_deadline(1200);
        assert_eq!(relaxed.expected_selection(), Some(EdgeDetector::Canny));
        // An impossible deadline selects nothing.
        let tight = EdgeDetectionApp::with_deadline(100);
        assert_eq!(tight.expected_selection(), None);
    }

    #[test]
    fn run_all_returns_every_detector() {
        let app = EdgeDetectionApp::default();
        let results = app.run_all(&test_image());
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].0, EdgeDetector::QuickMask);
        assert_eq!(results[3].0, EdgeDetector::Canny);
    }

    #[test]
    fn canny_is_less_noisy_than_quick_mask() {
        // Quality proxy: on a noisy synthetic image the Canny detector
        // marks fewer spurious pixels than the bare Quick Mask filter.
        let img = GrayImage::synthetic(128, 128, 11);
        let quick = quick_mask(&img).fraction_above(200.0);
        let canny = canny(&img).fraction_above(200.0);
        assert!(canny <= quick, "canny={canny}, quick={quick}");
    }
}
