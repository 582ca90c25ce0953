//! Parameter bindings (environments) for evaluating symbolic expressions.

use std::collections::BTreeMap;
use std::fmt;

/// A mapping from parameter names to concrete integer values.
///
/// In TPDF, integer parameters (such as `p` in Figure 2 or `β`, `M`, `N`,
/// `L` in the OFDM case study) are set at run time but remain constant
/// during one iteration of the graph. A `Binding` captures one such
/// configuration so that symbolic repetition vectors, rates and buffer
/// formulas can be evaluated to concrete integers.
///
/// # Examples
///
/// ```
/// use tpdf_symexpr::Binding;
///
/// let mut b = Binding::new();
/// b.set("p", 4);
/// assert_eq!(b.get("p"), Some(4));
/// assert_eq!(b.get("q"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Binding {
    values: BTreeMap<String, i64>,
}

impl Binding {
    /// Creates an empty binding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a binding from an iterator of `(name, value)` pairs.
    ///
    /// # Examples
    ///
    /// ```
    /// use tpdf_symexpr::Binding;
    /// let b = Binding::from_pairs([("N", 512), ("L", 1)]);
    /// assert_eq!(b.get("N"), Some(512));
    /// ```
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, i64)>,
        S: Into<String>,
    {
        let mut b = Binding::new();
        for (name, value) in pairs {
            b.set(name, value);
        }
        b
    }

    /// Sets the value of a parameter, returning the previous value if any.
    pub fn set<S: Into<String>>(&mut self, name: S, value: i64) -> Option<i64> {
        self.values.insert(name.into(), value)
    }

    /// Returns the value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }

    /// Returns `true` if `name` is bound.
    pub fn contains(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Removes a parameter from the binding, returning its value if it
    /// was present.
    pub fn remove(&mut self, name: &str) -> Option<i64> {
        self.values.remove(name)
    }

    /// Returns the number of bound parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no parameter is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another binding into this one; values from `other` win on
    /// conflicts.
    pub fn merge(&mut self, other: &Binding) {
        for (k, v) in other.iter() {
            self.set(k, v);
        }
    }
}

impl<S: Into<String>> FromIterator<(S, i64)> for Binding {
    fn from_iter<T: IntoIterator<Item = (S, i64)>>(iter: T) -> Self {
        Binding::from_pairs(iter)
    }
}

impl<S: Into<String>> Extend<(S, i64)> for Binding {
    fn extend<T: IntoIterator<Item = (S, i64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.set(k, v);
        }
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut b = Binding::new();
        assert!(b.is_empty());
        assert_eq!(b.set("p", 3), None);
        assert_eq!(b.set("p", 5), Some(3));
        assert_eq!(b.get("p"), Some(5));
        assert!(b.contains("p"));
        assert_eq!(b.len(), 1);
        assert_eq!(b.remove("p"), Some(5));
        assert!(b.get("p").is_none());
    }

    #[test]
    fn from_pairs_and_collect() {
        let b = Binding::from_pairs([("a", 1), ("b", 2)]);
        assert_eq!(b.len(), 2);
        let c: Binding = [("x", 9)].into_iter().collect();
        assert_eq!(c.get("x"), Some(9));
    }

    #[test]
    fn merge_and_extend() {
        let mut a = Binding::from_pairs([("p", 1), ("q", 2)]);
        let b = Binding::from_pairs([("q", 3), ("r", 4)]);
        a.merge(&b);
        assert_eq!(a.get("q"), Some(3));
        assert_eq!(a.get("r"), Some(4));
        a.extend([("s", 5)]);
        assert_eq!(a.get("s"), Some(5));
    }

    #[test]
    fn display_is_sorted() {
        let b = Binding::from_pairs([("z", 1), ("a", 2)]);
        assert_eq!(b.to_string(), "{a=2, z=1}");
    }
}
