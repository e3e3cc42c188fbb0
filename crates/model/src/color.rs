//! Colors (job categories) and the table of per-color delay bounds.

use std::fmt;

/// A job category. The paper calls these *colors*; every job and every
/// configured resource carries one.
///
/// `ColorId` is a dense index into a [`ColorTable`]. The "consistent order
/// of colors" the paper uses for tie-breaking is ascending `ColorId`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColorId(pub u32);

impl ColorId {
    /// The color's dense index, usable directly as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The pseudo-color of an unconfigured resource. All resources start black;
/// a black resource executes nothing. `BLACK` is not a member of any
/// [`ColorTable`] and no job may carry it.
pub const BLACK: Option<ColorId> = None;

/// Per-color metadata. Today this is only the delay bound; the struct exists
/// so extensions (weighted drop costs, per-color reconfiguration costs) have
/// an obvious home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColorInfo {
    /// The delay bound `D_ℓ` (a positive integer; the core theorems require
    /// a power of two, which [`crate::classify`] checks separately).
    pub delay_bound: u64,
}

/// The set of colors of an instance together with their delay bounds.
///
/// Color tables are append-only: reductions such as *Distribute* mint fresh
/// sub-colors on the fly and push them here.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColorTable {
    infos: Vec<ColorInfo>,
}

impl ColorTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table from a list of delay bounds; color `i` gets
    /// `bounds[i]`.
    ///
    /// # Panics
    /// Panics if any bound is zero.
    pub fn from_bounds(bounds: &[u64]) -> Self {
        let mut t = Self::new();
        for &b in bounds {
            t.push(b);
        }
        t
    }

    /// Append a new color with the given delay bound and return its id.
    ///
    /// # Panics
    /// Panics if `delay_bound == 0` or the table would exceed `u32::MAX`
    /// colors.
    pub fn push(&mut self, delay_bound: u64) -> ColorId {
        assert!(delay_bound > 0, "delay bounds are positive integers");
        let id = u32::try_from(self.infos.len()).expect("too many colors");
        self.infos.push(ColorInfo { delay_bound });
        ColorId(id)
    }

    /// Number of colors.
    #[inline]
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the table has no colors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// The delay bound `D_ℓ` of a color.
    ///
    /// # Panics
    /// Panics if the color is not in the table.
    #[inline]
    pub fn delay_bound(&self, c: ColorId) -> u64 {
        self.infos[c.index()].delay_bound
    }

    /// The delay bound, or `None` for an unknown color.
    #[inline]
    pub fn try_delay_bound(&self, c: ColorId) -> Option<u64> {
        self.infos.get(c.index()).map(|i| i.delay_bound)
    }

    /// Whether a color is present.
    #[inline]
    pub fn contains(&self, c: ColorId) -> bool {
        c.index() < self.infos.len()
    }

    /// Iterate over all `(color, delay_bound)` pairs in consistent
    /// (ascending id) order.
    pub fn iter(&self) -> impl Iterator<Item = (ColorId, u64)> + '_ {
        self.infos.iter().enumerate().map(|(i, info)| (ColorId(i as u32), info.delay_bound))
    }

    /// All color ids in consistent order.
    pub fn ids(&self) -> impl Iterator<Item = ColorId> + '_ {
        (0..self.infos.len() as u32).map(ColorId)
    }

    /// The largest delay bound, or 0 for an empty table.
    pub fn max_bound(&self) -> u64 {
        self.infos.iter().map(|i| i.delay_bound).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_dense_ids() {
        let mut t = ColorTable::new();
        assert_eq!(t.push(4), ColorId(0));
        assert_eq!(t.push(8), ColorId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.delay_bound(ColorId(0)), 4);
        assert_eq!(t.delay_bound(ColorId(1)), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bound_rejected() {
        ColorTable::new().push(0);
    }

    #[test]
    fn from_bounds_round_trips() {
        let t = ColorTable::from_bounds(&[1, 2, 4]);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(ColorId(0), 1), (ColorId(1), 2), (ColorId(2), 4)]);
    }

    #[test]
    fn max_bound_is_the_largest_bound() {
        let t = ColorTable::from_bounds(&[8, 2, 8, 4, 2]);
        assert_eq!(t.max_bound(), 8);
    }

    #[test]
    fn try_delay_bound_handles_unknown() {
        let t = ColorTable::from_bounds(&[2]);
        assert_eq!(t.try_delay_bound(ColorId(0)), Some(2));
        assert_eq!(t.try_delay_bound(ColorId(7)), None);
        assert!(t.contains(ColorId(0)));
        assert!(!t.contains(ColorId(7)));
    }

    #[test]
    fn color_ordering_is_consistent_order() {
        assert!(ColorId(0) < ColorId(1));
        let t = ColorTable::from_bounds(&[2, 2, 2]);
        let ids: Vec<_> = t.ids().collect();
        assert_eq!(ids, vec![ColorId(0), ColorId(1), ColorId(2)]);
    }

    #[test]
    fn empty_table() {
        let t = ColorTable::new();
        assert!(t.is_empty());
        assert_eq!(t.max_bound(), 0);
    }
}
