//! The AOD multi-tweezer move primitive.
//!
//! A 2D acousto-optic deflector generates one movable tweezer at every
//! intersection of its selected row and column RF tones (paper §II-B).
//! Selecting rows `{x1, x2}` and columns `{y1, y2}` therefore traps *all
//! four* sites `(x1,y1), (x1,y2), (x2,y1), (x2,y2)` — the cross-product
//! constraint — and every trapped atom moves together by the same
//! displacement. [`ParallelMove`] models exactly this primitive; schedules
//! are sequences of such moves.

use std::fmt;

use crate::geometry::{Axis, Direction, Position};

/// One simultaneous multi-atom AOD move.
///
/// The AOD selects the cross product `rows x cols`; every **occupied**
/// selected site is picked up and translated by `delta = (dr, dc)`.
/// Planners must ensure every atom caught in the cross product is one they
/// intend to move (see [`crate::aod`] for batching mover sets into such
/// moves).
///
/// ```
/// use qrm_core::moves::ParallelMove;
///
/// // Shift atoms in rows {1,3} at columns {4,5} one site west.
/// let mv = ParallelMove::new(vec![1, 3], vec![4, 5], 0, -1)?;
/// assert_eq!(mv.trap_count(), 4);
/// assert_eq!(mv.step(), 1);
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ParallelMove {
    rows: Vec<usize>,
    cols: Vec<usize>,
    dr: isize,
    dc: isize,
}

impl ParallelMove {
    /// Creates a move from selected rows/columns (deduplicated, sorted)
    /// and an integer displacement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NullMove`](crate::Error::NullMove) for a zero
    /// displacement and [`Error::EmptyGrid`](crate::Error::EmptyGrid) when
    /// either selection is empty.
    pub fn new(
        mut rows: Vec<usize>,
        mut cols: Vec<usize>,
        dr: isize,
        dc: isize,
    ) -> Result<Self, crate::Error> {
        if rows.is_empty() || cols.is_empty() {
            return Err(crate::Error::EmptyGrid);
        }
        if dr == 0 && dc == 0 {
            return Err(crate::Error::NullMove { move_index: 0 });
        }
        rows.sort_unstable();
        rows.dedup();
        cols.sort_unstable();
        cols.dedup();
        Ok(ParallelMove { rows, cols, dr, dc })
    }

    /// Convenience constructor for a single-atom move (one row, one col).
    ///
    /// # Errors
    ///
    /// Same as [`ParallelMove::new`].
    pub fn single(from: Position, dr: isize, dc: isize) -> Result<Self, crate::Error> {
        ParallelMove::new(vec![from.row], vec![from.col], dr, dc)
    }

    /// Selected AOD row tones (sorted, deduplicated).
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Selected AOD column tones (sorted, deduplicated).
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Displacement `(dr, dc)` applied to every trapped atom.
    pub const fn delta(&self) -> (isize, isize) {
        (self.dr, self.dc)
    }

    /// Number of trap sites generated (`|rows| * |cols|`); occupied ones
    /// actually move.
    pub fn trap_count(&self) -> usize {
        self.rows.len() * self.cols.len()
    }

    /// Chebyshev step size of the displacement (1 for the unit shifts the
    /// QRM schedule uses).
    pub fn step(&self) -> usize {
        self.dr.unsigned_abs().max(self.dc.unsigned_abs())
    }

    /// Whether the displacement is axis-aligned.
    pub const fn is_axis_aligned(&self) -> bool {
        self.dr == 0 || self.dc == 0
    }

    /// The movement axis, when axis-aligned.
    pub const fn axis(&self) -> Option<Axis> {
        match (self.dr, self.dc) {
            (0, 0) => None,
            (0, _) => Some(Axis::Row),
            (_, 0) => Some(Axis::Col),
            _ => None,
        }
    }

    /// The compass direction, when axis-aligned.
    ///
    /// ```
    /// use qrm_core::moves::ParallelMove;
    /// use qrm_core::geometry::Direction;
    /// let mv = ParallelMove::new(vec![0], vec![1], -2, 0)?;
    /// assert_eq!(mv.direction(), Some(Direction::North));
    /// # Ok::<(), qrm_core::Error>(())
    /// ```
    pub const fn direction(&self) -> Option<Direction> {
        match (self.dr, self.dc) {
            (0, 0) => None,
            (0, dc) => Some(if dc > 0 {
                Direction::East
            } else {
                Direction::West
            }),
            (dr, 0) => Some(if dr > 0 {
                Direction::South
            } else {
                Direction::North
            }),
            _ => None,
        }
    }

    /// Whether `pos` is one of the generated trap sites.
    pub fn selects(&self, pos: Position) -> bool {
        self.rows.binary_search(&pos.row).is_ok() && self.cols.binary_search(&pos.col).is_ok()
    }

    /// Iterates over all generated trap sites (row-major).
    pub fn trap_sites(&self) -> impl Iterator<Item = Position> + '_ {
        self.rows
            .iter()
            .flat_map(move |&r| self.cols.iter().map(move |&c| Position::new(r, c)))
    }
}

impl fmt::Display for ParallelMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "move {}r x {}c by ({:+}, {:+})",
            self.rows.len(),
            self.cols.len(),
            self.dr,
            self.dc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let mv = ParallelMove::new(vec![3, 1, 3], vec![5, 5, 4], 0, 1).unwrap();
        assert_eq!(mv.rows(), &[1, 3]);
        assert_eq!(mv.cols(), &[4, 5]);
        assert_eq!(mv.trap_count(), 4);
    }

    #[test]
    fn rejects_null_and_empty() {
        assert!(ParallelMove::new(vec![1], vec![1], 0, 0).is_err());
        assert!(ParallelMove::new(vec![], vec![1], 0, 1).is_err());
        assert!(ParallelMove::new(vec![1], vec![], 0, 1).is_err());
    }

    #[test]
    fn direction_and_axis() {
        let west = ParallelMove::new(vec![0], vec![3], 0, -1).unwrap();
        assert_eq!(west.direction(), Some(Direction::West));
        assert_eq!(west.axis(), Some(Axis::Row));
        assert_eq!(west.step(), 1);
        let south2 = ParallelMove::new(vec![0], vec![3], 2, 0).unwrap();
        assert_eq!(south2.direction(), Some(Direction::South));
        assert_eq!(south2.step(), 2);
        let diag = ParallelMove::new(vec![0], vec![3], 1, 1).unwrap();
        assert_eq!(diag.direction(), None);
        assert_eq!(diag.axis(), None);
        assert!(!diag.is_axis_aligned());
    }

    #[test]
    fn selects_cross_product() {
        let mv = ParallelMove::new(vec![1, 3], vec![2, 4], 0, -1).unwrap();
        assert!(mv.selects(Position::new(1, 2)));
        assert!(mv.selects(Position::new(3, 4)));
        assert!(mv.selects(Position::new(1, 4)));
        assert!(!mv.selects(Position::new(2, 2)));
        assert!(!mv.selects(Position::new(1, 3)));
        assert_eq!(mv.trap_sites().count(), 4);
    }

    #[test]
    fn single_constructor() {
        let mv = ParallelMove::single(Position::new(2, 5), -1, 0).unwrap();
        assert_eq!(mv.rows(), &[2]);
        assert_eq!(mv.cols(), &[5]);
        assert_eq!(mv.trap_count(), 1);
    }

    #[test]
    fn display_forms() {
        let mv = ParallelMove::new(vec![1, 2], vec![3], 0, -1).unwrap();
        assert_eq!(mv.to_string(), "move 2r x 1c by (+0, -1)");
    }
}
