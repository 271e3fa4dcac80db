//! Positions, rectangles, axes, movement directions and quadrant
//! identifiers.
//!
//! Grids are indexed `(row, col)`; row 0 is the **north** (top) edge,
//! column 0 the **west** (left) edge.

use std::fmt;

use crate::error::Error;

/// A trap site in a 2D optical-trap array.
///
/// ```
/// use qrm_core::geometry::Position;
/// let p = Position::new(3, 7);
/// assert_eq!((p.row, p.col), (3, 7));
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Position {
    /// Row index (0 = north edge).
    pub row: usize,
    /// Column index (0 = west edge).
    pub col: usize,
}

impl Position {
    /// Creates a position from row and column indices.
    pub const fn new(row: usize, col: usize) -> Self {
        Position { row, col }
    }

    /// Returns the position displaced by `(dr, dc)`, or `None` when the
    /// displacement would leave the non-negative index range.
    ///
    /// ```
    /// use qrm_core::geometry::Position;
    /// assert_eq!(Position::new(1, 1).offset(-1, 2), Some(Position::new(0, 3)));
    /// assert_eq!(Position::new(0, 0).offset(-1, 0), None);
    /// ```
    pub fn offset(self, dr: isize, dc: isize) -> Option<Self> {
        let row = self.row.checked_add_signed(dr)?;
        let col = self.col.checked_add_signed(dc)?;
        Some(Position { row, col })
    }

    /// Manhattan distance to another position.
    pub fn manhattan(self, other: Position) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

impl From<(usize, usize)> for Position {
    fn from((row, col): (usize, usize)) -> Self {
        Position { row, col }
    }
}

/// A grid axis.
///
/// `Row` means "along a row" (horizontal motion changes the column);
/// `Col` means "along a column" (vertical motion changes the row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Axis {
    /// Horizontal: positions along a row, indexed by column.
    Row,
    /// Vertical: positions along a column, indexed by row.
    Col,
}

impl Axis {
    /// The other axis.
    pub const fn orthogonal(self) -> Axis {
        match self {
            Axis::Row => Axis::Col,
            Axis::Col => Axis::Row,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Row => write!(f, "row"),
            Axis::Col => write!(f, "col"),
        }
    }
}

/// A compass movement direction for atoms.
///
/// `North` decreases the row index, `West` decreases the column index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Direction {
    /// Toward row 0.
    North,
    /// Toward the last row.
    South,
    /// Toward the last column.
    East,
    /// Toward column 0.
    West,
}

impl Direction {
    /// All four directions.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// Unit displacement `(dr, dc)` of this direction.
    ///
    /// ```
    /// use qrm_core::geometry::Direction;
    /// assert_eq!(Direction::North.delta(), (-1, 0));
    /// assert_eq!(Direction::East.delta(), (0, 1));
    /// ```
    pub const fn delta(self) -> (isize, isize) {
        match self {
            Direction::North => (-1, 0),
            Direction::South => (1, 0),
            Direction::East => (0, 1),
            Direction::West => (0, -1),
        }
    }

    /// The axis along which this direction moves atoms.
    ///
    /// East/west motion happens along rows, north/south along columns.
    pub const fn axis(self) -> Axis {
        match self {
            Direction::East | Direction::West => Axis::Row,
            Direction::North | Direction::South => Axis::Col,
        }
    }

    /// The opposite direction.
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "north",
            Direction::South => "south",
            Direction::East => "east",
            Direction::West => "west",
        };
        write!(f, "{s}")
    }
}

/// An axis-aligned rectangle of trap sites, `height x width` at origin
/// `(row, col)` (inclusive origin, exclusive far edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Rect {
    /// Origin row (north edge of the rect).
    pub row: usize,
    /// Origin column (west edge of the rect).
    pub col: usize,
    /// Number of rows.
    pub height: usize,
    /// Number of columns.
    pub width: usize,
}

impl Rect {
    /// Creates a rectangle from origin and extent.
    pub const fn new(row: usize, col: usize, height: usize, width: usize) -> Self {
        Rect {
            row,
            col,
            height,
            width,
        }
    }

    /// A `target_h x target_w` rectangle centred in a `grid_h x grid_w`
    /// array (the paper's standard target placement, §III-A: "the target
    /// area is typically located in the center").
    ///
    /// When the slack is odd the extra site goes to the south/east side.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the target is degenerate or
    /// does not fit.
    ///
    /// ```
    /// use qrm_core::geometry::Rect;
    /// let r = Rect::centered(8, 8, 4, 4)?;
    /// assert_eq!(r, Rect::new(2, 2, 4, 4));
    /// # Ok::<(), qrm_core::Error>(())
    /// ```
    pub fn centered(
        grid_h: usize,
        grid_w: usize,
        target_h: usize,
        target_w: usize,
    ) -> Result<Self, Error> {
        if target_h == 0 || target_w == 0 {
            return Err(Error::InvalidTarget {
                reason: "target has zero extent",
            });
        }
        if target_h > grid_h || target_w > grid_w {
            return Err(Error::InvalidTarget {
                reason: "target larger than array",
            });
        }
        Ok(Rect {
            row: (grid_h - target_h) / 2,
            col: (grid_w - target_w) / 2,
            height: target_h,
            width: target_w,
        })
    }

    /// Number of sites in the rectangle.
    pub const fn area(&self) -> usize {
        self.height * self.width
    }

    /// Exclusive south edge (one past the last row).
    pub const fn row_end(&self) -> usize {
        self.row + self.height
    }

    /// Exclusive east edge (one past the last column).
    pub const fn col_end(&self) -> usize {
        self.col + self.width
    }

    /// Whether `pos` lies inside the rectangle.
    ///
    /// ```
    /// use qrm_core::geometry::{Position, Rect};
    /// let r = Rect::new(1, 1, 2, 2);
    /// assert!(r.contains(Position::new(2, 2)));
    /// assert!(!r.contains(Position::new(3, 1)));
    /// ```
    pub const fn contains(&self, pos: Position) -> bool {
        pos.row >= self.row
            && pos.row < self.row + self.height
            && pos.col >= self.col
            && pos.col < self.col + self.width
    }

    /// Whether the rectangle fits inside a `grid_h x grid_w` array.
    pub const fn fits_in(&self, grid_h: usize, grid_w: usize) -> bool {
        self.row + self.height <= grid_h && self.col + self.width <= grid_w
    }

    /// Iterates over all positions in the rectangle in row-major order.
    pub fn positions(&self) -> impl Iterator<Item = Position> + '_ {
        let r0 = self.row;
        let c0 = self.col;
        let w = self.width;
        (0..self.area()).map(move |i| Position::new(r0 + i / w, c0 + i % w))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}@({},{})",
            self.height, self.width, self.row, self.col
        )
    }
}

/// Identifier of one of the four array quadrants (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum QuadrantId {
    /// North-west: rows `0..H/2`, cols `0..W/2`.
    Nw,
    /// North-east: rows `0..H/2`, cols `W/2..W`.
    Ne,
    /// South-west: rows `H/2..H`, cols `0..W/2`.
    Sw,
    /// South-east: rows `H/2..H`, cols `W/2..W`.
    Se,
}

impl QuadrantId {
    /// All four quadrants, in `[Nw, Ne, Sw, Se]` order.
    pub const ALL: [QuadrantId; 4] = [
        QuadrantId::Nw,
        QuadrantId::Ne,
        QuadrantId::Sw,
        QuadrantId::Se,
    ];

    /// Whether the quadrant lies in the northern half.
    pub const fn is_north(self) -> bool {
        matches!(self, QuadrantId::Nw | QuadrantId::Ne)
    }

    /// Whether the quadrant lies in the western half.
    pub const fn is_west(self) -> bool {
        matches!(self, QuadrantId::Nw | QuadrantId::Sw)
    }

    /// Global movement direction corresponding to canonical "toward column
    /// 0" motion in this quadrant (horizontal compression toward the array
    /// centre).
    ///
    /// West-side quadrants compress east, east-side quadrants compress
    /// west — this is the pairing the paper's Row Combination Unit merges
    /// (§IV-C: "the shifts of the NW and SW quadrants \[...\] contain the
    /// same shifts for the most central column from the west").
    pub const fn horizontal_compression(self) -> Direction {
        if self.is_west() {
            Direction::East
        } else {
            Direction::West
        }
    }

    /// Global movement direction corresponding to canonical "toward row 0"
    /// motion in this quadrant (vertical compression toward the centre).
    pub const fn vertical_compression(self) -> Direction {
        if self.is_north() {
            Direction::South
        } else {
            Direction::North
        }
    }
}

impl fmt::Display for QuadrantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuadrantId::Nw => "NW",
            QuadrantId::Ne => "NE",
            QuadrantId::Sw => "SW",
            QuadrantId::Se => "SE",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_offset_saturates_to_none() {
        assert_eq!(Position::new(0, 5).offset(-1, 0), None);
        assert_eq!(Position::new(5, 0).offset(0, -1), None);
        assert_eq!(Position::new(2, 2).offset(3, -2), Some(Position::new(5, 0)));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Position::new(0, 0).manhattan(Position::new(3, 4)), 7);
        assert_eq!(Position::new(3, 4).manhattan(Position::new(0, 0)), 7);
        assert_eq!(Position::new(1, 1).manhattan(Position::new(1, 1)), 0);
    }

    #[test]
    fn direction_axis_and_delta_agree() {
        for d in Direction::ALL {
            let (dr, dc) = d.delta();
            match d.axis() {
                Axis::Row => {
                    assert_eq!(dr, 0);
                    assert_ne!(dc, 0);
                }
                Axis::Col => {
                    assert_ne!(dr, 0);
                    assert_eq!(dc, 0);
                }
            }
            assert_eq!(d.opposite().opposite(), d);
            let (odr, odc) = d.opposite().delta();
            assert_eq!((odr, odc), (-dr, -dc));
        }
    }

    #[test]
    fn centered_rect_even_and_odd_slack() {
        assert_eq!(Rect::centered(8, 8, 4, 4).unwrap(), Rect::new(2, 2, 4, 4));
        // odd slack: extra site south/east
        assert_eq!(Rect::centered(9, 9, 4, 4).unwrap(), Rect::new(2, 2, 4, 4));
        assert_eq!(
            Rect::centered(50, 50, 30, 30).unwrap(),
            Rect::new(10, 10, 30, 30)
        );
    }

    #[test]
    fn centered_rect_rejects_bad_targets() {
        assert!(matches!(
            Rect::centered(8, 8, 0, 4),
            Err(Error::InvalidTarget { .. })
        ));
        assert!(matches!(
            Rect::centered(8, 8, 9, 4),
            Err(Error::InvalidTarget { .. })
        ));
    }

    #[test]
    fn rect_contains_and_bounds() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.area(), 20);
        assert_eq!(r.row_end(), 6);
        assert_eq!(r.col_end(), 8);
        assert!(r.contains(Position::new(2, 3)));
        assert!(r.contains(Position::new(5, 7)));
        assert!(!r.contains(Position::new(6, 3)));
        assert!(!r.contains(Position::new(2, 8)));
        assert!(r.fits_in(6, 8));
        assert!(!r.fits_in(5, 8));
    }

    #[test]
    fn rect_positions_row_major_and_complete() {
        let r = Rect::new(1, 2, 2, 3);
        let v: Vec<Position> = r.positions().collect();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], Position::new(1, 2));
        assert_eq!(v[2], Position::new(1, 4));
        assert_eq!(v[3], Position::new(2, 2));
        assert_eq!(v[5], Position::new(2, 4));
    }

    #[test]
    fn quadrant_compression_directions() {
        use Direction::*;
        assert_eq!(QuadrantId::Nw.horizontal_compression(), East);
        assert_eq!(QuadrantId::Sw.horizontal_compression(), East);
        assert_eq!(QuadrantId::Ne.horizontal_compression(), West);
        assert_eq!(QuadrantId::Se.horizontal_compression(), West);
        assert_eq!(QuadrantId::Nw.vertical_compression(), South);
        assert_eq!(QuadrantId::Ne.vertical_compression(), South);
        assert_eq!(QuadrantId::Sw.vertical_compression(), North);
        assert_eq!(QuadrantId::Se.vertical_compression(), North);
    }

    #[test]
    fn quadrant_display_and_halves() {
        assert_eq!(QuadrantId::Nw.to_string(), "NW");
        assert!(QuadrantId::Nw.is_north() && QuadrantId::Nw.is_west());
        assert!(!QuadrantId::Se.is_north() && !QuadrantId::Se.is_west());
    }
}
