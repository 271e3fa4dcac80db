//! Error types shared by the whole workspace.

use std::fmt;

use crate::geometry::Position;

/// Error type for all fallible operations in [`qrm-core`](crate).
///
/// All variants are cheap to construct and carry the data a caller needs to
/// diagnose the failure programmatically.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A grid dimension was zero or otherwise unusable.
    EmptyGrid,
    /// Quadrant decomposition requires even width and height.
    OddDimensions {
        /// Grid width that was rejected.
        width: usize,
        /// Grid height that was rejected.
        height: usize,
    },
    /// Two grids that must have identical dimensions did not.
    DimensionMismatch {
        /// Dimensions of the first operand, `(height, width)`.
        left: (usize, usize),
        /// Dimensions of the second operand, `(height, width)`.
        right: (usize, usize),
    },
    /// A position lies outside the grid.
    OutOfBounds {
        /// The offending position.
        pos: Position,
        /// Grid height.
        height: usize,
        /// Grid width.
        width: usize,
    },
    /// A rectangle does not fit inside the grid it is applied to.
    RectOutOfBounds {
        /// Rectangle origin row.
        row: usize,
        /// Rectangle origin column.
        col: usize,
        /// Rectangle height.
        rect_height: usize,
        /// Rectangle width.
        rect_width: usize,
        /// Grid height.
        height: usize,
        /// Grid width.
        width: usize,
    },
    /// The requested target cannot fit in the array or is degenerate.
    InvalidTarget {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The loaded array does not contain enough atoms to fill the target.
    InsufficientAtoms {
        /// Atoms available in the array.
        available: usize,
        /// Atoms the target requires.
        required: usize,
    },
    /// A move would push an atom outside the array.
    MoveOutOfBounds {
        /// Index of the offending move within its schedule.
        move_index: usize,
    },
    /// A move is not axis-aligned: the executor moves atoms along one
    /// axis at a time.
    DiagonalMove {
        /// Index of the offending move within its schedule.
        move_index: usize,
    },
    /// A move with zero displacement was rejected.
    NullMove {
        /// Index of the offending move within its schedule.
        move_index: usize,
    },
    /// Executing a move would land a trapped atom on a stationary atom.
    Collision {
        /// Index of the offending move within its schedule.
        move_index: usize,
        /// Site where the collision happens.
        site: Position,
    },
    /// A multi-step move would sweep a trapped atom through a stationary
    /// atom.
    PathBlocked {
        /// Index of the offending move within its schedule.
        move_index: usize,
        /// Occupied site on the transit path.
        site: Position,
    },
    /// A serialized artifact could not be parsed.
    Parse {
        /// Human-readable reason.
        reason: String,
    },
    /// A workload specification parameter is semantically invalid.
    InvalidSpec {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A replayed move trace contradicts the occupancy it is applied
    /// to (see [`TraceReplayer`](crate::trace::TraceReplayer)).
    TraceMismatch {
        /// Replay round index.
        round: usize,
        /// Move index within the round.
        move_index: usize,
        /// Site where the trace and the grid state disagree.
        site: Position,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyGrid => write!(f, "grid has zero width or height"),
            Error::OddDimensions { width, height } => write!(
                f,
                "quadrant decomposition requires even dimensions, got {height}x{width}"
            ),
            Error::DimensionMismatch { left, right } => write!(
                f,
                "grid dimensions differ: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            Error::OutOfBounds { pos, height, width } => write!(
                f,
                "position ({}, {}) outside {height}x{width} grid",
                pos.row, pos.col
            ),
            Error::RectOutOfBounds {
                row,
                col,
                rect_height,
                rect_width,
                height,
                width,
            } => write!(
                f,
                "rect {rect_height}x{rect_width}@({row},{col}) outside {height}x{width} grid"
            ),
            Error::InvalidTarget { reason } => write!(f, "invalid target: {reason}"),
            Error::InsufficientAtoms {
                available,
                required,
            } => write!(
                f,
                "not enough atoms loaded: {available} available, {required} required"
            ),
            Error::MoveOutOfBounds { move_index } => {
                write!(f, "move {move_index} pushes an atom out of bounds")
            }
            Error::DiagonalMove { move_index } => {
                write!(f, "move {move_index} is not axis-aligned")
            }
            Error::NullMove { move_index } => {
                write!(f, "move {move_index} has zero displacement")
            }
            Error::Collision { move_index, site } => write!(
                f,
                "move {move_index} collides with a stationary atom at ({}, {})",
                site.row, site.col
            ),
            Error::PathBlocked { move_index, site } => write!(
                f,
                "move {move_index} sweeps through a stationary atom at ({}, {})",
                site.row, site.col
            ),
            Error::Parse { reason } => write!(f, "parse error: {reason}"),
            Error::InvalidSpec { reason } => write!(f, "invalid spec: {reason}"),
            Error::TraceMismatch {
                round,
                move_index,
                site,
            } => write!(
                f,
                "trace replay mismatch at round {round} move {move_index} site ({}, {})",
                site.row, site.col
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let samples = [
            Error::EmptyGrid,
            Error::OddDimensions {
                width: 3,
                height: 5,
            },
            Error::InsufficientAtoms {
                available: 1,
                required: 2,
            },
            Error::Collision {
                move_index: 4,
                site: Position::new(1, 2),
            },
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }
}
