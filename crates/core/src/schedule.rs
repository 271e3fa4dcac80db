//! Rearrangement schedules and their statistics.
//!
//! A [`Schedule`] is the planner's output contract: the ordered list of
//! [`ParallelMove`]s handed to the AWG for pulse generation (paper Fig. 1).
//! [`ScheduleStats`] summarises parallelism; [`MotionModel`] converts a
//! schedule into estimated *physical* tweezer time (distinct from the
//! *analysis* time the paper accelerates).

use std::fmt;

use crate::geometry::Direction;
use crate::moves::ParallelMove;

/// An ordered sequence of parallel AOD moves over an `height x width`
/// array.
///
/// ```
/// use qrm_core::schedule::Schedule;
/// use qrm_core::moves::ParallelMove;
///
/// let mut s = Schedule::new(8, 8);
/// s.push(ParallelMove::new(vec![0, 1], vec![3], 0, -1)?);
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.stats().max_traps, 2);
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    height: usize,
    width: usize,
    moves: Vec<ParallelMove>,
}

impl Schedule {
    /// Creates an empty schedule for an `height x width` array.
    pub fn new(height: usize, width: usize) -> Self {
        Schedule {
            height,
            width,
            moves: Vec::new(),
        }
    }

    /// Array height this schedule addresses.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Array width this schedule addresses.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Appends a move.
    pub fn push(&mut self, mv: ParallelMove) {
        self.moves.push(mv);
    }

    /// Number of parallel moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the schedule contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// The moves in execution order.
    pub fn moves(&self) -> &[ParallelMove] {
        &self.moves
    }

    /// Iterates over the moves in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, ParallelMove> {
        self.moves.iter()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> ScheduleStats {
        let mut stats = ScheduleStats {
            num_moves: self.moves.len(),
            ..ScheduleStats::default()
        };
        for mv in &self.moves {
            let traps = mv.trap_count();
            stats.total_traps += traps;
            stats.max_traps = stats.max_traps.max(traps);
            stats.total_steps += mv.step();
            match mv.direction() {
                Some(Direction::North) => stats.north_moves += 1,
                Some(Direction::South) => stats.south_moves += 1,
                Some(Direction::East) => stats.east_moves += 1,
                Some(Direction::West) => stats.west_moves += 1,
                None => stats.diagonal_moves += 1,
            }
        }
        stats
    }

    /// Estimated physical duration under `model` (µs).
    pub fn physical_duration_us(&self, model: &MotionModel) -> f64 {
        self.moves.iter().map(|m| model.move_duration_us(m)).sum()
    }
}

impl Extend<ParallelMove> for Schedule {
    fn extend<T: IntoIterator<Item = ParallelMove>>(&mut self, iter: T) {
        self.moves.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Schedule {
    type Item = &'a ParallelMove;
    type IntoIter = std::slice::Iter<'a, ParallelMove>;
    fn into_iter(self) -> Self::IntoIter {
        self.moves.iter()
    }
}

impl IntoIterator for Schedule {
    type Item = ParallelMove;
    type IntoIter = std::vec::IntoIter<ParallelMove>;
    fn into_iter(self) -> Self::IntoIter {
        self.moves.into_iter()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule for {}x{} array, {} moves:",
            self.height,
            self.width,
            self.moves.len()
        )?;
        for (i, mv) in self.moves.iter().enumerate() {
            writeln!(f, "  [{i:4}] {mv}")?;
        }
        Ok(())
    }
}

/// Summary statistics of a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ScheduleStats {
    /// Number of parallel moves (AWG commands).
    pub num_moves: usize,
    /// Sum of trap sites over all moves.
    pub total_traps: usize,
    /// Largest single-move trap count (peak parallelism).
    pub max_traps: usize,
    /// Sum of step sizes (unit-shift schedules: equals `num_moves`).
    pub total_steps: usize,
    /// Moves heading north.
    pub north_moves: usize,
    /// Moves heading south.
    pub south_moves: usize,
    /// Moves heading east.
    pub east_moves: usize,
    /// Moves heading west.
    pub west_moves: usize,
    /// Non-axis-aligned moves.
    pub diagonal_moves: usize,
}

impl ScheduleStats {
    /// Mean trap sites per move (0 for an empty schedule).
    pub fn mean_traps(&self) -> f64 {
        if self.num_moves == 0 {
            0.0
        } else {
            self.total_traps as f64 / self.num_moves as f64
        }
    }
}

impl fmt::Display for ScheduleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} moves (N/S/E/W {}/{}/{}/{}), traps total {} max {} mean {:.1}",
            self.num_moves,
            self.north_moves,
            self.south_moves,
            self.east_moves,
            self.west_moves,
            self.total_traps,
            self.max_traps,
            self.mean_traps()
        )
    }
}

/// Physical timing model for tweezer motion.
///
/// Literature values for AOD transport: pickup/handoff ramps of a few
/// hundred µs total and inter-site transport of tens of µs per site
/// (Barredo et al. 2016, Ebadi et al. 2021). Defaults follow those orders
/// of magnitude; experiments can override every field.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MotionModel {
    /// Time to ramp tweezers on and pick atoms up, per move (µs).
    pub pickup_us: f64,
    /// Transport time per lattice site of displacement (µs).
    pub per_site_us: f64,
    /// Time to hand atoms back to the static traps, per move (µs).
    pub dropoff_us: f64,
}

impl MotionModel {
    /// Literature-typical defaults: 100 µs pickup, 50 µs/site, 100 µs
    /// drop-off.
    pub const fn typical() -> Self {
        MotionModel {
            pickup_us: 100.0,
            per_site_us: 50.0,
            dropoff_us: 100.0,
        }
    }

    /// Duration of a single parallel move (µs). Parallelism is free: all
    /// trapped atoms ride the same ramp.
    pub fn move_duration_us(&self, mv: &ParallelMove) -> f64 {
        self.pickup_us + self.per_site_us * mv.step() as f64 + self.dropoff_us
    }
}

impl Default for MotionModel {
    fn default() -> Self {
        MotionModel::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(rows: Vec<usize>, cols: Vec<usize>, dr: isize, dc: isize) -> ParallelMove {
        ParallelMove::new(rows, cols, dr, dc).unwrap()
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Schedule::new(8, 8);
        s.push(mv(vec![0, 1, 2], vec![3], 0, -1)); // west, 3 traps
        s.push(mv(vec![4], vec![5, 6], 1, 0)); // south, 2 traps
        s.push(mv(vec![4], vec![5], -2, 0)); // north, step 2
        let st = s.stats();
        assert_eq!(st.num_moves, 3);
        assert_eq!(st.total_traps, 6);
        assert_eq!(st.max_traps, 3);
        assert_eq!(st.total_steps, 4);
        assert_eq!(
            (st.north_moves, st.south_moves, st.east_moves, st.west_moves),
            (1, 1, 0, 1)
        );
        assert!((st.mean_traps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new(4, 4);
        assert!(s.is_empty());
        assert_eq!(s.stats(), ScheduleStats::default());
        assert_eq!(s.stats().mean_traps(), 0.0);
        assert_eq!(s.physical_duration_us(&MotionModel::typical()), 0.0);
    }

    #[test]
    fn physical_duration() {
        let mut s = Schedule::new(8, 8);
        s.push(mv(vec![0], vec![1], 0, -1)); // 100 + 50 + 100
        s.push(mv(vec![0], vec![3], 0, -3)); // 100 + 150 + 100
        let model = MotionModel::typical();
        assert!((s.physical_duration_us(&model) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_and_extend() {
        let mut s = Schedule::new(4, 4);
        s.extend([mv(vec![0], vec![1], 0, 1), mv(vec![1], vec![2], 1, 0)]);
        assert_eq!(s.iter().count(), 2);
        assert_eq!((&s).into_iter().count(), 2);
        let owned: Vec<_> = s.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        assert_eq!(s.moves().len(), 2);
    }

    #[test]
    fn display_contains_moves() {
        let mut s = Schedule::new(4, 4);
        s.push(mv(vec![0], vec![1], 0, 1));
        let text = s.to_string();
        assert!(text.contains("4x4"));
        assert!(text.contains("move 1r x 1c"));
    }
}
