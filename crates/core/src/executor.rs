//! Schedule execution and failure injection: the workspace's one move
//! semantics.
//!
//! The [`Executor`] models the physical trap array. It applies each
//! [`ParallelMove`] with AOD semantics: every occupied site of the
//! selection cross product moves by the common displacement, all at
//! once. It is the ground truth that every planner in the workspace is
//! tested against.
//!
//! [`Executor::run`], [`Executor::run_with_loss`] and
//! [`Executor::run_with_loss_traced`] apply a move through one path,
//! whose only input besides the grid is which trapped atoms survive
//! transport. The checks run in this order, and the first failure is
//! returned with the index of the offending move:
//!
//! 1. A zero displacement is [`Error::NullMove`]; a displacement along
//!    both axes is [`Error::DiagonalMove`].
//! 2. Every trapped atom, in row-major order, must have its destination
//!    in bounds ([`Error::MoveOutOfBounds`]), survivor or not: a move
//!    that leaves the array is malformed whatever the loss draw.
//! 3. Every trapped atom is lifted. Each survivor, in row-major order,
//!    is checked against the stationary atoms only, so co-moving atoms
//!    never block each other: first landing on one
//!    ([`Error::Collision`], under [`CollisionPolicy::Fail`]), then
//!    sweeping across one ([`Error::PathBlocked`], under
//!    [`PathPolicy::Strict`]).
//! 4. The survivors land. Under [`CollisionPolicy::Eject`] a survivor
//!    that lands on a stationary atom removes both.
//!
//! RNG contract: `run` lets every trapped atom survive and draws
//! nothing. The lossy pair draw exactly one `gen_bool(loss_prob)` per
//! trapped atom, in row-major trap order, before any atom of the move
//! lands, and they do so at `loss_prob == 0.0` too. Tracing only
//! observes: the traced and untraced runs leave the caller's RNG in the
//! same state.

use rand::Rng;

use crate::error::Error;
use crate::geometry::{Position, Rect};
use crate::grid::AtomGrid;
use crate::moves::ParallelMove;
use crate::schedule::Schedule;
use crate::trace::{RoundTrace, TracedMove, Transfer};

/// How multi-step transit paths are validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathPolicy {
    /// Sweeping a trapped atom across an occupied stationary site is an
    /// error (default: a moving tweezer passing through a filled trap
    /// would eject the stationary atom).
    #[default]
    Strict,
    /// Only end positions are checked (optimistic hardware that ramps
    /// trap depth to fly over occupied sites).
    EndpointsOnly,
}

/// What happens when a moved atom lands on an occupied stationary site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollisionPolicy {
    /// Treat it as a planner bug: fail with [`Error::Collision`]
    /// (default — validated schedules never collide).
    #[default]
    Fail,
    /// Physical behaviour: a light-assisted collision ejects **both**
    /// atoms from the trap. Used when executing schedules planned on
    /// *imperfect detection data*, where occasional collisions are
    /// expected and the control loop recovers by re-imaging.
    Eject,
}

/// Validating executor for rearrangement schedules.
///
/// ```
/// use qrm_core::executor::Executor;
/// use qrm_core::grid::AtomGrid;
/// use qrm_core::moves::ParallelMove;
/// use qrm_core::schedule::Schedule;
///
/// let grid = AtomGrid::parse(".#\n..")?;
/// let mut schedule = Schedule::new(2, 2);
/// schedule.push(ParallelMove::new(vec![0], vec![1], 0, -1)?);
/// let report = Executor::new().run(&grid, &schedule)?;
/// assert_eq!(report.final_grid, AtomGrid::parse("#.\n..")?);
/// assert_eq!(report.atom_moves, 1);
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Executor {
    path_policy: PathPolicy,
    collision_policy: CollisionPolicy,
}

impl Executor {
    /// An executor with strict path checking that fails on collisions.
    pub fn new() -> Self {
        Executor::default()
    }

    /// Sets the transit-path policy.
    #[must_use]
    pub fn with_path_policy(mut self, policy: PathPolicy) -> Self {
        self.path_policy = policy;
        self
    }

    /// Sets the collision policy.
    #[must_use]
    pub fn with_collision_policy(mut self, policy: CollisionPolicy) -> Self {
        self.collision_policy = policy;
        self
    }

    /// Executes a schedule on a copy of `grid`; every trapped atom
    /// survives.
    ///
    /// # Errors
    ///
    /// Returns the first failure of the checks listed in the
    /// [module docs](self): [`Error::NullMove`], [`Error::DiagonalMove`],
    /// [`Error::MoveOutOfBounds`], [`Error::Collision`] or
    /// [`Error::PathBlocked`], each carrying the index of the offending
    /// move.
    pub fn run(&self, grid: &AtomGrid, schedule: &Schedule) -> Result<ExecutionReport, Error> {
        self.execute(grid, schedule, || true, None)
    }

    /// Executes a schedule with independent per-atom transport loss: each
    /// trapped atom survives a move with probability `1 - loss_prob`.
    ///
    /// A lost atom leaves its source trap and never arrives, so it can
    /// neither collide nor block a path; its destination must still be
    /// in bounds.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics when `loss_prob` is outside `0.0..=1.0`.
    pub fn run_with_loss<R: Rng + ?Sized>(
        &self,
        grid: &AtomGrid,
        schedule: &Schedule,
        loss_prob: f64,
        rng: &mut R,
    ) -> Result<ExecutionReport, Error> {
        self.execute(grid, schedule, survival(loss_prob, rng), None)
    }

    /// [`run_with_loss`](Self::run_with_loss), additionally recording a
    /// replayable [`RoundTrace`]: one [`TracedMove`] per schedule move
    /// naming every transfer, transit loss, and ejection at the trap
    /// site level. The execution itself is identical — same RNG draws,
    /// same report — tracing only observes.
    ///
    /// The returned trace replays bit-exactly:
    /// `TraceReplayer::replay(grid, &ShotTrace { rounds: vec![trace] })`
    /// equals the report's `final_grid`
    /// ([`crate::trace::TraceReplayer`]).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics when `loss_prob` is outside `0.0..=1.0`.
    pub fn run_with_loss_traced<R: Rng + ?Sized>(
        &self,
        grid: &AtomGrid,
        schedule: &Schedule,
        loss_prob: f64,
        rng: &mut R,
    ) -> Result<(ExecutionReport, RoundTrace), Error> {
        let mut trace = RoundTrace::default();
        let report = self.execute(grid, schedule, survival(loss_prob, rng), Some(&mut trace))?;
        Ok((report, trace))
    }

    /// Applies every move of `schedule` to a copy of `grid`, summing the
    /// report's counters over the per-move outcomes.
    fn execute(
        &self,
        grid: &AtomGrid,
        schedule: &Schedule,
        mut survives: impl FnMut() -> bool,
        mut trace: Option<&mut RoundTrace>,
    ) -> Result<ExecutionReport, Error> {
        let mut report = ExecutionReport {
            final_grid: grid.clone(),
            atom_moves: 0,
            max_parallel_atoms: 0,
            lost_atoms: 0,
            ejected_atoms: 0,
        };
        for (index, mv) in schedule.iter().enumerate() {
            let moved = self.apply_move(&mut report.final_grid, mv, index, &mut survives)?;
            report.atom_moves += moved.transfers.len();
            report.max_parallel_atoms = report.max_parallel_atoms.max(moved.transfers.len());
            report.lost_atoms += moved.lost.len();
            report.ejected_atoms += 2 * moved.ejected.len();
            if let Some(round) = trace.as_deref_mut() {
                round.moves.push(moved);
            }
        }
        Ok(report)
    }

    /// Applies one move to `grid` in the order the module docs give and
    /// returns what it did. On an error `grid` is left part-way; the
    /// callers own it and drop it with the error.
    fn apply_move(
        &self,
        grid: &mut AtomGrid,
        mv: &ParallelMove,
        index: usize,
        survives: &mut impl FnMut() -> bool,
    ) -> Result<TracedMove, Error> {
        let (dr, dc) = mv.delta();
        if dr == 0 && dc == 0 {
            return Err(Error::NullMove { move_index: index });
        }
        if !mv.is_axis_aligned() {
            return Err(Error::DiagonalMove { move_index: index });
        }
        let (height, width) = grid.dims();
        let mut moved = TracedMove::default();
        for from in mv.trap_sites() {
            if from.row >= height || from.col >= width || !grid.get_unchecked(from.row, from.col) {
                continue;
            }
            let to = from
                .offset(dr, dc)
                .filter(|d| d.row < height && d.col < width)
                .ok_or(Error::MoveOutOfBounds { move_index: index })?;
            if survives() {
                moved.transfers.push(Transfer { from, to });
            } else {
                moved.lost.push(from);
            }
        }

        let sources = moved.transfers.iter().map(|t| t.from);
        for p in sources.chain(moved.lost.iter().copied()) {
            grid.set_unchecked(p.row, p.col, false);
        }
        for &Transfer { from, to } in &moved.transfers {
            if self.collision_policy == CollisionPolicy::Fail && grid.get_unchecked(to.row, to.col)
            {
                return Err(Error::Collision {
                    move_index: index,
                    site: to,
                });
            }
            if self.path_policy == PathPolicy::Strict {
                if let Some(site) = blocked_on_path(grid, from, dr, dc) {
                    return Err(Error::PathBlocked {
                        move_index: index,
                        site,
                    });
                }
            }
        }

        let ejected = &mut moved.ejected;
        moved.transfers.retain(|&t| {
            // Occupied only under `CollisionPolicy::Eject` (`Fail` returned
            // above): the light-assisted collision removes both atoms.
            let collides = grid.get_unchecked(t.to.row, t.to.col);
            grid.set_unchecked(t.to.row, t.to.col, !collides);
            if collides {
                ejected.push(t);
            }
            !collides
        });
        Ok(moved)
    }
}

/// The lossy runs' survival draw: one `gen_bool(loss_prob)` per call.
fn survival<R: Rng + ?Sized>(loss_prob: f64, rng: &mut R) -> impl FnMut() -> bool + '_ {
    assert!(
        (0.0..=1.0).contains(&loss_prob),
        "loss probability {loss_prob} outside [0, 1]"
    );
    move || !rng.gen_bool(loss_prob)
}

/// First stationary atom on the open transit path of an atom moving
/// axis-aligned from `from` by `(dr, dc)` (endpoints excluded).
fn blocked_on_path(grid: &AtomGrid, from: Position, dr: isize, dc: isize) -> Option<Position> {
    let steps = dr.unsigned_abs().max(dc.unsigned_abs());
    let (ur, uc) = (dr.signum(), dc.signum());
    for k in 1..steps as isize {
        let p = from.offset(ur * k, uc * k)?;
        if grid.get_unchecked(p.row, p.col) {
            return Some(p);
        }
    }
    None
}

/// Outcome of executing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Final trap-array occupancy.
    pub final_grid: AtomGrid,
    /// Total atom displacements performed.
    pub atom_moves: usize,
    /// Largest number of atoms moved by a single parallel move.
    pub max_parallel_atoms: usize,
    /// Atoms lost in transit (only non-zero for
    /// [`Executor::run_with_loss`]).
    pub lost_atoms: usize,
    /// Atoms removed by light-assisted collisions (only non-zero under
    /// [`CollisionPolicy::Eject`]; counts both partners).
    pub ejected_atoms: usize,
}

impl ExecutionReport {
    /// Whether `target` ended up defect-free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when the rect does not fit.
    pub fn target_filled(&self, target: &Rect) -> Result<bool, Error> {
        self.final_grid.is_filled(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loading::seeded_rng;

    fn sched(h: usize, w: usize, moves: Vec<ParallelMove>) -> Schedule {
        let mut s = Schedule::new(h, w);
        s.extend(moves);
        s
    }

    #[test]
    fn simple_west_shift() {
        let g = AtomGrid::parse(".##\n...").unwrap();
        let s = sched(
            2,
            3,
            vec![ParallelMove::new(vec![0], vec![1, 2], 0, -1).unwrap()],
        );
        let rep = Executor::new().run(&g, &s).unwrap();
        assert_eq!(rep.final_grid, AtomGrid::parse("##.\n...").unwrap());
        assert_eq!(rep.atom_moves, 2);
        assert_eq!(rep.max_parallel_atoms, 2);
    }

    #[test]
    fn cross_product_traps_all_occupied_intersections() {
        let g = AtomGrid::parse("#.#\n...\n#.#\n...").unwrap();
        let s = sched(
            4,
            3,
            vec![ParallelMove::new(vec![0, 2], vec![0, 2], 1, 0).unwrap()],
        );
        let rep = Executor::new().run(&g, &s).unwrap();
        assert_eq!(rep.atom_moves, 4);
        assert_eq!(
            rep.final_grid,
            AtomGrid::parse("...\n#.#\n...\n#.#").unwrap()
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let g = AtomGrid::parse("#.").unwrap();
        let s = sched(
            1,
            2,
            vec![ParallelMove::new(vec![0], vec![0], 0, -1).unwrap()],
        );
        assert_eq!(
            Executor::new().run(&g, &s),
            Err(Error::MoveOutOfBounds { move_index: 0 })
        );
    }

    #[test]
    fn out_of_bounds_is_rejected_whatever_the_loss_draw() {
        // The atom of `...#` pushed east leaves the array. Losing it in
        // transit does not make the move well formed.
        let g = AtomGrid::parse("...#").unwrap();
        let s = sched(
            1,
            4,
            vec![ParallelMove::new(vec![0], vec![3], 0, 1).unwrap()],
        );
        let oob = Err(Error::MoveOutOfBounds { move_index: 0 });
        assert_eq!(Executor::new().run(&g, &s), oob);
        for loss_prob in [0.0, 1.0] {
            let mut rng = seeded_rng(3);
            assert_eq!(
                Executor::new().run_with_loss(&g, &s, loss_prob, &mut rng),
                oob
            );
        }
    }

    #[test]
    fn collision_detected() {
        let g = AtomGrid::parse("##").unwrap();
        // moving only col 1 west collides with the stationary atom at col 0
        let s = sched(
            1,
            2,
            vec![ParallelMove::new(vec![0], vec![1], 0, -1).unwrap()],
        );
        assert_eq!(
            Executor::new().run(&g, &s),
            Err(Error::Collision {
                move_index: 0,
                site: Position::new(0, 0)
            })
        );
    }

    #[test]
    fn simultaneous_movers_do_not_self_collide() {
        // Both atoms shift west together: legal (lockstep motion).
        let g = AtomGrid::parse(".##").unwrap();
        let s = sched(
            1,
            3,
            vec![ParallelMove::new(vec![0], vec![1, 2], 0, -1).unwrap()],
        );
        assert!(Executor::new().run(&g, &s).is_ok());
    }

    #[test]
    fn co_moving_atoms_never_block_each_other_in_any_run() {
        // Both atoms of `##..` jump two sites east. The trailing atom's
        // path crosses the site the leading atom lands on; only
        // stationary atoms block a path, so every run accepts the move,
        // along a row and along a column alike.
        let row = AtomGrid::parse("##..").unwrap();
        let row_moved = AtomGrid::parse("..##").unwrap();
        let cases = [
            (
                row.transpose(),
                ParallelMove::new(vec![0, 1], vec![0], 2, 0).unwrap(),
                row_moved.transpose(),
            ),
            (
                row,
                ParallelMove::new(vec![0], vec![0, 1], 0, 2).unwrap(),
                row_moved,
            ),
        ];
        for (g, mv, expected) in cases {
            let s = sched(g.height(), g.width(), vec![mv]);
            let rep = Executor::new().run(&g, &s).unwrap();
            assert_eq!(rep.final_grid, expected);
            let mut rng = seeded_rng(5);
            let lossless = Executor::new().run_with_loss(&g, &s, 0.0, &mut rng);
            assert_eq!(lossless, Ok(rep));
        }
    }

    #[test]
    fn path_blocking_for_multistep() {
        // atom at col 0 jumps 2 east over an occupied col 1
        let g = AtomGrid::parse("##.").unwrap();
        let s = sched(
            1,
            3,
            vec![ParallelMove::new(vec![0], vec![0], 0, 2).unwrap()],
        );
        // col 1's atom is NOT selected, so it blocks the path... but note
        // the mover passes over it.
        let err = Executor::new().run(&g, &s);
        assert_eq!(
            err,
            Err(Error::PathBlocked {
                move_index: 0,
                site: Position::new(0, 1)
            })
        );
        // EndpointsOnly tolerates the fly-over.
        let rep = Executor::new()
            .with_path_policy(PathPolicy::EndpointsOnly)
            .run(&g, &s)
            .unwrap();
        assert_eq!(rep.final_grid, AtomGrid::parse(".##").unwrap());
    }

    #[test]
    fn diagonal_moves_gated() {
        let g = AtomGrid::parse("#.\n..").unwrap();
        let s = sched(
            2,
            2,
            vec![ParallelMove::new(vec![0], vec![0], 1, 1).unwrap()],
        );
        assert_eq!(
            Executor::new().run(&g, &s),
            Err(Error::DiagonalMove { move_index: 0 })
        );
    }

    #[test]
    fn empty_selection_moves_nothing() {
        let g = AtomGrid::parse("..\n..").unwrap();
        let s = sched(
            2,
            2,
            vec![ParallelMove::new(vec![0], vec![0], 0, 1).unwrap()],
        );
        let rep = Executor::new().run(&g, &s).unwrap();
        assert_eq!(rep.atom_moves, 0);
        assert_eq!(rep.final_grid, g);
    }

    #[test]
    fn atom_conservation_over_random_legal_schedules() {
        // Random single-atom moves that are always legal by construction.
        let mut rng = seeded_rng(12);
        let mut grid = AtomGrid::random(8, 8, 0.4, &mut rng);
        let n0 = grid.atom_count();
        let exec = Executor::new();
        for _ in 0..50 {
            // pick a random atom with a free neighbour
            let atoms: Vec<Position> = grid.occupied().collect();
            if atoms.is_empty() {
                break;
            }
            let a = atoms[rng.gen_range(0..atoms.len())];
            let candidates = [(0isize, 1isize), (0, -1), (1, 0), (-1, 0)];
            let mut applied = false;
            for (dr, dc) in candidates {
                if let Some(d) = a.offset(dr, dc) {
                    if d.row < 8 && d.col < 8 && !grid.get_unchecked(d.row, d.col) {
                        let s = sched(8, 8, vec![ParallelMove::single(a, dr, dc).unwrap()]);
                        grid = exec.run(&grid, &s).unwrap().final_grid;
                        applied = true;
                        break;
                    }
                }
            }
            if !applied {
                continue;
            }
            assert_eq!(grid.atom_count(), n0);
        }
    }

    #[test]
    fn loss_injection_removes_atoms() {
        let g = AtomGrid::parse("#########").unwrap();
        let s = sched(
            1,
            9,
            vec![ParallelMove::new(vec![0], (0..8).collect(), 0, 1).unwrap()],
        );
        // With certain loss, all 8 movers vanish.
        let mut rng = seeded_rng(4);
        let rep = Executor::new()
            .run_with_loss(&g, &s, 1.0, &mut rng)
            .unwrap();
        assert_eq!(rep.lost_atoms, 8);
        assert_eq!(rep.final_grid.atom_count(), 1);
        // With zero loss... the move would collide with col 8's atom.
        let mut rng = seeded_rng(4);
        assert!(Executor::new()
            .run_with_loss(&g, &s, 0.0, &mut rng)
            .is_err());
    }

    #[test]
    fn eject_policy_removes_both_atoms() {
        // Mover at col 1 pushed west onto the stationary atom at col 0:
        // a light-assisted collision removes both.
        let g = AtomGrid::parse("##.").unwrap();
        let s = sched(
            1,
            3,
            vec![ParallelMove::new(vec![0], vec![1], 0, -1).unwrap()],
        );
        let rep = Executor::new()
            .with_collision_policy(CollisionPolicy::Eject)
            .run(&g, &s)
            .unwrap();
        assert_eq!(rep.ejected_atoms, 2);
        assert_eq!(rep.final_grid.atom_count(), 0);
        assert_eq!(rep.atom_moves, 0);
        // default policy still fails
        assert!(Executor::new().run(&g, &s).is_err());
    }

    #[test]
    fn eject_policy_in_lossy_execution() {
        let g = AtomGrid::parse("##.").unwrap();
        let s = sched(
            1,
            3,
            vec![ParallelMove::new(vec![0], vec![1], 0, -1).unwrap()],
        );
        let mut rng = seeded_rng(6);
        let rep = Executor::new()
            .with_collision_policy(CollisionPolicy::Eject)
            .run_with_loss(&g, &s, 0.0, &mut rng)
            .unwrap();
        assert_eq!(rep.ejected_atoms, 2);
        assert_eq!(rep.final_grid.atom_count(), 0);
    }

    #[test]
    fn target_filled_helper() {
        let g = AtomGrid::parse("##\n##").unwrap();
        let rep = Executor::new().run(&g, &Schedule::new(2, 2)).unwrap();
        assert!(rep.target_filled(&Rect::new(0, 0, 2, 2)).unwrap());
        assert!(rep.target_filled(&Rect::new(0, 0, 4, 4)).is_err());
    }
}
