//! Replayable move traces: the ordered record of what the executor
//! actually did to a trap array, and a replayer that re-applies it.
//!
//! A trace is the observability surface of a rearrangement run — "what
//! did the planner actually do" as data, suitable for renderers,
//! debugging, and demos. More importantly for this workspace it is an
//! **independent witness** of execution: [`TraceReplayer::replay`]
//! re-applies a [`ShotTrace`] to the shot's initial occupancy using
//! nothing but the trace itself (no planner, no RNG, no executor), and
//! the result must reproduce the executed final grid **bit-exactly**.
//! A trace that replays to anything else means the recorded events and
//! the executed events diverged somewhere — which is exactly the class
//! of bug the scenario determinism suite exists to catch.
//!
//! Granularity: one [`TracedMove`] per [`ParallelMove`] of a round's
//! schedule (index-aligned), one [`RoundTrace`] per executed pipeline
//! round, one [`ShotTrace`] per shot. Every event names concrete trap
//! sites, so the trace is self-contained: replay needs no access to
//! the schedule that produced it.
//!
//! ```
//! use qrm_core::prelude::*;
//! use qrm_core::trace::TraceReplayer;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = qrm_core::loading::seeded_rng(11);
//! let grid = AtomGrid::random(12, 12, 0.6, &mut rng);
//! let target = Rect::centered(12, 12, 6, 6)?;
//! let plan = QrmScheduler::new(QrmConfig::default()).plan(&grid, &target)?;
//!
//! let (report, round) =
//!     Executor::new().run_with_loss_traced(&grid, &plan.schedule, 0.0, &mut rng)?;
//! let trace = qrm_core::trace::ShotTrace {
//!     rounds: vec![round],
//! };
//! assert_eq!(TraceReplayer::replay(&grid, &trace)?, report.final_grid);
//! # Ok(())
//! # }
//! ```
//!
//! [`ParallelMove`]: crate::moves::ParallelMove

use crate::error::Error;
use crate::geometry::Position;
use crate::grid::AtomGrid;

/// One atom's recorded displacement: it left `from` and (for a
/// transfer) arrived at `to`, or (for an ejection) collided with the
/// stationary atom at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Transfer {
    /// Source trap site the atom left.
    pub from: Position,
    /// Destination trap site.
    pub to: Position,
}

/// Everything one [`ParallelMove`](crate::moves::ParallelMove) did,
/// per atom. The three event classes partition the move's trapped
/// atoms (plus each ejection's stationary partner): an atom either
/// arrived (`transfers`), vanished in transit (`lost`), or collided
/// with a stationary atom and removed both (`ejected`).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TracedMove {
    /// Atoms that arrived: `from` → `to`, in the executor's
    /// deterministic (row-major trapped) order.
    pub transfers: Vec<Transfer>,
    /// Source sites of atoms lost in transit (left `from`, never
    /// arrived anywhere).
    pub lost: Vec<Position>,
    /// Light-assisted collisions: the moving atom's `from` and the
    /// occupied destination `to`; **both** atoms are removed.
    pub ejected: Vec<Transfer>,
}

impl TracedMove {
    /// Recorded events in this move (one per atom-level outcome).
    pub fn events(&self) -> usize {
        self.transfers.len() + self.lost.len() + self.ejected.len()
    }
}

/// The trace of one executed pipeline round: one [`TracedMove`] per
/// parallel move of the round's schedule, index-aligned (a move that
/// trapped no atoms contributes an empty entry).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RoundTrace {
    /// Per-move event records, in schedule order.
    pub moves: Vec<TracedMove>,
}

impl RoundTrace {
    /// Recorded events across the round's moves.
    pub fn events(&self) -> usize {
        self.moves.iter().map(TracedMove::events).sum()
    }
}

/// The full trace of one shot: one [`RoundTrace`] per executed
/// image→plan→move round, in round order.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShotTrace {
    /// Per-round traces, in execution order.
    pub rounds: Vec<RoundTrace>,
}

impl ShotTrace {
    /// Recorded events across all rounds — the quantity the planning
    /// service's trace size cap budgets.
    pub fn events(&self) -> usize {
        self.rounds.iter().map(RoundTrace::events).sum()
    }
}

/// Re-applies a [`ShotTrace`] to a grid, validating every event
/// against the evolving occupancy.
///
/// Replay is strict: clearing an empty site or landing on an occupied
/// one is [`Error::TraceMismatch`] rather than best-effort repair, so
/// a replayed trace either reproduces the executed run exactly or
/// fails loudly at the first divergent event.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceReplayer;

impl TraceReplayer {
    /// Replays `trace` on a copy of `initial`, returning the final
    /// occupancy. Within each move the executor's semantics are
    /// reproduced: all movers leave their traps together, then each
    /// ejection removes the stationary partner, then each surviving
    /// transfer lands.
    ///
    /// # Errors
    ///
    /// [`Error::TraceMismatch`] when an event names a site whose
    /// occupancy contradicts it (or lies out of bounds).
    pub fn replay(initial: &AtomGrid, trace: &ShotTrace) -> Result<AtomGrid, Error> {
        let mut state = initial.clone();
        for (round, round_trace) in trace.rounds.iter().enumerate() {
            for (move_index, mv) in round_trace.moves.iter().enumerate() {
                let sources = mv
                    .transfers
                    .iter()
                    .map(|t| t.from)
                    .chain(mv.lost.iter().copied())
                    .chain(mv.ejected.iter().map(|t| t.from));
                for site in sources {
                    Self::take(&mut state, site, round, move_index)?;
                }
                for t in &mv.ejected {
                    Self::take(&mut state, t.to, round, move_index)?;
                }
                for t in &mv.transfers {
                    Self::put(&mut state, t.to, round, move_index)?;
                }
            }
        }
        Ok(state)
    }

    fn check_bounds(
        state: &AtomGrid,
        site: Position,
        round: usize,
        move_index: usize,
    ) -> Result<(), Error> {
        if site.row >= state.height() || site.col >= state.width() {
            return Err(Error::TraceMismatch {
                round,
                move_index,
                site,
            });
        }
        Ok(())
    }

    fn take(
        state: &mut AtomGrid,
        site: Position,
        round: usize,
        move_index: usize,
    ) -> Result<(), Error> {
        Self::check_bounds(state, site, round, move_index)?;
        if !state.get_unchecked(site.row, site.col) {
            return Err(Error::TraceMismatch {
                round,
                move_index,
                site,
            });
        }
        state.set_unchecked(site.row, site.col, false);
        Ok(())
    }

    fn put(
        state: &mut AtomGrid,
        site: Position,
        round: usize,
        move_index: usize,
    ) -> Result<(), Error> {
        Self::check_bounds(state, site, round, move_index)?;
        if state.get_unchecked(site.row, site.col) {
            return Err(Error::TraceMismatch {
                round,
                move_index,
                site,
            });
        }
        state.set_unchecked(site.row, site.col, true);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{CollisionPolicy, Executor};
    use crate::loading::seeded_rng;
    use crate::moves::ParallelMove;
    use crate::schedule::Schedule;

    fn pos(r: usize, c: usize) -> Position {
        Position::new(r, c)
    }

    #[test]
    fn replay_reproduces_a_simple_transfer() {
        let grid = AtomGrid::parse(".#\n..").unwrap();
        let trace = ShotTrace {
            rounds: vec![RoundTrace {
                moves: vec![TracedMove {
                    transfers: vec![Transfer {
                        from: pos(0, 1),
                        to: pos(0, 0),
                    }],
                    ..TracedMove::default()
                }],
            }],
        };
        let replayed = TraceReplayer::replay(&grid, &trace).unwrap();
        assert_eq!(replayed, AtomGrid::parse("#.\n..").unwrap());
    }

    #[test]
    fn replay_rejects_contradictory_events() {
        let grid = AtomGrid::parse("#.").unwrap();
        // Taking an empty site.
        let bad_take = ShotTrace {
            rounds: vec![RoundTrace {
                moves: vec![TracedMove {
                    lost: vec![pos(0, 1)],
                    ..TracedMove::default()
                }],
            }],
        };
        assert_eq!(
            TraceReplayer::replay(&grid, &bad_take),
            Err(Error::TraceMismatch {
                round: 0,
                move_index: 0,
                site: pos(0, 1)
            })
        );
        // Landing on an occupied site.
        let occupied = AtomGrid::parse("##").unwrap();
        let bad = ShotTrace {
            rounds: vec![RoundTrace {
                moves: vec![TracedMove {
                    transfers: vec![Transfer {
                        from: pos(0, 0),
                        to: pos(0, 1),
                    }],
                    ..TracedMove::default()
                }],
            }],
        };
        assert_eq!(
            TraceReplayer::replay(&occupied, &bad),
            Err(Error::TraceMismatch {
                round: 0,
                move_index: 0,
                site: pos(0, 1)
            })
        );
        // Out-of-bounds site.
        let oob = ShotTrace {
            rounds: vec![RoundTrace {
                moves: vec![TracedMove {
                    lost: vec![pos(5, 5)],
                    ..TracedMove::default()
                }],
            }],
        };
        assert!(TraceReplayer::replay(&grid, &oob).is_err());
    }

    #[test]
    fn traced_execution_replays_bit_exactly_with_loss_and_ejection() {
        // A dense row pushed east: with loss and eject in play the trace
        // must still replay to the executed final grid exactly.
        let grid = AtomGrid::parse("#########").unwrap();
        let mut schedule = Schedule::new(1, 9);
        schedule.push(ParallelMove::new(vec![0], (0..8).collect(), 0, 1).unwrap());
        let mut rng = seeded_rng(21);
        let executor = Executor::new().with_collision_policy(CollisionPolicy::Eject);
        let (report, round) = executor
            .run_with_loss_traced(&grid, &schedule, 0.3, &mut rng)
            .unwrap();
        let trace = ShotTrace {
            rounds: vec![round],
        };
        assert_eq!(
            TraceReplayer::replay(&grid, &trace).unwrap(),
            report.final_grid
        );
        let events: usize = trace.events();
        assert_eq!(
            events,
            report.atom_moves + report.lost_atoms + report.ejected_atoms / 2
        );
    }

    #[test]
    fn event_counts_accumulate() {
        let trace = ShotTrace {
            rounds: vec![
                RoundTrace {
                    moves: vec![TracedMove {
                        transfers: vec![Transfer {
                            from: pos(0, 0),
                            to: pos(0, 1),
                        }],
                        lost: vec![pos(1, 1)],
                        ejected: vec![],
                    }],
                },
                RoundTrace {
                    moves: vec![TracedMove {
                        transfers: vec![],
                        lost: vec![],
                        ejected: vec![Transfer {
                            from: pos(2, 2),
                            to: pos(2, 3),
                        }],
                    }],
                },
            ],
        };
        assert_eq!(trace.events(), 3);
    }
}
