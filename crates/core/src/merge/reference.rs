//! The merge as it stood before the word-level rewrite, kept as a
//! test-only reference: it keeps a row-major and a transposed grid in
//! step, allocates a `Vec` per mover mask and per shifted line, mirrors
//! every moved atom bit by bit, and splits each wave group with the
//! [`AodBatcher`]. The equivalence tests in the parent module compare
//! [`super::merge_outcomes`] against it.

use super::{MergeConfig, MergeOutput};
use crate::aod::AodBatcher;
use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Direction, QuadrantId};
use crate::grid::AtomGrid;
use crate::kernel::{KernelOutcome, LocalPass};
use crate::moves::ParallelMove;
use crate::quadrant::QuadrantMap;
use crate::schedule::Schedule;

/// Merges the four quadrant kernel outcomes (in [`QuadrantId::ALL`] order)
/// into one global [`Schedule`], maintaining a simulated global grid so
/// every produced move is validated as it is emitted.
///
/// # Errors
///
/// Propagates executor validation failures — these indicate planner bugs
/// and are turned into hard errors rather than silent schedule corruption.
pub(super) fn merge_outcomes(
    grid: &AtomGrid,
    map: &QuadrantMap,
    outcomes: &[KernelOutcome; 4],
    config: &MergeConfig,
) -> Result<MergeOutput, Error> {
    let mut working = grid.clone();
    let mut working_t = grid.transpose();
    let mut schedule = Schedule::new(grid.height(), grid.width());
    let batcher = AodBatcher::new();
    // Precomputed suffix-range masks per hole position (hot path).
    let h_masks = SuffixMasks::build(map.quadrant_width(), bitline::words_for(grid.width()));
    let v_masks = SuffixMasks::build(map.quadrant_height(), bitline::words_for(grid.height()));

    let npasses = outcomes.iter().map(|o| o.passes.len()).max().unwrap_or(0);
    for p in 0..npasses {
        let axis = if p % 2 == 0 { Axis::Row } else { Axis::Col };
        let nwaves = outcomes
            .iter()
            .map(|o| o.passes.get(p).map_or(0, LocalPass::wave_count))
            .max()
            .unwrap_or(0);
        for w in 0..nwaves {
            let groups: [(Direction, [QuadrantId; 2]); 2] = match axis {
                Axis::Row => [
                    (Direction::East, [QuadrantId::Nw, QuadrantId::Sw]),
                    (Direction::West, [QuadrantId::Ne, QuadrantId::Se]),
                ],
                Axis::Col => [
                    (Direction::South, [QuadrantId::Nw, QuadrantId::Ne]),
                    (Direction::North, [QuadrantId::Sw, QuadrantId::Se]),
                ],
            };
            for (direction, members) in groups {
                if config.merge_quadrants {
                    let movers = collect_movers(
                        &working, &working_t, map, outcomes, &members, p, w, axis, &h_masks,
                        &v_masks,
                    );
                    emit_batches(
                        &mut working,
                        &mut working_t,
                        &mut schedule,
                        &batcher,
                        axis,
                        direction,
                        &movers,
                    )?;
                } else {
                    for q in members {
                        let movers = collect_movers(
                            &working,
                            &working_t,
                            map,
                            outcomes,
                            &[q],
                            p,
                            w,
                            axis,
                            &h_masks,
                            &v_masks,
                        );
                        emit_batches(
                            &mut working,
                            &mut working_t,
                            &mut schedule,
                            &batcher,
                            axis,
                            direction,
                            &movers,
                        )?;
                    }
                }
            }
        }
    }

    Ok(MergeOutput {
        schedule,
        final_grid: working,
    })
}

/// Precomputed "canonical positions > hole" range masks for each hole
/// position, for both quadrant orientations along one axis.
struct SuffixMasks {
    /// Toward-low quadrants (west / north): global range `[0, half-1-hole)`.
    low: Vec<Vec<u64>>,
    /// Toward-high quadrants (east / south): global range `(half+hole, 2*half)`.
    high: Vec<Vec<u64>>,
}

impl SuffixMasks {
    fn build(half: usize, words: usize) -> Self {
        SuffixMasks {
            low: (0..half)
                .map(|hole| bitline::range_mask(words, 0, half - 1 - hole))
                .collect(),
            high: (0..half)
                .map(|hole| bitline::range_mask(words, half + hole + 1, 2 * half))
                .collect(),
        }
    }
}

/// Gathers `(global_line, mover_mask)` pairs for wave `w` of pass `p`
/// restricted to `members`.
#[allow(clippy::too_many_arguments)]
fn collect_movers(
    working: &AtomGrid,
    working_t: &AtomGrid,
    map: &QuadrantMap,
    outcomes: &[KernelOutcome; 4],
    members: &[QuadrantId],
    p: usize,
    w: usize,
    axis: Axis,
    h_masks: &SuffixMasks,
    v_masks: &SuffixMasks,
) -> Vec<(usize, Vec<u64>)> {
    let mut movers = Vec::new();
    for &q in members {
        let idx = QuadrantId::ALL.iter().position(|&x| x == q).expect("valid");
        let Some(pass) = outcomes[idx].passes.get(p) else {
            continue;
        };
        debug_assert_eq!(pass.axis, axis, "pass axis misalignment");
        let Some(wave) = pass.wave(w) else {
            continue;
        };
        bitline::for_each_one(wave, |line| {
            let (global_line, occ, table) = match axis {
                Axis::Row => (
                    map.global_row(q, line),
                    working.row_bits(map.global_row(q, line)),
                    if q.is_west() {
                        &h_masks.low
                    } else {
                        &h_masks.high
                    },
                ),
                Axis::Col => (
                    map.global_col(q, line),
                    working_t.row_bits(map.global_col(q, line)),
                    if q.is_north() {
                        &v_masks.low
                    } else {
                        &v_masks.high
                    },
                ),
            };
            let range = &table[w];
            let mask: Vec<u64> = occ.iter().zip(range.iter()).map(|(o, m)| o & m).collect();
            if bitline::count_ones(&mask) > 0 {
                movers.push((global_line, mask));
            }
        });
    }
    movers
}

/// Batches the movers and emits moves into the schedule, updating both
/// grid representations with direct bit-level application.
///
/// Legality holds by construction — mover masks are sampled from the
/// live working grid and the [`AodBatcher`] guarantees the cross product
/// traps exactly the movers — so the executor is not re-run per move
/// here (the test suite executes every merged schedule through the
/// validating [`Executor`](crate::executor::Executor) instead). Debug
/// builds still assert collision-freedom per line.
#[allow(clippy::too_many_arguments)]
fn emit_batches(
    working: &mut AtomGrid,
    working_t: &mut AtomGrid,
    schedule: &mut Schedule,
    batcher: &AodBatcher,
    axis: Axis,
    direction: Direction,
    movers: &[(usize, Vec<u64>)],
) -> Result<(), Error> {
    if movers.is_empty() {
        return Ok(());
    }
    // Occupancy per line along the pass axis.
    let occ_grid = match axis {
        Axis::Row => &*working,
        Axis::Col => &*working_t,
    };
    let occ: Vec<&[u64]> = (0..occ_grid.height())
        .map(|l| occ_grid.row_bits(l))
        .collect();
    let width = occ_grid.width();
    let (dr, dc) = direction.delta();
    // Position delta along the pass axis: east/south increase indices.
    let sign = match direction {
        Direction::East | Direction::South => 1isize,
        Direction::West | Direction::North => -1,
    };

    let batches = batcher.batch(&occ, movers);
    for batch in batches {
        let positions = batch.positions(width);
        if positions.is_empty() {
            continue;
        }
        let (rows, cols) = match axis {
            Axis::Row => (batch.lines.clone(), positions),
            Axis::Col => (positions, batch.lines.clone()),
        };
        let mv = ParallelMove::new(rows, cols, dr, dc)?;
        apply_batch(
            working,
            working_t,
            axis,
            sign,
            &batch.lines,
            &batch.union_mask,
        );
        schedule.push(mv);
    }
    Ok(())
}

/// Applies one batch to the primary and transposed grids.
fn apply_batch(
    working: &mut AtomGrid,
    working_t: &mut AtomGrid,
    axis: Axis,
    sign: isize,
    lines: &[usize],
    union: &[u64],
) {
    let (primary, mirror) = match axis {
        Axis::Row => (&mut *working, &mut *working_t),
        Axis::Col => (&mut *working_t, &mut *working),
    };
    let width = primary.width();
    for &line in lines {
        let bits = primary.row_bits(line);
        let movers: Vec<u64> = bits.iter().zip(union.iter()).map(|(b, u)| b & u).collect();
        let shifted = if sign > 0 {
            bitline::shift_up_one(&movers, width)
        } else {
            bitline::shift_down_one(&movers)
        };
        let stay: Vec<u64> = bits
            .iter()
            .zip(movers.iter())
            .map(|(b, m)| b & !m)
            .collect();
        debug_assert!(
            stay.iter().zip(shifted.iter()).all(|(s, m)| s & m == 0),
            "merge emitted a colliding move"
        );
        debug_assert_eq!(
            bitline::count_ones(&movers),
            bitline::count_ones(&shifted),
            "merge pushed an atom out of bounds"
        );
        let new_bits: Vec<u64> = stay
            .iter()
            .zip(shifted.iter())
            .map(|(s, m)| s | m)
            .collect();
        primary.set_row_bits(line, &new_bits);
        // Mirror each moved atom on the orthogonal representation: all
        // clears before all sets, so chains of adjacent movers do not
        // erase each other's destinations.
        let moved = bitline::ones(&movers, width);
        for &pos in &moved {
            mirror.set_unchecked(pos, line, false);
        }
        for &pos in &moved {
            mirror.set_unchecked(pos.wrapping_add_signed(sign), line, true);
        }
    }
}
