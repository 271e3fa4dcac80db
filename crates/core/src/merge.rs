//! Cross-quadrant command merging (paper §IV-C, Row Combination Unit).
//!
//! Each quadrant kernel emits waves of canonical suffix shifts: wave `k`
//! of a pass is the mask of lines that fired at scan position `k`. This
//! module translates them into global coordinates and fuses them into AOD
//! [`ParallelMove`]s:
//!
//! * within one wave, all of a quadrant's shifts execute simultaneously;
//! * NW and SW waves merge (both compress **east** toward the centre
//!   column "from the west"), NE with SE (west), NW with NE (south), and
//!   SW with SE (north);
//! * a wave group moves as one cross-product selection: every line of
//!   wave `k` has its hole at scan position `k`, so the group's movers
//!   all lie in one suffix range and their union traps no atom that
//!   stays;
//! * empty shifts are elided from the final schedule.
//!
//! The merge works on words. It keeps one live grid whose rows are the
//! lines of the current pass axis (the grid itself for row passes, its
//! transpose for column passes) and switches representation once per
//! pass with the 64x64 block [`AtomGrid::transpose_into`]. Every line
//! of wave `k` has its hole at `k`, so one mover-range mask per member
//! quadrant and wave selects the movers of every line the merge finds
//! by walking the wave mask's bits. A wave group's mover masks are
//! OR-ed into one reused union buffer and its lines into a reused bit
//! set. Those two masks are the paper's row-selection and
//! column-selection records: the move's tone buffer is filled from
//! their bits at exact capacity, and each selected line's movers shift
//! in place on the live grid's words. Past a constant set of buffers
//! per call, the only allocations are each emitted move's tone buffer
//! and the schedule's growth.

use crate::bitline::{self, WORD_BITS};
use crate::error::Error;
use crate::geometry::{Axis, Direction, QuadrantId};
use crate::grid::AtomGrid;
use crate::kernel::{KernelOutcome, LocalPass};
use crate::moves::ParallelMove;
use crate::quadrant::QuadrantMap;
use crate::schedule::Schedule;

#[cfg(test)]
mod reference;

/// Merge options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    /// Fuse compatible quadrant pairs into shared moves (paper behaviour).
    /// Disabling yields one batch set per quadrant — the ablation knob for
    /// experiment E-x3.
    pub merge_quadrants: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            merge_quadrants: true,
        }
    }
}

/// Result of merging four quadrant outcomes into a global schedule.
#[derive(Debug, Clone)]
pub struct MergeOutput {
    /// The executable global schedule.
    pub schedule: Schedule,
    /// Predicted global occupancy after the schedule runs.
    pub final_grid: AtomGrid,
}

/// Merges the four quadrant kernel outcomes (in [`QuadrantId::ALL`] order)
/// into one global [`Schedule`], tracking the global occupancy so every
/// mover mask is sampled from the grid as it stands when its wave runs.
///
/// Wave `k` of a pass is the set of lines that fired at scan position
/// `k`, so legality holds by construction: a wave group's movers are its
/// lines' atoms in one suffix range, and the cross product of its lines
/// and their union traps exactly the movers. The executor is therefore
/// not re-run per move here (the test suite executes every merged
/// schedule through the validating
/// [`Executor`](crate::executor::Executor) instead). Debug builds assert
/// that every shifted line keeps its atoms.
///
/// # Errors
///
/// Returns [`Error::EmptyGrid`] for an empty `grid`, which no
/// [`QuadrantMap`] describes.
pub fn merge_outcomes(
    grid: &AtomGrid,
    map: &QuadrantMap,
    outcomes: &[KernelOutcome; 4],
    config: &MergeConfig,
) -> Result<MergeOutput, Error> {
    let mut merge = Merge {
        live: grid.clone(),
        spare: AtomGrid::new(grid.width(), grid.height())?,
        axis: Axis::Row,
        schedule: Schedule::new(grid.height(), grid.width()),
        union: Vec::new(),
        line_set: Vec::new(),
        range: Vec::new(),
    };
    let npasses = outcomes.iter().map(|o| o.passes.len()).max().unwrap_or(0);
    for p in 0..npasses {
        let axis = if p % 2 == 0 { Axis::Row } else { Axis::Col };
        let nwaves = outcomes
            .iter()
            .map(|o| o.passes.get(p).map_or(0, LocalPass::wave_count))
            .max()
            .unwrap_or(0);
        if nwaves > 0 {
            merge.switch_to(axis);
        }
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
        for w in 0..nwaves {
            for (direction, members) in groups {
                if config.merge_quadrants {
                    merge.collect(map, outcomes, &members, p, w);
                    merge.emit(direction);
                } else {
                    for q in members {
                        merge.collect(map, outcomes, &[q], p, w);
                        merge.emit(direction);
                    }
                }
            }
        }
    }
    merge.switch_to(Axis::Row);
    Ok(MergeOutput {
        schedule: merge.schedule,
        final_grid: merge.live,
    })
}

/// The merge's working state: every buffer it reuses from wave to wave.
struct Merge {
    /// Global occupancy with the lines of `axis` as rows.
    live: AtomGrid,
    /// The other representation's buffer, overwritten at each switch.
    spare: AtomGrid,
    axis: Axis,
    schedule: Schedule,
    /// Union of the current group's mover masks, one line long.
    union: Vec<u64>,
    /// The current group's lines that hold a mover, as a bit set.
    line_set: Vec<u64>,
    /// The current member quadrant's mover range in wave `w`, one line
    /// long.
    range: Vec<u64>,
}

impl Merge {
    /// Makes the rows of `live` the lines of `axis`.
    fn switch_to(&mut self, axis: Axis) {
        if self.axis != axis {
            self.live.transpose_into(&mut self.spare);
            std::mem::swap(&mut self.live, &mut self.spare);
            self.axis = axis;
        }
    }

    /// Gathers wave `w` of pass `p` restricted to `members`: for each
    /// line in the wave's mask, the atoms of its global line that lie
    /// beyond scan position `w`, away from the array centre, go into
    /// `union` and the line into `line_set`.
    fn collect(
        &mut self,
        map: &QuadrantMap,
        outcomes: &[KernelOutcome; 4],
        members: &[QuadrantId],
        p: usize,
        w: usize,
    ) {
        let axis = self.axis;
        // Lines span the whole array: two quadrant extents.
        let half = self.live.width() / 2;
        let words = bitline::words_for(self.live.width());
        self.union.clear();
        self.union.resize(words, 0);
        self.line_set.clear();
        self.line_set
            .resize(bitline::words_for(self.live.height()), 0);
        for &q in members {
            // `QuadrantId::ALL` order is declaration order.
            let Some(pass) = outcomes[q as usize].passes.get(p) else {
                continue;
            };
            debug_assert_eq!(pass.axis, axis, "pass axis misalignment");
            let Some(wave) = pass.wave(w).filter(|wave| wave.iter().any(|&m| m != 0)) else {
                continue;
            };
            let toward_low = match axis {
                Axis::Row => q.is_west(),
                Axis::Col => q.is_north(),
            };
            // Every line of the wave fired at `w`, so its movers are the
            // canonical positions beyond `w`: one global range for the
            // whole wave.
            let (lo, hi) = if toward_low {
                (0, half - 1 - w)
            } else {
                (half + w + 1, 2 * half)
            };
            self.range.clear();
            self.range
                .extend((0..words).map(|i| bitline::range_word(i, lo, hi)));
            let Merge {
                live,
                union,
                line_set,
                range,
                ..
            } = self;
            bitline::for_each_one(wave, |local| {
                let line = match axis {
                    Axis::Row => map.global_row(q, local),
                    Axis::Col => map.global_col(q, local),
                };
                let mut any = 0;
                for ((u, &o), &r) in union.iter_mut().zip(live.row_bits(line)).zip(&*range) {
                    let movers = o & r;
                    *u |= movers;
                    any |= movers;
                }
                if any != 0 {
                    bitline::set(line_set, line, true);
                }
            });
        }
    }

    /// Appends the collected group as one move and applies it to the
    /// live grid's words. The move's tones come straight from the two
    /// masks: `line_set` selects the lines and `union` the positions
    /// along them.
    fn emit(&mut self, direction: Direction) {
        let positions = bitline::count_ones(&self.union);
        if positions == 0 {
            return;
        }
        let (row_mask, col_mask) = match self.axis {
            Axis::Row => (&self.line_set, &self.union),
            Axis::Col => (&self.union, &self.line_set),
        };
        let mut tones = Vec::with_capacity(bitline::count_ones(&self.line_set) + positions);
        bitline::for_each_one(row_mask, |row| tones.push(row));
        let nrows = tones.len();
        bitline::for_each_one(col_mask, |col| tones.push(col));
        let width = self.live.width();
        let toward_high = matches!(direction, Direction::East | Direction::South);
        let (live, union) = (&mut self.live, &self.union);
        bitline::for_each_one(&self.line_set, |line| {
            shift_selected(live.row_bits_mut(line), union, width, toward_high);
        });
        let (dr, dc) = direction.delta();
        self.schedule
            .push(ParallelMove::from_sorted_tones(tones, nrows, dr, dc));
    }
}

/// Moves the atoms of `line` under `select` one site toward higher
/// (`toward_high`) or lower positions, in place; the other atoms stay.
/// Merged moves are legal, so a moved atom never lands on a staying one
/// or leaves the `width`-site line.
fn shift_selected(line: &mut [u64], select: &[u64], width: usize, toward_high: bool) {
    #[cfg(debug_assertions)]
    let before = bitline::count_ones(line);
    let mut carry = 0u64;
    if toward_high {
        for (word, &sel) in line.iter_mut().zip(select) {
            let moving = *word & sel;
            *word = (*word & !moving) | (moving << 1) | carry;
            carry = moving >> (WORD_BITS - 1);
        }
        let tail = width % WORD_BITS;
        if tail != 0 {
            if let Some(last) = line.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    } else {
        for (word, &sel) in line.iter_mut().zip(select).rev() {
            let moving = *word & sel;
            *word = (*word & !moving) | (moving >> 1) | carry;
            carry = moving << (WORD_BITS - 1);
        }
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        bitline::count_ones(line),
        before,
        "merge emitted a colliding or out-of-bounds move"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::kernel::{KernelConfig, KernelStrategy, ShiftKernel};
    use crate::loading::seeded_rng;
    use proptest::prelude::*;

    const STRATEGIES: [KernelStrategy; 3] = [
        KernelStrategy::Greedy,
        KernelStrategy::GreedyTargetOnly,
        KernelStrategy::Balanced,
    ];

    /// Plans a random `height x width` grid with a `th x tw` quadrant
    /// target, merges it with both merges, and checks they agree move
    /// for move and on the final grid, which the executor must also
    /// reach.
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_reference(
        height: usize,
        width: usize,
        fill: f64,
        seed: u64,
        (th, tw): (usize, usize),
        strategy: KernelStrategy,
        static_iterations: bool,
        merge_quadrants: bool,
    ) -> Result<(), String> {
        let case = format!(
            "{height}x{width} fill {fill:.2} seed {seed} target {th}x{tw} {strategy:?} \
             static {static_iterations} merge {merge_quadrants}"
        );
        let grid = AtomGrid::random(height, width, fill, &mut seeded_rng(seed));
        let map = QuadrantMap::new(height, width).unwrap();
        let kernel = ShiftKernel::new(
            KernelConfig::new(th, tw)
                .with_strategy(strategy)
                .with_static_iterations(static_iterations)
                .with_max_iterations(4),
        );
        let outcomes: Vec<KernelOutcome> = map
            .split(&grid)
            .unwrap()
            .iter()
            .map(|q| kernel.run(q).unwrap())
            .collect();
        let outcomes: [KernelOutcome; 4] = outcomes.try_into().unwrap();
        let config = MergeConfig { merge_quadrants };
        let new = merge_outcomes(&grid, &map, &outcomes, &config).unwrap();
        let old = reference::merge_outcomes(&grid, &map, &outcomes, &config).unwrap();
        if new.schedule != old.schedule {
            let first = new
                .schedule
                .iter()
                .zip(old.schedule.iter())
                .position(|(a, b)| a != b);
            return Err(format!(
                "{case}: schedules differ ({} vs {} moves, first difference at {first:?})",
                new.schedule.len(),
                old.schedule.len()
            ));
        }
        if new.final_grid != old.final_grid {
            return Err(format!("{case}: final grids differ"));
        }
        let executed = Executor::new().run(&grid, &new.schedule).unwrap();
        if executed.final_grid != new.final_grid {
            return Err(format!(
                "{case}: schedule does not execute to the final grid"
            ));
        }
        Ok(())
    }

    #[test]
    fn multi_word_lines_match_reference_for_every_configuration() {
        // Sides above 64 so lines span two or three words, square and
        // not, in both orientations.
        for (height, width) in [(130, 70), (70, 130), (66, 66), (98, 40), (2, 140)] {
            let target = (height / 4, width / 4);
            for strategy in STRATEGIES {
                for static_iterations in [false, true] {
                    for merge_quadrants in [true, false] {
                        let seed = (height * 1000 + width) as u64;
                        assert_matches_reference(
                            height,
                            width,
                            0.5,
                            seed,
                            (target.0.max(1), target.1.max(1)),
                            strategy,
                            static_iterations,
                            merge_quadrants,
                        )
                        .unwrap();
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn word_level_merge_matches_reference(
            half_height in 1usize..50,
            half_width in 1usize..50,
            fill in 0.2f64..0.9,
            seed in any::<u64>(),
            target in (0.1f64..1.0, 0.1f64..1.0),
            strategy in 0usize..3,
            static_iterations in any::<bool>(),
            merge_quadrants in any::<bool>(),
        ) {
            let th = ((half_height as f64 * target.0) as usize).clamp(1, half_height);
            let tw = ((half_width as f64 * target.1) as usize).clamp(1, half_width);
            let checked = assert_matches_reference(
                2 * half_height,
                2 * half_width,
                fill,
                seed,
                (th, tw),
                STRATEGIES[strategy],
                static_iterations,
                merge_quadrants,
            );
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    #[test]
    fn shift_selected_all_ones_round_trips_across_words() {
        let mut rng = seeded_rng(5);
        for width in [130, 140] {
            let all = bitline::range_mask(bitline::words_for(width), 0, width);
            // Atoms on both sides of each word boundary, then random lines.
            let mut lines = vec![AtomGrid::new(1, width).unwrap()];
            for pos in [0, 62, 63, 64, 65, 127, 128, width - 2] {
                lines[0].set_unchecked(0, pos, true);
            }
            lines.extend((0..8).map(|_| AtomGrid::random(1, width, 0.5, &mut rng)));
            for grid in lines {
                let mut line = grid.row_bits(0).to_vec();
                // The top site must be clear or going up drops its atom.
                bitline::set(&mut line, width - 1, false);
                let original = line.clone();
                shift_selected(&mut line, &all, width, true);
                assert_eq!(
                    line,
                    bitline::shift_up_one(&original, width),
                    "up, width {width}"
                );
                shift_selected(&mut line, &all, width, false);
                assert_eq!(line, original, "up then down, width {width}");
            }
        }
    }

    #[test]
    fn shift_selected_moves_only_selected_atoms_across_a_word_boundary() {
        let width = 130;
        let line_of = |bits: &[usize]| {
            let mut line = vec![0u64; bitline::words_for(width)];
            for &b in bits {
                bitline::set(&mut line, b, true);
            }
            line
        };
        let mut line = line_of(&[10, 63, 127]);
        shift_selected(&mut line, &line_of(&[63, 127]), width, true);
        assert_eq!(line, line_of(&[10, 64, 128]));
        shift_selected(&mut line, &line_of(&[64, 128]), width, false);
        assert_eq!(line, line_of(&[10, 63, 127]));
    }

    fn merge_random(
        size: usize,
        target: usize,
        strategy: KernelStrategy,
        seed: u64,
        config: &MergeConfig,
    ) -> (AtomGrid, MergeOutput) {
        let mut rng = seeded_rng(seed);
        let grid = AtomGrid::random(size, size, 0.5, &mut rng);
        let map = QuadrantMap::new(size, size).unwrap();
        let quads = map.split(&grid).unwrap();
        let kernel =
            ShiftKernel::new(KernelConfig::new(target / 2, target / 2).with_strategy(strategy));
        let outcomes: Vec<KernelOutcome> = quads.iter().map(|q| kernel.run(q).unwrap()).collect();
        let outcomes: [KernelOutcome; 4] = outcomes.try_into().unwrap();
        let out = merge_outcomes(&grid, &map, &outcomes, config).unwrap();
        (grid, out)
    }

    #[test]
    fn merged_schedule_executes_cleanly() {
        for seed in [1, 2, 3, 4, 5] {
            let (grid, out) = merge_random(
                20,
                12,
                KernelStrategy::Balanced,
                seed,
                &MergeConfig::default(),
            );
            let rep = Executor::new().run(&grid, &out.schedule).unwrap();
            assert_eq!(rep.final_grid, out.final_grid, "seed {seed}");
            assert_eq!(rep.final_grid.atom_count(), grid.atom_count());
        }
    }

    #[test]
    fn merged_final_grid_matches_quadrant_restore() {
        let size = 16;
        let mut rng = seeded_rng(7);
        let grid = AtomGrid::random(size, size, 0.5, &mut rng);
        let map = QuadrantMap::new(size, size).unwrap();
        let quads = map.split(&grid).unwrap();
        let kernel =
            ShiftKernel::new(KernelConfig::new(5, 5).with_strategy(KernelStrategy::Greedy));
        let outcomes: Vec<KernelOutcome> = quads.iter().map(|q| kernel.run(q).unwrap()).collect();
        let finals: Vec<AtomGrid> = outcomes.iter().map(|o| o.final_grid.clone()).collect();
        let outcomes: [KernelOutcome; 4] = outcomes.try_into().unwrap();
        let expected = map.restore(&finals.try_into().unwrap()).unwrap();
        let out = merge_outcomes(&grid, &map, &outcomes, &MergeConfig::default()).unwrap();
        assert_eq!(out.final_grid, expected);
    }

    #[test]
    fn unmerged_produces_no_fewer_moves() {
        let merged = merge_random(
            20,
            12,
            KernelStrategy::Balanced,
            9,
            &MergeConfig {
                merge_quadrants: true,
            },
        );
        let unmerged = merge_random(
            20,
            12,
            KernelStrategy::Balanced,
            9,
            &MergeConfig {
                merge_quadrants: false,
            },
        );
        assert!(
            merged.1.schedule.len() <= unmerged.1.schedule.len(),
            "merged {} > unmerged {}",
            merged.1.schedule.len(),
            unmerged.1.schedule.len()
        );
        // Both must land on the same final occupancy.
        assert_eq!(merged.1.final_grid, unmerged.1.final_grid);
    }

    #[test]
    fn every_move_is_unit_step_axis_aligned() {
        let (_, out) = merge_random(20, 12, KernelStrategy::Balanced, 3, &MergeConfig::default());
        for mv in &out.schedule {
            assert!(mv.is_axis_aligned());
            assert_eq!(mv.step(), 1);
        }
    }

    #[test]
    fn west_half_moves_east_and_vice_versa() {
        let (_, out) = merge_random(16, 8, KernelStrategy::Greedy, 11, &MergeConfig::default());
        for mv in &out.schedule {
            match mv.direction().unwrap() {
                Direction::East => {
                    // all selected columns strictly west of centre
                    assert!(
                        mv.cols().iter().all(|&c| c < 8),
                        "east move cols {:?}",
                        mv.cols()
                    );
                }
                Direction::West => {
                    assert!(
                        mv.cols().iter().all(|&c| c >= 8),
                        "west move cols {:?}",
                        mv.cols()
                    );
                }
                Direction::South => {
                    assert!(mv.rows().iter().all(|&r| r < 8));
                }
                Direction::North => {
                    assert!(mv.rows().iter().all(|&r| r >= 8));
                }
            }
        }
    }
}
