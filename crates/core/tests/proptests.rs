//! Property-based tests for the core data structures.

use proptest::collection;
use proptest::prelude::*;
use qrm_core::bitline;
use qrm_core::executor::{CollisionPolicy, Executor, PathPolicy};
use qrm_core::geometry::{Position, Rect};
use qrm_core::grid::AtomGrid;
use qrm_core::moves::ParallelMove;
use qrm_core::quadrant::QuadrantMap;
use qrm_core::schedule::Schedule;
use qrm_core::trace::{ShotTrace, TraceReplayer};
use rand::SeedableRng;

/// Even-sided grids, up to 30 sites on one side and 140 on the other in
/// either orientation, so rows or columns reach a second and a third
/// `u64` word.
fn arb_grid() -> impl Strategy<Value = AtomGrid> {
    (
        1usize..16,
        1usize..71,
        any::<bool>(),
        0.0f64..1.0,
        any::<u64>(),
    )
        .prop_map(|(short, long, tall, fill, seed)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (h, w) = if tall { (long, short) } else { (short, long) };
            AtomGrid::random(h * 2, w * 2, fill, &mut rng)
        })
}

/// One raw move: a row and a column selection, each a base (a fraction
/// of the side) plus up to three offsets of 0–3 sites, so co-moving atoms
/// often sit closer than the step; an axis (0–2 row, 3–5 column, 6
/// diagonal); and a signed step of 1–3 sites, 0 meaning +1.
type RawMove = ((f64, Vec<usize>), (f64, Vec<usize>), u8, isize);

fn arb_moves() -> impl Strategy<Value = Vec<RawMove>> {
    let selection = || (0.0f64..1.0, collection::vec(0usize..4, 1..4));
    collection::vec((selection(), selection(), 0u8..7, -3isize..4), 1..6)
}

/// The schedule `raw` describes on `grid`. Selections are clamped to the
/// array, but steps are not, so atoms near an edge can be pushed out.
fn schedule_from(grid: &AtomGrid, raw: &[RawMove]) -> Schedule {
    let (height, width) = grid.dims();
    let lines = |(base, offsets): &(f64, Vec<usize>), side: usize| -> Vec<usize> {
        let base = (base * side as f64) as usize;
        offsets.iter().map(|o| (base + o).min(side - 1)).collect()
    };
    let mut schedule = Schedule::new(height, width);
    for (rows, cols, axis, step) in raw {
        let step = if *step == 0 { 1 } else { *step };
        let (dr, dc) = match axis {
            0..=2 => (0, step),
            3..=5 => (step, 0),
            _ => (step, -step),
        };
        let mv = ParallelMove::new(lines(rows, height), lines(cols, width), dr, dc)
            .expect("nonempty selections and a nonzero step");
        schedule.push(mv);
    }
    schedule
}

fn arb_line() -> impl Strategy<Value = (Vec<u64>, usize)> {
    (1usize..150, any::<u64>()).prop_map(|(width, seed)| {
        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let mut line = vec![0u64; bitline::words_for(width)];
        for w in line.iter_mut() {
            *w = next();
        }
        let tail = width % 64;
        if tail != 0 {
            let n = line.len();
            line[n - 1] &= (1u64 << tail) - 1;
        }
        (line, width)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flips_are_involutions_and_conserve(grid in arb_grid()) {
        prop_assert_eq!(grid.flip_horizontal().flip_horizontal(), grid.clone());
        prop_assert_eq!(grid.flip_vertical().flip_vertical(), grid.clone());
        prop_assert_eq!(grid.transpose().transpose(), grid.clone());
        prop_assert_eq!(grid.flip_horizontal().atom_count(), grid.atom_count());
        prop_assert_eq!(grid.transpose().atom_count(), grid.atom_count());
    }

    #[test]
    fn word_transpose_matches_bit_definition(grid in arb_grid()) {
        let mut expect = AtomGrid::new(grid.width(), grid.height()).unwrap();
        for p in grid.occupied() {
            expect.set(Position::new(p.col, p.row), true).unwrap();
        }
        // A mis-shaped scratch with stale contents.
        let mut out = AtomGrid::parse("#.#").unwrap();
        grid.transpose_into(&mut out);
        prop_assert_eq!(&out, &expect);
        prop_assert_eq!(grid.transpose(), expect);
    }

    #[test]
    fn transpose_commutes_with_flips(grid in arb_grid()) {
        // transpose(flip_h(g)) == flip_v(transpose(g))
        prop_assert_eq!(
            grid.flip_horizontal().transpose(),
            grid.transpose().flip_vertical()
        );
    }

    #[test]
    fn bitfield_roundtrip(grid in arb_grid()) {
        let bytes = grid.to_bitfield();
        let back = AtomGrid::from_bitfield(grid.height(), grid.width(), &bytes).unwrap();
        prop_assert_eq!(back, grid);
    }

    #[test]
    fn parse_display_roundtrip(grid in arb_grid()) {
        let art = grid.to_string();
        let back = AtomGrid::parse(&art).unwrap();
        prop_assert_eq!(back, grid);
    }

    #[test]
    fn quadrant_split_restore_roundtrip(grid in arb_grid()) {
        let map = QuadrantMap::new(grid.height(), grid.width()).unwrap();
        let quads = map.split(&grid).unwrap();
        let total: usize = quads.iter().map(AtomGrid::atom_count).sum();
        prop_assert_eq!(total, grid.atom_count());
        prop_assert_eq!(map.restore(&quads).unwrap(), grid);
    }

    #[test]
    fn quadrant_coordinate_roundtrip(grid in arb_grid(), r in 0usize..32, c in 0usize..32) {
        let map = QuadrantMap::new(grid.height(), grid.width()).unwrap();
        let p = Position::new(r % grid.height(), c % grid.width());
        let (q, local) = map.to_canonical(p).unwrap();
        prop_assert_eq!(map.to_global(q, local), p);
    }

    #[test]
    fn suffix_shift_conserves_and_fills_hole((line, width) in arb_line()) {
        if let Some(hole) = bitline::lowest_zero_in(&line, 0, width) {
            let before = bitline::count_ones(&line);
            let had_atoms_above = bitline::highest_one(&line).is_some_and(|t| t > hole);
            let mut shifted = line.clone();
            bitline::suffix_shift(&mut shifted, hole, width);
            prop_assert_eq!(bitline::count_ones(&shifted), before);
            if had_atoms_above {
                // the nearest atom above moved one step toward the hole
                let next_above = (hole + 1..width)
                    .find(|&p| bitline::get(&line, p))
                    .expect("atom above exists");
                prop_assert!(bitline::get(&shifted, next_above - 1));
            }
            // bits below the hole untouched
            for p in 0..hole {
                prop_assert_eq!(bitline::get(&shifted, p), bitline::get(&line, p));
            }
        }
    }

    #[test]
    fn whole_line_shifts_are_inverse_up_to_edges((line, width) in arb_line()) {
        // down(up(x)) == x when no bit falls off the top
        let top_clear = bitline::highest_one(&line).is_none_or(|t| t + 1 < width);
        if top_clear {
            let up = bitline::shift_up_one(&line, width);
            let back = bitline::shift_down_one(&up);
            prop_assert_eq!(back, line);
        }
    }

    #[test]
    fn range_mask_counts(words in 1usize..4, lo in 0usize..200, span in 0usize..200) {
        let hi = lo + span;
        let m = bitline::range_mask(words, lo, hi);
        let clamped_hi = hi.min(words * 64);
        let expect = clamped_hi.saturating_sub(lo.min(clamped_hi));
        prop_assert_eq!(bitline::count_ones(&m), expect);
    }

    #[test]
    fn rect_positions_cover_area(
        grid in arb_grid(),
        corner in (0.0f64..1.0, 0.0f64..1.0),
        extent in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        // Any rectangle inside the grid, including whole rows of up to
        // three words.
        let (height, width) = grid.dims();
        let r = (height as f64 * corner.0) as usize;
        let c = (width as f64 * corner.1) as usize;
        let h = (((height - r) as f64 * extent.0) as usize).max(1);
        let w = (((width - c) as f64 * extent.1) as usize).max(1);
        let rect = Rect::new(r, c, h, w);
        let v: Vec<Position> = rect.positions().collect();
        prop_assert_eq!(v.len(), rect.area());
        for p in &v {
            prop_assert!(rect.contains(*p));
        }
        // The word-level count agrees with a site-by-site one.
        let pointwise = v.iter().filter(|p| grid.get(**p).unwrap()).count();
        prop_assert_eq!(grid.count_in(&rect).unwrap(), pointwise);
        prop_assert_eq!(grid.is_filled(&rect).unwrap(), pointwise == rect.area());
        let whole = Rect::new(0, 0, height, width);
        prop_assert_eq!(grid.count_in(&whole).unwrap(), grid.atom_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_run_applies_the_same_move_semantics(
        grid in arb_grid(),
        raw in arb_moves(),
        loss_prob in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let schedule = schedule_from(&grid, &raw);
        for path in [PathPolicy::Strict, PathPolicy::EndpointsOnly] {
            for collision in [CollisionPolicy::Fail, CollisionPolicy::Eject] {
                let executor = Executor::new()
                    .with_path_policy(path)
                    .with_collision_policy(collision);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                prop_assert_eq!(
                    executor.run_with_loss(&grid, &schedule, 0.0, &mut rng),
                    executor.run(&grid, &schedule),
                    "{:?} {:?}: lossless run differs from run",
                    path,
                    collision
                );
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                if let Ok((report, round)) =
                    executor.run_with_loss_traced(&grid, &schedule, loss_prob, &mut rng)
                {
                    let trace = ShotTrace { rounds: vec![round] };
                    prop_assert_eq!(
                        TraceReplayer::replay(&grid, &trace),
                        Ok(report.final_grid)
                    );
                }
            }
        }
    }
}
