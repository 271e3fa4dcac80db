//! Property-based tests for the core data structures.

use proptest::prelude::*;
use qrm_core::bitline;
use qrm_core::geometry::{Position, Rect};
use qrm_core::grid::AtomGrid;
use qrm_core::quadrant::QuadrantMap;
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
