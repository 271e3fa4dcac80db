//! The kernel as it stood before the closed form, kept as a test-only
//! reference: every pass probes each (scan position, line) pair with
//! [`bitline::get`] and [`bitline::highest_one`] and fires one
//! [`bitline::suffix_shift`] at a time, and the balanced window planner
//! re-runs that scan for every row. The equivalence tests in the parent
//! module compare [`super::run_pass`], [`super::plan_row_windows`] and
//! [`super::ShiftKernel::run`] against it.

use super::{plan_col_windows, KernelConfig, KernelOutcome, KernelStrategy, LocalPass};
use crate::bitline;
use crate::geometry::{Axis, Rect};
use crate::grid::AtomGrid;

/// One pass along `axis` by the per-position scan. Lines beyond
/// `limits.len()` use `(0, line_length)`.
pub(super) fn run_pass(
    grid: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
) -> LocalPass {
    let mut view = match axis {
        Axis::Row => grid.clone(),
        Axis::Col => grid.transpose(),
    };
    let (nlines, linelen) = (view.height(), view.width());
    let mut pass = LocalPass::new(axis, nlines, linelen);
    for k in 0..linelen {
        for line in 0..nlines {
            if let Some(en) = enable {
                if !en.get(line).copied().unwrap_or(true) {
                    continue;
                }
            }
            let (floor, limit) = limits.get(line).copied().unwrap_or((0, linelen));
            if k < floor || k >= limit.min(linelen) {
                continue;
            }
            let mut bits = view.row_bits(line).to_vec();
            if !bitline::get(&bits, k) && bitline::highest_one(&bits).is_some_and(|top| top > k) {
                bitline::suffix_shift(&mut bits, k, linelen);
                view.set_row_bits(line, &bits);
                pass.fire(k, line);
            }
        }
    }
    *grid = match axis {
        Axis::Row => view,
        Axis::Col => view.transpose(),
    };
    pass
}

/// The row windows, with the balanced planner simulating each row by
/// the per-position scan.
pub(super) fn plan_row_windows(
    grid: &AtomGrid,
    strategy: KernelStrategy,
    th: usize,
    tw: usize,
) -> Vec<(usize, usize)> {
    let (qh, qw) = grid.dims();
    match strategy {
        KernelStrategy::Greedy => vec![(0, qw); qh],
        KernelStrategy::GreedyTargetOnly => vec![(0, tw); qh],
        KernelStrategy::Balanced => {
            let mut supply: Vec<usize> = (0..tw).map(|c| grid.col_count(c)).collect();
            let mut limits = vec![(0, tw); qh];
            for (r, window) in limits.iter_mut().enumerate() {
                let floor = best_floor(grid.row_bits(r), &supply, th, tw);
                let limit = if r < th { tw } else { qw };
                *window = (floor.min(limit), limit);
                let mut bits = grid.row_bits(r).to_vec();
                let before = bitline::ones(&bits, qw);
                for k in floor.min(limit)..limit {
                    if !bitline::get(&bits, k)
                        && bitline::highest_one(&bits).is_some_and(|top| top > k)
                    {
                        bitline::suffix_shift(&mut bits, k, qw);
                    }
                }
                let after = bitline::ones(&bits, qw);
                for p in before {
                    if p < tw {
                        supply[p] -= 1;
                    }
                }
                for p in after {
                    if p < tw {
                        supply[p] += 1;
                    }
                }
            }
            limits
        }
    }
}

/// The balanced parking floor, counting atoms site by site.
fn best_floor(bits: &[u64], supply: &[usize], th: usize, tw: usize) -> usize {
    let deficient: Vec<bool> = supply.iter().map(|&s| s < th).collect();
    let Some(top) = bitline::highest_one(bits) else {
        return tw;
    };
    let Some(rd) = (0..tw).rev().find(|&c| deficient[c] && top >= c) else {
        return tw;
    };
    let mut best = tw;
    let mut best_cover = 0usize;
    for floor in 0..=rd {
        let n = (floor..=top).filter(|&p| bitline::get(bits, p)).count();
        if n == 0 {
            continue;
        }
        let hi = (floor + n).min(tw);
        let cover = (floor..hi).filter(|&c| deficient[c]).count();
        if cover > 0 && cover >= best_cover {
            best_cover = cover;
            best = floor;
        }
    }
    best
}

/// The kernel loop of [`super::ShiftKernel::run`] over the reference
/// pass and planner. The target must fit the quadrant.
pub(super) fn run_kernel(config: &KernelConfig, quadrant: &AtomGrid) -> KernelOutcome {
    let (qh, qw) = quadrant.dims();
    let (th, tw) = (config.target_height, config.target_width);
    let target = Rect::new(0, 0, th, tw);
    let col_limits = plan_col_windows(config.strategy, qh, qw, th, tw);
    let mut grid = quadrant.clone();
    let mut passes = Vec::new();
    let mut iterations = 0;
    while iterations < config.max_iterations {
        if !config.static_iterations && grid.is_filled(&target).unwrap() {
            break;
        }
        iterations += 1;
        let row_limits = plan_row_windows(&grid, config.strategy, th, tw);
        let row_pass = run_pass(
            &mut grid,
            Axis::Row,
            &row_limits,
            config.row_enable.as_deref(),
        );
        let col_pass = run_pass(
            &mut grid,
            Axis::Col,
            &col_limits,
            config.col_enable.as_deref(),
        );
        let progressed = row_pass.shift_count() + col_pass.shift_count() > 0;
        passes.push(row_pass);
        passes.push(col_pass);
        if !progressed && !config.static_iterations {
            break;
        }
    }
    let filled = grid.is_filled(&target).unwrap();
    KernelOutcome {
        passes,
        final_grid: grid,
        iterations,
        filled,
    }
}
