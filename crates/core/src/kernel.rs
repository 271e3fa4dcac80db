//! The canonical per-quadrant shift kernel (paper §III-A, §IV-C).
//!
//! The kernel operates on a canonically-oriented quadrant grid
//! (compression corner at `(0, 0)`, see [`crate::quadrant`]) and emits a
//! sequence of *passes*; each pass scans every line along one axis and
//! produces *waves* of simultaneous unit suffix shifts — exactly what the
//! FPGA pipeline of Fig. 6 computes with its row buffer / column buffer /
//! shift-command buffer datapath. Passes alternate row-wise and
//! column-wise, repeated for a bounded number of iterations (the paper
//! uses four).
//!
//! Two strategies are provided:
//!
//! * [`KernelStrategy::Greedy`] — the paper-faithful kernel: every line is
//!   compacted flush toward the corner on each pass. Simple and fast, but
//!   greedy corner compaction can reach a "Young-diagram" fixed point that
//!   leaves the far corner of aggressive targets under-filled.
//! * [`KernelStrategy::Balanced`] — a deficit-aware extension: supply
//!   lines (rows outside the target band) are flushed only down to the
//!   leftmost *deficient* target column, parking their atoms above the
//!   columns that still need them before the vertical pass drains them in.
//!   This preserves the same pass/wave structure (and therefore the same
//!   hardware pipeline) while reliably filling paper-scale targets.
//!
//! The paper's `sen` manual-control signal (blocking selected lines from
//! shifting, §IV-C) is exposed as [`KernelConfig::row_enable`] /
//! [`KernelConfig::col_enable`].

use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Rect};
use crate::grid::AtomGrid;

/// One unit suffix shift: in line `line`, every atom at positions
/// `> hole` moves one site toward position 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LocalShift {
    /// Line index (row for a row pass, column for a column pass).
    pub line: usize,
    /// Hole position along the line; must be empty when the shift fires.
    pub hole: usize,
}

/// One wave: suffix shifts on distinct lines that execute simultaneously
/// (same direction, same unit step — the multi-tweezer parallelism of
/// §II-B).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LocalWave {
    /// The simultaneous shifts, at most one per line.
    pub shifts: Vec<LocalShift>,
}

impl LocalWave {
    /// Whether the wave contains no shifts.
    pub fn is_empty(&self) -> bool {
        self.shifts.is_empty()
    }
}

/// One pass: all waves produced by scanning every line along `axis` until
/// no line can shift further.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LocalPass {
    /// Scan axis: [`Axis::Row`] compresses columns westward (toward local
    /// column 0), [`Axis::Col`] compresses rows northward (toward local
    /// row 0).
    pub axis: Axis,
    /// Waves in execution order.
    pub waves: Vec<LocalWave>,
}

impl LocalPass {
    /// Total number of unit shifts in the pass.
    pub fn shift_count(&self) -> usize {
        self.waves.iter().map(|w| w.shifts.len()).sum()
    }
}

/// Kernel scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum KernelStrategy {
    /// Paper-faithful greedy compaction: flush every line to the corner.
    Greedy,
    /// Greedy, but only holes inside the target band trigger shifts
    /// (a `sen`-style restriction of shifting "far from the center").
    GreedyTargetOnly,
    /// Deficit-aware supply parking (extension; default).
    #[default]
    Balanced,
}

/// Configuration of a [`ShiftKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelConfig {
    /// Target extent along the row axis (canonical rows `0..target_height`).
    pub target_height: usize,
    /// Target extent along the column axis (canonical cols `0..target_width`).
    pub target_width: usize,
    /// Iteration budget; each iteration is one row pass plus one column
    /// pass. The paper uses a static 4 (§V-B); the library default is 12.
    pub max_iterations: usize,
    /// Scheduling strategy.
    pub strategy: KernelStrategy,
    /// Per-row shift enable (`sen`): rows mapped to `false` never shift in
    /// row passes. `None` enables all rows.
    pub row_enable: Option<Vec<bool>>,
    /// Per-column shift enable for column passes. `None` enables all.
    pub col_enable: Option<Vec<bool>>,
    /// Run exactly `max_iterations` iterations with no early exit — the
    /// behaviour of the FPGA, whose pass schedule is static ("it is also
    /// statically known which shift commands finish at which time",
    /// §IV-C). Software defaults to `false` (stop once the target fills
    /// or no shift fires).
    pub static_iterations: bool,
}

impl KernelConfig {
    /// A config for a `target_height x target_width` corner target with
    /// library defaults: balanced strategy, a 12-iteration budget, all
    /// lines enabled.
    ///
    /// The paper's hardware runs a *static* 4 iterations with the greedy
    /// kernel; at 50 % load that fully assembles ~2/3 of paper-scale
    /// targets and leaves 1–3 defects otherwise (see README, "Reproduced
    /// results", E-x1). The balanced strategy reaches ~100 % assembly within ~5
    /// iterations on average (more for larger arrays); the 12-iteration
    /// budget is a safety margin — software exits early once the target
    /// fills.
    pub fn new(target_height: usize, target_width: usize) -> Self {
        KernelConfig {
            target_height,
            target_width,
            max_iterations: 12,
            strategy: KernelStrategy::default(),
            row_enable: None,
            col_enable: None,
            static_iterations: false,
        }
    }

    /// Enables or disables the hardware-style static iteration schedule.
    #[must_use]
    pub fn with_static_iterations(mut self, enabled: bool) -> Self {
        self.static_iterations = enabled;
        self
    }

    /// Replaces the strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }
}

/// Result of running the kernel on one canonical quadrant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutcome {
    /// Passes in execution order (alternating row/column, starting with
    /// rows). A quadrant that finishes early simply has fewer passes.
    pub passes: Vec<LocalPass>,
    /// Quadrant occupancy after all passes.
    pub final_grid: AtomGrid,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the corner target is defect-free.
    pub filled: bool,
}

impl KernelOutcome {
    /// Total unit shifts across all passes.
    pub fn shift_count(&self) -> usize {
        self.passes.iter().map(LocalPass::shift_count).sum()
    }
}

/// The per-quadrant scheduler.
///
/// ```
/// use qrm_core::kernel::{KernelConfig, ShiftKernel};
/// use qrm_core::grid::AtomGrid;
///
/// // 4x4 canonical quadrant, 2x2 corner target.
/// let q = AtomGrid::parse(
///     ".#..\n\
///      ...#\n\
///      #...\n\
///      ..#.",
/// )?;
/// let kernel = ShiftKernel::new(KernelConfig::new(2, 2));
/// let out = kernel.run(&q)?;
/// assert!(out.filled);
/// assert_eq!(out.final_grid.atom_count(), q.atom_count());
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShiftKernel {
    config: KernelConfig,
}

impl ShiftKernel {
    /// Creates a kernel with the given configuration.
    pub fn new(config: KernelConfig) -> Self {
        ShiftKernel { config }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Runs the kernel on a canonical quadrant grid: up to
    /// `max_iterations` iterations of one row pass then one column pass.
    /// Unless the schedule is static, the run stops early once the corner
    /// target fills or an iteration fires no shift.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the target extent exceeds the
    /// quadrant or is zero.
    pub fn run(&self, quadrant: &AtomGrid) -> Result<KernelOutcome, Error> {
        let (qh, qw) = quadrant.dims();
        let (th, tw) = (self.config.target_height, self.config.target_width);
        if th > qh || tw > qw {
            return Err(Error::InvalidTarget {
                reason: "target extent exceeds quadrant",
            });
        }
        if th == 0 || tw == 0 {
            return Err(Error::InvalidTarget {
                reason: "target has zero extent",
            });
        }
        let target = Rect::new(0, 0, th, tw);
        let col_limits = plan_col_windows(self.config.strategy, qh, qw, th, tw);
        let mut grid = quadrant.clone();
        // Column passes scan this transposed view in place of the grid
        // (the hardware "column stream to row stream" trick).
        let mut view = AtomGrid::new(qw, qh)?;
        let mut passes = Vec::new();
        let mut iterations = 0;
        while iterations < self.config.max_iterations {
            if !self.config.static_iterations && grid.is_filled(&target)? {
                break;
            }
            iterations += 1;
            let row_limits = plan_row_windows(&grid, self.config.strategy, th, tw);
            let row_pass = pass_over_lines(
                &mut grid,
                Axis::Row,
                &row_limits,
                self.config.row_enable.as_deref(),
            );
            grid.transpose_into(&mut view);
            let col_pass = pass_over_lines(
                &mut view,
                Axis::Col,
                &col_limits,
                self.config.col_enable.as_deref(),
            );
            view.transpose_into(&mut grid);
            let progressed = row_pass.shift_count() + col_pass.shift_count() > 0;
            passes.push(row_pass);
            passes.push(col_pass);
            if !progressed && !self.config.static_iterations {
                break;
            }
        }
        let filled = grid.is_filled(&target)?;
        Ok(KernelOutcome {
            passes,
            final_grid: grid,
            iterations,
            filled,
        })
    }
}

/// Computes the per-row `(floor, limit)` hole windows for a horizontal
/// pass — the strategy-specific planning step of the kernel. Exposed so
/// the cycle-accurate FPGA model (`qrm-fpga`) drives its pipelined shift
/// units with exactly the same windows.
///
/// The balanced strategy plans *quota parking*: each row is flushed only
/// down to a *floor* chosen over the columns whose projected atom supply
/// is still short of the target height. Because atoms only ever move
/// toward column 0, deficits to the **right** are the scarce resource —
/// only atoms still east of them can ever serve them — so the floor is
/// picked to maximise the number of deficient columns covered by the
/// row's resulting pile, breaking ties toward the east. Floors are chosen
/// sequentially, simulating each row's pass and updating the per-column
/// supply, so each deficient column receives parked atoms from as many
/// distinct rows as it still needs. Atoms right of the target band that
/// are not yet needed stay parked there as a reserve for later iterations
/// (the balanced vertical pass deliberately leaves those columns
/// untouched).
pub fn plan_row_windows(
    grid: &AtomGrid,
    strategy: KernelStrategy,
    th: usize,
    tw: usize,
) -> Vec<(usize, usize)> {
    let (qh, qw) = grid.dims();
    {
        match strategy {
            KernelStrategy::Greedy => vec![(0, qw); qh],
            KernelStrategy::GreedyTargetOnly => vec![(0, tw); qh],
            KernelStrategy::Balanced => {
                // Live supply per target column: every atom already in
                // column c can be drained into the target band by the
                // vertical pass, so a column is satisfied once its total
                // supply reaches the target height.
                let mut supply: Vec<usize> = (0..tw).map(|c| grid.col_count(c)).collect();
                let mut limits = vec![(0, tw); qh];
                #[allow(clippy::needless_range_loop)] // r indexes both limits and grid rows
                for r in 0..qh {
                    let floor = best_floor(grid.row_bits(r), &supply, th, tw);
                    let limit = if r < th { tw } else { qw };
                    limits[r] = (floor.min(limit), limit);
                    // Simulate this row's single-traversal pass to keep
                    // the supply projection accurate for the remaining
                    // rows (same semantics as `run_pass`).
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
}

/// Picks the parking floor for one row under the balanced strategy: the
/// floor whose resulting pile covers the most still-deficient columns,
/// preferring larger floors on ties (right deficits can only be served
/// by atoms still east of them; left deficits keep more options open).
/// Returns `tw` (hold the reserve right of the band) when the row cannot
/// serve any deficit.
fn best_floor(bits: &[u64], supply: &[usize], th: usize, tw: usize) -> usize {
    let deficient: Vec<bool> = supply.iter().map(|&s| s < th).collect();
    let Some(top) = bitline::highest_one(bits) else {
        return tw; // empty row: window is irrelevant
    };
    // Rightmost deficit this row can reach with at least one atom.
    let Some(rd) = (0..tw).rev().find(|&c| deficient[c] && top >= c) else {
        return tw;
    };
    // Evaluate candidate floors: a pile anchored at `floor` holds the
    // row's atoms at positions >= floor and covers floor..floor+n-1.
    // Ascending iteration with `>=` keeps the largest floor among the
    // maxima, so atoms are never flushed past a right deficit needlessly.
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

/// Computes the per-column `(floor, limit)` hole windows for a vertical
/// pass. Columns are the lines of the pass; the window bounds hole
/// positions along each column (i.e. row indices). Exposed for the FPGA
/// model, like [`plan_row_windows`].
pub fn plan_col_windows(
    strategy: KernelStrategy,
    qh: usize,
    qw: usize,
    th: usize,
    tw: usize,
) -> Vec<(usize, usize)> {
    match strategy {
        KernelStrategy::Greedy => vec![(0, qh); qw],
        // Only fill holes inside the target band of rows; atoms above
        // still ride the suffix down into them.
        KernelStrategy::GreedyTargetOnly => vec![(0, th); qw],
        // Drain only target columns; columns right of the band keep
        // their parked reserve for later horizontal passes.
        KernelStrategy::Balanced => (0..qw)
            .map(|c| if c < tw { (0, th) } else { (0, 0) })
            .collect(),
    }
}

/// Runs one pass along `axis`, mutating `grid`.
///
/// The pass is a **single pipelined traversal** exactly like the FPGA
/// shift unit of Fig. 6: every line is scanned from position 0 upward; at
/// each scan position `k` inside the line's `(floor, limit)` window, if
/// the position is a hole with atoms above it, a suffix shift fires and
/// scanning proceeds to `k + 1`. At most one shift fires per position per
/// line, so the emission time of every shift command is statically known —
/// the property the paper's Row Combination Unit exploits (§IV-C). Wave
/// `k` of the returned pass holds all shifts that fired at scan position
/// `k` (interior empty waves are retained to preserve that alignment;
/// trailing empty waves are trimmed).
///
/// `limits[line]` is the `(floor, limit)` hole window per line; lines
/// beyond `limits.len()` use `(0, line_length)`.
pub fn run_pass(
    grid: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
) -> LocalPass {
    // Work on lines along the pass axis: rows directly in place, or
    // columns via a transposed view (the hardware "column stream to row
    // stream" trick).
    match axis {
        Axis::Row => pass_over_lines(grid, axis, limits, enable),
        Axis::Col => {
            let mut view = grid.transpose();
            let pass = pass_over_lines(&mut view, axis, limits, enable);
            view.transpose_into(grid);
            pass
        }
    }
}

/// The single pipelined traversal of [`run_pass`], scanning and shifting
/// the rows of `view` in place. Safe to apply in place because
/// [`bitline::suffix_shift`] preserves the grid's zero-tail word
/// invariant, so the mutated rows are exactly what the former
/// copy-mutate-write-back sequence produced.
fn pass_over_lines(
    view: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
) -> LocalPass {
    let (nlines, linelen) = (view.height(), view.width());
    let scan_end = limits
        .iter()
        .map(|&(_, hi)| hi)
        .max()
        .unwrap_or(linelen)
        .min(linelen);
    let mut waves = Vec::new();
    for k in 0..scan_end {
        let mut wave = LocalWave::default();
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
            let bits = view.row_bits_mut(line);
            if !bitline::get(bits, k) && bitline::highest_one(bits).is_some_and(|top| top > k) {
                bitline::suffix_shift(bits, k, linelen);
                wave.shifts.push(LocalShift { line, hole: k });
            }
        }
        waves.push(wave);
    }
    while waves.last().is_some_and(LocalWave::is_empty) {
        waves.pop();
    }
    LocalPass { axis, waves }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Position;
    use crate::loading::seeded_rng;

    /// Replays the waves of an outcome onto a fresh copy of the input and
    /// checks the result matches `final_grid` — the property the merge
    /// stage relies on.
    fn replay(input: &AtomGrid, outcome: &KernelOutcome) -> AtomGrid {
        let mut g = input.clone();
        for pass in &outcome.passes {
            for wave in &pass.waves {
                let mut view = match pass.axis {
                    Axis::Row => g.clone(),
                    Axis::Col => g.transpose(),
                };
                let w = view.width();
                for s in &wave.shifts {
                    let mut bits = view.row_bits(s.line).to_vec();
                    assert!(
                        !bitline::get(&bits, s.hole),
                        "replay: hole {} of line {} occupied",
                        s.hole,
                        s.line
                    );
                    bitline::suffix_shift(&mut bits, s.hole, w);
                    view.set_row_bits(s.line, &bits);
                }
                g = match pass.axis {
                    Axis::Row => view,
                    Axis::Col => view.transpose(),
                };
            }
        }
        g
    }

    fn run(grid: &AtomGrid, th: usize, tw: usize, strategy: KernelStrategy) -> KernelOutcome {
        ShiftKernel::new(KernelConfig::new(th, tw).with_strategy(strategy))
            .run(grid)
            .unwrap()
    }

    #[test]
    fn rejects_oversized_or_zero_target() {
        let g = AtomGrid::new(4, 4).unwrap();
        assert!(ShiftKernel::new(KernelConfig::new(5, 2)).run(&g).is_err());
        assert!(ShiftKernel::new(KernelConfig::new(2, 5)).run(&g).is_err());
        assert!(ShiftKernel::new(KernelConfig::new(0, 2)).run(&g).is_err());
    }

    #[test]
    fn trivial_already_filled() {
        let g = AtomGrid::parse("##..\n##..\n....\n....").unwrap();
        let out = run(&g, 2, 2, KernelStrategy::Greedy);
        assert!(out.filled);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.shift_count(), 0);
        assert_eq!(out.final_grid, g);
    }

    #[test]
    fn single_row_compaction() {
        let g = AtomGrid::parse(".#.#").unwrap();
        let out = run(&g, 1, 2, KernelStrategy::Greedy);
        assert!(out.filled);
        assert_eq!(out.final_grid, AtomGrid::parse("##..").unwrap());
    }

    #[test]
    fn greedy_fills_small_quadrant() {
        // 8x8 half-filled quadrant, 4x4 target: ample slack.
        let mut rng = seeded_rng(21);
        let mut ok = 0;
        for _ in 0..20 {
            let g = AtomGrid::random(8, 8, 0.5, &mut rng);
            if g.atom_count() < 16 {
                continue;
            }
            let out = run(&g, 4, 4, KernelStrategy::Greedy);
            assert_eq!(out.final_grid.atom_count(), g.atom_count());
            if out.filled {
                ok += 1;
            }
        }
        assert!(ok >= 15, "greedy filled only {ok}/20 easy instances");
    }

    #[test]
    fn balanced_fills_paper_scale_quadrant() {
        // The headline case per quadrant: 25x25 at 50% fill, 15x15 target.
        let mut rng = seeded_rng(99);
        let mut filled = 0;
        let mut tried = 0;
        for _ in 0..20 {
            let g = AtomGrid::random(25, 25, 0.5, &mut rng);
            if g.atom_count() < 240 {
                continue; // keep a supply margin over the 225 required
            }
            tried += 1;
            let out = run(&g, 15, 15, KernelStrategy::Balanced);
            assert_eq!(out.final_grid.atom_count(), g.atom_count());
            if out.filled {
                filled += 1;
            }
        }
        assert!(tried >= 10, "seed produced too few feasible instances");
        assert!(
            filled * 10 >= tried * 9,
            "balanced filled only {filled}/{tried}"
        );
    }

    #[test]
    fn balanced_beats_greedy_on_stress_instance() {
        // Construct a distribution where greedy corner compaction
        // under-covers: many short rows plus a few long ones.
        let mut g = AtomGrid::new(10, 10).unwrap();
        // rows 0..6: 3 atoms each (can't reach column 4 alone)
        for r in 0..7 {
            for c in 0..3 {
                g.set_unchecked(r, c, true);
            }
        }
        // rows 7..10: full rows (supply)
        for r in 7..10 {
            for c in 0..10 {
                g.set_unchecked(r, c, true);
            }
        }
        let target = Rect::new(0, 0, 5, 5);
        let greedy = run(&g, 5, 5, KernelStrategy::Greedy);
        let balanced = run(&g, 5, 5, KernelStrategy::Balanced);
        let greedy_fill = greedy.final_grid.count_in(&target).unwrap();
        let balanced_fill = balanced.final_grid.count_in(&target).unwrap();
        assert!(balanced.filled, "balanced should fill: {balanced_fill}/25");
        assert!(
            balanced_fill >= greedy_fill,
            "balanced {balanced_fill} < greedy {greedy_fill}"
        );
    }

    #[test]
    fn waves_replay_to_final_grid() {
        let mut rng = seeded_rng(5);
        for strategy in [
            KernelStrategy::Greedy,
            KernelStrategy::GreedyTargetOnly,
            KernelStrategy::Balanced,
        ] {
            for _ in 0..10 {
                let g = AtomGrid::random(12, 12, 0.5, &mut rng);
                let out = run(&g, 7, 7, strategy);
                assert_eq!(replay(&g, &out), out.final_grid, "{strategy:?}");
            }
        }
    }

    #[test]
    fn atoms_only_move_toward_corner() {
        // Monotonicity: total (row+col) weight never increases.
        let mut rng = seeded_rng(31);
        let g = AtomGrid::random(10, 10, 0.5, &mut rng);
        let weight =
            |g: &AtomGrid| -> usize { g.occupied().map(|p: Position| p.row + p.col).sum() };
        let out = run(&g, 6, 6, KernelStrategy::Balanced);
        assert!(weight(&out.final_grid) <= weight(&g));
    }

    #[test]
    fn passes_alternate_axes() {
        let mut rng = seeded_rng(8);
        let g = AtomGrid::random(10, 10, 0.5, &mut rng);
        let out = run(&g, 6, 6, KernelStrategy::Balanced);
        for (i, pass) in out.passes.iter().enumerate() {
            let expect = if i % 2 == 0 { Axis::Row } else { Axis::Col };
            assert_eq!(pass.axis, expect, "pass {i}");
        }
    }

    #[test]
    fn row_enable_blocks_rows() {
        let g = AtomGrid::parse(".#\n.#").unwrap();
        let mut cfg = KernelConfig::new(2, 2).with_strategy(KernelStrategy::Greedy);
        cfg.row_enable = Some(vec![true, false]);
        let out = ShiftKernel::new(cfg).run(&g).unwrap();
        // Row 0 compacts; row 1 is sen-blocked; its atom can still be
        // reached by the column pass though — column 1 pulls nothing
        // since column passes are separately enabled.
        assert!(out.final_grid.get_unchecked(0, 0), "row 0 compacted");
        // row 1's atom stayed at column 1 (blocked) until a column pass
        // moved it vertically (column 1, toward row 0) — but row 0 col 1
        // was emptied by row 0's shift... verify row1 never shifted
        // horizontally: its atom is in column 1 or moved only vertically.
        let atoms: Vec<Position> = out.final_grid.occupied().collect();
        assert!(atoms.iter().all(|p| !(p.row == 1 && p.col == 0)));
    }

    #[test]
    fn max_iterations_bounds_work() {
        let mut rng = seeded_rng(77);
        let g = AtomGrid::random(20, 20, 0.5, &mut rng);
        let out = ShiftKernel::new(
            KernelConfig::new(12, 12)
                .with_strategy(KernelStrategy::Balanced)
                .with_max_iterations(1),
        )
        .run(&g)
        .unwrap();
        assert!(out.iterations <= 1);
        assert!(out.passes.len() <= 2);
    }

    #[test]
    fn iteration_count_matches_paper_narrative() {
        // Paper §V-B: "four iterations were used to complete the entire
        // process". With the default 12-iteration budget, the balanced
        // kernel should fill essentially always, and a clear majority of
        // paper-scale quadrants should finish within the paper's 4.
        let mut rng = seeded_rng(1312);
        let mut filled = 0;
        let mut within_four = 0;
        let mut tried = 0;
        for _ in 0..15 {
            let g = AtomGrid::random(25, 25, 0.5, &mut rng);
            if g.atom_count() < 240 {
                continue;
            }
            tried += 1;
            let out = run(&g, 15, 15, KernelStrategy::Balanced);
            if out.filled {
                filled += 1;
                if out.iterations <= 4 {
                    within_four += 1;
                }
            }
        }
        assert!(
            filled * 10 >= tried * 9,
            "only {filled}/{tried} filled at all"
        );
        assert!(
            within_four * 2 >= tried,
            "only {within_four}/{tried} finished within 4 iterations"
        );
    }
}
