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
//!
//! ## Computing a pass
//!
//! The hardware scans position by position, but within a pass each
//! line's shifts depend only on that line's bits when the pass starts,
//! so the software computes them in closed form. After `s` shifts, scan
//! position `k` holds original position `k + s`, and a shift fires at
//! `k` exactly when that original position is empty, lies below the
//! line's top atom, and `k` is inside the line's `(floor, limit)`
//! window. One walk per line therefore skips each run of atoms in one
//! step and, inside each gap, fires at every other original position,
//! removing `ceil(len / 2)` of the gap's empty sites with one word-level
//! [`bitline::suffix_shift_by`]. The balanced window planner simulates
//! each row with the same walk.
//!
//! A pass stores its shifts in one flat buffer ordered by (hole, line),
//! wave `k` being a slice of it (see [`LocalPass`]). The walks find
//! shifts in line order; a counting sort over hole positions groups
//! them into waves. Its two buffers are allocated once per
//! [`ShiftKernel::run`] and reused by every pass, so a pass allocates
//! only its own shift and wave-offset buffers. The per-position scan
//! survives as the test-only `reference` module the equivalence
//! tests compare against.

use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Rect};
use crate::grid::AtomGrid;

#[cfg(test)]
mod reference;

/// One unit suffix shift: in line `line`, every atom at positions
/// `> hole` moves one site toward position 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalShift {
    /// Line index (row for a row pass, column for a column pass).
    pub line: usize,
    /// Hole position along the line; must be empty when the shift fires.
    pub hole: usize,
}

/// One pass: all shifts produced by scanning every line along `axis`
/// once, grouped into *waves*. Wave `k` holds the shifts that fired at
/// scan position `k`, at most one per line, in line order; they execute
/// simultaneously (same direction, same unit step — the multi-tweezer
/// parallelism of §II-B).
///
/// The shifts live in one buffer ordered by (hole, line), and each wave
/// is a slice of it. Interior empty waves are kept, so wave `k` stays
/// at scan position `k`; trailing empty waves are trimmed, so two passes
/// with the same shifts compare equal however they were built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalPass {
    /// Scan axis: [`Axis::Row`] compresses columns westward (toward local
    /// column 0), [`Axis::Col`] compresses rows northward (toward local
    /// row 0).
    pub axis: Axis,
    /// Every shift of the pass, ordered by (hole, line).
    shifts: Vec<LocalShift>,
    /// Offset into `shifts` of each wave's first shift.
    starts: Vec<usize>,
}

impl LocalPass {
    /// Builds a pass from its waves in execution order, trimming
    /// trailing empty waves.
    pub fn from_waves<'a>(axis: Axis, waves: impl IntoIterator<Item = &'a [LocalShift]>) -> Self {
        let mut pass = LocalPass {
            axis,
            shifts: Vec::new(),
            starts: Vec::new(),
        };
        for wave in waves {
            pass.starts.push(pass.shifts.len());
            pass.shifts.extend_from_slice(wave);
        }
        while pass.starts.last() == Some(&pass.shifts.len()) {
            pass.starts.pop();
        }
        pass
    }

    /// Number of waves, interior empty ones included.
    pub fn wave_count(&self) -> usize {
        self.starts.len()
    }

    /// The shifts of wave `k`, or `None` past the last wave.
    pub fn wave(&self, k: usize) -> Option<&[LocalShift]> {
        let start = *self.starts.get(k)?;
        let end = self.starts.get(k + 1).copied().unwrap_or(self.shifts.len());
        Some(&self.shifts[start..end])
    }

    /// The waves in execution order.
    pub fn waves(&self) -> impl Iterator<Item = &[LocalShift]> + '_ {
        (0..self.wave_count()).filter_map(|k| self.wave(k))
    }

    /// Total number of unit shifts in the pass.
    pub fn shift_count(&self) -> usize {
        self.shifts.len()
    }
}

/// Kernel scheduling strategy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
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
        let mut sort = WaveSort::default();
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
                &mut sort,
            );
            grid.transpose_into(&mut view);
            let col_pass = pass_over_lines(
                &mut view,
                Axis::Col,
                &col_limits,
                self.config.col_enable.as_deref(),
                &mut sort,
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
            let mut line = vec![0u64; bitline::words_for(qw)];
            for (r, window) in limits.iter_mut().enumerate() {
                let before = grid.row_bits(r);
                let floor = best_floor(before, &supply, th, tw);
                let limit = if r < th { tw } else { qw };
                *window = (floor.min(limit), limit);
                // Simulate this row's pass to keep the supply projection
                // accurate for the remaining rows.
                line.copy_from_slice(before);
                compact_line(&mut line, qw, *window, |_| {});
                for (c, column) in supply.iter_mut().enumerate() {
                    *column = *column + usize::from(bitline::get(&line, c))
                        - usize::from(bitline::get(before, c));
                }
            }
            limits
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
    let deficient = |c: usize| supply[c] < th;
    let Some(top) = bitline::highest_one(bits) else {
        return tw; // empty row: window is irrelevant
    };
    // Rightmost deficit this row can reach with at least one atom.
    let Some(rd) = (0..tw).rev().find(|&c| deficient(c) && top >= c) else {
        return tw;
    };
    // Evaluate candidate floors: a pile anchored at `floor` holds the
    // row's atoms at positions >= floor and covers floor..floor+n-1.
    // Ascending iteration with `>=` keeps the largest floor among the
    // maxima, so atoms are never flushed past a right deficit needlessly.
    let mut best = tw;
    let mut best_cover = 0usize;
    for floor in 0..=rd {
        let n = bitline::count_ones_in(bits, floor, top + 1);
        if n == 0 {
            continue;
        }
        let hi = (floor + n).min(tw);
        let cover = (floor..hi).filter(|&c| deficient(c)).count();
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
/// The pass computes what the FPGA shift unit of Fig. 6 computes in a
/// **single pipelined traversal**: every line is scanned from position 0
/// upward; at each scan position `k` inside the line's `(floor, limit)`
/// window, if the position is a hole with atoms above it, a suffix shift
/// fires and scanning proceeds to `k + 1`. At most one shift fires per
/// position per line, so the emission time of every shift command is
/// statically known — the property the paper's Row Combination Unit
/// exploits (§IV-C). The software finds each line's shifts with one
/// closed-form walk (see the module docs) instead of probing every
/// position.
///
/// The returned pass holds its shifts in one buffer ordered by (hole,
/// line); wave `k` is the slice that fired at scan position `k`
/// (interior empty waves are retained to preserve that alignment;
/// trailing empty waves are trimmed).
///
/// `limits[line]` is the `(floor, limit)` hole window per line; lines
/// beyond `limits.len()` use `(0, line_length)`. Lines whose `enable`
/// entry is `false` do not shift; lines beyond `enable` do.
pub fn run_pass(
    grid: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
) -> LocalPass {
    // Work on lines along the pass axis: rows directly in place, or
    // columns via a transposed view (the hardware "column stream to row
    // stream" trick).
    let mut sort = WaveSort::default();
    match axis {
        Axis::Row => pass_over_lines(grid, axis, limits, enable, &mut sort),
        Axis::Col => {
            let mut view = grid.transpose();
            let pass = pass_over_lines(&mut view, axis, limits, enable, &mut sort);
            view.transpose_into(grid);
            pass
        }
    }
}

/// The pass of [`run_pass`] over the rows of `view`, shifting them in
/// place: one [`compact_line`] walk per enabled line, then a counting
/// sort of the shifts into waves.
fn pass_over_lines(
    view: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
    sort: &mut WaveSort,
) -> LocalPass {
    let (nlines, linelen) = (view.height(), view.width());
    sort.found.clear();
    for line in 0..nlines {
        if enable.is_some_and(|en| !en.get(line).copied().unwrap_or(true)) {
            continue;
        }
        let window = limits.get(line).copied().unwrap_or((0, linelen));
        compact_line(view.row_bits_mut(line), linelen, window, |hole| {
            sort.found.push(LocalShift { line, hole });
        });
    }
    sort.group(axis)
}

/// One line's pass in closed form: shifts `line` (of `width` sites) as
/// the per-position scan would and reports each fired hole, in
/// ascending order, to `fired`.
///
/// Each step finds the lowest hole at or above the scan position and
/// the lowest atom above it. Without an atom above, nothing more fires.
/// Otherwise the scan fires at every other site of the gap between
/// them: `ceil(gap / 2)` shifts at consecutive scan positions, clipped
/// to the window, which delete the gap's lowest sites. The site each
/// shift pulls down is skipped, so a gap of odd length lands its atom
/// on the last scan position and an even one leaves a hole there.
fn compact_line(
    line: &mut [u64],
    width: usize,
    (floor, limit): (usize, usize),
    mut fired: impl FnMut(usize),
) {
    let limit = limit.min(width);
    let mut k = floor;
    while let Some(hole) = bitline::lowest_zero_in(line, k, limit) {
        let Some(atom) = bitline::lowest_one_from(line, hole) else {
            return;
        };
        let fires = (atom - hole).div_ceil(2).min(limit - hole);
        bitline::suffix_shift_by(line, hole, fires, width);
        (hole..hole + fires).for_each(&mut fired);
        k = hole + fires;
    }
}

/// Groups a pass's shifts into waves with a counting sort over hole
/// positions. A [`ShiftKernel::run`] keeps one and reuses its buffers
/// for every pass.
#[derive(Debug, Default)]
struct WaveSort {
    /// The pass's shifts in line order, as the walks find them.
    found: Vec<LocalShift>,
    /// Shifts per hole position, then each wave's next free slot.
    counts: Vec<usize>,
}

impl WaveSort {
    /// Sorts `found` by (hole, line) into a new pass. Lines were walked
    /// in ascending order, so the sort only has to be stable.
    fn group(&mut self, axis: Axis) -> LocalPass {
        let nwaves = self.found.iter().map(|s| s.hole + 1).max().unwrap_or(0);
        self.counts.clear();
        self.counts.resize(nwaves, 0);
        for s in &self.found {
            self.counts[s.hole] += 1;
        }
        let mut starts = Vec::with_capacity(nwaves);
        let mut next = 0;
        for slot in &mut self.counts {
            starts.push(next);
            next += std::mem::replace(slot, next);
        }
        let mut shifts = vec![LocalShift { line: 0, hole: 0 }; self.found.len()];
        for &s in &self.found {
            shifts[self.counts[s.hole]] = s;
            self.counts[s.hole] += 1;
        }
        LocalPass {
            axis,
            shifts,
            starts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Position;
    use crate::loading::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    const STRATEGIES: [KernelStrategy; 3] = [
        KernelStrategy::Greedy,
        KernelStrategy::GreedyTargetOnly,
        KernelStrategy::Balanced,
    ];

    /// Replays the waves of an outcome onto a fresh copy of the input and
    /// checks the result matches `final_grid` — the property the merge
    /// stage relies on.
    fn replay(input: &AtomGrid, outcome: &KernelOutcome) -> AtomGrid {
        let mut g = input.clone();
        for pass in &outcome.passes {
            for wave in pass.waves() {
                let mut view = match pass.axis {
                    Axis::Row => g.clone(),
                    Axis::Col => g.transpose(),
                };
                let w = view.width();
                for s in wave {
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

    #[test]
    fn lines_beyond_the_windows_use_the_whole_line() {
        // Row 1 has no window of its own, so it compacts over all six
        // sites, exactly as if it had been given (0, 6).
        let g = AtomGrid::parse("..#...\n.....#").unwrap();
        let expect = AtomGrid::parse(".#....\n..#...").unwrap();
        for limits in [vec![(0, 2)], vec![(0, 2), (0, 6)]] {
            let mut fast = g.clone();
            let pass = run_pass(&mut fast, Axis::Row, &limits, None);
            assert_eq!(fast, expect, "limits {limits:?}");
            let mut slow = g.clone();
            assert_eq!(
                reference::run_pass(&mut slow, Axis::Row, &limits, None),
                pass
            );
            assert_eq!(slow, expect);
        }
    }

    #[test]
    fn passes_are_built_flat_and_trimmed() {
        let shift = |line, hole| LocalShift { line, hole };
        let waves: [&[LocalShift]; 4] = [&[shift(0, 0), shift(2, 0)], &[], &[shift(1, 2)], &[]];
        let pass = LocalPass::from_waves(Axis::Col, waves);
        assert_eq!(pass.wave_count(), 3);
        assert_eq!(pass.shift_count(), 3);
        assert_eq!(pass.wave(1), Some(&[][..]));
        assert_eq!(pass.wave(2), Some(&[shift(1, 2)][..]));
        assert_eq!(pass.wave(3), None);
        assert_eq!(pass.waves().collect::<Vec<_>>(), waves[..3].to_vec());
        let mut g = AtomGrid::parse("#.#\n.#.").unwrap();
        let empty = run_pass(&mut g, Axis::Row, &[(0, 0), (0, 0)], None);
        assert_eq!(empty, LocalPass::from_waves(Axis::Row, [&[][..]; 3]));
        assert_eq!((empty.wave_count(), empty.waves().count()), (0, 0));
    }

    /// Windows for a pass of `axis` over `grid`: a strategy's, checked
    /// against the reference planner for row passes, or random ones for
    /// `None`.
    fn windows_for(
        grid: &AtomGrid,
        axis: Axis,
        strategy: Option<KernelStrategy>,
        (th, tw): (usize, usize),
        rng: &mut impl Rng,
    ) -> Vec<(usize, usize)> {
        let (qh, qw) = grid.dims();
        let (lines, len) = match axis {
            Axis::Row => (qh, qw),
            Axis::Col => (qw, qh),
        };
        match (strategy, axis) {
            (Some(strategy), Axis::Row) => {
                let windows = plan_row_windows(grid, strategy, th, tw);
                assert_eq!(
                    windows,
                    reference::plan_row_windows(grid, strategy, th, tw),
                    "{strategy:?} row windows"
                );
                windows
            }
            (Some(strategy), Axis::Col) => plan_col_windows(strategy, qh, qw, th, tw),
            // Some lines may go without a window; floors and limits may
            // cross or pass the line's end.
            (None, _) => (0..rng.gen_range(0..lines + 2))
                .map(|_| (rng.gen_range(0..len + 2), rng.gen_range(0..len + 2)))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn closed_form_pass_matches_the_scan(
            height in 1usize..131,
            width in 1usize..131,
            fill_percent in 0u32..101,
            seed in any::<u64>(),
            target in (0.0f64..1.0, 0.0f64..1.0),
            strategy in 0usize..4,
            column in any::<bool>(),
            gate in any::<bool>(),
        ) {
            let mut rng = seeded_rng(seed);
            let grid = AtomGrid::random(height, width, f64::from(fill_percent) / 100.0, &mut rng);
            let th = ((height as f64 * target.0) as usize).clamp(1, height);
            let tw = ((width as f64 * target.1) as usize).clamp(1, width);
            let axis = if column { Axis::Col } else { Axis::Row };
            // Index 3 draws random windows.
            let strategy = STRATEGIES.get(strategy).copied();
            let windows = windows_for(&grid, axis, strategy, (th, tw), &mut rng);
            let lines = if column { width } else { height };
            let enable: Option<Vec<bool>> = gate
                .then(|| (0..rng.gen_range(0..lines + 2)).map(|_| rng.gen_bool(0.7)).collect());
            let mut fast = grid.clone();
            let pass = run_pass(&mut fast, axis, &windows, enable.as_deref());
            let mut slow = grid.clone();
            let expect = reference::run_pass(&mut slow, axis, &windows, enable.as_deref());
            prop_assert_eq!(pass, expect);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn closed_form_kernel_matches_the_scan(
            height in 1usize..71,
            width in 1usize..71,
            fill_percent in 0u32..101,
            seed in any::<u64>(),
            target in (0.0f64..1.0, 0.0f64..1.0),
            strategy in 0usize..3,
            iterations in 0usize..7,
            static_iterations in any::<bool>(),
            gate in any::<bool>(),
        ) {
            let mut rng = seeded_rng(seed);
            let grid = AtomGrid::random(height, width, f64::from(fill_percent) / 100.0, &mut rng);
            let th = ((height as f64 * target.0) as usize).clamp(1, height);
            let tw = ((width as f64 * target.1) as usize).clamp(1, width);
            let mut config = KernelConfig::new(th, tw)
                .with_strategy(STRATEGIES[strategy])
                .with_max_iterations(iterations)
                .with_static_iterations(static_iterations);
            if gate {
                config.row_enable = Some((0..height).map(|_| rng.gen_bool(0.8)).collect());
                config.col_enable = Some((0..width).map(|_| rng.gen_bool(0.8)).collect());
            }
            let out = ShiftKernel::new(config.clone()).run(&grid).unwrap();
            let expect = reference::run_kernel(&config, &grid);
            prop_assert_eq!(&out.passes, &expect.passes);
            prop_assert_eq!(&out.final_grid, &expect.final_grid);
            prop_assert_eq!(out.iterations, expect.iterations);
            prop_assert_eq!(out.filled, expect.filled);
        }
    }
}
