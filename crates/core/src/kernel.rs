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
//! The hardware scans position by position, and so does the software,
//! but for every line of the quadrant at once. A pass holds the quadrant
//! as *bit planes*: plane `p` is `words_for(lines)` words whose bit `l`
//! is set when line `l` holds an atom at position `p`. A column pass's
//! planes are the quadrant's own rows; a row pass's are the rows of its
//! transpose, so a [`ShiftKernel::run`] still makes one 64×64-block
//! transpose per pass, and the two passes only swap which form they
//! read. Step `k` is a few word operations per plane:
//!
//! * `fire = window[k] & !plane[k] & (plane[k + 1] | … | plane[len - 1])`,
//!   where `window[k]` holds the enabled lines whose `(floor, limit)`
//!   window contains `k`;
//! * for `p ≥ k`, `plane[p] = (plane[p] & !fire) | (plane[p + 1] & fire)`,
//!   and the top plane clears the fired lines.
//!
//! `fire` *is* wave `k`: the set of lines that fired at scan position
//! `k`, which the pass writes whole into its mask buffer (see
//! [`LocalPass`]). That is the paper's shift-command buffer, one command
//! bit per line and scan position, and the unit the merge combines
//! across quadrants. The steps stop once no line that may fire holds an
//! empty site under an atom at or above `k`. The window masks are built
//! once per pass (row passes) or per run (column passes) with one toggle
//! at each end of every line's window and a running XOR over positions.
//! The balanced window planner still simulates each row with a
//! closed-form walk, because its column supply updates row by row.
//!
//! A pass allocates only its mask buffer, sized once for the line
//! length; a [`ShiftKernel::run`] adds its working grid and transposed
//! planes, the row windows, one buffer shared by both passes' window
//! masks and the plane scratch, and the pass list. The per-position
//! scan survives as the test-only `reference` module the equivalence
//! tests compare against.

use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Rect};
use crate::grid::AtomGrid;

#[cfg(test)]
mod reference;

/// One pass: every shift produced by scanning every line along `axis`
/// once, grouped into *waves*. Wave `k` is the set of lines that fired
/// at scan position `k`, so each of its shifts has its hole at `k`; they
/// execute simultaneously (same direction, same unit step — the
/// multi-tweezer parallelism of §II-B). That per-position line mask is
/// what the paper's shift-command buffer records and its Row
/// Combination Unit merges (§IV-C).
///
/// The masks live back to back in one buffer, `words_for(lines)` words
/// each. The kernel's plane steps write each wave whole; the reference
/// scan and the FPGA shift unit fire one line at a time through
/// [`fire`](Self::fire). Interior empty waves are kept, so wave `k`
/// stays at scan position `k`; trailing empty waves never exist, so two
/// passes with the same shifts compare equal however they were built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalPass {
    /// Scan axis: [`Axis::Row`] compresses columns westward (toward local
    /// column 0), [`Axis::Col`] compresses rows northward (toward local
    /// row 0).
    pub axis: Axis,
    /// Words per wave mask.
    words: usize,
    /// The wave masks in scan order; bit `line` of wave `k` is set when
    /// line `line` fired at `k`.
    masks: Vec<u64>,
}

impl LocalPass {
    /// An empty pass over `lines` lines of `len` scan positions each.
    /// The buffer is sized for `len` waves, so firing at a hole on the
    /// line never reallocates.
    pub fn new(axis: Axis, lines: usize, len: usize) -> Self {
        let words = bitline::words_for(lines).max(1);
        LocalPass {
            axis,
            words,
            masks: Vec::with_capacity(words * len),
        }
    }

    /// Records that `line` fired at scan position `hole`, adding empty
    /// waves up to wave `hole`.
    ///
    /// # Panics
    ///
    /// Panics when `line` reaches past a wave mask's words.
    pub fn fire(&mut self, hole: usize, line: usize) {
        let end = (hole + 1) * self.words;
        if self.masks.len() < end {
            self.masks.resize(end, 0);
        }
        bitline::set(&mut self.masks[end - self.words..end], line, true);
    }

    /// Records that every line set in `mask` fired at scan position
    /// `hole`: [`fire`](Self::fire) for a whole wave at once. A zero mask
    /// writes nothing, so it never adds a trailing empty wave.
    fn fire_wave(&mut self, hole: usize, mask: &[u64]) {
        if mask.iter().all(|&word| word == 0) {
            return;
        }
        let end = (hole + 1) * self.words;
        if self.masks.len() < end {
            self.masks.resize(end, 0);
        }
        for (wave, &word) in self.masks[end - self.words..end].iter_mut().zip(mask) {
            *wave |= word;
        }
    }

    /// Number of waves, interior empty ones included.
    pub fn wave_count(&self) -> usize {
        self.masks.len() / self.words
    }

    /// The line mask of wave `k`, or `None` past the last wave.
    pub fn wave(&self, k: usize) -> Option<&[u64]> {
        self.masks.get(k * self.words..(k + 1) * self.words)
    }

    /// The wave masks in execution order.
    pub fn waves(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.masks.chunks_exact(self.words)
    }

    /// Total number of unit shifts in the pass.
    pub fn shift_count(&self) -> usize {
        bitline::count_ones(&self.masks)
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
        let target = corner_target((qh, qw), th, tw)?;
        // One buffer holds the column masks, the row masks (rebuilt
        // every row pass) and the plane scratch of either pass.
        let (col_size, row_size) = (Gates::size(qw, qh), Gates::size(qh, qw));
        let mut buffer = vec![0; col_size + row_size + col_size.max(row_size)];
        let (col_masks, rest) = buffer.split_at_mut(col_size);
        let (row_masks, scratch) = rest.split_at_mut(row_size);
        let col_gates = Gates::build(
            col_masks,
            qw,
            qh,
            |col| col_window(self.config.strategy, col, qh, th, tw),
            self.config.col_enable.as_deref(),
        );
        let mut row_limits = Vec::with_capacity(qh);
        // A column pass's planes are the grid's own rows; a row pass's
        // are the rows of this transposed view (the hardware "column
        // stream to row stream" trick).
        let mut grid = quadrant.clone();
        let mut planes = AtomGrid::new(qw, qh)?;
        let mut passes = Vec::new();
        let mut iterations = 0;
        while iterations < self.config.max_iterations {
            if !self.config.static_iterations && grid.is_filled(&target)? {
                break;
            }
            iterations += 1;
            plan_row_windows_into(&grid, self.config.strategy, th, tw, &mut row_limits);
            let row_gates = Gates::build(
                row_masks,
                qh,
                qw,
                |row| row_limits[row],
                self.config.row_enable.as_deref(),
            );
            grid.transpose_into(&mut planes);
            let row_pass = pass_over_planes(&mut planes, Axis::Row, &row_gates, scratch);
            planes.transpose_into(&mut grid);
            let col_pass = pass_over_planes(&mut grid, Axis::Col, &col_gates, scratch);
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

/// The `th x tw` corner target of a canonical `qh x qw` quadrant, as
/// [`ShiftKernel::run`] and the FPGA model's quadrant processor check
/// it.
///
/// # Errors
///
/// Returns [`Error::InvalidTarget`] when the target extent exceeds the
/// quadrant or is zero.
pub fn corner_target((qh, qw): (usize, usize), th: usize, tw: usize) -> Result<Rect, Error> {
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
    Ok(Rect::new(0, 0, th, tw))
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
    let mut windows = Vec::new();
    plan_row_windows_into(grid, strategy, th, tw, &mut windows);
    windows
}

/// [`plan_row_windows`] into a buffer the kernel reuses from pass to
/// pass.
fn plan_row_windows_into(
    grid: &AtomGrid,
    strategy: KernelStrategy,
    th: usize,
    tw: usize,
    windows: &mut Vec<(usize, usize)>,
) {
    let (qh, qw) = grid.dims();
    windows.clear();
    match strategy {
        KernelStrategy::Greedy => windows.resize(qh, (0, qw)),
        KernelStrategy::GreedyTargetOnly => windows.resize(qh, (0, tw)),
        KernelStrategy::Balanced => {
            // Live supply per target column: every atom already in
            // column c can be drained into the target band by the
            // vertical pass, so a column is satisfied once its total
            // supply reaches the target height.
            let mut supply: Vec<usize> = (0..tw).map(|c| grid.col_count(c)).collect();
            let mut line = vec![0u64; bitline::words_for(qw)];
            for r in 0..qh {
                let before = grid.row_bits(r);
                let floor = best_floor(before, &supply, th, tw);
                let limit = if r < th { tw } else { qw };
                let window = (floor.min(limit), limit);
                windows.push(window);
                // Simulate this row's pass to keep the supply projection
                // accurate for the remaining rows.
                line.copy_from_slice(before);
                compact_line(&mut line, qw, window);
                for (c, column) in supply.iter_mut().enumerate() {
                    *column = *column + usize::from(bitline::get(&line, c))
                        - usize::from(bitline::get(before, c));
                }
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
    (0..qw)
        .map(|col| col_window(strategy, col, qh, th, tw))
        .collect()
}

/// Column `col`'s entry of [`plan_col_windows`].
fn col_window(
    strategy: KernelStrategy,
    col: usize,
    qh: usize,
    th: usize,
    tw: usize,
) -> (usize, usize) {
    match strategy {
        KernelStrategy::Greedy => (0, qh),
        // Only fill holes inside the target band of rows; atoms above
        // still ride the suffix down into them.
        KernelStrategy::GreedyTargetOnly => (0, th),
        // Drain only target columns; columns right of the band keep
        // their parked reserve for later horizontal passes.
        KernelStrategy::Balanced if col < tw => (0, th),
        KernelStrategy::Balanced => (0, 0),
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
/// exploits (§IV-C). The software takes each scan position for every
/// line at once, one word step over the pass's bit planes (see the
/// module docs): a column pass's planes are the grid's rows, so it runs
/// in place, and a row pass transposes the grid into planes and back.
///
/// The returned pass holds one line mask per wave: wave `k` is the set
/// of lines that fired at scan position `k` (interior empty waves are
/// retained to preserve that alignment; trailing empty waves are
/// trimmed).
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
    let (lines, len) = match axis {
        Axis::Row => (grid.height(), grid.width()),
        Axis::Col => (grid.width(), grid.height()),
    };
    let size = Gates::size(lines, len);
    let mut buffer = vec![0; 2 * size];
    let (masks, scratch) = buffer.split_at_mut(size);
    let window = |line| limits.get(line).copied().unwrap_or((0, len));
    let gates = Gates::build(masks, lines, len, window, enable);
    match axis {
        Axis::Row => {
            let mut planes = grid.transpose();
            let pass = pass_over_planes(&mut planes, axis, &gates, scratch);
            planes.transpose_into(grid);
            pass
        }
        Axis::Col => pass_over_planes(grid, axis, &gates, scratch),
    }
}

/// The gates of a pass as line masks of `words` words each, built in
/// place in a caller's buffer: first the lines that may fire at all
/// (enabled, with a nonempty window), then for each scan position `k`
/// those whose window contains `k`. No window reaches `reach`.
#[derive(Debug)]
struct Gates<'a> {
    words: usize,
    reach: usize,
    masks: &'a [u64],
}

impl<'a> Gates<'a> {
    /// The words the gates of a pass over `lines` lines of `len`
    /// positions take, which is also that pass's plane scratch.
    fn size(lines: usize, len: usize) -> usize {
        (1 + len) * bitline::words_for(lines)
    }

    /// Builds, in `masks` (at least [`size`](Self::size) words), the
    /// gates of a pass over `lines` lines of `len` positions, under
    /// [`run_pass`]'s rules for `enable` and each line's `window`.
    fn build(
        masks: &'a mut [u64],
        lines: usize,
        len: usize,
        window: impl Fn(usize) -> (usize, usize),
        enable: Option<&[bool]>,
    ) -> Gates<'a> {
        let words = bitline::words_for(lines);
        let masks = &mut masks[..Self::size(lines, len)];
        masks.fill(0);
        let mut reach = 0;
        let (live, windows) = masks.split_at_mut(words);
        for line in 0..lines {
            if enable.is_some_and(|en| !en.get(line).copied().unwrap_or(true)) {
                continue;
            }
            let (floor, limit) = window(line);
            let limit = limit.min(len);
            if floor >= limit {
                continue;
            }
            let (word, bit) = (line / bitline::WORD_BITS, 1 << (line % bitline::WORD_BITS));
            live[word] |= bit;
            // Toggle the line at both ends of its window; the running
            // XOR below then holds it from `floor` up to `limit`.
            windows[floor * words + word] ^= bit;
            if limit < len {
                windows[limit * words + word] ^= bit;
            }
            reach = reach.max(limit);
        }
        for i in words..reach * words {
            windows[i] ^= windows[i - words];
        }
        Gates {
            words,
            reach,
            masks,
        }
    }

    /// The lines that may fire at all.
    fn live(&self) -> &[u64] {
        &self.masks[..self.words]
    }

    /// The lines whose window contains scan position `k`.
    fn window(&self, k: usize) -> &[u64] {
        &self.masks[(1 + k) * self.words..(2 + k) * self.words]
    }
}

/// The pass of [`run_pass`] over bit planes, shifting them in place:
/// row `p` of `planes` is plane `p`, whose bit `l` is site `p` of line
/// `l`. Step `k` fires every line at once: the lines gated at `k` whose
/// site `k` is empty and which hold an atom above it. Each fired line's
/// planes from `k` up take the plane above, and the step's fire mask is
/// wave `k`. The steps stop past the last window, or once no line that
/// may fire holds an atom above `k` or an empty site under one.
///
/// The steps run on a copy of the planes in `scratch` (at least as
/// long as the gates' masks), stored a word column at a time (the
/// planes' word `j`, for lines `64 j ..`, back to back), so each step's
/// loops read one column contiguously.
fn pass_over_planes(
    planes: &mut AtomGrid,
    axis: Axis,
    gates: &Gates<'_>,
    scratch: &mut [u64],
) -> LocalPass {
    let (len, lines) = planes.dims();
    let words = gates.words;
    let mut pass = LocalPass::new(axis, lines, len);
    let (fire, columns) = scratch[..Gates::size(lines, len)].split_at_mut(words);
    for (p, plane) in planes.words_mut().chunks_exact(words).enumerate() {
        for (j, &word) in plane.iter().enumerate() {
            columns[j * len + p] = word;
        }
    }
    let live = gates.live();
    // One past the highest plane where a line that may fire holds an
    // atom: atoms only move down, and no other line's planes change.
    let mut top = len;
    for k in 0..gates.reach {
        while top > k + 1 && (0..words).all(|j| columns[j * len + top - 1] & live[j] == 0) {
            top -= 1;
        }
        if top <= k + 1 {
            break;
        }
        let mut waiting = 0;
        for ((column, fired), (&gate, &live)) in columns
            .chunks_exact_mut(len)
            .zip(&mut *fire)
            .zip(gates.window(k).iter().zip(live))
        {
            let span = &mut column[k..top];
            // The lines with an atom above `k`, and those with an empty
            // site under an atom from `k` up: only these can still fire.
            let (above, holes) = span.windows(2).fold((0, 0), |(above, holes), pair| {
                (above | pair[1], holes | (pair[1] & !pair[0]))
            });
            waiting |= holes & live;
            let f = gate & !span[0] & above;
            if f != 0 {
                for i in 0..span.len() - 1 {
                    span[i] = (span[i] & !f) | (span[i + 1] & f);
                }
                span[span.len() - 1] &= !f;
            }
            *fired = f;
        }
        if waiting == 0 {
            break;
        }
        pass.fire_wave(k, fire);
    }
    for (p, plane) in planes.words_mut().chunks_exact_mut(words).enumerate() {
        for (j, word) in plane.iter_mut().enumerate() {
            *word = columns[j * len + p];
        }
    }
    pass
}

/// One line's pass in closed form: shifts `line` (of `width` sites) as
/// the per-position scan would. The balanced window planner simulates
/// each row with it.
///
/// Each step finds the lowest hole at or above the scan position and
/// the lowest atom above it. Without an atom above, nothing more fires.
/// Otherwise the scan fires at every other site of the gap between
/// them: `ceil(gap / 2)` shifts at consecutive scan positions, clipped
/// to the window, which delete the gap's lowest sites. The site each
/// shift pulls down is skipped, so a gap of odd length lands its atom
/// on the last scan position and an even one leaves a hole there.
fn compact_line(line: &mut [u64], width: usize, (floor, limit): (usize, usize)) {
    let limit = limit.min(width);
    let mut k = floor;
    while let Some(hole) = bitline::lowest_zero_in(line, k, limit) {
        let Some(atom) = bitline::lowest_one_from(line, hole) else {
            return;
        };
        let fires = (atom - hole).div_ceil(2).min(limit - hole);
        bitline::suffix_shift_by(line, hole, fires, width);
        k = hole + fires;
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
            for (hole, wave) in pass.waves().enumerate() {
                let mut view = match pass.axis {
                    Axis::Row => g.clone(),
                    Axis::Col => g.transpose(),
                };
                let w = view.width();
                bitline::for_each_one(wave, |line| {
                    let mut bits = view.row_bits(line).to_vec();
                    assert!(
                        !bitline::get(&bits, hole),
                        "replay: hole {hole} of line {line} occupied"
                    );
                    bitline::suffix_shift(&mut bits, hole, w);
                    view.set_row_bits(line, &bits);
                });
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
        // 130 lines take three words per wave; fire on both sides of
        // each word boundary, leave wave 1 empty inside the pass and
        // waves 3.. empty past its end.
        let mut pass = LocalPass::new(Axis::Col, 130, 6);
        for (hole, line) in [(0, 0), (0, 63), (2, 64), (0, 129), (2, 0)] {
            pass.fire(hole, line);
        }
        let mask = |lines: &[usize]| {
            let mut mask = vec![0u64; 3];
            for &line in lines {
                bitline::set(&mut mask, line, true);
            }
            mask
        };
        let waves = [mask(&[0, 63, 129]), mask(&[]), mask(&[0, 64])];
        assert_eq!(pass.wave_count(), 3);
        assert_eq!(pass.shift_count(), 5);
        assert_eq!(pass.wave(1), Some(&waves[1][..]));
        assert_eq!(pass.wave(2), Some(&waves[2][..]));
        assert_eq!(pass.wave(3), None);
        assert!(pass.waves().eq(waves.iter().map(Vec::as_slice)));
        // The same shifts fired in another order, into a buffer sized
        // for another line length, make an equal pass.
        let mut again = LocalPass::new(Axis::Col, 130, 3);
        for (hole, line) in [(2, 64), (2, 0), (0, 129), (0, 63), (0, 0)] {
            again.fire(hole, line);
        }
        assert_eq!(again, pass);
        // So do the same waves written whole, in another order, with a
        // zero mask past the end that adds no wave.
        let mut whole = LocalPass::new(Axis::Col, 130, 6);
        for hole in [2, 0, 1, 5] {
            let empty = mask(&[]);
            whole.fire_wave(hole, waves.get(hole).unwrap_or(&empty));
        }
        assert_eq!(whole, pass);
        let mut g = AtomGrid::parse("#.#\n.#.").unwrap();
        let empty = run_pass(&mut g, Axis::Row, &[(0, 0), (0, 0)], None);
        assert_eq!(empty, LocalPass::new(Axis::Row, 2, 3));
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

    #[test]
    fn plane_words_match_the_scan_on_both_sides_of_each_boundary() {
        // Line counts on both sides of one and two plane words, each
        // line length from one site to three words, every strategy's
        // windows and random ones, and enables shorter than, as long as
        // and longer than the pass.
        let mut rng = seeded_rng(64);
        for lines in [63, 64, 65, 127, 128, 129] {
            for len in [1, 63, 64, 65, 130] {
                for axis in [Axis::Row, Axis::Col] {
                    let (height, width) = match axis {
                        Axis::Row => (lines, len),
                        Axis::Col => (len, lines),
                    };
                    let grid = AtomGrid::random(height, width, 0.5, &mut rng);
                    let target = (height.div_ceil(2), width.div_ceil(2));
                    for strategy in STRATEGIES.map(Some).into_iter().chain([None]) {
                        let windows = windows_for(&grid, axis, strategy, target, &mut rng);
                        for enables in [lines - 1, lines, lines + 1] {
                            let enable: Vec<bool> =
                                (0..enables).map(|_| rng.gen_bool(0.8)).collect();
                            let mut fast = grid.clone();
                            let pass = run_pass(&mut fast, axis, &windows, Some(&enable));
                            let mut slow = grid.clone();
                            let expect =
                                reference::run_pass(&mut slow, axis, &windows, Some(&enable));
                            let case = format!(
                                "{lines} lines of {len} {axis:?} {strategy:?} enable {enables}"
                            );
                            assert_eq!(pass, expect, "{case}");
                            assert_eq!(fast, slow, "{case}");
                        }
                    }
                }
            }
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
