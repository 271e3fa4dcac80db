//! Bit-packed 2D atom occupancy grids.
//!
//! [`AtomGrid`] stores one bit per optical-trap site, packed into `u64`
//! words row by row — the same "rows as bit vectors" representation the
//! paper's shift kernel uses on the FPGA (§IV-C), which makes row scans and
//! flips cheap and keeps the software scheduler comparable to the hardware
//! datapath.

use std::fmt;

use rand::Rng;

use crate::bitline;
use crate::error::Error;
use crate::geometry::{Position, Rect};

const WORD_BITS: usize = 64;

/// A binary occupancy matrix over a rectangular trap array.
///
/// Rows are bit-packed (`u64` words, little-endian bit order within a
/// word). Row 0 is the north edge, bit/column 0 the west edge.
///
/// ```
/// use qrm_core::grid::AtomGrid;
/// use qrm_core::geometry::Position;
///
/// let mut g = AtomGrid::new(4, 6)?;
/// g.set(Position::new(1, 2), true)?;
/// assert!(g.get(Position::new(1, 2))?);
/// assert_eq!(g.atom_count(), 1);
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AtomGrid {
    height: usize,
    width: usize,
    /// Words per row.
    stride: usize,
    words: Vec<u64>,
}

impl AtomGrid {
    /// Creates an empty `height x width` grid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyGrid`] when either dimension is zero.
    pub fn new(height: usize, width: usize) -> Result<Self, Error> {
        if height == 0 || width == 0 {
            return Err(Error::EmptyGrid);
        }
        let stride = width.div_ceil(WORD_BITS);
        Ok(AtomGrid {
            height,
            width,
            stride,
            words: vec![0; stride * height],
        })
    }

    /// Builds a grid from an ASCII art description: `'#'`, `'1'` or `'o'`
    /// mark occupied sites, `'.'`, `'0'` or `' '` empty ones. All rows must
    /// have equal length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for ragged rows or unknown characters and
    /// [`Error::EmptyGrid`] for an empty description.
    ///
    /// ```
    /// use qrm_core::grid::AtomGrid;
    /// let g = AtomGrid::parse(".#.\n#.#")?;
    /// assert_eq!((g.height(), g.width(), g.atom_count()), (2, 3, 3));
    /// # Ok::<(), qrm_core::Error>(())
    /// ```
    pub fn parse(art: &str) -> Result<Self, Error> {
        let rows: Vec<&str> = art
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        if rows.is_empty() {
            return Err(Error::EmptyGrid);
        }
        let width = rows[0].chars().count();
        let mut grid = AtomGrid::new(rows.len(), width)?;
        for (r, line) in rows.iter().enumerate() {
            if line.chars().count() != width {
                return Err(Error::Parse {
                    reason: format!("row {r} has length {} != {width}", line.chars().count()),
                });
            }
            for (c, ch) in line.chars().enumerate() {
                let occupied = match ch {
                    '#' | '1' | 'o' => true,
                    '.' | '0' | ' ' => false,
                    other => {
                        return Err(Error::Parse {
                            reason: format!("unknown cell character {other:?}"),
                        })
                    }
                };
                if occupied {
                    grid.set_unchecked(r, c, true);
                }
            }
        }
        Ok(grid)
    }

    /// Creates a grid with each site independently occupied with
    /// probability `fill` — the stochastic loading model (§II-A: loading
    /// probability ≈ 50 %).
    ///
    /// # Panics
    ///
    /// Panics if `fill` is not within `0.0..=1.0` or either dimension is
    /// zero (workload-generator convenience; use [`AtomGrid::new`] +
    /// explicit sets for fallible construction).
    pub fn random<R: Rng + ?Sized>(height: usize, width: usize, fill: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&fill),
            "fill probability {fill} outside [0, 1]"
        );
        let mut g = AtomGrid::new(height, width).expect("non-zero dimensions");
        for r in 0..height {
            for c in 0..width {
                if rng.gen_bool(fill) {
                    g.set_unchecked(r, c, true);
                }
            }
        }
        g
    }

    /// Grid height (number of rows).
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Grid width (number of columns).
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Dimensions as `(height, width)`.
    pub const fn dims(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// Total number of sites.
    pub const fn area(&self) -> usize {
        self.height * self.width
    }

    fn check(&self, pos: Position) -> Result<(), Error> {
        if pos.row >= self.height || pos.col >= self.width {
            Err(Error::OutOfBounds {
                pos,
                height: self.height,
                width: self.width,
            })
        } else {
            Ok(())
        }
    }

    /// Occupancy at `pos`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] when `pos` lies outside the grid.
    pub fn get(&self, pos: Position) -> Result<bool, Error> {
        self.check(pos)?;
        Ok(self.get_unchecked(pos.row, pos.col))
    }

    /// Occupancy at `(row, col)` without bounds diagnostics.
    ///
    /// # Panics
    ///
    /// Panics (debug assert / slice index) when out of bounds.
    #[inline]
    pub fn get_unchecked(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.height && col < self.width);
        let w = self.words[row * self.stride + col / WORD_BITS];
        (w >> (col % WORD_BITS)) & 1 == 1
    }

    /// Sets occupancy at `pos`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] when `pos` lies outside the grid.
    pub fn set(&mut self, pos: Position, occupied: bool) -> Result<(), Error> {
        self.check(pos)?;
        self.set_unchecked(pos.row, pos.col, occupied);
        Ok(())
    }

    /// Sets occupancy at `(row, col)` without bounds diagnostics.
    ///
    /// # Panics
    ///
    /// Panics (debug assert / slice index) when out of bounds.
    #[inline]
    pub fn set_unchecked(&mut self, row: usize, col: usize, occupied: bool) {
        debug_assert!(row < self.height && col < self.width);
        let word = &mut self.words[row * self.stride + col / WORD_BITS];
        let mask = 1u64 << (col % WORD_BITS);
        if occupied {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Total number of atoms.
    ///
    /// ```
    /// use qrm_core::grid::AtomGrid;
    /// let g = AtomGrid::parse("##.\n..#")?;
    /// assert_eq!(g.atom_count(), 3);
    /// # Ok::<(), qrm_core::Error>(())
    /// ```
    pub fn atom_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of atoms in row `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row >= height`.
    pub fn row_count(&self, row: usize) -> usize {
        assert!(row < self.height, "row {row} out of bounds");
        self.words[row * self.stride..(row + 1) * self.stride]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of atoms in column `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col >= width`.
    pub fn col_count(&self, col: usize) -> usize {
        assert!(col < self.width, "col {col} out of bounds");
        (0..self.height)
            .filter(|&r| self.get_unchecked(r, col))
            .count()
    }

    /// Number of atoms inside `rect` (clipped to the grid is **not**
    /// performed; the rect must fit), one masked popcount per word of
    /// each row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when `rect` does not fit.
    pub fn count_in(&self, rect: &Rect) -> Result<usize, Error> {
        if !rect.fits_in(self.height, self.width) {
            return Err(self.rect_err(rect));
        }
        let (lo, hi) = (rect.col, rect.col + rect.width);
        Ok((rect.row..rect.row + rect.height)
            .map(|r| bitline::count_ones_in(self.row_bits(r), lo, hi))
            .sum())
    }

    /// Whether every site of `rect` is occupied (defect-free target check).
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when `rect` does not fit.
    pub fn is_filled(&self, rect: &Rect) -> Result<bool, Error> {
        Ok(self.count_in(rect)? == rect.area())
    }

    /// Positions inside `rect` that are empty (the remaining defects).
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when `rect` does not fit.
    pub fn defects_in(&self, rect: &Rect) -> Result<Vec<Position>, Error> {
        if !rect.fits_in(self.height, self.width) {
            return Err(self.rect_err(rect));
        }
        Ok(rect
            .positions()
            .filter(|p| !self.get_unchecked(p.row, p.col))
            .collect())
    }

    fn rect_err(&self, rect: &Rect) -> Error {
        Error::RectOutOfBounds {
            row: rect.row,
            col: rect.col,
            rect_height: rect.height,
            rect_width: rect.width,
            height: self.height,
            width: self.width,
        }
    }

    /// Iterates over all occupied positions in row-major order.
    ///
    /// ```
    /// use qrm_core::grid::AtomGrid;
    /// let g = AtomGrid::parse(".#\n#.")?;
    /// let v: Vec<_> = g.occupied().map(|p| (p.row, p.col)).collect();
    /// assert_eq!(v, vec![(0, 1), (1, 0)]);
    /// # Ok::<(), qrm_core::Error>(())
    /// ```
    pub fn occupied(&self) -> impl Iterator<Item = Position> + '_ {
        (0..self.height).flat_map(move |r| {
            (0..self.width).filter_map(move |c| {
                if self.get_unchecked(r, c) {
                    Some(Position::new(r, c))
                } else {
                    None
                }
            })
        })
    }

    /// Row `row` as a little-endian bit vector (`bits[0]` = column 0 word).
    ///
    /// The returned slice has `width.div_ceil(64)` words; bits above
    /// `width` are zero.
    ///
    /// # Panics
    ///
    /// Panics when `row >= height`.
    pub fn row_bits(&self, row: usize) -> &[u64] {
        assert!(row < self.height, "row {row} out of bounds");
        &self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// Overwrites row `row` from a little-endian word slice (excess bits
    /// beyond `width` are masked off).
    ///
    /// # Panics
    ///
    /// Panics when `row >= height` or `bits.len() != stride`.
    pub fn set_row_bits(&mut self, row: usize, bits: &[u64]) {
        assert!(row < self.height, "row {row} out of bounds");
        assert_eq!(bits.len(), self.stride, "word count mismatch");
        let dst = &mut self.words[row * self.stride..(row + 1) * self.stride];
        dst.copy_from_slice(bits);
        // Mask tail bits so equality and popcounts stay exact.
        let tail = self.width % WORD_BITS;
        if tail != 0 {
            dst[self.stride - 1] &= (1u64 << tail) - 1;
        }
    }

    /// Returns the grid mirrored east-west (column `c` ↦ `width-1-c`).
    ///
    /// ```
    /// use qrm_core::grid::AtomGrid;
    /// let g = AtomGrid::parse("#..\n.#.")?;
    /// assert_eq!(g.flip_horizontal(), AtomGrid::parse("..#\n.#.")?);
    /// # Ok::<(), qrm_core::Error>(())
    /// ```
    pub fn flip_horizontal(&self) -> Self {
        let mut out = AtomGrid::new(self.height, self.width).expect("same dims");
        for r in 0..self.height {
            for c in 0..self.width {
                if self.get_unchecked(r, c) {
                    out.set_unchecked(r, self.width - 1 - c, true);
                }
            }
        }
        out
    }

    /// Returns the grid mirrored north-south (row `r` ↦ `height-1-r`).
    pub fn flip_vertical(&self) -> Self {
        let mut out = AtomGrid::new(self.height, self.width).expect("same dims");
        for r in 0..self.height {
            let src = self.row_bits(self.height - 1 - r).to_vec();
            out.set_row_bits(r, &src);
        }
        out
    }

    /// Returns the transposed grid (`(r, c)` ↦ `(c, r)`), used to reuse
    /// the row-wise shift kernel for column passes (paper §IV-C:
    /// "interpreting columns as rows").
    pub fn transpose(&self) -> Self {
        let mut out = AtomGrid::new(self.width, self.height).expect("same dims");
        self.transpose_into(&mut out);
        out
    }

    /// In-place variant of [`transpose`](Self::transpose): writes the
    /// transposed grid into `out`, reshaping it and reusing its word
    /// buffer; contents of `out` are discarded. The kernel's column
    /// passes and the merge's axis switches use it.
    ///
    /// Works on 64x64 bit blocks: each block of up to 64 row words is
    /// transposed in six rounds of word swaps and stored as up to 64
    /// column words, so a 50x50 grid costs one block instead of 2,500
    /// bit reads.
    pub fn transpose_into(&self, out: &mut AtomGrid) {
        out.reshape(self.width, self.height);
        let mut block = [0u64; WORD_BITS];
        for br in 0..out.stride {
            let rows = (self.height - br * WORD_BITS).min(WORD_BITS);
            for bc in 0..self.stride {
                for (i, word) in block.iter_mut().enumerate() {
                    *word = if i < rows {
                        self.words[(br * WORD_BITS + i) * self.stride + bc]
                    } else {
                        0
                    };
                }
                transpose_block(&mut block);
                let cols = (self.width - bc * WORD_BITS).min(WORD_BITS);
                for (j, &word) in block.iter().enumerate().take(cols) {
                    out.words[(bc * WORD_BITS + j) * out.stride + br] = word;
                }
            }
        }
    }

    /// Reinitialises the grid to an **empty** `height x width`, reusing
    /// the word buffer when its capacity suffices. The recycled-scratch
    /// twin of [`AtomGrid::new`]; dimensions must be nonzero (internal
    /// callers guarantee it).
    pub(crate) fn reshape(&mut self, height: usize, width: usize) {
        debug_assert!(height > 0 && width > 0, "reshape to empty grid");
        self.height = height;
        self.width = width;
        self.stride = width.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(self.stride * height, 0);
    }

    /// Mutable word view of row `row`, for in-place line edits by the
    /// shift kernel. Callers must preserve the invariant that bits at or
    /// above `width` stay zero (the kernel only ever shifts bits toward
    /// column 0, which cannot violate it).
    ///
    /// # Panics
    ///
    /// Panics when `row >= height`.
    pub(crate) fn row_bits_mut(&mut self, row: usize) -> &mut [u64] {
        assert!(row < self.height, "row {row} out of bounds");
        &mut self.words[row * self.stride..(row + 1) * self.stride]
    }

    /// Extracts a copy of the sites inside `rect`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when `rect` does not fit.
    pub fn subgrid(&self, rect: &Rect) -> Result<Self, Error> {
        if !rect.fits_in(self.height, self.width) {
            return Err(self.rect_err(rect));
        }
        let mut out = AtomGrid::new(rect.height, rect.width)?;
        for r in 0..rect.height {
            for c in 0..rect.width {
                if self.get_unchecked(rect.row + r, rect.col + c) {
                    out.set_unchecked(r, c, true);
                }
            }
        }
        Ok(out)
    }

    /// Pastes `src` into this grid at `origin` (overwrites the region).
    ///
    /// # Errors
    ///
    /// Returns [`Error::RectOutOfBounds`] when `src` does not fit at
    /// `origin`.
    pub fn paste(&mut self, origin: Position, src: &AtomGrid) -> Result<(), Error> {
        let rect = Rect::new(origin.row, origin.col, src.height, src.width);
        if !rect.fits_in(self.height, self.width) {
            return Err(self.rect_err(&rect));
        }
        for r in 0..src.height {
            for c in 0..src.width {
                self.set_unchecked(origin.row + r, origin.col + c, src.get_unchecked(r, c));
            }
        }
        Ok(())
    }

    /// Serialises the occupancy into the flat little-endian bitfield the
    /// accelerator's DMA consumes (row-major, `width` bits per row, no
    /// padding between rows), as produced by the atom-detection unit
    /// (paper §IV-A).
    pub fn to_bitfield(&self) -> Vec<u8> {
        let nbits = self.height * self.width;
        let mut out = vec![0u8; nbits.div_ceil(8)];
        let mut idx = 0usize;
        for r in 0..self.height {
            for c in 0..self.width {
                if self.get_unchecked(r, c) {
                    out[idx / 8] |= 1 << (idx % 8);
                }
                idx += 1;
            }
        }
        out
    }

    /// Rebuilds a grid from the flat bitfield produced by
    /// [`to_bitfield`](Self::to_bitfield).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when `bytes` is too short and
    /// [`Error::EmptyGrid`] for zero dimensions.
    pub fn from_bitfield(height: usize, width: usize, bytes: &[u8]) -> Result<Self, Error> {
        let nbits = height * width;
        if bytes.len() < nbits.div_ceil(8) {
            return Err(Error::Parse {
                reason: format!(
                    "bitfield too short: {} bytes for {} bits",
                    bytes.len(),
                    nbits
                ),
            });
        }
        let mut g = AtomGrid::new(height, width)?;
        for idx in 0..nbits {
            if (bytes[idx / 8] >> (idx % 8)) & 1 == 1 {
                g.set_unchecked(idx / width, idx % width, true);
            }
        }
        Ok(g)
    }
}

/// Transposes a 64x64 bit matrix in place: bit `c` of `block[r]` moves
/// to bit `r` of `block[c]`. Six rounds each swap the off-diagonal
/// sub-blocks of size 32, 16, ..., 1 (Hacker's Delight §7-3).
fn transpose_block(block: &mut [u64; WORD_BITS]) {
    let mut size = WORD_BITS / 2;
    let mut low = u64::MAX >> size;
    while size != 0 {
        let mut k = 0;
        while k < WORD_BITS {
            let swap = ((block[k] >> size) ^ block[k + size]) & low;
            block[k] ^= swap << size;
            block[k + size] ^= swap;
            k = (k + size + 1) & !size;
        }
        size >>= 1;
        low ^= low << size;
    }
}

impl fmt::Display for AtomGrid {
    /// Renders `'#'` for occupied and `'.'` for empty sites, one row per
    /// line (north row first).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.height {
            for c in 0..self.width {
                f.write_str(if self.get_unchecked(r, c) { "#" } else { "." })?;
            }
            if r + 1 < self.height {
                f.write_str("\n")?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for AtomGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AtomGrid({}x{}, {} atoms)\n{}",
            self.height,
            self.width,
            self.atom_count(),
            self
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_rejects_zero_dims() {
        assert_eq!(AtomGrid::new(0, 5), Err(Error::EmptyGrid));
        assert_eq!(AtomGrid::new(5, 0), Err(Error::EmptyGrid));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let art = "#..#\n.##.\n....";
        let g = AtomGrid::parse(art).unwrap();
        assert_eq!(g.to_string(), art);
        assert_eq!(g.atom_count(), 4);
    }

    #[test]
    fn parse_rejects_ragged_and_unknown() {
        assert!(matches!(AtomGrid::parse("##\n#"), Err(Error::Parse { .. })));
        assert!(matches!(AtomGrid::parse("#x"), Err(Error::Parse { .. })));
        assert_eq!(AtomGrid::parse(""), Err(Error::EmptyGrid));
    }

    #[test]
    fn get_set_and_bounds() {
        let mut g = AtomGrid::new(3, 3).unwrap();
        let p = Position::new(2, 2);
        g.set(p, true).unwrap();
        assert!(g.get(p).unwrap());
        g.set(p, false).unwrap();
        assert!(!g.get(p).unwrap());
        assert!(matches!(
            g.get(Position::new(3, 0)),
            Err(Error::OutOfBounds { .. })
        ));
        assert!(matches!(
            g.set(Position::new(0, 3), true),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn wide_grid_crosses_word_boundary() {
        // width 90 > 64: exercises multi-word rows (paper's largest array).
        let mut g = AtomGrid::new(2, 90).unwrap();
        g.set_unchecked(0, 63, true);
        g.set_unchecked(0, 64, true);
        g.set_unchecked(1, 89, true);
        assert_eq!(g.atom_count(), 3);
        assert_eq!(g.row_count(0), 2);
        assert_eq!(g.col_count(64), 1);
        assert_eq!(g.row_bits(0).len(), 2);
        assert!(g.get_unchecked(1, 89));
    }

    /// The bit-by-bit definition the word-level transpose must match.
    fn transpose_bits(g: &AtomGrid) -> AtomGrid {
        let mut out = AtomGrid::new(g.width(), g.height()).unwrap();
        for p in g.occupied() {
            out.set_unchecked(p.col, p.row, true);
        }
        out
    }

    #[test]
    fn transpose_into_matches_bit_transpose_for_any_scratch_shape() {
        let mut rng = StdRng::seed_from_u64(12);
        // Deliberately mis-shaped scratch with stale contents.
        let mut out = AtomGrid::random(3, 70, 0.5, &mut rng);
        for (h, w) in [
            (9, 14),
            (70, 3),
            (1, 1),
            (5, 64),
            (2, 65),
            (64, 64),
            (65, 129),
            (130, 66),
        ] {
            let g = AtomGrid::random(h, w, 0.4, &mut rng);
            g.transpose_into(&mut out);
            assert_eq!(out, transpose_bits(&g), "{h}x{w}");
            assert_eq!(g.transpose(), out, "{h}x{w}");
        }
    }

    #[test]
    fn transpose_block_moves_each_bit_to_its_mirror() {
        for (r, c) in [(0, 0), (0, 63), (63, 0), (5, 40), (31, 32), (63, 63)] {
            let mut block = [0u64; WORD_BITS];
            block[r] = 1 << c;
            transpose_block(&mut block);
            let mut expect = [0u64; WORD_BITS];
            expect[c] = 1 << r;
            assert_eq!(block, expect, "bit ({r}, {c})");
        }
    }

    #[test]
    fn row_bits_mut_edits_land_in_the_grid() {
        let mut g = AtomGrid::new(2, 90).unwrap();
        g.row_bits_mut(1)[1] = 1 << (89 - 64);
        assert!(g.get_unchecked(1, 89));
        assert_eq!(g.atom_count(), 1);
    }

    #[test]
    fn counts_per_row_col_and_rect() {
        let g = AtomGrid::parse("##.\n.#.\n..#").unwrap();
        assert_eq!(g.row_count(0), 2);
        assert_eq!(g.col_count(1), 2);
        let r = Rect::new(0, 0, 2, 2);
        assert_eq!(g.count_in(&r).unwrap(), 3);
        assert!(!g.is_filled(&r).unwrap());
        assert_eq!(g.defects_in(&r).unwrap(), vec![Position::new(1, 0)]);
        assert!(g.count_in(&Rect::new(0, 0, 4, 4)).is_err());
    }

    #[test]
    fn flips_are_involutions() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = AtomGrid::random(7, 9, 0.5, &mut rng);
        assert_eq!(g.flip_horizontal().flip_horizontal(), g);
        assert_eq!(g.flip_vertical().flip_vertical(), g);
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn flip_examples() {
        let g = AtomGrid::parse("#..\n...").unwrap();
        assert_eq!(g.flip_horizontal().to_string(), "..#\n...");
        assert_eq!(g.flip_vertical().to_string(), "...\n#..");
        assert_eq!(g.transpose().to_string(), "#.\n..\n..");
    }

    #[test]
    fn flips_preserve_atom_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = AtomGrid::random(10, 10, 0.4, &mut rng);
        let n = g.atom_count();
        assert_eq!(g.flip_horizontal().atom_count(), n);
        assert_eq!(g.flip_vertical().atom_count(), n);
        assert_eq!(g.transpose().atom_count(), n);
    }

    #[test]
    fn subgrid_paste_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = AtomGrid::random(8, 8, 0.5, &mut rng);
        let rect = Rect::new(2, 3, 4, 5);
        let sub = g.subgrid(&rect).unwrap();
        assert_eq!(sub.dims(), (4, 5));
        let mut h = g.clone();
        h.paste(Position::new(rect.row, rect.col), &sub).unwrap();
        assert_eq!(h, g);
    }

    #[test]
    fn paste_out_of_bounds() {
        let mut g = AtomGrid::new(4, 4).unwrap();
        let s = AtomGrid::new(3, 3).unwrap();
        assert!(g.paste(Position::new(2, 2), &s).is_err());
    }

    #[test]
    fn bitfield_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        for (h, w) in [(1, 1), (3, 5), (8, 8), (5, 70)] {
            let g = AtomGrid::random(h, w, 0.5, &mut rng);
            let bytes = g.to_bitfield();
            assert_eq!(bytes.len(), (h * w).div_ceil(8));
            let back = AtomGrid::from_bitfield(h, w, &bytes).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn bitfield_too_short() {
        assert!(matches!(
            AtomGrid::from_bitfield(4, 4, &[0u8]),
            Err(Error::Parse { .. })
        ));
    }

    #[test]
    fn random_fill_statistics() {
        let mut rng = StdRng::seed_from_u64(1234);
        let g = AtomGrid::random(50, 50, 0.5, &mut rng);
        let n = g.atom_count() as f64;
        // 5 sigma around the binomial mean 1250 (sigma = 25).
        assert!((n - 1250.0).abs() < 125.0, "count {n} implausible");
    }

    #[test]
    fn set_row_bits_masks_tail() {
        let mut g = AtomGrid::new(1, 10).unwrap();
        g.set_row_bits(0, &[u64::MAX]);
        assert_eq!(g.atom_count(), 10);
        assert_eq!(g.row_count(0), 10);
    }

    #[test]
    fn occupied_iterator_row_major() {
        let g = AtomGrid::parse("..#\n#..").unwrap();
        let v: Vec<_> = g.occupied().collect();
        assert_eq!(v, vec![Position::new(0, 2), Position::new(1, 0)]);
    }
}
