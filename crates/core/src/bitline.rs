//! Bit-vector line utilities.
//!
//! A *line* is one row (or one column, after transposition) of an
//! [`AtomGrid`](crate::grid::AtomGrid), stored as little-endian `u64`
//! words with an explicit logical width. The shift kernel (software in
//! [`crate::kernel`], hardware model in `qrm-fpga`) manipulates lines with
//! these primitives, so both implementations share exact semantics.
//!
//! Position 0 is the compression corner; a *suffix shift at hole `h`*
//! moves every atom at positions `> h` one site toward 0 — the paper's
//! elementary move (§III-A: "we move all atoms positioned to the left of
//! each hole, shifting them one step").

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// Returns the number of words needed for `width` bits.
pub const fn words_for(width: usize) -> usize {
    width.div_ceil(WORD_BITS)
}

/// Reads bit `pos`.
///
/// # Panics
///
/// Panics when `pos / 64` exceeds the slice.
#[inline]
pub fn get(words: &[u64], pos: usize) -> bool {
    (words[pos / WORD_BITS] >> (pos % WORD_BITS)) & 1 == 1
}

/// Writes bit `pos`.
///
/// # Panics
///
/// Panics when `pos / 64` exceeds the slice.
#[inline]
pub fn set(words: &mut [u64], pos: usize, value: bool) {
    let mask = 1u64 << (pos % WORD_BITS);
    if value {
        words[pos / WORD_BITS] |= mask;
    } else {
        words[pos / WORD_BITS] &= !mask;
    }
}

/// Population count of the whole line.
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Population count of positions `lo..hi`, one masked popcount per word.
///
/// # Panics
///
/// Panics when `hi` reaches past the slice's last word.
///
/// ```
/// let line = [0b1011_0110u64, 0b11];
/// assert_eq!(qrm_core::bitline::count_ones_in(&line, 2, 6), 3);
/// assert_eq!(qrm_core::bitline::count_ones_in(&line, 4, 66), 5);
/// assert_eq!(qrm_core::bitline::count_ones_in(&line, 5, 5), 0);
/// ```
pub fn count_ones_in(words: &[u64], lo: usize, hi: usize) -> usize {
    if lo >= hi {
        return 0;
    }
    (lo / WORD_BITS..=(hi - 1) / WORD_BITS)
        .map(|i| (words[i] & range_word(i, lo, hi)).count_ones() as usize)
        .sum()
}

/// Position of the highest set bit, or `None` for an empty line.
///
/// ```
/// let line = [0b1010u64];
/// assert_eq!(qrm_core::bitline::highest_one(&line), Some(3));
/// assert_eq!(qrm_core::bitline::highest_one(&[0u64]), None);
/// ```
pub fn highest_one(words: &[u64]) -> Option<usize> {
    for (i, &w) in words.iter().enumerate().rev() {
        if w != 0 {
            return Some(i * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
        }
    }
    None
}

/// Position of the lowest set bit at or above `lo`, or `None` when no
/// atom lies there.
///
/// ```
/// let line = [0b1001u64, 0b10];
/// assert_eq!(qrm_core::bitline::lowest_one_from(&line, 1), Some(3));
/// assert_eq!(qrm_core::bitline::lowest_one_from(&line, 4), Some(65));
/// assert_eq!(qrm_core::bitline::lowest_one_from(&line, 66), None);
/// ```
pub fn lowest_one_from(words: &[u64], lo: usize) -> Option<usize> {
    let first = lo / WORD_BITS;
    words.iter().enumerate().skip(first).find_map(|(i, &w)| {
        // Mask off the bits below `lo` in its own word.
        let w = if i == first {
            w & (u64::MAX << (lo % WORD_BITS))
        } else {
            w
        };
        (w != 0).then(|| i * WORD_BITS + w.trailing_zeros() as usize)
    })
}

/// Position of the lowest **zero** bit in `lo..hi`, or `None` when the
/// range is fully occupied (or empty).
///
/// ```
/// let line = [0b0111u64];
/// assert_eq!(qrm_core::bitline::lowest_zero_in(&line, 0, 8), Some(3));
/// assert_eq!(qrm_core::bitline::lowest_zero_in(&line, 0, 3), None);
/// ```
pub fn lowest_zero_in(words: &[u64], lo: usize, hi: usize) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    let mut pos = lo;
    while pos < hi {
        let w = pos / WORD_BITS;
        let b = pos % WORD_BITS;
        // Invert and mask off bits below `pos` within this word.
        let inv = !words[w] & (u64::MAX << b);
        if inv != 0 {
            let cand = w * WORD_BITS + inv.trailing_zeros() as usize;
            return if cand < hi { Some(cand) } else { None };
        }
        pos = (w + 1) * WORD_BITS;
    }
    None
}

/// The lowest *eligible hole* for a suffix shift within `[floor, limit)`:
/// the lowest empty position `h >= floor`, `h < limit`, with at least one
/// atom at a position `> h`. Returns `None` when no shift can fire.
///
/// ```
/// // atoms at 2 and 5; floor 0: hole 0 is eligible.
/// let line = [0b100100u64];
/// assert_eq!(qrm_core::bitline::eligible_hole(&line, 0, 6), Some(0));
/// // floor 3: hole 3 eligible (atom at 5 above it).
/// assert_eq!(qrm_core::bitline::eligible_hole(&line, 3, 6), Some(3));
/// // nothing above position 5.
/// assert_eq!(qrm_core::bitline::eligible_hole(&line, 5, 6), None);
/// ```
pub fn eligible_hole(words: &[u64], floor: usize, limit: usize) -> Option<usize> {
    let top = highest_one(words)?;
    // A hole at h needs an atom above it, so h < top; also h < limit.
    lowest_zero_in(words, floor, limit.min(top))
}

/// Applies a suffix shift at `hole`: every bit at position `> hole` moves
/// one position down within the logical `width`. Bits `<= hole` are
/// untouched; the top position becomes empty.
///
/// # Panics
///
/// Debug-asserts that position `hole` is empty.
///
/// ```
/// let mut line = [0b110100u64];
/// qrm_core::bitline::suffix_shift(&mut line, 0, 64);
/// assert_eq!(line[0], 0b011010);
/// ```
pub fn suffix_shift(words: &mut [u64], hole: usize, width: usize) {
    suffix_shift_by(words, hole, 1, width);
}

/// Applies `count` suffix shifts at `hole` at once: positions
/// `hole..hole + count` must be empty, and every bit above them moves
/// `count` positions down within the logical `width`. Bits below `hole`
/// are untouched; the top `count` positions become empty.
///
/// # Panics
///
/// Debug-asserts that the deleted positions are empty and lie inside
/// `width`.
///
/// ```
/// let mut line = [0b1100_0101u64];
/// qrm_core::bitline::suffix_shift_by(&mut line, 3, 3, 64);
/// assert_eq!(line[0], 0b11101);
/// ```
pub fn suffix_shift_by(words: &mut [u64], hole: usize, count: usize, width: usize) {
    debug_assert!(
        hole + count <= width,
        "{count} shifts at {hole} beyond {width}"
    );
    debug_assert_eq!(
        count_ones_in(words, hole, hole + count),
        0,
        "suffix shift deletes an atom"
    );
    if count == 0 {
        return;
    }
    let (w0, b0) = (hole / WORD_BITS, hole % WORD_BITS);
    let (skip, bits) = (count / WORD_BITS, count % WORD_BITS);
    let n = words_for(width);
    let at = |words: &[u64], j: usize| if j < n { words[j] } else { 0 };
    let keep = words[w0] & low_mask(b0);
    // Ascending and in place: word `i` reads only words `>= i`.
    for i in w0..n {
        let (lo, hi) = (at(words, i + skip), at(words, i + skip + 1));
        words[i] = if bits == 0 {
            lo
        } else {
            (lo >> bits) | (hi << (WORD_BITS - bits))
        };
    }
    words[w0] = (words[w0] & !low_mask(b0)) | keep;
}

/// Mask with bits `0..bits` set.
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Collects the set-bit positions of a line into a vector.
pub fn ones(words: &[u64], width: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count_ones(words));
    for_each_one(words, |pos| {
        if pos < width {
            out.push(pos);
        }
    });
    out
}

/// Calls `f` with each set-bit position of a line, in ascending order.
///
/// ```
/// let mut seen = Vec::new();
/// qrm_core::bitline::for_each_one(&[0b101, 1], |pos| seen.push(pos));
/// assert_eq!(seen, [0, 2, 64]);
/// ```
#[inline]
pub fn for_each_one(words: &[u64], mut f: impl FnMut(usize)) {
    for (i, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            f(i * WORD_BITS + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

/// Shifts a whole line one position toward higher indices (west-to-east),
/// dropping any bit that would leave `width`.
pub fn shift_up_one(words: &[u64], width: usize) -> Vec<u64> {
    let n = words.len();
    let mut out = vec![0u64; n];
    let mut carry = 0u64;
    for i in 0..n {
        out[i] = (words[i] << 1) | carry;
        carry = words[i] >> (WORD_BITS - 1);
    }
    let tail = width % WORD_BITS;
    if tail != 0 {
        out[n - 1] &= low_mask(tail);
    }
    out
}

/// Shifts a whole line one position toward lower indices (east-to-west),
/// dropping bit 0.
pub fn shift_down_one(words: &[u64]) -> Vec<u64> {
    let n = words.len();
    let mut out = vec![0u64; n];
    for i in 0..n {
        let next = if i + 1 < n { words[i + 1] } else { 0 };
        out[i] = (words[i] >> 1) | (next << (WORD_BITS - 1));
    }
    out
}

/// Builds a mask with bits `lo..hi` set, `len_words` words long.
pub fn range_mask(len_words: usize, lo: usize, hi: usize) -> Vec<u64> {
    (0..len_words).map(|i| range_word(i, lo, hi)).collect()
}

/// Word `index` of the mask with bits `lo..hi` set, computed without
/// building the whole mask.
///
/// ```
/// assert_eq!(qrm_core::bitline::range_word(0, 60, 66), 0b1111 << 60);
/// assert_eq!(qrm_core::bitline::range_word(1, 60, 66), 0b11);
/// ```
#[inline]
pub fn range_word(index: usize, lo: usize, hi: usize) -> u64 {
    let base = index * WORD_BITS;
    let clip = |pos: usize| pos.clamp(base, base + WORD_BITS) - base;
    let (start, end) = (clip(lo), clip(hi));
    if start >= end {
        0
    } else {
        low_mask(end) & !low_mask(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-by-bit reference for the word-level suffix shift.
    fn suffix_shift_ref(words: &mut [u64], hole: usize, width: usize) {
        for pos in hole..width.saturating_sub(1) {
            let above = get(words, pos + 1);
            set(words, pos, above);
        }
        if width > 0 {
            set(words, width - 1, false);
        }
    }

    #[test]
    fn get_set_roundtrip_across_words() {
        let mut w = vec![0u64; 2];
        for pos in [0, 1, 63, 64, 65, 127] {
            set(&mut w, pos, true);
            assert!(get(&w, pos));
            set(&mut w, pos, false);
            assert!(!get(&w, pos));
        }
    }

    #[test]
    fn highest_lowest() {
        let mut w = vec![0u64; 2];
        assert_eq!(highest_one(&w), None);
        assert_eq!(lowest_one_from(&w, 0), None);
        set(&mut w, 5, true);
        set(&mut w, 100, true);
        assert_eq!(lowest_one_from(&w, 0), Some(5));
        assert_eq!(lowest_one_from(&w, 6), Some(100));
        assert_eq!(highest_one(&w), Some(100));
    }

    #[test]
    fn lowest_zero_in_ranges() {
        let w = [0b0111u64, u64::MAX];
        assert_eq!(lowest_zero_in(&w, 0, 128), Some(3));
        assert_eq!(lowest_zero_in(&w, 0, 3), None);
        assert_eq!(lowest_zero_in(&w, 4, 64), Some(4));
        // second word fully occupied
        assert_eq!(lowest_zero_in(&[u64::MAX, u64::MAX], 0, 128), None);
        assert_eq!(lowest_zero_in(&w, 5, 5), None);
    }

    #[test]
    fn eligible_hole_cases() {
        assert_eq!(eligible_hole(&[0u64], 0, 64), None);
        assert_eq!(eligible_hole(&[0b111u64], 0, 64), None);
        assert_eq!(eligible_hole(&[0b101u64], 0, 64), Some(1));
        assert_eq!(eligible_hole(&[0b101u64], 2, 64), None);
        assert_eq!(eligible_hole(&[0b1001u64], 1, 1), None);
        assert_eq!(eligible_hole(&[0b1001u64], 1, 4), Some(1));
    }

    #[test]
    fn suffix_shift_behaviour() {
        let mut w = vec![0b110100u64];
        suffix_shift(&mut w, 0, 64);
        assert_eq!(w[0], 0b011010);
        let mut w = vec![0b110101u64];
        suffix_shift(&mut w, 3, 64);
        assert_eq!(w[0], 0b011101);
    }

    #[test]
    fn suffix_shift_across_word_boundary() {
        let width = 130;
        let mut w = vec![0u64; words_for(width)];
        set(&mut w, 63, true);
        set(&mut w, 64, true);
        set(&mut w, 129, true);
        suffix_shift(&mut w, 0, width);
        assert_eq!(ones(&w, width), vec![62, 63, 128]);
    }

    #[test]
    fn suffix_shift_matches_reference_exhaustively() {
        // All 10-bit patterns, all holes: word-level == bit-level.
        let width = 10;
        for pattern in 0u64..(1 << width) {
            for hole in 0..width {
                if (pattern >> hole) & 1 == 1 {
                    continue; // not a hole
                }
                let mut a = vec![pattern];
                let mut b = vec![pattern];
                suffix_shift(&mut a, hole, width);
                suffix_shift_ref(&mut b, hole, width);
                assert_eq!(a, b, "pattern {pattern:#b} hole {hole}");
            }
        }
    }

    #[test]
    fn suffix_shift_multiword_matches_reference() {
        // Pseudo-random multi-word lines.
        let width = 150;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let line: Vec<u64> = (0..words_for(width)).map(|_| next()).collect();
            let mut line = line;
            // mask tail
            line[2] &= (1u64 << (width - 128)) - 1;
            if let Some(h) = lowest_zero_in(&line, 0, width) {
                let mut a = line.clone();
                let mut b = line.clone();
                suffix_shift(&mut a, h, width);
                suffix_shift_ref(&mut b, h, width);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn multi_shifts_and_range_queries_match_their_bitwise_definitions() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in [1, 25, 64, 65, 130, 150] {
            for _ in 0..100 {
                let mut line: Vec<u64> = (0..words_for(width)).map(|_| next()).collect();
                let tail = width % WORD_BITS;
                if tail != 0 {
                    *line.last_mut().unwrap() &= low_mask(tail);
                }
                let lo = next() as usize % (width + 1);
                let hi = next() as usize % (width + 1);
                let expect = (lo..hi).filter(|&p| get(&line, p)).count();
                assert_eq!(count_ones_in(&line, lo, hi), expect, "{width} {lo}..{hi}");
                let expect = (lo..width).find(|&p| get(&line, p));
                assert_eq!(lowest_one_from(&line, lo), expect, "{width} from {lo}");
                // Clear a run at `lo`, then delete it in one step and one
                // position at a time.
                let count = hi.saturating_sub(lo);
                for p in lo..lo + count {
                    set(&mut line, p, false);
                }
                let mut once = line.clone();
                suffix_shift_by(&mut once, lo, count, width);
                let mut stepwise = line.clone();
                for _ in 0..count {
                    suffix_shift_ref(&mut stepwise, lo, width);
                }
                assert_eq!(once, stepwise, "width {width}: {count} shifts at {lo}");
            }
        }
    }

    #[test]
    fn suffix_shift_preserves_count_and_low_bits() {
        let width = 90;
        let mut w = vec![0u64; words_for(width)];
        for pos in [1, 3, 40, 70, 89] {
            set(&mut w, pos, true);
        }
        let before = count_ones(&w);
        suffix_shift(&mut w, 2, width);
        assert_eq!(count_ones(&w), before);
        assert_eq!(ones(&w, width), vec![1, 2, 39, 69, 88]);
    }

    #[test]
    fn ones_and_range_mask() {
        let m = range_mask(2, 60, 70);
        assert_eq!(ones(&m, 128), (60..70).collect::<Vec<_>>());
        assert_eq!(count_ones(&m), 10);
    }

    #[test]
    fn range_word_edges() {
        assert_eq!(range_word(0, 0, 64), u64::MAX);
        assert_eq!(range_word(1, 0, 200), u64::MAX);
        assert_eq!(range_word(1, 5, 64), 0);
        assert_eq!(range_word(0, 9, 9), 0);
        assert_eq!(range_word(0, 70, 60), 0);
        assert_eq!(range_word(2, 130, 131), 0b100);
    }

    #[test]
    fn whole_line_shifts() {
        let width = 130;
        let mut w = vec![0u64; words_for(width)];
        for pos in [0, 63, 64, 129] {
            set(&mut w, pos, true);
        }
        let up = shift_up_one(&w, width);
        assert_eq!(ones(&up, width), vec![1, 64, 65]); // 129 dropped
        let down = shift_down_one(&w);
        assert_eq!(ones(&down, width), vec![62, 63, 128]); // 0 dropped
    }

    #[test]
    fn words_for_sizes() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(130), 3);
    }
}
