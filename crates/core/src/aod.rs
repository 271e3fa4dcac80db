//! Greedy batching of mover sets into AOD cross-product moves.
//!
//! The 2D-AOD generates a tweezer at *every* intersection of its selected
//! row and column tones (paper §II-B). A planner that wants to move a
//! specific set of atoms must therefore choose selections whose cross
//! product does not trap any bystander atom; when that is impossible "the
//! two atom sites will have to be addressed in separate moves".
//! [`AodBatcher`] partitions per-line mover sets into the fewest such
//! moves (the paper's Row Combination Unit performs this merge on the
//! FPGA, §IV-C). The executor ([`crate::executor`]) decides what a move
//! actually picks up.

use crate::bitline;

/// One batch produced by the [`AodBatcher`]: a set of lines that can move
/// together in a single cross-product selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Line indices (rows for horizontal motion, columns for vertical).
    pub lines: Vec<usize>,
    /// Union of mover positions along the orthogonal axis, bit-packed.
    pub union_mask: Vec<u64>,
}

impl Batch {
    /// Mover positions as indices.
    pub fn positions(&self, width: usize) -> Vec<usize> {
        bitline::ones(&self.union_mask, width)
    }
}

/// Greedy batcher that partitions per-line mover sets into AOD-legal
/// groups.
///
/// Given, for each line, the occupancy mask and the mask of atoms that
/// *must* move, lines are greedily packed into batches such that the
/// selection `lines x union(movers)` traps no unintended atom: for every
/// line `l` in a batch, `occ[l] & union & !movers[l] == 0`.
#[derive(Debug, Clone, Default)]
pub struct AodBatcher {
    _private: (),
}

impl AodBatcher {
    /// Creates a batcher.
    pub fn new() -> Self {
        AodBatcher { _private: () }
    }

    /// Partitions `movers` into legal batches.
    ///
    /// * `occ` — occupancy mask per line index (full array of lines);
    /// * `movers` — `(line, mover_mask)` pairs; every mover bit must be
    ///   occupied in `occ[line]`.
    ///
    /// Lines are processed in the given order; each line joins the first
    /// open batch it is compatible with (first-fit), which keeps the
    /// common fully-compatible case at one batch.
    ///
    /// # Panics
    ///
    /// Debug-asserts that mover bits are occupied.
    pub fn batch(&self, occ: &[&[u64]], movers: &[(usize, Vec<u64>)]) -> Vec<Batch> {
        // Fast path: a single batch works whenever no line holds a
        // stationary atom under the union of all mover columns — by far
        // the common case for compaction waves.
        let words = movers.iter().map(|(_, m)| m.len()).max().unwrap_or(0);
        let mut union = vec![0u64; words];
        let mut nonempty = 0usize;
        for (_, mask) in movers {
            if bitline::count_ones(mask) == 0 {
                continue;
            }
            nonempty += 1;
            for (u, m) in union.iter_mut().zip(mask.iter()) {
                *u |= m;
            }
        }
        if nonempty == 0 {
            return Vec::new();
        }
        let all_compatible = movers.iter().all(|(line, mask)| {
            bitline::count_ones(mask) == 0
                || occ[*line]
                    .iter()
                    .zip(union.iter().zip(mask.iter()))
                    .all(|(o, (u, m))| o & u & !m == 0)
        });
        if all_compatible {
            return vec![Batch {
                lines: movers
                    .iter()
                    .filter(|(_, m)| bitline::count_ones(m) > 0)
                    .map(|(l, _)| *l)
                    .collect(),
                union_mask: union,
            }];
        }

        // (lines, per-line mover masks, union mask)
        type OpenBatch = (Vec<usize>, Vec<Vec<u64>>, Vec<u64>);
        let mut batches: Vec<OpenBatch> = Vec::new();
        // (lines, per-line mover masks, union mask)
        for (line, mask) in movers {
            if bitline::count_ones(mask) == 0 {
                continue;
            }
            debug_assert!(
                mask.iter().zip(occ[*line].iter()).all(|(m, o)| m & !o == 0),
                "mover bits must be occupied"
            );
            let mut placed = false;
            'batch: for (lines, line_masks, union) in batches.iter_mut() {
                // Candidate line must tolerate the existing union...
                for (m, (o, u)) in mask.iter().zip(occ[*line].iter().zip(union.iter())) {
                    if o & u & !m != 0 {
                        continue 'batch;
                    }
                }
                // ...and every existing line must tolerate the new bits.
                for (l, lm) in lines.iter().zip(line_masks.iter()) {
                    for ((o, m), lmw) in occ[*l].iter().zip(mask.iter()).zip(lm.iter()) {
                        if o & m & !lmw != 0 {
                            continue 'batch;
                        }
                    }
                }
                lines.push(*line);
                line_masks.push(mask.clone());
                for (u, m) in union.iter_mut().zip(mask.iter()) {
                    *u |= m;
                }
                placed = true;
                break;
            }
            if !placed {
                batches.push((vec![*line], vec![mask.clone()], mask.clone()));
            }
        }
        batches
            .into_iter()
            .map(|(lines, _, union_mask)| Batch { lines, union_mask })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitline::words_for;

    fn mask(bits: &[usize], width: usize) -> Vec<u64> {
        let mut m = vec![0u64; words_for(width)];
        for &b in bits {
            bitline::set(&mut m, b, true);
        }
        m
    }

    #[test]
    fn compatible_lines_merge_into_one_batch() {
        let width = 8;
        // rows: 0 -> atoms {2,3}, 1 -> atoms {2,3}; both move {2,3}.
        let occ0 = mask(&[2, 3], width);
        let occ1 = mask(&[2, 3], width);
        let occ: Vec<&[u64]> = vec![&occ0, &occ1];
        let movers = vec![(0usize, mask(&[2, 3], width)), (1, mask(&[2, 3], width))];
        let batches = AodBatcher::new().batch(&occ, &movers);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].lines, vec![0, 1]);
        assert_eq!(batches[0].positions(width), vec![2, 3]);
    }

    #[test]
    fn incompatible_lines_split() {
        let width = 8;
        // row 0 moves {3}, but row 1 has a stationary atom at 3 while
        // moving {5}: the union {3,5} would trap row 1's atom at 3.
        let occ0 = mask(&[3], width);
        let occ1 = mask(&[3, 5], width);
        let occ: Vec<&[u64]> = vec![&occ0, &occ1];
        let movers = vec![(0usize, mask(&[3], width)), (1, mask(&[5], width))];
        let batches = AodBatcher::new().batch(&occ, &movers);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].lines, vec![0]);
        assert_eq!(batches[1].lines, vec![1]);
    }

    #[test]
    fn superset_movers_are_compatible() {
        let width = 8;
        // row 0 moves {2,3}; row 1 moves {2}: union {2,3} must not trap a
        // stationary atom in row 1 at col 3 — row 1 has no atom at 3.
        let occ0 = mask(&[2, 3], width);
        let occ1 = mask(&[2], width);
        let occ: Vec<&[u64]> = vec![&occ0, &occ1];
        let movers = vec![(0usize, mask(&[2, 3], width)), (1, mask(&[2], width))];
        let batches = AodBatcher::new().batch(&occ, &movers);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].lines, vec![0, 1]);
    }

    #[test]
    fn empty_mover_masks_skipped() {
        let width = 8;
        let occ0 = mask(&[1], width);
        let occ: Vec<&[u64]> = vec![&occ0];
        let movers = vec![(0usize, mask(&[], width))];
        assert!(AodBatcher::new().batch(&occ, &movers).is_empty());
    }

    #[test]
    fn later_line_conflicting_with_union_opens_new_batch() {
        let width = 8;
        // rows 0,1 move {4}; row 2 moves {6} but has stationary atom at 4.
        let occ0 = mask(&[4], width);
        let occ1 = mask(&[4], width);
        let occ2 = mask(&[4, 6], width);
        let occ: Vec<&[u64]> = vec![&occ0, &occ1, &occ2];
        let movers = vec![
            (0usize, mask(&[4], width)),
            (1, mask(&[4], width)),
            (2, mask(&[6], width)),
        ];
        let batches = AodBatcher::new().batch(&occ, &movers);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].lines, vec![0, 1]);
        assert_eq!(batches[1].lines, vec![2]);
    }

    #[test]
    fn new_line_breaking_existing_line_opens_new_batch() {
        let width = 8;
        // row 0 moves {2} and ALSO has a stationary atom at 5.
        // row 1 moves {5}: adding row 1's union bit 5 would trap row 0's
        // stationary atom at 5.
        let occ0 = mask(&[2, 5], width);
        let occ1 = mask(&[5], width);
        let occ: Vec<&[u64]> = vec![&occ0, &occ1];
        let movers = vec![(0usize, mask(&[2], width)), (1, mask(&[5], width))];
        let batches = AodBatcher::new().batch(&occ, &movers);
        assert_eq!(batches.len(), 2);
    }
}
