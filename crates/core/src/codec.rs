//! Binary encoding of movement records.
//!
//! The accelerator writes its movement records back to DDR for the PS to
//! forward to the AWG (paper §IV-A). This module defines that output
//! contract: a bit-packed stream with one record per parallel move —
//! the row-selection mask (`height` bits), the column-selection mask
//! (`width` bits), and a direction/step byte — preceded by a small
//! header. [`encode`] and [`decode`] round-trip exactly and the encoded
//! size matches the cost model used by the FPGA write-back path.
//!
//! Stream layout (LSB-first bit packing):
//!
//! ```text
//! magic  u16  0x51AD
//! height u16
//! width  u16
//! count  u32     (80 header bits total)
//! per move: height bits row mask | width bits col mask |
//!           2 bits direction (N=0,S=1,E=2,W=3) | 6 bits step
//! ```

use crate::error::Error;
use crate::geometry::Direction;
use crate::moves::ParallelMove;
use crate::schedule::Schedule;

const MAGIC: u16 = 0x51AD;
/// Maximum encodable step size (6-bit field).
pub const MAX_STEP: usize = 63;

/// Number of bits one move record occupies for an `height x width`
/// array.
pub const fn record_bits(height: usize, width: usize) -> usize {
    height + width + 8
}

/// Total encoded size of a schedule, in bits (header + records).
pub const fn encoded_bits(height: usize, width: usize, moves: usize) -> usize {
    80 + moves * record_bits(height, width)
}

/// Encodes a schedule into the bit-packed movement-record stream.
///
/// # Errors
///
/// Returns [`Error::Parse`] when a move is diagonal or its step exceeds
/// [`MAX_STEP`] (the record format covers axis-aligned moves, which is
/// all the QRM/Tetris/PSCA planners emit; MTA1's long legs are
/// axis-aligned too).
pub fn encode(schedule: &Schedule) -> Result<Vec<u8>, Error> {
    let (h, w) = (schedule.height(), schedule.width());
    let mut bits = BitWriter::with_capacity(encoded_bits(h, w, schedule.len()));
    bits.put(MAGIC as u64, 16);
    bits.put(h as u64, 16);
    bits.put(w as u64, 16);
    bits.put(schedule.len() as u64, 32);
    for (i, mv) in schedule.iter().enumerate() {
        let dir = mv.direction().ok_or_else(|| Error::Parse {
            reason: format!("move {i} is diagonal; records are axis-aligned"),
        })?;
        if mv.step() > MAX_STEP {
            return Err(Error::Parse {
                reason: format!("move {i} step {} exceeds {MAX_STEP}", mv.step()),
            });
        }
        let mut row_mask = vec![false; h];
        for &r in mv.rows() {
            row_mask[r] = true;
        }
        let mut col_mask = vec![false; w];
        for &c in mv.cols() {
            col_mask[c] = true;
        }
        for b in row_mask {
            bits.put(u64::from(b), 1);
        }
        for b in col_mask {
            bits.put(u64::from(b), 1);
        }
        bits.put(dir_code(dir), 2);
        bits.put(mv.step() as u64, 6);
    }
    Ok(bits.into_bytes())
}

/// Decodes a movement-record stream back into a schedule.
///
/// # Errors
///
/// Returns [`Error::Parse`] for bad magic, truncated streams, or
/// degenerate records.
pub fn decode(bytes: &[u8]) -> Result<Schedule, Error> {
    let mut bits = BitReader::new(bytes);
    let magic = bits.take(16)? as u16;
    if magic != MAGIC {
        return Err(Error::Parse {
            reason: format!("bad magic {magic:#06x}"),
        });
    }
    let h = bits.take(16)? as usize;
    let w = bits.take(16)? as usize;
    let count = bits.take(32)? as usize;
    if h == 0 || w == 0 {
        return Err(Error::Parse {
            reason: "zero array dimension in header".into(),
        });
    }
    let mut schedule = Schedule::new(h, w);
    for i in 0..count {
        let mut rows = Vec::new();
        for r in 0..h {
            if bits.take(1)? == 1 {
                rows.push(r);
            }
        }
        let mut cols = Vec::new();
        for c in 0..w {
            if bits.take(1)? == 1 {
                cols.push(c);
            }
        }
        let dir = decode_dir(bits.take(2)?);
        let step = bits.take(6)? as isize;
        let (ur, uc) = dir.delta();
        let mv = ParallelMove::new(rows, cols, ur * step, uc * step).map_err(|e| Error::Parse {
            reason: format!("record {i} is degenerate: {e}"),
        })?;
        schedule.push(mv);
    }
    Ok(schedule)
}

fn dir_code(dir: Direction) -> u64 {
    match dir {
        Direction::North => 0,
        Direction::South => 1,
        Direction::East => 2,
        Direction::West => 3,
    }
}

fn decode_dir(code: u64) -> Direction {
    match code {
        0 => Direction::North,
        1 => Direction::South,
        2 => Direction::East,
        _ => Direction::West,
    }
}

/// LSB-first bit writer.
struct BitWriter {
    bytes: Vec<u8>,
    bit: usize,
}

impl BitWriter {
    fn with_capacity(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            bit: 0,
        }
    }

    fn put(&mut self, value: u64, nbits: usize) {
        debug_assert!(nbits <= 64);
        debug_assert!(nbits == 64 || value < (1u64 << nbits));
        for k in 0..nbits {
            if self.bit.is_multiple_of(8) {
                self.bytes.push(0);
            }
            if (value >> k) & 1 == 1 {
                *self.bytes.last_mut().expect("pushed") |= 1 << (self.bit % 8);
            }
            self.bit += 1;
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// LSB-first bit reader.
struct BitReader<'a> {
    bytes: &'a [u8],
    bit: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit: 0 }
    }

    fn take(&mut self, nbits: usize) -> Result<u64, Error> {
        if self.bit + nbits > self.bytes.len() * 8 {
            return Err(Error::Parse {
                reason: "truncated movement-record stream".into(),
            });
        }
        let mut value = 0u64;
        for k in 0..nbits {
            let idx = self.bit + k;
            if (self.bytes[idx / 8] >> (idx % 8)) & 1 == 1 {
                value |= 1 << k;
            }
        }
        self.bit += nbits;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::grid::AtomGrid;
    use crate::loading::seeded_rng;
    use crate::scheduler::{Planner, QrmConfig, QrmScheduler};

    #[test]
    fn roundtrip_simple_schedule() {
        let mut s = Schedule::new(6, 8);
        s.push(ParallelMove::new(vec![0, 2], vec![3, 4], 0, -1).unwrap());
        s.push(ParallelMove::new(vec![5], vec![7], -3, 0).unwrap());
        let bytes = encode(&s).unwrap();
        assert_eq!(bytes.len(), encoded_bits(6, 8, 2).div_ceil(8));
        let back = decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn roundtrip_real_qrm_schedule() {
        let mut rng = seeded_rng(9);
        let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
        let target = Rect::centered(20, 20, 12, 12).unwrap();
        let plan = QrmScheduler::new(QrmConfig::default())
            .plan(&grid, &target)
            .unwrap();
        let bytes = encode(&plan.schedule).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, plan.schedule);
        assert_eq!(
            bytes.len(),
            encoded_bits(20, 20, plan.schedule.len()).div_ceil(8)
        );
    }

    #[test]
    fn rejects_diagonal_and_oversized_steps() {
        let mut s = Schedule::new(4, 4);
        s.push(ParallelMove::new(vec![0], vec![0], 1, 1).unwrap());
        assert!(matches!(encode(&s), Err(Error::Parse { .. })));
        let mut s = Schedule::new(100, 100);
        s.push(ParallelMove::new(vec![0], vec![0], 64, 0).unwrap());
        assert!(matches!(encode(&s), Err(Error::Parse { .. })));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0xFF; 8]).is_err()); // bad magic
                                              // valid header claiming one move but truncated body
        let mut s = Schedule::new(8, 8);
        s.push(ParallelMove::new(vec![1], vec![1], 0, 1).unwrap());
        let bytes = encode(&s).unwrap();
        assert!(decode(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn empty_schedule_roundtrip() {
        let s = Schedule::new(10, 12);
        let bytes = encode(&s).unwrap();
        assert_eq!(bytes.len(), 10);
        let back = decode(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!((back.height(), back.width()), (10, 12));
    }

    #[test]
    fn record_size_matches_ocm_cost_model() {
        // A record is a row mask, a column mask and a direction/step
        // byte: width + height + 8 bits, what qrm-fpga's write-back
        // cost streams per move.
        assert_eq!(record_bits(50, 50), 108);
        assert_eq!(record_bits(90, 90), 188);
    }

    #[test]
    fn step_and_direction_space_covered() {
        let mut s = Schedule::new(70, 70);
        for (dr, dc) in [
            (-1isize, 0isize),
            (1, 0),
            (0, 1),
            (0, -1),
            (-63, 0),
            (0, 63),
        ] {
            s.push(ParallelMove::new(vec![65], vec![64], dr, dc).unwrap());
        }
        let back = decode(&encode(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
