//! Atom detection: per-trap photometry and thresholding.
//!
//! The background level is the frame's 25th-percentile pixel, read by
//! selection (`select_nth_unstable_by`, linear time) instead of a sort of
//! the whole frame (`n log n`): selection returns the element a sort
//! would put at that index, so the estimate is the same either way.

use qrm_core::error::Error;
use qrm_core::grid::AtomGrid;

use crate::image::FluorescenceImage;
use crate::layout::TrapLayout;

/// How the occupied/empty decision threshold is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Fixed threshold on the background-subtracted ROI sum.
    Fixed(f64),
    /// Otsu's method over the per-trap signal histogram — exploits the
    /// bimodal occupied/empty distribution and needs no calibration.
    Otsu,
}

/// Per-trap detection output.
#[derive(Debug, Clone)]
pub struct DetectionReport {
    /// Detected occupancy.
    pub grid: AtomGrid,
    /// Background-subtracted ROI signal per trap (row-major).
    pub signals: Vec<f64>,
    /// Threshold actually applied.
    pub threshold: f64,
}

impl DetectionReport {
    /// Confusion counts against a ground-truth grid:
    /// `(true_pos, false_pos, false_neg, true_neg)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for differing dimensions.
    pub fn confusion(&self, truth: &AtomGrid) -> Result<(usize, usize, usize, usize), Error> {
        if truth.dims() != self.grid.dims() {
            return Err(Error::DimensionMismatch {
                left: self.grid.dims(),
                right: truth.dims(),
            });
        }
        let (mut tp, mut fp, mut fal_n, mut tn) = (0, 0, 0, 0);
        for r in 0..truth.dims().0 {
            for c in 0..truth.dims().1 {
                match (self.grid.get_unchecked(r, c), truth.get_unchecked(r, c)) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fal_n += 1,
                    (false, false) => tn += 1,
                }
            }
        }
        Ok((tp, fp, fal_n, tn))
    }

    /// Fraction of traps classified correctly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] for differing dimensions.
    pub fn fidelity(&self, truth: &AtomGrid) -> Result<f64, Error> {
        let (tp, fp, fal_n, tn) = self.confusion(truth)?;
        Ok((tp + tn) as f64 / (tp + fp + fal_n + tn) as f64)
    }
}

/// ROI-photometry detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    /// Half-width of the square region of interest around each trap
    /// centre, in pixels.
    pub roi_radius_px: usize,
    /// Threshold policy.
    pub policy: ThresholdPolicy,
}

impl Default for Detector {
    fn default() -> Self {
        Detector {
            roi_radius_px: 2,
            policy: ThresholdPolicy::Otsu,
        }
    }
}

impl Detector {
    /// Detects occupancy in `frame`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyGrid`] for a degenerate layout (cannot
    /// happen for layouts built through [`TrapLayout::new`]).
    pub fn detect(
        &self,
        frame: &FluorescenceImage,
        layout: &TrapLayout,
    ) -> Result<DetectionReport, Error> {
        let (rows, cols) = (layout.rows(), layout.cols());
        // Background estimate: the frame's 25th-percentile pixel, a
        // robust floor at these SNRs.
        let mut pixels: Vec<f32> = frame.pixels().to_vec();
        let quartile = pixels.len() / 4;
        let (_, &mut background, _) = pixels.select_nth_unstable_by(quartile, |a, b| {
            a.partial_cmp(b).expect("no NaNs in frames")
        });
        let background = f64::from(background);

        let r = self.roi_radius_px as isize;
        let roi_area = ((2 * r + 1) * (2 * r + 1)) as f64;
        let mut signals = Vec::with_capacity(rows * cols);
        for row in 0..rows {
            for col in 0..cols {
                let (cy, cx) = layout.center(row, col);
                let (iy, ix) = (cy.round() as isize, cx.round() as isize);
                let mut sum = 0.0f64;
                for dy in -r..=r {
                    for dx in -r..=r {
                        let (y, x) = (iy + dy, ix + dx);
                        if y >= 0 && x >= 0 {
                            sum += frame.at(y as usize, x as usize) as f64;
                        }
                    }
                }
                signals.push(sum - background * roi_area);
            }
        }

        let threshold = match self.policy {
            ThresholdPolicy::Fixed(t) => t,
            ThresholdPolicy::Otsu => otsu_threshold(&signals),
        };

        let mut grid = AtomGrid::new(rows, cols)?;
        for (i, &s) in signals.iter().enumerate() {
            if s > threshold {
                grid.set_unchecked(i / cols, i % cols, true);
            }
        }
        Ok(DetectionReport {
            grid,
            signals,
            threshold,
        })
    }
}

/// Otsu's threshold over a 256-bin histogram of the signals.
fn otsu_threshold(signals: &[f64]) -> f64 {
    if signals.is_empty() {
        return 0.0;
    }
    let lo = signals.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = signals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi <= lo {
        return lo;
    }
    const BINS: usize = 256;
    let scale = BINS as f64 / (hi - lo);
    let mut hist = [0usize; BINS];
    for &s in signals {
        let b = (((s - lo) * scale) as usize).min(BINS - 1);
        hist[b] += 1;
    }
    let total = signals.len() as f64;
    let sum_all: f64 = hist
        .iter()
        .enumerate()
        .map(|(i, &c)| i as f64 * c as f64)
        .sum();
    let (mut sum_b, mut w_b) = (0.0f64, 0.0f64);
    let (mut best_var, mut first_best, mut last_best) = (0.0f64, 0usize, 0usize);
    for (i, &c) in hist.iter().enumerate() {
        w_b += c as f64;
        if w_b == 0.0 {
            continue;
        }
        let w_f = total - w_b;
        if w_f == 0.0 {
            break;
        }
        sum_b += i as f64 * c as f64;
        let m_b = sum_b / w_b;
        let m_f = (sum_all - sum_b) / w_f;
        let var = w_b * w_f * (m_b - m_f) * (m_b - m_f);
        if var > best_var * (1.0 + 1e-12) {
            best_var = var;
            first_best = i;
            last_best = i;
        } else if var >= best_var * (1.0 - 1e-12) {
            // Plateau: empty histogram bins between the two clusters keep
            // the between-class variance constant; take the midpoint so
            // the threshold sits mid-gap rather than hugging a cluster.
            last_best = i;
        }
    }
    let best_bin = (first_best + last_best) / 2;
    lo + (best_bin as f64 + 0.5) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{render, ImagingConfig};
    use qrm_core::loading::seeded_rng;

    #[test]
    fn perfect_recovery_at_high_snr() {
        let mut rng = seeded_rng(10);
        for _ in 0..5 {
            let truth = AtomGrid::random(12, 12, 0.5, &mut rng);
            let layout = TrapLayout::new(12, 12, 6.0, 4.0);
            let frame = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
            let report = Detector::default().detect(&frame, &layout).unwrap();
            assert_eq!(report.grid, truth);
            assert_eq!(report.fidelity(&truth).unwrap(), 1.0);
        }
    }

    #[test]
    fn low_snr_degrades_gracefully() {
        let mut rng = seeded_rng(11);
        let truth = AtomGrid::random(14, 14, 0.5, &mut rng);
        let layout = TrapLayout::new(14, 14, 6.0, 4.0);
        let frame = render(&truth, &layout, &ImagingConfig::low_snr(), &mut rng);
        let report = Detector::default().detect(&frame, &layout).unwrap();
        let fidelity = report.fidelity(&truth).unwrap();
        assert!(fidelity > 0.85, "fidelity {fidelity}");
    }

    #[test]
    fn fixed_threshold_policy() {
        let mut rng = seeded_rng(12);
        let truth = AtomGrid::random(8, 8, 0.5, &mut rng);
        let layout = TrapLayout::new(8, 8, 6.0, 4.0);
        let frame = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
        let detector = Detector {
            roi_radius_px: 2,
            policy: ThresholdPolicy::Fixed(150.0),
        };
        let report = detector.detect(&frame, &layout).unwrap();
        assert_eq!(report.threshold, 150.0);
        assert_eq!(report.grid, truth);
    }

    #[test]
    fn confusion_counts_add_up() {
        let mut rng = seeded_rng(13);
        let truth = AtomGrid::random(10, 10, 0.5, &mut rng);
        let layout = TrapLayout::new(10, 10, 6.0, 4.0);
        let frame = render(&truth, &layout, &ImagingConfig::low_snr(), &mut rng);
        let report = Detector::default().detect(&frame, &layout).unwrap();
        let (tp, fp, fal_n, tn) = report.confusion(&truth).unwrap();
        assert_eq!(tp + fp + fal_n + tn, 100);
    }

    #[test]
    fn confusion_dimension_mismatch() {
        let mut rng = seeded_rng(14);
        let truth = AtomGrid::random(6, 6, 0.5, &mut rng);
        let layout = TrapLayout::new(6, 6, 6.0, 4.0);
        let frame = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
        let report = Detector::default().detect(&frame, &layout).unwrap();
        let other = AtomGrid::new(5, 5).unwrap();
        assert!(report.confusion(&other).is_err());
    }

    #[test]
    fn otsu_on_degenerate_inputs() {
        assert_eq!(otsu_threshold(&[]), 0.0);
        assert_eq!(otsu_threshold(&[5.0, 5.0, 5.0]), 5.0);
    }

    #[test]
    fn empty_and_full_arrays() {
        let mut rng = seeded_rng(15);
        let layout = TrapLayout::new(6, 6, 6.0, 4.0);
        // all empty: Otsu on pure noise may fire arbitrarily, so use a
        // fixed threshold scaled to the photon budget
        let empty = AtomGrid::new(6, 6).unwrap();
        let frame = render(&empty, &layout, &ImagingConfig::default(), &mut rng);
        let det = Detector {
            roi_radius_px: 2,
            policy: ThresholdPolicy::Fixed(150.0),
        };
        assert_eq!(det.detect(&frame, &layout).unwrap().grid.atom_count(), 0);
    }
}
