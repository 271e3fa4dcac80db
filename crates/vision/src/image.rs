//! Synthetic fluorescence-frame rendering.

use rand::Rng;

use qrm_core::grid::AtomGrid;

use crate::layout::TrapLayout;
use crate::noise::{standard_normal, Poisson};

/// Physical parameters of the imaging model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImagingConfig {
    /// Mean detected photons per occupied trap during the exposure.
    pub photons_per_atom: f64,
    /// Mean background photons per pixel.
    pub background_per_px: f64,
    /// Gaussian point-spread-function sigma, in pixels.
    pub psf_sigma_px: f64,
    /// Camera read noise sigma, in counts per pixel.
    pub read_noise: f64,
}

impl Default for ImagingConfig {
    /// A comfortable-SNR regime (hundreds of photons per atom, modest
    /// background), typical of site-resolved fluorescence imaging.
    fn default() -> Self {
        ImagingConfig {
            photons_per_atom: 400.0,
            background_per_px: 2.0,
            psf_sigma_px: 1.2,
            read_noise: 1.5,
        }
    }
}

impl ImagingConfig {
    /// A deliberately poor-SNR regime for robustness experiments
    /// (roughly 3 sigma of separation at the ROI level).
    pub fn low_snr() -> Self {
        ImagingConfig {
            photons_per_atom: 90.0,
            background_per_px: 4.0,
            psf_sigma_px: 1.5,
            read_noise: 3.0,
        }
    }
}

/// A single grey-scale camera frame (row-major `f32` counts).
#[derive(Debug, Clone, PartialEq)]
pub struct FluorescenceImage {
    height: usize,
    width: usize,
    pixels: Vec<f32>,
}

impl FluorescenceImage {
    /// Creates a zeroed frame.
    pub fn new(height: usize, width: usize) -> Self {
        FluorescenceImage {
            height,
            width,
            pixels: vec![0.0; height * width],
        }
    }

    /// Frame height in pixels.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Frame width in pixels.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Pixel value at `(y, x)`; 0.0 outside the frame.
    pub fn at(&self, y: usize, x: usize) -> f32 {
        if y < self.height && x < self.width {
            self.pixels[y * self.width + x]
        } else {
            0.0
        }
    }

    /// Raw pixel buffer (row-major).
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Sum of all counts.
    pub fn total(&self) -> f64 {
        self.pixels.iter().map(|&p| p as f64).sum()
    }
}

/// Renders a fluorescence frame from ground-truth occupancy.
///
/// Every occupied trap emits a Poisson-distributed photon count spread
/// over a Gaussian PSF; background photons and Gaussian read noise are
/// added per pixel.
///
/// The PSF is separable: a spot's weight at `(y, x)` is its trap row's
/// Gaussian factor at `y` times its trap column's factor at `x`. The
/// factors are computed once per trap row and trap column, so an atom
/// costs multiplies, not `exp()` calls, whether or not the trap centres
/// fall on whole pixels. The background sampler's table is built once
/// per call for the configured mean (see [`crate::noise`]).
pub fn render<R: Rng + ?Sized>(
    truth: &AtomGrid,
    layout: &TrapLayout,
    config: &ImagingConfig,
    rng: &mut R,
) -> FluorescenceImage {
    assert_eq!(
        (layout.rows(), layout.cols()),
        truth.dims(),
        "layout does not match grid"
    );
    let (h, w) = layout.image_dims();
    let mut img = FluorescenceImage::new(h, w);

    // Atom spots.
    let sigma = config.psf_sigma_px;
    let rows = psf_axis((0..layout.rows()).map(|r| layout.center(r, 0).0), h, sigma);
    let cols = psf_axis((0..layout.cols()).map(|c| layout.center(0, c).1), w, sigma);
    let photons = Poisson::new(config.photons_per_atom);
    for p in truth.occupied() {
        let count = photons.sample(rng) as f64;
        let (x0, fx) = &cols[p.col];
        let (y0, fy) = &rows[p.row];
        for (y, gy) in (*y0..).zip(fy) {
            let scale = count * gy;
            let line = &mut img.pixels[y * w + x0..][..fx.len()];
            for (px, gx) in line.iter_mut().zip(fx) {
                *px += (scale * gx) as f32;
            }
        }
    }

    // Background + read noise.
    let background = Poisson::new(config.background_per_px);
    for px in img.pixels.iter_mut() {
        let bg = background.sample(rng) as f64;
        let read = config.read_noise * standard_normal(rng);
        *px = (*px as f64 + bg + read).max(0.0) as f32;
    }
    img
}

/// One axis of the separable PSF. For each trap centre on the axis: the
/// first pixel its spot covers and the normalised 1-D Gaussian factors
/// from there, out to four sigma and clipped to the frame's `pixels`.
fn psf_axis(
    centres: impl Iterator<Item = f64>,
    pixels: usize,
    sigma: f64,
) -> Vec<(usize, Vec<f64>)> {
    let reach = (4.0 * sigma).ceil() as isize;
    // The 2-D normalisation 1 / (2π σ²), split evenly over the two axes.
    let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * sigma);
    centres
        .map(|centre| {
            let nearest = centre.round() as isize;
            let first = (nearest - reach).max(0);
            let last = (nearest + reach).min(pixels as isize - 1);
            let factors = (first..=last)
                .map(|p| {
                    let d = p as f64 - centre;
                    norm * (-(d * d) / (2.0 * sigma * sigma)).exp()
                })
                .collect();
            (first as usize, factors)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::loading::seeded_rng;

    #[test]
    fn frame_dimensions_follow_layout() {
        let layout = TrapLayout::new(5, 7, 6.0, 4.0);
        let truth = AtomGrid::new(5, 7).unwrap();
        let mut rng = seeded_rng(1);
        let img = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
        assert_eq!((img.height(), img.width()), layout.image_dims());
    }

    #[test]
    fn occupied_traps_are_brighter() {
        let layout = TrapLayout::new(2, 2, 10.0, 6.0);
        let truth = AtomGrid::parse("#.\n..").unwrap();
        let mut rng = seeded_rng(2);
        let img = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
        let (y0, x0) = layout.center(0, 0);
        let (y1, x1) = layout.center(0, 1);
        let bright = img.at(y0 as usize, x0 as usize);
        let dark = img.at(y1 as usize, x1 as usize);
        assert!(bright > dark + 10.0, "occupied {bright} vs empty {dark}");
    }

    #[test]
    fn total_counts_scale_with_atoms() {
        let layout = TrapLayout::new(4, 4, 8.0, 5.0);
        let mut rng = seeded_rng(3);
        let empty = AtomGrid::new(4, 4).unwrap();
        let mut full = AtomGrid::new(4, 4).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                full.set_unchecked(r, c, true);
            }
        }
        let cfg = ImagingConfig::default();
        let t_empty = render(&empty, &layout, &cfg, &mut rng).total();
        let t_full = render(&full, &layout, &cfg, &mut rng).total();
        // 16 atoms x ~400 photons above background
        assert!(t_full > t_empty + 16.0 * 250.0);
    }

    #[test]
    fn pixel_access_bounds() {
        let img = FluorescenceImage::new(4, 4);
        assert_eq!(img.at(10, 10), 0.0);
        assert_eq!(img.pixels().len(), 16);
    }

    #[test]
    #[should_panic(expected = "layout does not match grid")]
    fn layout_grid_mismatch_panics() {
        let layout = TrapLayout::new(2, 2, 8.0, 4.0);
        let truth = AtomGrid::new(3, 3).unwrap();
        let mut rng = seeded_rng(4);
        let _ = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
    }
}
