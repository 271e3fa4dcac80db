//! Stochastic atom-loading workload generator.
//!
//! Real machines load atoms into the trap array probabilistically
//! (collisional blockade limits each trap to 0 or 1 atoms with ≈50 %
//! success, paper §II-A). The paper's evaluation replaces camera data with
//! "a randomly generated matrix representing a random distribution of
//! atoms" (§V-A); [`LoadModel`] is exactly that generator, plus optional
//! spatial non-uniformity to stress schedulers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::Error;
use crate::grid::AtomGrid;

/// Convenience constructor for a deterministic RNG, so examples and
/// experiments are reproducible.
///
/// ```
/// let mut rng = qrm_core::loading::seeded_rng(42);
/// let g = qrm_core::grid::AtomGrid::random(10, 10, 0.5, &mut rng);
/// assert_eq!(g.dims(), (10, 10));
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Spatial profile of the loading probability across the array.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FillProfile {
    /// Identical probability at every site (the paper's workload).
    Uniform,
    /// Probability decays linearly from the centre toward the edges down
    /// to `edge_factor * fill` at the corners — models beam-intensity
    /// roll-off in large arrays.
    RadialFalloff {
        /// Multiplier applied to the fill probability at the array corner
        /// (1.0 = no falloff).
        edge_factor: f64,
    },
}

/// Stochastic loading model.
///
/// ```
/// use qrm_core::loading::{LoadModel, seeded_rng};
/// let model = LoadModel::new(0.5);
/// let mut rng = seeded_rng(1);
/// let g = model.load(20, 20, &mut rng)?;
/// assert_eq!(g.dims(), (20, 20));
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadModel {
    fill: f64,
    profile: FillProfile,
}

impl LoadModel {
    /// A uniform loading model with per-site success probability `fill`.
    ///
    /// # Panics
    ///
    /// Panics when `fill` is outside `0.0..=1.0`.
    pub fn new(fill: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fill),
            "fill probability {fill} outside [0, 1]"
        );
        LoadModel {
            fill,
            profile: FillProfile::Uniform,
        }
    }

    /// Replaces the spatial profile.
    #[must_use]
    pub fn with_profile(mut self, profile: FillProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Per-site success probability (at the centre, for non-uniform
    /// profiles).
    pub fn fill(&self) -> f64 {
        self.fill
    }

    /// Site-specific loading probability.
    fn site_prob(&self, height: usize, width: usize, row: usize, col: usize) -> f64 {
        match self.profile {
            FillProfile::Uniform => self.fill,
            FillProfile::RadialFalloff { edge_factor } => {
                let cy = (height as f64 - 1.0) / 2.0;
                let cx = (width as f64 - 1.0) / 2.0;
                let dy = (row as f64 - cy).abs() / cy.max(1.0);
                let dx = (col as f64 - cx).abs() / cx.max(1.0);
                let d = (dx * dx + dy * dy).sqrt() / std::f64::consts::SQRT_2;
                let factor = 1.0 - (1.0 - edge_factor.clamp(0.0, 1.0)) * d.min(1.0);
                (self.fill * factor).clamp(0.0, 1.0)
            }
        }
    }

    /// Draws one stochastically loaded array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyGrid`] when either dimension is zero.
    pub fn load<R: Rng + ?Sized>(
        &self,
        height: usize,
        width: usize,
        rng: &mut R,
    ) -> Result<AtomGrid, Error> {
        let mut g = AtomGrid::new(height, width)?;
        for r in 0..height {
            for c in 0..width {
                if rng.gen_bool(self.site_prob(height, width, r, c)) {
                    g.set_unchecked(r, c, true);
                }
            }
        }
        Ok(g)
    }

    /// Draws arrays until one holds at least `min_atoms` atoms; gives up
    /// after `max_tries`.
    ///
    /// Real control software re-loads when too few atoms arrive; this
    /// mirrors that retry loop and guarantees benchmarks get feasible
    /// instances.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientAtoms`] if no draw within `max_tries`
    /// reaches `min_atoms`, or [`Error::EmptyGrid`] for zero dimensions.
    pub fn load_at_least<R: Rng + ?Sized>(
        &self,
        height: usize,
        width: usize,
        min_atoms: usize,
        max_tries: usize,
        rng: &mut R,
    ) -> Result<AtomGrid, Error> {
        let mut best = 0usize;
        for _ in 0..max_tries.max(1) {
            let g = self.load(height, width, rng)?;
            let n = g.atom_count();
            if n >= min_atoms {
                return Ok(g);
            }
            best = best.max(n);
        }
        Err(Error::InsufficientAtoms {
            available: best,
            required: min_atoms,
        })
    }
}

impl Default for LoadModel {
    /// The paper's default: uniform 50 % fill.
    fn default() -> Self {
        LoadModel::new(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_half_fill() {
        assert_eq!(LoadModel::default().fill(), 0.5);
    }

    #[test]
    fn load_respects_dims_and_seed_determinism() {
        let model = LoadModel::new(0.5);
        let a = model.load(12, 9, &mut seeded_rng(7)).unwrap();
        let b = model.load(12, 9, &mut seeded_rng(7)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.dims(), (12, 9));
    }

    #[test]
    fn extreme_fills() {
        let mut rng = seeded_rng(0);
        let empty = LoadModel::new(0.0).load(5, 5, &mut rng).unwrap();
        assert_eq!(empty.atom_count(), 0);
        let full = LoadModel::new(1.0).load(5, 5, &mut rng).unwrap();
        assert_eq!(full.atom_count(), 25);
    }

    #[test]
    fn radial_falloff_reduces_edge_density() {
        let model =
            LoadModel::new(0.9).with_profile(FillProfile::RadialFalloff { edge_factor: 0.1 });
        let mut rng = seeded_rng(5);
        // Average over draws: centre cell should fill far more often than corner.
        let (mut centre, mut corner) = (0, 0);
        for _ in 0..300 {
            let g = model.load(21, 21, &mut rng).unwrap();
            centre += usize::from(g.get_unchecked(10, 10));
            corner += usize::from(g.get_unchecked(0, 0));
        }
        assert!(centre > corner + 50, "centre {centre} corner {corner}");
    }

    #[test]
    fn load_at_least_succeeds_and_fails() {
        let model = LoadModel::new(0.5);
        let mut rng = seeded_rng(11);
        let g = model.load_at_least(10, 10, 30, 20, &mut rng).unwrap();
        assert!(g.atom_count() >= 30);
        let err = model.load_at_least(4, 4, 17, 3, &mut rng).unwrap_err();
        assert!(matches!(err, Error::InsufficientAtoms { required: 17, .. }));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_fill_panics() {
        let _ = LoadModel::new(1.5);
    }
}
