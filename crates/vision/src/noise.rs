//! Photon and sensor noise sampling.
//!
//! Only `rand`'s uniform primitives are available offline, so Poisson and
//! Gaussian variates are generated here, with table-driven samplers that
//! spend about one uniform draw per variate:
//!
//! - [`standard_normal`] is a 256-layer ziggurat (Marsaglia and Tsang,
//!   with Doornik's layout: one 64-bit draw picks the layer from its low
//!   8 bits and the abscissa from its high 52). About 99 % of draws return
//!   after one draw and one multiply; the rest reject against the density
//!   or, in the base strip, sample the tail beyond `R` exactly. The layer
//!   tables are built once per process. Box–Muller's `ln`, `sqrt` and
//!   `cos` per variate cost several times as much.
//! - [`Poisson`] fixes its mean at construction. Below a mean of 30 it
//!   tabulates the cumulative distribution and draws by inverse CDF: one
//!   uniform per variate, located in the table through a guide table in
//!   usually one comparison, where Knuth's product method drew
//!   `mean + 1` uniforms. At and above 30 it uses the clamped normal
//!   approximation, which is one [`standard_normal`] draw.
//!
//! A frame draws one background count and one read-noise normal per
//! pixel, so these two samplers set the cost of rendering it.

use std::sync::OnceLock;

use rand::Rng;

/// Means at or above this use [`Poisson`]'s normal approximation.
const NORMAL_MEAN: f64 = 30.0;

/// Ziggurat layers.
const LAYERS: usize = 256;
/// Start of the tail: the base strip's right edge (3.6541528853610088,
/// written at `f64`'s shortest round-trip precision).
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer under the unnormalised density `exp(-x² / 2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// The ziggurat's layer edges `x[i]` (decreasing, `x[1] = R`,
/// `x[256] = 0`; `x[0]` is the base strip's width as if it were a
/// rectangle of area `V`) and the density at each, `f[i]`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

// Inlined, as is `standard_normal`, so a caller's per-pixel loop reaches
// the tables without a call per draw.
#[inline]
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..LAYERS {
            // Each layer has area V: x[i-1] * (f(x[i]) - f(x[i-1])) = V.
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    })
}

/// A uniform draw in the open interval `(0, 1)`.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// Samples a standard normal variate with the ziggurat.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let zig = ziggurat();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // The high 52 bits as the mantissa of a float in [2, 4), shifted
        // to a signed abscissa fraction in [-1, 1).
        let u = f64::from_bits((1024u64 << 52) | (bits >> 12)) - 3.0;
        let x = u * zig.x[i];
        if x.abs() < zig.x[i + 1] {
            return x;
        }
        if i == 0 {
            return normal_tail(rng, u < 0.0);
        }
        let y = zig.f[i + 1] + (zig.f[i] - zig.f[i + 1]) * rng.gen_range(0.0..1.0);
        if y < density(x) {
            return x;
        }
    }
}

/// Samples `|x| > R` from the normal's tail (Marsaglia's method), with
/// the sign the base-strip draw chose.
#[cold]
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = open_unit(rng).ln() / ZIG_R;
        let y = open_unit(rng).ln();
        if -2.0 * y >= x * x {
            return if negative { x - ZIG_R } else { ZIG_R - x };
        }
    }
}

/// Cells of [`Poisson`]'s guide table over the unit interval.
const GUIDE_CELLS: usize = 256;

/// A Poisson sampler for one fixed mean.
#[derive(Debug, Clone)]
pub struct Poisson {
    mean: f64,
    /// `P(X <= k)` for `k = 0, 1, ..` while its complement is above
    /// `f64`'s resolution; empty for means sampled by the normal
    /// approximation.
    cdf: Vec<f64>,
    /// Guide table (Chen and Asau's indexed search): entry `j` is the
    /// number of `cdf` entries at or below `j / GUIDE_CELLS`, so a draw
    /// in that cell starts its scan there and usually stops at once.
    guide: Vec<usize>,
}

impl Poisson {
    /// A sampler with mean `mean`: an inverse-CDF table below 30, the
    /// clamped normal approximation at and above it (its error is
    /// negligible for photometry).
    ///
    /// # Panics
    ///
    /// Panics for negative or non-finite `mean`.
    pub fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "invalid poisson mean {mean}"
        );
        let mut cdf = Vec::new();
        let mut guide = Vec::new();
        if mean < NORMAL_MEAN {
            // Stop once the next term is far below a uniform draw's 2^-53
            // resolution; a draw past the last entry returns its length.
            let (mut pmf, mut total) = ((-mean).exp(), 0.0);
            for k in 1u32.. {
                total += pmf;
                cdf.push(total);
                pmf *= mean / f64::from(k);
                if total >= 1.0 || (f64::from(k) > mean && pmf < 1e-20) {
                    break;
                }
            }
            let mut k = 0;
            guide = (0..GUIDE_CELLS)
                .map(|j| {
                    let floor = j as f64 / GUIDE_CELLS as f64;
                    while k < cdf.len() && cdf[k] <= floor {
                        k += 1;
                    }
                    k
                })
                .collect();
        }
        Poisson { mean, cdf, guide }
    }

    /// Draws one variate: by inverse CDF from one uniform draw, or from
    /// one normal draw above the table's range of means.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.cdf.is_empty() {
            return self.sample_normal(rng);
        }
        // The smallest k with u < P(X <= k): the count of entries <= u.
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut k = self.guide[(u * GUIDE_CELLS as f64) as usize];
        while self.cdf.get(k).is_some_and(|&c| c <= u) {
            k += 1;
        }
        k as u64
    }

    /// The normal approximation, kept out of line so the table path
    /// stays small enough to inline into a per-pixel loop.
    #[inline(never)]
    fn sample_normal<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let sample = self.mean + self.mean.sqrt() * standard_normal(rng);
        sample.max(0.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::loading::seeded_rng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = seeded_rng(1);
        let zero = Poisson::new(0.0);
        assert!((0..100).all(|_| zero.sample(&mut rng) == 0));
    }

    /// Pearson's χ² of 200,000 draws against the pmf, at the background
    /// means of the default (2.0) and low-SNR (4.0) imaging configs. Each
    /// `k` is a cell of its own while the tail beyond it still expects 5
    /// or more draws; the last cell takes that whole tail. The bound is
    /// the χ² distribution's 0.999 quantile for the cells' degrees of
    /// freedom (10 and 14).
    #[test]
    fn poisson_table_matches_the_pmf() {
        for (mean, seed, cells, bound) in [(2.0, 2, 11, 29.59), (4.0, 6, 15, 36.12)] {
            let n = 200_000usize;
            let sampler = Poisson::new(mean);
            let mut rng = seeded_rng(seed);
            let mut counts = vec![0usize; 64];
            for _ in 0..n {
                counts[(sampler.sample(&mut rng) as usize).min(63)] += 1;
            }
            let (mut expected, mut pmf, mut tail) = (Vec::new(), (-mean).exp(), 1.0);
            for k in 0.. {
                if n as f64 * (tail - pmf) < 5.0 {
                    expected.push(n as f64 * tail);
                    break;
                }
                expected.push(n as f64 * pmf);
                tail -= pmf;
                pmf *= mean / (k + 1) as f64;
            }
            assert_eq!(expected.len(), cells, "mean {mean}");
            let last = cells - 1;
            let observed = counts[..last]
                .iter()
                .copied()
                .chain([counts[last..].iter().sum()]);
            let chi2: f64 = expected
                .iter()
                .zip(observed)
                .map(|(e, o)| (o as f64 - e).powi(2) / e)
                .sum();
            assert!(
                chi2 < bound,
                "mean {mean}: chi2 {chi2} over {} dof",
                cells - 1
            );
        }
    }

    #[test]
    fn poisson_normal_branch_statistics() {
        for (mean, seed) in [(90.0, 3), (400.0, 4)] {
            let sampler = Poisson::new(mean);
            assert!(sampler.cdf.is_empty(), "{mean} uses the normal branch");
            let mut rng = seeded_rng(seed);
            let samples: Vec<f64> = (0..50_000)
                .map(|_| sampler.sample(&mut rng) as f64)
                .collect();
            let (m, var) = moments(&samples);
            // Standard errors: sqrt(mean / n) for the mean, about
            // mean * sqrt(2 / n) for the variance; bounds are ~5 of them.
            assert!(
                (m - mean).abs() < 5.0 * (mean / 5e4).sqrt(),
                "mean {mean}: {m}"
            );
            assert!(
                (var - mean).abs() < 5.0 * mean * (2.0 / 5e4f64).sqrt(),
                "mean {mean}: var {var}"
            );
        }
    }

    /// Two million draws, so the base strip (1 in 256 draws) reaches its
    /// tail path about 500 times: every draw beyond `R` comes from it.
    #[test]
    fn ziggurat_normal_statistics() {
        let n = 2_000_000usize;
        let mut rng = seeded_rng(5);
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = moments(&samples);
        let kurtosis =
            samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n as f64 / (var * var);
        let negative = samples.iter().filter(|&&x| x < 0.0).count() as f64 / n as f64;
        let beyond_r = samples.iter().filter(|x| x.abs() > ZIG_R).count();
        // Standard errors at n = 2e6: mean 7e-4, variance 1e-3, kurtosis
        // 3.5e-3, sign fraction 3.5e-4; bounds are about 5 of them.
        assert!(mean.abs() < 0.004, "mean {mean}");
        assert!((var - 1.0).abs() < 0.005, "var {var}");
        assert!((kurtosis - 3.0).abs() < 0.02, "kurtosis {kurtosis}");
        assert!(
            (negative - 0.5).abs() < 0.002,
            "negative fraction {negative}"
        );
        // P(|X| > R) = 2.58e-4: 516 expected, Poisson sd 23.
        assert!((400..=640).contains(&beyond_r), "{beyond_r} draws beyond R");
        let beyond_neg = samples.iter().filter(|&&x| x < -ZIG_R).count();
        assert!(
            beyond_neg > 150 && beyond_r - beyond_neg > 150,
            "tail symmetry"
        );
    }

    #[test]
    fn ziggurat_tables_close_at_zero() {
        let zig = ziggurat();
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[LAYERS], 0.0);
        assert_eq!(zig.f[LAYERS], 1.0);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        // R and V are chosen so the recursion closes: the top layer,
        // from the last edge up to the density's peak, has area V too.
        let top = zig.x[LAYERS - 1] * (1.0 - zig.f[LAYERS - 1]);
        assert!((top - ZIG_V).abs() < 1e-9, "top layer area {top}");
    }

    #[test]
    #[should_panic(expected = "invalid poisson mean")]
    fn negative_mean_panics() {
        let _ = Poisson::new(-1.0);
    }
}
