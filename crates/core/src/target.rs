//! Target-region specification and feasibility checks.

use crate::error::Error;
use crate::geometry::Rect;
use crate::grid::AtomGrid;

/// Declarative description of the defect-free region to assemble.
///
/// A `TargetSpec` is resolved against a concrete array size into a
/// [`Rect`]; this keeps experiment configs size-generic (the paper sweeps
/// array sizes 10..90 with the target scaled proportionally).
///
/// ```
/// use qrm_core::target::TargetSpec;
///
/// // The paper's headline case: 30x30 inside 50x50.
/// let rect = TargetSpec::Centered { height: 30, width: 30 }.resolve(50, 50)?;
/// assert_eq!((rect.row, rect.col, rect.height, rect.width), (10, 10, 30, 30));
///
/// // Size-relative: 60% of the linear dimension, as in the scaling sweep.
/// let rect = TargetSpec::CenteredFraction(0.6).resolve(50, 50)?;
/// assert_eq!((rect.height, rect.width), (30, 30));
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TargetSpec {
    /// A fixed-size rectangle centred in the array.
    Centered {
        /// Target height in sites.
        height: usize,
        /// Target width in sites.
        width: usize,
    },
    /// A centred square whose side is `fraction` of the array's smaller
    /// dimension (rounded down to an even number so it splits evenly
    /// across quadrants).
    CenteredFraction(f64),
    /// An explicit rectangle.
    Exact(Rect),
}

impl TargetSpec {
    /// The paper's scaling-sweep default: a centred square at 60 % of the
    /// linear size (30×30 from 50×50).
    pub const PAPER_DEFAULT: TargetSpec = TargetSpec::CenteredFraction(0.6);

    /// Resolves the spec against an `height x width` array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the resolved rectangle is
    /// degenerate or does not fit.
    pub fn resolve(&self, height: usize, width: usize) -> Result<Rect, Error> {
        match *self {
            TargetSpec::Centered {
                height: th,
                width: tw,
            } => Rect::centered(height, width, th, tw),
            TargetSpec::CenteredFraction(frac) => {
                if !(0.0..=1.0).contains(&frac) {
                    return Err(Error::InvalidTarget {
                        reason: "fraction outside [0, 1]",
                    });
                }
                let side = ((height.min(width) as f64) * frac) as usize;
                let side = side - side % 2; // even: splits across quadrants
                if side == 0 {
                    return Err(Error::InvalidTarget {
                        reason: "fractional target resolves to zero size",
                    });
                }
                Rect::centered(height, width, side, side)
            }
            TargetSpec::Exact(rect) => {
                if rect.area() == 0 {
                    return Err(Error::InvalidTarget {
                        reason: "target has zero extent",
                    });
                }
                if !rect.fits_in(height, width) {
                    return Err(Error::InvalidTarget {
                        reason: "target larger than array",
                    });
                }
                Ok(rect)
            }
        }
    }

    /// Checks whether `grid` holds enough atoms to fill the resolved
    /// target, returning the rect on success.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientAtoms`] with the exact deficit, or the
    /// resolution errors of [`resolve`](Self::resolve).
    pub fn feasible_on(&self, grid: &AtomGrid) -> Result<Rect, Error> {
        let rect = self.resolve(grid.height(), grid.width())?;
        let available = grid.atom_count();
        if available < rect.area() {
            return Err(Error::InsufficientAtoms {
                available,
                required: rect.area(),
            });
        }
        Ok(rect)
    }
}

impl Default for TargetSpec {
    fn default() -> Self {
        TargetSpec::PAPER_DEFAULT
    }
}

impl From<Rect> for TargetSpec {
    fn from(rect: Rect) -> Self {
        TargetSpec::Exact(rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loading::seeded_rng;

    #[test]
    fn centered_resolution() {
        let r = TargetSpec::Centered {
            height: 4,
            width: 4,
        }
        .resolve(8, 8)
        .unwrap();
        assert_eq!(r, Rect::new(2, 2, 4, 4));
    }

    #[test]
    fn fraction_rounds_to_even() {
        // 0.6 * 25 = 15 -> rounded down to 14.
        let r = TargetSpec::CenteredFraction(0.6).resolve(25, 25).unwrap();
        assert_eq!(r.height, 14);
        // paper sizes: all even results
        for (w, expect) in [(10, 6), (30, 18), (50, 30), (70, 42), (90, 54)] {
            let r = TargetSpec::PAPER_DEFAULT.resolve(w, w).unwrap();
            assert_eq!(r.height, expect, "array {w}");
            assert_eq!(r.width, expect);
        }
    }

    #[test]
    fn fraction_validation() {
        assert!(TargetSpec::CenteredFraction(1.5).resolve(10, 10).is_err());
        assert!(TargetSpec::CenteredFraction(0.05).resolve(10, 10).is_err());
    }

    #[test]
    fn exact_validation() {
        let ok = TargetSpec::Exact(Rect::new(1, 1, 2, 2)).resolve(4, 4);
        assert!(ok.is_ok());
        assert!(TargetSpec::Exact(Rect::new(3, 3, 2, 2))
            .resolve(4, 4)
            .is_err());
        assert!(TargetSpec::Exact(Rect::new(0, 0, 0, 2))
            .resolve(4, 4)
            .is_err());
    }

    #[test]
    fn feasibility_check() {
        let mut rng = seeded_rng(3);
        let grid = AtomGrid::random(20, 20, 0.5, &mut rng);
        let spec = TargetSpec::Centered {
            height: 12,
            width: 12,
        };
        let rect = spec.feasible_on(&grid).unwrap();
        assert_eq!(rect.area(), 144);
        let sparse = AtomGrid::new(20, 20).unwrap();
        assert!(matches!(
            spec.feasible_on(&sparse),
            Err(Error::InsufficientAtoms {
                available: 0,
                required: 144
            })
        ));
    }
}
