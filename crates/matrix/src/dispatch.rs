//! Host-side kernel dispatch policy: densities → execution mode.
//!
//! The paper's Analyzer picks the execution primitive of every block product
//! from the *runtime-measured* operand densities using the closed-form
//! regions of Table IV: GEMM when `min(α_X, α_Y) ≥ 1/2`, SpDMM when the
//! denser operand clears `2 / p_sys`, SPMM otherwise, and *skip* when an
//! operand is empty.  [`DispatchPolicy`] applies the same regions to the
//! host executor's products (per kernel, then per partition row block), so
//! the strategy the runtime system models for the accelerator also changes
//! which *host* kernel actually runs: the dense GEMM, the sparse-dense row
//! kernel, or the Gustavson sparse-sparse kernel (see `dynasparse-model`'s
//! dispatching executor).

use serde::{Deserialize, Serialize};

/// Clamps a measured operand density into `[0, 1]`, mapping the non-finite
/// values a degenerate operand produces (`0/0 = NaN` for an empty-dimension
/// matrix) to `0.0` — i.e. "empty", which every policy turns into
/// [`HostPrimitive::Skip`].  A plain `NaN.clamp(0.0, 1.0)` would propagate
/// the NaN and make every threshold comparison false, silently falling
/// through to the most expensive sparse-sparse route.
#[inline]
pub fn sanitize_density(alpha: f64) -> f64 {
    if alpha.is_finite() {
        alpha.clamp(0.0, 1.0)
    } else if alpha == f64::INFINITY {
        1.0
    } else {
        0.0
    }
}

/// The host execution mode chosen for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostPrimitive {
    /// Dense × dense: blocked register-tiled GEMM.
    Gemm,
    /// Sparse × dense: CSR row kernel (scatter-gather paradigm).
    SpDmm,
    /// Dense × sparse: SpDMM run by the *right* operand's non-zeros (the
    /// right-sparse row kernel over the CSR of `Wᵀ`).  No `decide` returns
    /// it — only an Update over dense-stored features with a cached pruned
    /// weight can run it, and [`DispatchPolicy::prefers_right_sparse`]
    /// settles that by rule — so it exists to name the kernel's own cost
    /// curve where it is priced.
    SpDmmRight,
    /// Sparse × sparse: Gustavson row-wise product.
    Spmm,
    /// An operand is empty; the kernel output is all zeros.
    Skip,
}

impl HostPrimitive {
    /// Stable lowercase label for logs and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            HostPrimitive::Gemm => "gemm",
            HostPrimitive::SpDmm => "spdmm",
            HostPrimitive::SpDmmRight => "spdmm-right",
            HostPrimitive::Spmm => "spmm",
            HostPrimitive::Skip => "skip",
        }
    }
}

/// The density thresholds of the dispatch decision (Table IV regions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DispatchPolicy {
    /// GEMM wins when `min(α_X, α_Y)` is at least this (paper: 1/2).
    pub gemm_min_density: f64,
    /// SpDMM wins when `max(α_X, α_Y)` is at least this (paper: 2/p_sys);
    /// below it both operands are sparse enough for SPMM.
    pub spdmm_max_density: f64,
    /// A sparse-sparse product keeps its output in CSR form when the output
    /// density stays below this; denser outputs are materialised into the
    /// dense arena buffer.
    pub sparse_output_threshold: f64,
}

impl DispatchPolicy {
    /// The regions of the paper's analytical model for an ALU array of
    /// dimension `psys` (Section VI-A): GEMM iff `α_min ≥ 1/2`, SpDMM iff
    /// `α_max ≥ 2/psys`, SPMM otherwise.
    ///
    /// The SpDMM *threshold* (not `psys` itself) is clamped into `(0, 1]`:
    /// for tiny arrays (`psys ≤ 2`) the closed form `2/psys` exceeds 1,
    /// which would leave the SpDMM region empty even at full density.
    pub fn from_regions(psys: usize) -> Self {
        DispatchPolicy {
            gemm_min_density: 0.5,
            spdmm_max_density: (2.0 / psys.max(1) as f64).clamp(f64::MIN_POSITIVE, 1.0),
            sparse_output_threshold: 0.25,
        }
    }

    /// Picks the host execution mode for one kernel-level product `X × Y`
    /// with operand densities `alpha_x` and `alpha_y`.  Non-finite densities
    /// (the `0/0` of a degenerate empty-dimension operand) are treated as
    /// empty and Skip.
    pub fn decide(&self, alpha_x: f64, alpha_y: f64) -> HostPrimitive {
        let (alpha_x, alpha_y) = (sanitize_density(alpha_x), sanitize_density(alpha_y));
        let alpha_min = alpha_x.min(alpha_y);
        let alpha_max = alpha_x.max(alpha_y);
        if alpha_min <= 0.0 {
            HostPrimitive::Skip
        } else if alpha_min >= self.gemm_min_density {
            HostPrimitive::Gemm
        } else if alpha_max >= self.spdmm_max_density {
            HostPrimitive::SpDmm
        } else {
            HostPrimitive::Spmm
        }
    }

    /// Whether a product over a dense-stored left operand of density
    /// `alpha_x` runs SpDMM by the *right* operand
    /// ([`HostPrimitive::SpDmmRight`]) instead of the counting GEMM: it lies
    /// in the SpDMM region and the right operand is the sparser one.  In
    /// the GEMM region both operands are dense enough for GEMM; below the
    /// SpDMM region both are nearly empty, and the GEMM's group skip of the
    /// left operand beats transposing it.
    pub fn prefers_right_sparse(&self, alpha_x: f64, alpha_y: f64) -> bool {
        self.decide(alpha_x, alpha_y) == HostPrimitive::SpDmm && alpha_y < alpha_x
    }

    /// Whether a sparse-sparse output of the given density should stay in
    /// CSR form.
    pub fn keep_sparse_output(&self, output_density: f64) -> bool {
        output_density < self.sparse_output_threshold
    }
}

impl Default for DispatchPolicy {
    /// The paper's default accelerator has a 16×16 ALU array.
    fn default() -> Self {
        DispatchPolicy::from_regions(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_match_the_analytical_model() {
        let p = DispatchPolicy::from_regions(16);
        assert_eq!(p.decide(0.9, 0.8), HostPrimitive::Gemm);
        assert_eq!(p.decide(0.5, 0.5), HostPrimitive::Gemm);
        assert_eq!(p.decide(0.05, 0.9), HostPrimitive::SpDmm);
        assert_eq!(p.decide(0.9, 0.05), HostPrimitive::SpDmm);
        assert_eq!(p.decide(0.01, 0.05), HostPrimitive::Spmm);
        assert_eq!(p.decide(0.0, 0.5), HostPrimitive::Skip);
        assert_eq!(p.decide(0.5, 0.0), HostPrimitive::Skip);
    }

    #[test]
    fn psys_moves_the_spdmm_boundary() {
        let wide = DispatchPolicy::from_regions(64); // 2/64 = 0.03125
        assert_eq!(wide.decide(0.02, 0.04), HostPrimitive::SpDmm);
        let narrow = DispatchPolicy::from_regions(4); // 2/4 = 0.5
        assert_eq!(narrow.decide(0.02, 0.04), HostPrimitive::Spmm);
    }

    #[test]
    fn right_sparse_runs_only_in_the_spdmm_region_by_the_sparser_weight() {
        let p = DispatchPolicy::from_regions(16);
        assert!(p.prefers_right_sparse(0.9, 0.1));
        // The GEMM region: both operands are dense enough for GEMM.
        assert_eq!(p.decide(0.9, 0.6), HostPrimitive::Gemm);
        assert!(!p.prefers_right_sparse(0.9, 0.6));
        // Below the SpDMM region (SPMM): the GEMM's group skip wins.
        assert_eq!(p.decide(0.1, 0.05), HostPrimitive::Spmm);
        assert!(!p.prefers_right_sparse(0.1, 0.05));
        // In the SpDMM region, but the weight is not the sparser operand.
        assert_eq!(p.decide(0.2, 0.4), HostPrimitive::SpDmm);
        assert!(!p.prefers_right_sparse(0.2, 0.4));
        assert!(!p.prefers_right_sparse(0.3, 0.3));
    }

    #[test]
    fn sparse_output_retention_uses_the_threshold() {
        let p = DispatchPolicy::default();
        assert!(p.keep_sparse_output(0.1));
        assert!(!p.keep_sparse_output(0.3));
    }

    #[test]
    fn non_finite_densities_skip_instead_of_falling_through_to_spmm() {
        // 0/0 densities from degenerate empty-dimension matrices are NaN;
        // a NaN.clamp would propagate and fail every region comparison,
        // silently dispatching the most expensive route.
        let p = DispatchPolicy::from_regions(16);
        assert_eq!(p.decide(f64::NAN, 0.9), HostPrimitive::Skip);
        assert_eq!(p.decide(0.9, f64::NAN), HostPrimitive::Skip);
        assert_eq!(p.decide(f64::NAN, f64::NAN), HostPrimitive::Skip);
        assert_eq!(p.decide(f64::NEG_INFINITY, 0.9), HostPrimitive::Skip);
        // +inf saturates to full density rather than Skip.
        assert_eq!(p.decide(f64::INFINITY, 1.0), HostPrimitive::Gemm);
    }

    #[test]
    fn tiny_arrays_clamp_the_threshold_not_psys() {
        // Regression: psys <= 2 used to be clamped to 2, and psys = 0/1
        // produced a threshold above 1 — in both cases the SpDMM region
        // must survive as "reachable at full density", i.e. the threshold
        // itself is clamped into (0, 1].
        for psys in [0, 1, 2] {
            let p = DispatchPolicy::from_regions(psys);
            assert_eq!(p.spdmm_max_density, 1.0, "psys = {psys}");
            assert!(p.spdmm_max_density.is_finite());
            assert_eq!(
                p.decide(0.3, 1.0),
                HostPrimitive::SpDmm,
                "full-density operand must reach SpDMM at psys = {psys}"
            );
        }
        // Larger arrays keep the closed form untouched.
        assert_eq!(DispatchPolicy::from_regions(16).spdmm_max_density, 0.125);
    }

    #[test]
    fn sanitize_density_maps_non_finite_to_empty() {
        assert_eq!(sanitize_density(f64::NAN), 0.0);
        assert_eq!(sanitize_density(f64::NEG_INFINITY), 0.0);
        assert_eq!(sanitize_density(f64::INFINITY), 1.0);
        assert_eq!(sanitize_density(-0.5), 0.0);
        assert_eq!(sanitize_density(1.5), 1.0);
        assert_eq!(sanitize_density(0.25), 0.25);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(HostPrimitive::Gemm.label(), "gemm");
        assert_eq!(HostPrimitive::SpDmm.label(), "spdmm");
        assert_eq!(HostPrimitive::SpDmmRight.label(), "spdmm-right");
        assert_eq!(HostPrimitive::Spmm.label(), "spmm");
        assert_eq!(HostPrimitive::Skip.label(), "skip");
    }
}
