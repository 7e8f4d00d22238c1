//! Measured, host-calibrated kernel cost model.
//!
//! The Table IV regions of [`DispatchPolicy`] describe the *accelerator's*
//! 16×16 ALU array, not the host CPU — applying them to the host kernels
//! mispicks in exactly the density band GCN aggregations live in (at
//! α = 0.1 × 0.1 over 512 × 512 × 64 the regions pick SPMM, measured at
//! 1.195 ms, while SpDMM measures 0.249 ms, ~4.8x faster).  Dynasparse's
//! own thesis is that the primitive must be chosen from *measured* runtime
//! sparsity via a performance model of the platform that executes it (paper
//! §VI-A), so this module measures that model on the actual host:
//!
//! * [`HostCalibration::measure`] times the two host kernels a CSR-stored
//!   left operand runs ([`CsrMatrix::spmm_dense_into`],
//!   [`CsrMatrix::spgemm_with`]) over a small fixed-seed density × shape
//!   grid and fits one [`PrimitiveFit`] cost curve per kernel: SpDMM ∝
//!   `nnz(X)·d` (the left operand's zeros skipped); Gustavson SPMM ∝ its
//!   flop-proportional nnz work plus the expected touched-output and per-row
//!   scatter terms.
//! * [`HostCalibration::cheapest`] is the **argmin over predicted costs**
//!   of SpDMM and SPMM.  It is the whole calibrated decision:
//!   `dynasparse-model`'s `KernelDispatcher` checks a fit once with
//!   [`HostCalibration::is_valid`] when it is built, and decides by the
//!   paper's closed-form regions ([`DispatchPolicy::decide`]), the
//!   accelerator-side oracle, when there is no valid fit.  A measured fit
//!   is always valid ([`HostCalibration::measure`]).
//! * [`HostCalibration::shared`] measures the fit once per process and hands
//!   out `Arc` clones, which compiled plans share across worker sessions;
//!   nothing changes the fit afterwards.  `DYNASPARSE_CALIBRATION=off`
//!   disables calibration (regions only).
//! * [`UpdateFit`] prices the bodies a dense-stored left operand runs: an
//!   Update over dense-stored features runs the counting GEMM or the
//!   right-sparse kernel over `Wᵀ`.  A model fixes each Update's widths
//!   `(n, d)` and weight density, so the two bodies are timed at exactly
//!   those, per output row at a few densities of `H` ([`UpdateFit::shared`]:
//!   once per width pair and weight density per process).
//!
//! [`DispatchPolicy`]: crate::DispatchPolicy
//! [`DispatchPolicy::decide`]: crate::DispatchPolicy::decide

use crate::csr::{CsrMatrix, SpGemmScratch};
use crate::dense::DenseMatrix;
use crate::dispatch::{sanitize_density, HostPrimitive};
use crate::ops::{gemm_rows_into, right_sparse_rows_into};
use crate::random::random_dense;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The shape of one kernel-level product `X (m×n) × Y (n×d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProductShape {
    /// Output rows (rows of `X`).
    pub m: usize,
    /// Contraction dimension (cols of `X` = rows of `Y`).
    pub n: usize,
    /// Output columns (cols of `Y`).
    pub d: usize,
}

impl ProductShape {
    /// Shape of `X (m×n) × Y (n×d)`.
    pub fn new(m: usize, n: usize, d: usize) -> Self {
        ProductShape { m, n, d }
    }

    /// Total multiply-accumulates of the dense product, `m·n·d`.
    pub fn macs(&self) -> f64 {
        self.m as f64 * self.n as f64 * self.d as f64
    }

    /// Whether any dimension is zero (the product is trivially empty).
    pub fn is_empty(&self) -> bool {
        self.m == 0 || self.n == 0 || self.d == 0
    }
}

/// Per-primitive feature vector of the linear cost model; every cost is
/// `work·c₀ + output·c₁ + rows·c₂`.
///
/// `alpha_x` is the density of the **left** operand — the operand the host
/// kernels consume in sparse (CSR) form — and `alpha_y` the right operand's.
/// The features describe the *host* kernels being priced, not the
/// accelerator's Table IV model, and the two genuinely differ:
///
/// * `work` — the host kernel's inner-loop trip count.  SpDMM:
///   `α_X·m·n·d` for `spmm_dense_into`, which walks the left CSR's nnz and
///   never skips zeros of the dense right operand.  (The other orientation,
///   `right_sparse_rows_into`, runs only for an Update over dense-stored
///   features, and [`UpdateFit`] prices it at the model's widths; the grid
///   has no curve for it.)  SPMM: the Gustavson flop count `α_X·α_Y·m·n·d`.
/// * `output` — elements the primitive writes (dense `m·d` for SpDMM; for
///   SPMM the *expected* touched outputs `m·d·(1 − e^{−α_X·α_Y·n})`, which
///   also sizes its per-row scatter-list sort).
/// * `rows` — `m`, the per-row loop overhead.
///
/// A primitive the grid does not price ([`HostPrimitive::Gemm`],
/// [`HostPrimitive::SpDmmRight`], [`HostPrimitive::Skip`]) has no features.
fn features(prim: HostPrimitive, shape: ProductShape, ax: f64, ay: f64) -> [f64; 3] {
    let macs = shape.macs();
    let out = (shape.m * shape.d) as f64;
    let rows = shape.m as f64;
    match prim {
        HostPrimitive::SpDmm => [ax * macs, out, rows],
        HostPrimitive::Spmm => {
            let flops = ax * ay * macs;
            let touched = out * (1.0 - (-(ax * ay) * shape.n as f64).exp());
            [flops, touched, rows]
        }
        HostPrimitive::Gemm | HostPrimitive::SpDmmRight | HostPrimitive::Skip => [0.0, 0.0, 0.0],
    }
}

/// Fitted cost curve of one primitive: milliseconds per unit of each
/// cost feature, all non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveFit {
    /// Milliseconds per unit of skipped-zero MAC work.
    pub work: f64,
    /// Milliseconds per output element written/touched.
    pub output: f64,
    /// Milliseconds per output row (loop overhead).
    pub per_row: f64,
}

impl PrimitiveFit {
    /// Predicted milliseconds for one feature vector.
    fn predict(&self, f: [f64; 3]) -> f64 {
        self.work * f[0] + self.output * f[1] + self.per_row * f[2]
    }

    fn coefficients(&self) -> [f64; 3] {
        [self.work, self.output, self.per_row]
    }

    fn from_coefficients(c: [f64; 3]) -> Self {
        PrimitiveFit {
            work: c[0],
            output: c[1],
            per_row: c[2],
        }
    }

    fn is_valid(&self) -> bool {
        self.coefficients()
            .iter()
            .all(|c| c.is_finite() && *c >= 0.0)
            && self.work > 0.0
    }
}

/// Grid and repetition parameters of the one-time micro-calibration pass.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// `(m, n, d)` product shapes to time.
    pub shapes: Vec<(usize, usize, usize)>,
    /// `(α_X, α_Y)` operand-density pairs to time at every shape.
    pub densities: Vec<(f64, f64)>,
    /// Repetitions per grid point; the minimum is kept (filters scheduler
    /// noise).
    pub reps: usize,
    /// Seed of the fixed-seed operand generator.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    /// A grid small enough to run in well under 100 ms yet spanning the
    /// density decades the dispatcher must separate (dense, the SpDMM band,
    /// and the sparse-sparse band where Gustavson wins).
    fn default() -> Self {
        CalibrationConfig {
            shapes: vec![(128, 128, 32), (192, 96, 64)],
            densities: vec![
                (1.0, 1.0),
                (0.5, 1.0),
                (0.5, 0.5),
                (0.2, 0.6),
                (0.1, 1.0),
                (0.1, 0.1),
                (0.05, 0.05),
                (0.02, 0.02),
                // Reversed pairs (left denser than right): each SpDMM
                // orientation is proportional to the operand it skips, so
                // the grid must witness α_X > α_Y (pruned-weight updates
                // live here).
                (0.5, 0.05),
                (0.2, 0.02),
            ],
            reps: 3,
            seed: 0x5eed_ca1b,
        }
    }
}

/// One measured grid point (kept for provenance and for the smoke check).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationSample {
    /// Output rows.
    pub m: usize,
    /// Contraction dimension.
    pub n: usize,
    /// Output columns.
    pub d: usize,
    /// Measured density of the left operand.
    pub alpha_x: f64,
    /// Measured density of the right operand.
    pub alpha_y: f64,
    /// Measured milliseconds of the sparse-dense CSR row kernel.
    pub spdmm_ms: f64,
    /// Measured milliseconds of the Gustavson sparse-sparse kernel.
    pub spmm_ms: f64,
}

/// The result of a host micro-calibration: one fitted cost curve per body a
/// CSR-stored left operand runs.
#[derive(Debug, Clone)]
pub struct HostCalibration {
    /// Fitted SpDMM cost curve (CSR left operand).
    pub spdmm: PrimitiveFit,
    /// Fitted SPMM (Gustavson) cost curve.
    pub spmm: PrimitiveFit,
}

/// Environment variable read by [`HostCalibration::shared`]: `off` (or
/// `regions`) disables calibration entirely.
pub const CALIBRATION_ENV: &str = "DYNASPARSE_CALIBRATION";

impl HostCalibration {
    /// Times the two CSR-left host kernels over `config`'s grid and fits one
    /// cost curve per kernel.  The fit is always [valid](Self::is_valid), even
    /// on a degenerate grid (no points, one point, all-zero operands): a
    /// curve the least squares cannot resolve falls back to a positive,
    /// finite work term.
    pub fn measure(config: &CalibrationConfig) -> HostCalibration {
        let samples = Self::measure_grid(config);
        let fit_for = |prim: HostPrimitive, ms: fn(&CalibrationSample) -> f64| {
            let rows: Vec<([f64; 3], f64)> = samples
                .iter()
                .map(|s| {
                    let shape = ProductShape::new(s.m, s.n, s.d);
                    (features(prim, shape, s.alpha_x, s.alpha_y), ms(s))
                })
                .collect();
            fit_nonnegative(&rows)
        };
        HostCalibration {
            spdmm: fit_for(HostPrimitive::SpDmm, |s| s.spdmm_ms),
            spmm: fit_for(HostPrimitive::Spmm, |s| s.spmm_ms),
        }
    }

    /// Times every grid point of `config` without fitting; the raw samples
    /// back both [`HostCalibration::measure`] and the CI smoke check.
    pub fn measure_grid(config: &CalibrationConfig) -> Vec<CalibrationSample> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let reps = config.reps.max(1);
        let mut scratch = SpGemmScratch::new();
        let mut samples = Vec::with_capacity(config.shapes.len() * config.densities.len());
        for &(m, n, d) in &config.shapes {
            for &(ax, ay) in &config.densities {
                let x = random_dense(&mut rng, m, n, ax);
                let y = random_dense(&mut rng, n, d, ay);
                let xs = CsrMatrix::from_dense(&x);
                let ys = CsrMatrix::from_dense(&y);
                let mut out = DenseMatrix::zeros(m, d);
                let spdmm_ms = time_min_ms(reps, || {
                    xs.spmm_dense_into(&y, &mut out)
                        .expect("calibration shapes agree");
                });
                let spmm_ms = time_min_ms(reps, || {
                    let product = xs
                        .spgemm_with(&ys, &mut scratch)
                        .expect("calibration shapes agree");
                    scratch.reclaim(product.into_parts());
                });
                samples.push(CalibrationSample {
                    m,
                    n,
                    d,
                    alpha_x: xs.density(),
                    alpha_y: ys.density(),
                    spdmm_ms,
                    spmm_ms,
                });
            }
        }
        samples
    }

    /// A deterministic, machine-independent stand-in fit with the canonical
    /// cost ordering (per unit of work: SpDMM < Gustavson), for tests that
    /// need a fit independent of the host they run on.
    pub fn reference() -> HostCalibration {
        HostCalibration {
            spdmm: PrimitiveFit {
                work: 4.0e-6,
                output: 2.0e-7,
                per_row: 0.0,
            },
            spmm: PrimitiveFit {
                work: 4.0e-5,
                output: 4.0e-7,
                per_row: 1.0e-4,
            },
        }
    }

    /// Predicted milliseconds of executing `X × Y` with `prim`.  `alpha_x`
    /// is the density of the left operand (the one the host kernels consume
    /// in CSR form), `alpha_y` the right operand's; both go through
    /// [`sanitize_density`] first.  [`HostPrimitive::Gemm`] and
    /// [`HostPrimitive::SpDmmRight`] read `NaN`: a CSR left operand runs
    /// neither, so the grid has no curve for them, and the dense Update that
    /// runs them is priced by its [`UpdateFit`].
    pub fn predict(
        &self,
        prim: HostPrimitive,
        shape: ProductShape,
        alpha_x: f64,
        alpha_y: f64,
    ) -> f64 {
        let fit = match prim {
            HostPrimitive::SpDmm => &self.spdmm,
            HostPrimitive::Spmm => &self.spmm,
            HostPrimitive::Gemm | HostPrimitive::SpDmmRight => return f64::NAN,
            HostPrimitive::Skip => return 0.0,
        };
        let (ax, ay) = (sanitize_density(alpha_x), sanitize_density(alpha_y));
        fit.predict(features(prim, shape, ax, ay))
    }

    /// The body a CSR-stored left operand runs with the smaller predicted
    /// cost, SpDMM or SPMM; a tie keeps SpDMM.  An empty shape, or
    /// a density that sanitises to zero (non-positive, `-∞`, or the `NaN` of
    /// a degenerate empty-dimension operand's `0/0`), is
    /// [`HostPrimitive::Skip`].
    pub fn cheapest(&self, shape: ProductShape, alpha_x: f64, alpha_y: f64) -> HostPrimitive {
        let (ax, ay) = (sanitize_density(alpha_x), sanitize_density(alpha_y));
        if ax <= 0.0 || ay <= 0.0 || shape.is_empty() {
            return HostPrimitive::Skip;
        }
        let spdmm = self.predict(HostPrimitive::SpDmm, shape, ax, ay);
        let spmm = self.predict(HostPrimitive::Spmm, shape, ax, ay);
        if spmm < spdmm {
            HostPrimitive::Spmm
        } else {
            HostPrimitive::SpDmm
        }
    }

    /// Whether every fitted curve is finite, non-negative and non-trivial.
    pub fn is_valid(&self) -> bool {
        self.spdmm.is_valid() && self.spmm.is_valid()
    }

    /// The process-wide shared calibration, honoring [`CALIBRATION_ENV`]:
    ///
    /// * `DYNASPARSE_CALIBRATION=off` (or `regions`) → `None`; dispatchers
    ///   decide by the Table IV regions
    ///   ([`DispatchPolicy::decide`](crate::DispatchPolicy::decide)).
    /// * otherwise → measured once per process over the default grid; every
    ///   later call (and every plan) shares the same `Arc`.  Any other
    ///   non-empty value is reported on stderr and ignored.
    pub fn shared() -> Option<Arc<HostCalibration>> {
        static SHARED: OnceLock<Option<Arc<HostCalibration>>> = OnceLock::new();
        SHARED
            .get_or_init(|| {
                let value = std::env::var(CALIBRATION_ENV).unwrap_or_default();
                if value.eq_ignore_ascii_case("off") || value.eq_ignore_ascii_case("regions") {
                    return None;
                }
                if !value.is_empty() {
                    eprintln!(
                        "dynasparse: ignoring {CALIBRATION_ENV}={value} (only `off` or \
                         `regions` are read); measuring the host"
                    );
                }
                Some(Arc::new(HostCalibration::measure(
                    &CalibrationConfig::default(),
                )))
            })
            .clone()
    }
}

/// Densities of the dense left operand `H` at which [`UpdateFit`] times the
/// two dense-left Update bodies: both ends of `[0, 1]`, and knots that halve
/// toward zero, where the counting GEMM's curve bends most (the share of its
/// 16-lane groups holding a non-zero, `1 − (1 − α)¹⁶`, rises steeply there).
pub const UPDATE_FIT_ALPHAS: [f64; 7] = [0.0, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0];

/// Rows of the synthetic tile [`UpdateFit::measure`] times: one tile of the
/// right-sparse body, which transposes `H` sixteen rows at a time (a shorter
/// tile would charge one row a whole tile's column walk).
const UPDATE_TIMED_ROWS: usize = 16;

/// Repetitions per knot and body; the fastest run of each is kept.
const UPDATE_TIMED_REPS: usize = 5;

/// Multiply-adds of the dense product one timed run of
/// [`UpdateFit::measure`] covers, up to [`UPDATE_TIMED_TILES`] tiles: a
/// narrow Update's tile takes about a microsecond, where reading the clock
/// would weigh as much as the kernel, so a run covers several tiles.
const UPDATE_TIMED_MACS: usize = 1 << 16;

/// Tiles one timed run covers at most.  Every run of every repetition reads
/// tiles of its own: the GEMM's group tests branch on the data, and a tile
/// timed again would have taught the branch predictor its pattern, timing a
/// sparse `H` below what a request's ever-new rows cost.
const UPDATE_TIMED_TILES: usize = 16;

/// The per-row cost of the two bodies a dense-stored Update can run, at one
/// width pair `(n, d)` and weight density `α_W`: the counting GEMM
/// ([`gemm_rows_into`]) and the right-sparse body
/// ([`right_sparse_rows_into`] over the CSR of `Wᵀ`).
///
/// A model fixes each Update's `n`, `d` and `α_W`; only the row count and the
/// density `α_H` of the features vary per request.  So each body is priced
/// by its milliseconds per output row measured at each density of
/// [`UPDATE_FIT_ALPHAS`], interpolated linearly in `α_H` between them.  Both
/// curves share their knots, so which body is cheaper changes sign only at
/// the knots' crossings, and [`UpdateFit::settled`] reads from the knots
/// alone whether a density is needed at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateFit {
    /// Milliseconds per output row of the counting GEMM at each knot.
    pub gemm: [f64; UPDATE_FIT_ALPHAS.len()],
    /// Milliseconds per output row of the right-sparse body at each knot.
    pub right_sparse: [f64; UPDATE_FIT_ALPHAS.len()],
}

/// The priced choice between the two bodies of one dense-stored Update: the
/// pick, the density it was priced at and both candidates' predicted
/// milliseconds (a fixed-size value; nothing is allocated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateChoice {
    /// [`HostPrimitive::Gemm`] or [`HostPrimitive::SpDmmRight`], whichever
    /// is priced lower (a tie keeps GEMM).
    pub pick: HostPrimitive,
    /// The density of `H` both prices were read at.
    pub alpha_h: f64,
    /// Predicted milliseconds of the counting GEMM.
    pub gemm_ms: f64,
    /// Predicted milliseconds of the right-sparse body.
    pub right_sparse_ms: f64,
}

/// `knots` (one value per [`UPDATE_FIT_ALPHAS`] entry) read at `alpha`,
/// linearly between the knots around it.
fn interpolate(knots: &[f64; UPDATE_FIT_ALPHAS.len()], alpha: f64) -> f64 {
    let alpha = sanitize_density(alpha);
    let hi = UPDATE_FIT_ALPHAS
        .iter()
        .position(|&knot| knot >= alpha)
        .unwrap_or(UPDATE_FIT_ALPHAS.len() - 1)
        .max(1);
    let (a0, a1) = (UPDATE_FIT_ALPHAS[hi - 1], UPDATE_FIT_ALPHAS[hi]);
    let t = (alpha - a0) / (a1 - a0);
    knots[hi - 1] + t * (knots[hi] - knots[hi - 1])
}

impl UpdateFit {
    /// Times both bodies for the weight `w` (`n × d`, any layout): for each
    /// density of [`UPDATE_FIT_ALPHAS`], fixed-seed `16 × n` tiles of `H` at
    /// that density, the GEMM over `w` and the right-sparse body over the
    /// CSR of `wᵀ`, each profiling its rows as the executor's blocks do.
    pub fn measure(w: &DenseMatrix) -> UpdateFit {
        let (n, d) = w.shape();
        let y = w.row_major();
        let wt = CsrMatrix::from_dense(&w.transpose());
        let rows = UPDATE_TIMED_ROWS;
        let mut rng = StdRng::seed_from_u64(0x5eed_ca1b ^ ((n as u64) << 20) ^ d as u64);
        let mut out = vec![0.0f32; rows * d];
        let mut counts = vec![0usize; n.div_ceil(rows)];
        let tiles = (UPDATE_TIMED_MACS / (rows * n * d).max(1)).clamp(1, UPDATE_TIMED_TILES);
        // Milliseconds per row of one run of `body` over repetition `rep`'s
        // tiles of `x`.
        let mut per_row = |body: HostPrimitive, x: &DenseMatrix, rep: usize| {
            counts.fill(0);
            let started = Instant::now();
            for tile in rep * tiles..(rep + 1) * tiles {
                let r0 = tile * rows;
                let finite = match body {
                    HostPrimitive::Gemm => gemm_rows_into(x, &y, r0, &mut out, rows, &mut counts),
                    _ => right_sparse_rows_into(x, &wt, r0, &mut out, rows, &mut counts),
                };
                finite.expect("the tile matches the weight");
            }
            let ms = started.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(&out);
            ms / (tiles * rows) as f64
        };
        let mut fit = UpdateFit {
            gemm: [f64::INFINITY; UPDATE_FIT_ALPHAS.len()],
            right_sparse: [f64::INFINITY; UPDATE_FIT_ALPHAS.len()],
        };
        // One uniform draw per element serves every knot: an element is
        // non-zero at density `α` when its draw falls below `α` (so each
        // knot's non-zeros are the next one's minus some), which costs one
        // draw where a matrix per knot would cost seven to fourteen.
        let total_rows = UPDATE_TIMED_REPS * tiles * rows;
        let draws: Vec<f32> = (0..total_rows * n)
            .map(|_| rng.gen_range(0.0f32..1.0))
            .collect();
        let knots = UPDATE_FIT_ALPHAS.map(|alpha| {
            let data = draws
                .iter()
                .map(|&u| if f64::from(u) < alpha { 1.0 + u } else { 0.0 })
                .collect();
            DenseMatrix::from_row_major(total_rows, n, data).expect("the tiles are total_rows × n")
        });
        // The bodies alternate, and each repetition sweeps every knot on
        // tiles of its own, so the runs of one knot are spread over the
        // whole measurement and a slow moment of the box reaches one of
        // them, not all.
        for rep in 0..UPDATE_TIMED_REPS {
            for (i, x) in knots.iter().enumerate() {
                let gemm = per_row(HostPrimitive::Gemm, x, rep);
                fit.gemm[i] = fit.gemm[i].min(gemm);
                let right_sparse = per_row(HostPrimitive::SpDmmRight, x, rep);
                fit.right_sparse[i] = fit.right_sparse[i].min(right_sparse);
            }
        }
        fit
    }

    /// The fit for `w`, measured once per process per `(n, d, α_W)`: later
    /// calls for any weight of the same shape and density return the same
    /// fit without timing anything.
    pub fn shared(w: &DenseMatrix) -> UpdateFit {
        type Key = (usize, usize, u64);
        static FITS: OnceLock<Mutex<HashMap<Key, UpdateFit>>> = OnceLock::new();
        let key = (w.rows(), w.cols(), w.density().to_bits());
        // The lock is held while a miss is timed, so two threads never time
        // at once (each would measure the other).
        let mut fits = FITS
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *fits.entry(key).or_insert_with(|| UpdateFit::measure(w))
    }

    /// Predicted milliseconds of running `prim` over `rows` rows of density
    /// `alpha_h`: the GEMM or right-sparse curve, `NaN` for any other
    /// primitive (this fit does not price it).
    pub fn predict(&self, prim: HostPrimitive, rows: usize, alpha_h: f64) -> f64 {
        let knots = match prim {
            HostPrimitive::Gemm => &self.gemm,
            HostPrimitive::SpDmmRight => &self.right_sparse,
            _ => return f64::NAN,
        };
        rows as f64 * interpolate(knots, alpha_h)
    }

    /// Prices both bodies over `rows` rows of density `alpha_h` and picks
    /// the cheaper one; a tie, or a price that is not a number, keeps GEMM.
    pub fn choose(&self, rows: usize, alpha_h: f64) -> UpdateChoice {
        let alpha_h = sanitize_density(alpha_h);
        let gemm_ms = self.predict(HostPrimitive::Gemm, rows, alpha_h);
        let right_sparse_ms = self.predict(HostPrimitive::SpDmmRight, rows, alpha_h);
        let pick = if right_sparse_ms < gemm_ms {
            HostPrimitive::SpDmmRight
        } else {
            HostPrimitive::Gemm
        };
        UpdateChoice {
            pick,
            alpha_h,
            gemm_ms,
            right_sparse_ms,
        }
    }

    /// The body that is cheaper at every density in `[0, 1]`, when the
    /// curves do not cross there (no density can change the pick), or
    /// `None` when the pick depends on `α_H`.
    pub fn settled(&self) -> Option<HostPrimitive> {
        let knots = self.gemm.iter().zip(&self.right_sparse);
        if knots.clone().all(|(g, r)| g <= r) {
            Some(HostPrimitive::Gemm)
        } else if knots.clone().all(|(g, r)| r < g) {
            Some(HostPrimitive::SpDmmRight)
        } else {
            None
        }
    }
}

/// Milliseconds of the fastest of `reps` runs of `f`.
fn time_min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Least-squares fit of `t ≈ Σ cᵢ·fᵢ` with non-negative coefficients:
/// solves the normal equations over the active feature set and drops any
/// feature whose coefficient comes out negative, refitting on the rest.
/// Degenerate systems fall back to the ratio fit `c₀ = Σt·f₀ / Σf₀²`.
fn fit_nonnegative(rows: &[([f64; 3], f64)]) -> PrimitiveFit {
    let mut active = [true; 3];
    loop {
        match solve_normal(rows, active) {
            Some(c) => {
                let negatives: Vec<usize> = (0..3).filter(|&i| active[i] && c[i] < 0.0).collect();
                if negatives.is_empty() {
                    let fit = PrimitiveFit::from_coefficients(c);
                    if fit.is_valid() {
                        return fit;
                    }
                    return ratio_fallback(rows);
                }
                for i in negatives {
                    // Never drop the work term: it carries the asymptote.
                    if i == 0 {
                        return ratio_fallback(rows);
                    }
                    active[i] = false;
                }
            }
            None => return ratio_fallback(rows),
        }
    }
}

fn ratio_fallback(rows: &[([f64; 3], f64)]) -> PrimitiveFit {
    let (num, den) = rows
        .iter()
        .fold((0.0, 0.0), |(n, d), (f, t)| (n + t * f[0], d + f[0] * f[0]));
    let work = if den > 0.0 && num > 0.0 {
        num / den
    } else {
        f64::MIN_POSITIVE
    };
    PrimitiveFit {
        work,
        output: 0.0,
        per_row: 0.0,
    }
}

/// Solves the normal equations of the least-squares system restricted to
/// `active` features; inactive coefficients come back as 0.  Returns `None`
/// when the system is singular.
fn solve_normal(rows: &[([f64; 3], f64)], active: [bool; 3]) -> Option<[f64; 3]> {
    let idx: Vec<usize> = (0..3).filter(|&i| active[i]).collect();
    let k = idx.len();
    if k == 0 || rows.len() < k {
        return None;
    }
    // Column scaling conditions the system (features span ~6 decades).
    let mut scale = vec![0.0f64; k];
    for (j, &fj) in idx.iter().enumerate() {
        scale[j] = rows
            .iter()
            .map(|(f, _)| f[fj].abs())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
    }
    let mut ata = vec![vec![0.0f64; k]; k];
    let mut atb = vec![0.0f64; k];
    for (f, t) in rows {
        for (j, &fj) in idx.iter().enumerate() {
            let fv = f[fj] / scale[j];
            atb[j] += fv * t;
            for (l, &fl) in idx.iter().enumerate() {
                ata[j][l] += fv * f[fl] / scale[l];
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..k {
        let pivot = (col..k)
            .max_by(|&a, &b| ata[a][col].abs().total_cmp(&ata[b][col].abs()))
            .unwrap();
        if ata[pivot][col].abs() < 1e-12 {
            return None;
        }
        ata.swap(col, pivot);
        atb.swap(col, pivot);
        let pivot_row = ata[col].clone();
        for row in col + 1..k {
            let factor = ata[row][col] / pivot_row[col];
            for (v, p) in ata[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= factor * p;
            }
            atb[row] -= factor * atb[col];
        }
    }
    let mut solved = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut v = atb[row];
        for c in row + 1..k {
            v -= ata[row][c] * solved[c];
        }
        solved[row] = v / ata[row][row];
    }
    let mut out = [0.0f64; 3];
    for (j, &fj) in idx.iter().enumerate() {
        out[fj] = solved[j] / scale[j];
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ProductShape {
        ProductShape::new(512, 512, 64)
    }

    #[test]
    fn reference_fit_picks_each_primitive_in_its_band() {
        let fit = HostCalibration::reference();
        assert_eq!(fit.cheapest(shape(), 1.0, 1.0), HostPrimitive::SpDmm);
        assert_eq!(fit.cheapest(shape(), 0.1, 1.0), HostPrimitive::SpDmm);
        assert_eq!(fit.cheapest(shape(), 0.005, 0.005), HostPrimitive::Spmm);
        assert_eq!(fit.cheapest(shape(), 0.0, 0.5), HostPrimitive::Skip);
        // A CSR left operand never runs the GEMM, so the grid prices none.
        assert!(fit.predict(HostPrimitive::Gemm, shape(), 1.0, 1.0).is_nan());
    }

    #[test]
    fn non_finite_densities_are_skipped_by_every_model() {
        let fit = HostCalibration::reference();
        let regions = crate::DispatchPolicy::from_regions(16);
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(fit.cheapest(shape(), bad, 0.5), HostPrimitive::Skip);
            assert_eq!(fit.cheapest(shape(), 0.5, bad), HostPrimitive::Skip);
            assert_eq!(regions.decide(bad, 0.5), HostPrimitive::Skip);
        }
        // +inf sanitizes to full density, which must not Skip.
        assert_eq!(
            fit.cheapest(shape(), f64::INFINITY, 1.0),
            HostPrimitive::SpDmm
        );
        assert_eq!(regions.decide(f64::INFINITY, 1.0), HostPrimitive::Gemm);
    }

    #[test]
    fn empty_shapes_are_skipped() {
        let fit = HostCalibration::reference();
        for shape in [
            ProductShape::new(0, 16, 16),
            ProductShape::new(16, 0, 16),
            ProductShape::new(16, 16, 0),
        ] {
            assert_eq!(fit.cheapest(shape, 0.5, 0.5), HostPrimitive::Skip);
        }
    }

    #[test]
    fn the_default_grid_resolves_every_spdmm_and_spmm_coefficient() {
        // SpDMM's and SPMM's features vary with the densities and must stay
        // independent on the grid, or the normal equations go singular and
        // a kernel is priced without its fixed costs.
        let truth = [9.0e-8, 5.0e-7, 3.0e-7];
        let config = CalibrationConfig::default();
        for prim in [HostPrimitive::SpDmm, HostPrimitive::Spmm] {
            let rows: Vec<([f64; 3], f64)> = config
                .shapes
                .iter()
                .flat_map(|&(m, n, d)| config.densities.iter().map(move |&a| (m, n, d, a)))
                .map(|(m, n, d, (ax, ay))| {
                    let f = features(prim, ProductShape::new(m, n, d), ax, ay);
                    (f, truth[0] * f[0] + truth[1] * f[1] + truth[2] * f[2])
                })
                .collect();
            let fit = fit_nonnegative(&rows);
            for (got, want) in fit.coefficients().iter().zip(truth) {
                assert!((got - want).abs() / want < 1e-6, "{prim:?}: {fit:?}");
            }
        }
    }

    #[test]
    fn measured_calibration_is_valid_and_orders_per_work_costs() {
        // A tiny grid keeps this test fast; the fit must still come out
        // usable (finite, non-negative, non-trivial work terms).
        let config = CalibrationConfig {
            shapes: vec![(96, 96, 24)],
            densities: vec![(1.0, 1.0), (0.5, 0.5), (0.1, 1.0), (0.1, 0.1), (0.02, 0.02)],
            reps: 2,
            seed: 7,
        };
        let calibration = HostCalibration::measure(&config);
        assert!(calibration.is_valid(), "{calibration:?}");
        // Gustavson pays more per flop than the sparse-dense row kernel pays
        // per MAC — the asymmetry the Table IV regions cannot see.
        assert!(calibration.spmm.work > calibration.spdmm.work);
    }

    #[test]
    fn least_squares_recovers_planted_coefficients() {
        // Synthetic timings from known coefficients must be recovered.
        let truth = [2.0e-6, 3.0e-7, 5.0e-5];
        let rows: Vec<([f64; 3], f64)> = [
            (64, 64, 16, 1.0, 1.0),
            (64, 64, 16, 0.5, 0.5),
            (128, 32, 64, 0.25, 1.0),
            (32, 128, 8, 0.1, 0.1),
            (96, 96, 24, 0.05, 0.5),
            (128, 128, 32, 0.02, 0.02),
        ]
        .iter()
        .map(|&(m, n, d, ax, ay)| {
            let f = features(HostPrimitive::Spmm, ProductShape::new(m, n, d), ax, ay);
            (f, truth[0] * f[0] + truth[1] * f[1] + truth[2] * f[2])
        })
        .collect();
        let fit = fit_nonnegative(&rows);
        assert!((fit.work - truth[0]).abs() / truth[0] < 1e-6, "{fit:?}");
        assert!((fit.output - truth[1]).abs() / truth[1] < 1e-6, "{fit:?}");
        assert!((fit.per_row - truth[2]).abs() / truth[2] < 1e-6, "{fit:?}");
    }

    /// A hand-built width fit: GEMM's per-row price rises from 0.1 to 1.1
    /// µs over `[0, 1]`, the right-sparse body's is flat at `flat` µs.
    fn linear_fit(flat: f64) -> UpdateFit {
        UpdateFit {
            gemm: UPDATE_FIT_ALPHAS.map(|alpha| 1e-3 * (0.1 + alpha)),
            right_sparse: [1e-3 * flat; UPDATE_FIT_ALPHAS.len()],
        }
    }

    #[test]
    fn a_width_fit_interpolates_between_its_knots() {
        let fit = UpdateFit {
            gemm: [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            right_sparse: [3.0; UPDATE_FIT_ALPHAS.len()],
        };
        for (alpha, per_row) in [
            (0.0, 1.0),
            (0.015625, 1.5),
            (0.03125, 2.0),
            (0.1875, 12.0),
            (0.375, 24.0),
            (0.75, 48.0),
            (1.0, 64.0),
            // Out of range and non-finite densities are sanitised.
            (1.5, 64.0),
            (-0.5, 1.0),
            (f64::NAN, 1.0),
        ] {
            assert_eq!(fit.predict(HostPrimitive::Gemm, 10, alpha), 10.0 * per_row);
            assert_eq!(fit.predict(HostPrimitive::SpDmmRight, 10, alpha), 30.0);
        }
        for prim in [
            HostPrimitive::SpDmm,
            HostPrimitive::Spmm,
            HostPrimitive::Skip,
        ] {
            assert!(fit.predict(prim, 10, 0.5).is_nan());
        }
    }

    #[test]
    fn a_width_fit_picks_each_body_in_its_band() {
        // Prices cross at α_H = 0.5.
        let fit = linear_fit(0.6);
        assert_eq!(fit.settled(), None);
        for (alpha, want) in [
            (0.0, HostPrimitive::Gemm),
            (0.0127, HostPrimitive::Gemm),
            (0.45, HostPrimitive::Gemm),
            (0.55, HostPrimitive::SpDmmRight),
            (1.0, HostPrimitive::SpDmmRight),
        ] {
            let choice = fit.choose(2708, alpha);
            assert_eq!(choice.pick, want, "α_H {alpha}");
            assert_eq!(choice.alpha_h, alpha);
            assert_eq!(
                choice.gemm_ms,
                fit.predict(HostPrimitive::Gemm, 2708, alpha)
            );
            assert_eq!(choice.right_sparse_ms, 2708.0 * 6e-4);
        }
        // A tie keeps GEMM, and so does a price that is not a number.
        assert_eq!(fit.choose(10, 0.5).pick, HostPrimitive::Gemm);
        let mut broken = fit;
        broken.right_sparse = [f64::NAN; UPDATE_FIT_ALPHAS.len()];
        assert_eq!(broken.choose(10, 1.0).pick, HostPrimitive::Gemm);
        assert_eq!(broken.settled(), None);
    }

    #[test]
    fn prices_that_do_not_cross_settle_the_pick_without_a_density() {
        assert_eq!(linear_fit(1.2).settled(), Some(HostPrimitive::Gemm));
        assert_eq!(linear_fit(0.05).settled(), Some(HostPrimitive::SpDmmRight));
        // A tie at one end is not a crossing: GEMM holds there.
        assert_eq!(linear_fit(1.1).settled(), Some(HostPrimitive::Gemm));
        assert_eq!(linear_fit(0.1).settled(), None);
        for flat in [1.2, 1.1, 0.05] {
            let fit = linear_fit(flat);
            let settled = fit.settled().unwrap();
            for alpha in [0.0, 0.01, 0.3, 0.99, 1.0] {
                assert_eq!(
                    fit.choose(64, alpha).pick,
                    settled,
                    "flat {flat}, α_H {alpha}"
                );
            }
        }
    }

    #[test]
    fn a_measured_width_fit_is_positive_and_shared_per_width() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = random_dense(&mut rng, 40, 6, 0.5);
        let fit = UpdateFit::shared(&w);
        for per_row in fit.gemm.iter().chain(&fit.right_sparse) {
            assert!(per_row.is_finite() && *per_row > 0.0, "{fit:?}");
        }
        // Another weight of the same shape and density reuses the fit.
        let mut other = w.transpose().transpose();
        other.as_mut_slice().reverse();
        assert_eq!(other.density(), w.density());
        assert_eq!(UpdateFit::shared(&other), fit);
    }

    #[test]
    fn negative_coefficients_are_clamped_out() {
        // Timings that anti-correlate with the output feature force its
        // coefficient negative; the fit must drop it, not return it.
        let rows: Vec<([f64; 3], f64)> = (1..8)
            .map(|i| {
                let f = [i as f64 * 1000.0, 8000.0 - i as f64 * 1000.0, 1.0];
                (f, i as f64 * 0.001)
            })
            .collect();
        let fit = fit_nonnegative(&rows);
        assert!(fit.is_valid(), "{fit:?}");
    }
}
