//! Ablation models from the paper's discussion.
//!
//! * **10-category model** (§VI-A): the authors first split the backend
//!   category into its microarchitectural causes (ROB full, IQ full, ...)
//!   and found the resulting model *worse* — per-category errors compound.
//!   This module reproduces that experiment using the simulator's extended
//!   counters (which a real four-counter ARM PMU would not even expose —
//!   part of the point).
//! * **IBM-style 5-equation model** (§II): Feliu et al.'s POWER8 approach
//!   needs five equations and six counters per pair estimate; SYNPA needs
//!   three equations and four counters, which the paper credits with a
//!   ~40 % lower pair-estimation overhead. [`IbmStyleModel`] exists so the
//!   `overhead_comparison` binary can compare like for like.

use crate::categories::Categories;
use crate::regression::CategoryCoeffs;
use crate::training::{HoldoutSplit, Sample, TrainingConfig};
use synpa_sim::PmuDelta;

/// Number of categories in the fine-grained ablation model.
pub const TEN: usize = 10;

/// Names of the ten categories, in vector order.
pub const TEN_NAMES: [&str; TEN] = [
    "full-dispatch",
    "fe-icache",
    "fe-branch",
    "be-dcache",
    "be-rob-full",
    "be-iq-full",
    "be-lsq-full",
    "be-width",
    "be-other",
    "revealed",
];

/// Extracts the ten fine-grained CPI components from a counter delta.
///
/// Requires the simulator's extended events; on real hardware these would
/// each need additional PMU counters — exactly the practicality problem the
/// paper raises.
pub fn ten_categories(d: &PmuDelta, dispatch_width: u32) -> [f64; TEN] {
    let inst = d.inst_retired.max(1) as f64;
    let cycles = d.cpu_cycles as f64;
    let fe = d.stall_frontend as f64;
    let be = d.stall_backend as f64;
    let dispatch_cycles = (cycles - fe - be).max(0.0);
    let full = (d.inst_spec as f64 / dispatch_width as f64).min(dispatch_cycles);
    let revealed = dispatch_cycles - full;
    let e = &d.ext;
    // The attribution counters partition the architectural stall counts; any
    // residue (e.g. rounding) goes to the "other" buckets.
    let fe_icache = e.stall_icache.min(d.stall_frontend) as f64;
    let fe_branch = (d.stall_frontend as f64 - fe_icache).max(0.0);
    let be_attr =
        e.stall_dcache + e.stall_rob_full + e.stall_iq_full + e.stall_lsq_full + e.stall_width;
    let be_other = (d.stall_backend as f64 - be_attr as f64).max(0.0);
    [
        full / inst,
        fe_icache / inst,
        fe_branch / inst,
        e.stall_dcache as f64 / inst,
        e.stall_rob_full as f64 / inst,
        e.stall_iq_full as f64 / inst,
        e.stall_lsq_full as f64 / inst,
        e.stall_width as f64 / inst,
        be_other / inst,
        revealed / inst,
    ]
}

/// An Equation-1 regression per fine-grained category.
#[derive(Debug, Clone)]
pub struct TenCategoryModel {
    /// One coefficient set per [`TEN_NAMES`] entry.
    pub coeffs: Vec<CategoryCoeffs>,
}

impl TenCategoryModel {
    /// Predicted SMT CPI of an application from the ten ST components of
    /// itself and its co-runner.
    pub fn predict_cpi(&self, st_i: &[f64; TEN], st_j: &[f64; TEN]) -> f64 {
        self.coeffs
            .iter()
            .enumerate()
            .map(|(k, c)| c.predict(st_i[k], st_j[k]).max(0.0))
            .sum()
    }
}

/// One ten-category training observation.
pub type TenSample = Sample<[f64; TEN]>;

/// The combined extractor of the §VI-A comparison: each quantum's three
/// categories under `cfg` and its ten components, so one set of profiling
/// runs yields both models' samples, on the same quanta in the same order.
pub fn three_and_ten(
    cfg: &TrainingConfig,
) -> impl Fn(&PmuDelta) -> (Categories, [f64; TEN]) + Sync {
    let (three, width) = (cfg.categories(), cfg.chip.core.dispatch_width);
    move |d| (three(d), ten_categories(d, width))
}

/// Fit report for the ten-category model.
#[derive(Debug, Clone)]
pub struct TenFitReport {
    /// The fitted model.
    pub model: TenCategoryModel,
    /// Held-out MSE per category.
    pub mse: Vec<f64>,
    /// Held-out MSE of the *summed* CPI prediction — the number that
    /// matters for pair selection and the one the paper found worse than
    /// the 3-category model's.
    pub cpi_mse: f64,
}

/// Fits the ten-category model and evaluates it on the shared
/// [`HoldoutSplit`].
pub fn fit_ten(samples: &[TenSample], cfg: &TrainingConfig) -> TenFitReport {
    let split = HoldoutSplit::new(samples, cfg);
    let (train_set, test_set) = (&split.train, split.eval());

    let mut coeffs = Vec::with_capacity(TEN);
    let mut mse = Vec::with_capacity(TEN);
    for k in 0..TEN {
        let component = |s: &&TenSample| (s.st_i[k], s.st_j[k], s.smt_ij[k]);
        // Degenerate categories (e.g. a stall source that never fired in
        // training) fall back to a zero model - one of the reasons the
        // fine-grained model is fragile.
        let c = CategoryCoeffs::fit(train_set.iter().map(component)).unwrap_or_default();
        mse.push(c.mse(test_set.iter().map(component)));
        coeffs.push(c);
    }
    let model = TenCategoryModel { coeffs };
    let cpi_pred: Vec<f64> = test_set
        .iter()
        .map(|s| model.predict_cpi(&s.st_i, &s.st_j))
        .collect();
    let cpi_obs: Vec<f64> = test_set.iter().map(|s| s.smt_ij.iter().sum()).collect();
    let cpi_mse = crate::linalg::mse(&cpi_pred, &cpi_obs);
    TenFitReport {
        model,
        mse,
        cpi_mse,
    }
}

/// A stand-in for the IBM POWER8 symbiosis model of Feliu et al.: five
/// equations (categories) per pair estimate instead of SYNPA's three.
/// Used only by the `overhead_comparison` binary (§II's 40 % claim); the
/// coefficient values are immaterial for measuring estimation cost.
#[derive(Debug, Clone, Copy)]
pub struct IbmStyleModel {
    /// Five Equation-1 instances.
    pub coeffs: [CategoryCoeffs; 5],
}

impl Default for IbmStyleModel {
    fn default() -> Self {
        Self {
            coeffs: [CategoryCoeffs {
                alpha: 0.1,
                beta: 1.1,
                gamma: 0.4,
                rho: 0.05,
            }; 5],
        }
    }
}

/// Expands a three-category vector into the five-component form the
/// IBM-style model consumes (padding with split halves; only used to feed
/// `overhead_comparison` with realistic magnitudes).
pub fn expand_to_five(c: &Categories) -> [f64; 5] {
    [
        c.full_dispatch,
        c.frontend * 0.5,
        c.frontend * 0.5,
        c.backend * 0.5,
        c.backend * 0.5,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa_sim::{ExtCounters, PmuCounters};

    fn delta() -> PmuDelta {
        PmuCounters {
            cpu_cycles: 1000,
            inst_spec: 1300,
            stall_frontend: 200,
            stall_backend: 400,
            inst_retired: 1200,
            ext: ExtCounters {
                stall_icache: 150,
                stall_branch: 50,
                stall_dcache: 250,
                stall_rob_full: 50,
                stall_iq_full: 30,
                stall_lsq_full: 20,
                stall_width: 50,
                ..Default::default()
            },
        }
    }

    #[test]
    fn ten_categories_partition_the_cycles() {
        let d = delta();
        let v = ten_categories(&d, 4);
        let total_cpi: f64 = v.iter().sum();
        // Total must equal cycles/inst (the ten categories partition the
        // interval exactly, like the three-category version).
        assert!(
            (total_cpi - 1000.0 / 1200.0).abs() < 1e-9,
            "cpi {total_cpi}"
        );
    }

    #[test]
    fn fe_split_respects_architectural_total() {
        let v = ten_categories(&delta(), 4);
        let fe_total = v[1] + v[2];
        assert!((fe_total - 200.0 / 1200.0).abs() < 1e-9);
    }

    #[test]
    fn ten_model_prediction_is_sum_of_categories() {
        let m = TenCategoryModel {
            coeffs: vec![
                CategoryCoeffs {
                    alpha: 0.0,
                    beta: 1.0,
                    gamma: 0.0,
                    rho: 0.0,
                };
                TEN
            ],
        };
        let st = [0.1; TEN];
        assert!((m.predict_cpi(&st, &st) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ten_and_three_category_samples_share_one_recording() {
        let cfg = TrainingConfig {
            warmup: 20_000,
            quantum: 4_000,
            st_quanta: 10,
            smt_quanta: 6,
            ..Default::default()
        };
        let apps: Vec<_> = ["mcf", "nab_r", "gobmk"]
            .iter()
            .map(|n| synpa_apps::spec::by_name(n).unwrap())
            .collect();
        let runs = crate::training::record(&apps, &cfg, 2, three_and_ten(&cfg));
        let three: Vec<_> = runs.iter().flatten().map(|s| s.map(|v| v.0)).collect();
        let ten: Vec<_> = runs.iter().flatten().map(|s| s.map(|v| v.1)).collect();
        // 6 pairs (with self-pairs) × 6 quanta × 2 threads.
        assert_eq!(three.len(), 72);
        assert_eq!(ten.len(), three.len());
        for (t, s) in ten.iter().zip(&three) {
            assert_eq!((t.app_i, t.app_j), (s.app_i, s.app_j));
            // The ten components partition the same quantum's CPI, and the
            // solo values come from the same profile positions.
            for (t, s) in [(t.smt_ij, s.smt_ij), (t.st_i, s.st_i), (t.st_j, s.st_j)] {
                let gap = (t.iter().sum::<f64>() - s.cpi()).abs();
                assert!(gap < 1e-9, "ten-category sum off by {gap}");
            }
        }
    }

    #[test]
    fn expand_to_five_preserves_cpi() {
        let c = Categories {
            full_dispatch: 0.25,
            frontend: 0.4,
            backend: 1.1,
        };
        let five = expand_to_five(&c);
        assert!((five.iter().sum::<f64>() - c.cpi()).abs() < 1e-12);
    }
}
