//! The model-training pipeline of §IV-C: record and derive in one pass.
//!
//! **Record.** A profiling run is one application alone, or two sharing
//! one SMT2 core, warmed up for `cfg.warmup` cycles and then sampled once
//! per quantum ([`record_run`], one `synpa_apps::profiling_run`). A
//! counter trace captured elsewhere — on real hardware with `perf`, say —
//! reads back into the same shape through [`run_from_trace`].
//!
//! **Derive.** Everything a fit consumes is a pure function of a run's
//! raw per-quantum counter deltas and a category extractor
//! `Fn(&PmuDelta) -> V`: the three [`Categories`] at any [`RevealsSplit`]
//! ([`TrainingConfig::categories`]), the ablation's ten components, or a
//! tuple or array of several, projected afterwards ([`Sample::map`]).
//! [`record`] runs every solo and pair run of a training set and derives
//! as each run finishes, so no run's deltas outlive its job:
//! 1. [`Profile`]: each application's solo quanta, indexed by cumulative
//!    retired instructions (the solo runs go first).
//! 2. [`pair_samples`]: each co-run quantum is mapped back to the solo
//!    position that covers the same work (the paper's alignment by
//!    committed instructions, at the quantum's midpoint), giving one
//!    mirrored `(st_i, st_j, smt_ij)` sample per thread.
//!
//! **Fit.** [`HoldoutSplit`] shuffles the samples and holds out the last
//! `1 − train_fraction`; [`fit_from_samples`] fits each category's
//! Equation-1 coefficients on the rest, streaming each category's values
//! into the normal equations, and reports held-out MSE. Every fit and
//! every ablation score uses that one split.

use crate::categories::{Categories, RevealsSplit};
use crate::regression::{CategoryCoeffs, SynpaModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use synpa_apps::{profiling_run, AppProfile};
use synpa_counters::{QuantumRecord, TraceReplay};
use synpa_sim::{parallel_map, ChipConfig, PmuDelta};

/// Training hyper-parameters and simulation windows.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Chip used for profiling runs (forced to 1 core).
    pub chip: ChipConfig,
    /// Cycles discarded before measurement starts (cold caches).
    pub warmup: u64,
    /// Cycles per measurement quantum.
    pub quantum: u64,
    /// Quanta recorded per isolated (ST) profile.
    pub st_quanta: usize,
    /// Quanta recorded per SMT pair run.
    pub smt_quanta: usize,
    /// Fraction of collected samples used for fitting; the rest are the
    /// held-out set for MSE evaluation (paper reports MSE per category).
    pub train_fraction: f64,
    /// RNG seed for the random quantum subsample.
    pub seed: u64,
    /// Step-3 policy (ablation hook; the paper uses all-to-backend).
    pub split: RevealsSplit,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        // Profiling runs use a fair-share LLC: during deployment eight
        // applications share the chip's LLC, so a training pair that
        // enjoyed the whole array would look misleadingly cache-resident
        // (train/deploy distribution shift). Scale the LLC to 2/8 of the
        // chip's capacity for the 2-thread profiling runs.
        let mut chip = ChipConfig::thunderx2(1);
        chip.llc.size_bytes /= 4;
        Self {
            chip,
            warmup: 40_000,
            quantum: 5_000,
            st_quanta: 30,
            smt_quanta: 12,
            train_fraction: 0.8,
            seed: 0x00C0_FFEE,
            split: RevealsSplit::AllToBackend,
        }
    }
}

impl TrainingConfig {
    /// The three-category extractor: the profiling chip's dispatch width
    /// and this configuration's step-3 `split`.
    pub fn categories(&self) -> impl Fn(&PmuDelta) -> Categories {
        let (width, split) = (self.chip.core.dispatch_width, self.split);
        move |d| Categories::from_delta_with(d, width, split)
    }
}

/// One profiling run's per-quantum counter deltas: one sequence per thread,
/// in the order the applications were given.
pub type Run = Vec<Vec<PmuDelta>>;

/// Simulates one profiling run ([`profiling_run`] on `cfg.chip`): `apps`
/// (one alone, or two sharing one SMT2 core) run for `cfg.warmup` cycles,
/// then for `cfg.st_quanta` (solo) or `cfg.smt_quanta` (pair) quanta of
/// `cfg.quantum` cycles each.
pub fn record_run(apps: &[&AppProfile], cfg: &TrainingConfig) -> Run {
    let quanta = if apps.len() == 1 {
        cfg.st_quanta
    } else {
        cfg.smt_quanta
    };
    profiling_run(apps, &cfg.chip, cfg.warmup, cfg.quantum, quanta)
}

/// A profiling run read back from a recorded counter trace: the deltas of
/// the apps with ids `apps`, in quantum order, keeping only the quanta that
/// hold a record for every one of them. This is the offline path: on real
/// hardware the same JSON-lines trace would be captured with `perf` and the
/// model fitted without re-running the applications.
pub fn run_from_trace(records: &[QuantumRecord], apps: &[usize]) -> Run {
    let mut replay = TraceReplay::new(records.to_vec());
    let mut run = vec![Vec::new(); apps.len()];
    while let Some(quantum) = replay.next_quantum() {
        push_quantum(&mut run, apps, &quantum);
    }
    run
}

/// Appends one quantum's deltas of `ids` to `run`, unless one is missing.
fn push_quantum(run: &mut Run, ids: &[usize], quantum: &[(usize, PmuDelta)]) {
    let deltas: Option<Vec<PmuDelta>> = ids
        .iter()
        .map(|id| quantum.iter().find(|(app, _)| app == id).map(|&(_, d)| d))
        .collect();
    for (seq, d) in run.iter_mut().zip(deltas.into_iter().flatten()) {
        seq.push(d);
    }
}

/// Runs every solo and pair profiling run of `apps` on up to `threads`
/// workers (§IV-C: each application in isolation, then every unordered
/// pair `(i, j)`, `i <= j`, on one core, two instances of one application
/// included) and derives their training samples under `extract`: each
/// solo run becomes a [`Profile`], each pair job returns its
/// [`pair_samples`]. One vector per pair run, in row-major pair order;
/// `.iter().flatten()` walks every sample.
pub fn record<V: Copy + Default + Send + Sync>(
    apps: &[AppProfile],
    cfg: &TrainingConfig,
    threads: usize,
    extract: impl Fn(&PmuDelta) -> V + Sync,
) -> Vec<Vec<Sample<V>>> {
    let profiles = parallel_map(apps, threads, |app| {
        Profile::from_deltas(&record_run(&[app], cfg)[0], &extract)
    });
    let n = apps.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
    parallel_map(&pairs, threads, |&(i, j)| {
        let run = record_run(&[&apps[i], &apps[j]], cfg);
        pair_samples([i, j], &run, [&profiles[i], &profiles[j]], &extract)
    })
}

/// The isolated-execution profile of one application: per-quantum values
/// indexed by cumulative retired instructions.
#[derive(Debug, Clone)]
pub struct Profile<V> {
    /// Per-quantum entries: cumulative retired instructions at quantum end,
    /// and the quantum's value.
    pub quanta: Vec<(u64, V)>,
}

/// The three-category profile the model trains on.
pub type StProfile = Profile<Categories>;

impl<V: Copy + Default> Profile<V> {
    /// Builds a profile from a solo run's deltas (§IV-C: "the value of the
    /// different categories and the number of committed instructions for
    /// each quantum").
    pub fn from_deltas(deltas: &[PmuDelta], extract: impl Fn(&PmuDelta) -> V) -> Self {
        let mut cum = 0u64;
        let quanta = deltas
            .iter()
            .map(|d| {
                cum += d.inst_retired;
                (cum, extract(d))
            })
            .collect();
        Self { quanta }
    }

    /// Value of the quantum covering cumulative instruction `inst`.
    /// Positions beyond the profiled span wrap around (application phases
    /// are cyclic).
    pub fn at(&self, inst: u64) -> V {
        let total = self.quanta.last().map_or(0, |&(end, _)| end);
        if total == 0 {
            return V::default();
        }
        let pos = inst % total;
        // `pos < total`, so some quantum ends after it.
        self.quanta[self.quanta.partition_point(|&(end, _)| end <= pos)].1
    }
}

impl StProfile {
    /// Average categories over the whole profile.
    pub fn mean(&self) -> Categories {
        if self.quanta.is_empty() {
            return Categories::default();
        }
        let n = self.quanta.len() as f64;
        let sum = self.quanta.iter().fold([0.0; 3], |acc, (_, c)| {
            let a = c.as_array();
            [acc[0] + a[0], acc[1] + a[1], acc[2] + a[2]]
        });
        Categories::from_array([sum[0] / n, sum[1] / n, sum[2] / n])
    }
}

/// Records the three-category isolated profile of `app`.
pub fn st_profile(app: &AppProfile, cfg: &TrainingConfig) -> StProfile {
    Profile::from_deltas(&record_run(&[app], cfg)[0], cfg.categories())
}

/// One training observation: the two ST values and the observed SMT value
/// of the *first* application (the second produces its own sample with the
/// roles swapped).
#[derive(Debug, Clone, Copy)]
pub struct Sample<V> {
    /// Training-set index of the target application.
    pub app_i: usize,
    /// Training-set index of the co-runner.
    pub app_j: usize,
    /// ST value of the target application at the matching profile
    /// position.
    pub st_i: V,
    /// ST value of the co-runner.
    pub st_j: V,
    /// Observed SMT value of the target application.
    pub smt_ij: V,
}

impl<V> Sample<V> {
    /// The same observation with every value projected by `f`, e.g. one
    /// extractor's part of a combined one.
    pub fn map<W>(&self, f: impl Fn(&V) -> W) -> Sample<W> {
        Sample {
            app_i: self.app_i,
            app_j: self.app_j,
            st_i: f(&self.st_i),
            st_j: f(&self.st_j),
            smt_ij: f(&self.smt_ij),
        }
    }
}

/// The three-category training observation the model fits on.
pub type PairSample = Sample<Categories>;

/// Turns the co-run `run` of applications `ids` into two samples per
/// quantum, one per thread, each aligned to its solo profile at the
/// quantum's instruction midpoint.
pub fn pair_samples<V: Copy + Default>(
    ids: [usize; 2],
    run: &[Vec<PmuDelta>],
    profiles: [&Profile<V>; 2],
    extract: impl Fn(&PmuDelta) -> V,
) -> Vec<Sample<V>> {
    let [i, j] = ids;
    let (mut cum_i, mut cum_j) = (0u64, 0u64);
    let mut out = Vec::with_capacity(2 * run[0].len());
    for (d_i, d_j) in run[0].iter().zip(&run[1]) {
        let st_i = profiles[0].at(cum_i + d_i.inst_retired / 2);
        let st_j = profiles[1].at(cum_j + d_j.inst_retired / 2);
        cum_i += d_i.inst_retired;
        cum_j += d_j.inst_retired;
        out.push(Sample {
            app_i: i,
            app_j: j,
            st_i,
            st_j,
            smt_ij: extract(d_i),
        });
        out.push(Sample {
            app_i: j,
            app_j: i,
            st_i: st_j,
            st_j: st_i,
            smt_ij: extract(d_j),
        });
    }
    out
}

/// The one train/hold-out split: the samples shuffled with `cfg.seed`, the
/// first `train_fraction` of them (at least four) to fit on, the rest held
/// out. Equal-length sample sets split at the same positions, so samples
/// projected from one combined extractor are scored on the same quanta.
#[derive(Debug)]
pub struct HoldoutSplit<'a, T> {
    /// Samples to fit on.
    pub train: Vec<&'a T>,
    /// Held-out samples (empty when every sample trains).
    pub test: Vec<&'a T>,
}

impl<'a, T> HoldoutSplit<'a, T> {
    /// Shuffles and splits `samples`.
    pub fn new(samples: impl IntoIterator<Item = &'a T>, cfg: &TrainingConfig) -> Self {
        let mut shuffled: Vec<&T> = samples.into_iter().collect();
        shuffled.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
        let at = ((shuffled.len() as f64) * cfg.train_fraction).round() as usize;
        let at = at.clamp(4.min(shuffled.len()), shuffled.len());
        let test = shuffled.split_off(at);
        Self {
            train: shuffled,
            test,
        }
    }

    /// The samples scores are measured on: the hold-out, or the training
    /// set when nothing is held out.
    pub fn eval(&self) -> &[&'a T] {
        if self.test.is_empty() {
            &self.train
        } else {
            &self.test
        }
    }
}

/// The result of a training run.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The fitted three-category model (Table IV analogue).
    pub model: SynpaModel,
    /// Held-out mean squared error per category `[FD, FE, BE]` (§VI-A).
    pub mse: [f64; 3],
    /// Samples used for fitting.
    pub train_samples: usize,
    /// Samples in the held-out evaluation set.
    pub test_samples: usize,
}

/// Errors produced when training data cannot support a fit. These are
/// *data* problems (empty app set, collapsed category space), not bugs:
/// callers feeding recorded traces or ablated sample sets get a
/// descriptive error instead of a panic deep inside the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainingError {
    /// No pair samples at all: the application set was empty or every
    /// co-run produced zero quanta.
    NoSamples,
    /// One category's design matrix was singular in every subset variant
    /// (all samples identical in that category), so no coefficients fit.
    DegenerateCategory(usize),
}

impl std::fmt::Display for TrainingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const NAMES: [&str; 3] = ["full-dispatch", "frontend", "backend"];
        match self {
            TrainingError::NoSamples => {
                write!(
                    f,
                    "no training samples: empty app set or zero-quantum co-runs"
                )
            }
            TrainingError::DegenerateCategory(i) => write!(
                f,
                "degenerate training data: no Equation-1 variant fits the {} category",
                NAMES.get(*i).copied().unwrap_or("?"),
            ),
        }
    }
}

impl std::error::Error for TrainingError {}

/// Trains the SYNPA model on the given applications (§IV-C end to end):
/// runs every profiling run on `threads` workers, derives the
/// three-category samples and fits them.
pub fn train(
    apps: &[AppProfile],
    cfg: &TrainingConfig,
    threads: usize,
) -> Result<FitReport, TrainingError> {
    let runs = record(apps, cfg, threads, cfg.categories());
    fit_from_samples(runs.iter().flatten(), cfg)
}

/// Fits the model from derived samples: the shared [`HoldoutSplit`],
/// per-category least squares, held-out MSE.
pub fn fit_from_samples<'a>(
    samples: impl IntoIterator<Item = &'a PairSample>,
    cfg: &TrainingConfig,
) -> Result<FitReport, TrainingError> {
    let split = HoldoutSplit::new(samples, cfg);
    if split.train.is_empty() {
        return Err(TrainingError::NoSamples);
    }
    // Category `idx` of a sample, as `(st_i, st_j, smt_ij)`.
    let category = |idx: usize| {
        move |s: &&PairSample| {
            (
                s.st_i.as_array()[idx],
                s.st_j.as_array()[idx],
                s.smt_ij.as_array()[idx],
            )
        }
    };

    // Fit every subset variant (γ/ρ forced to zero or kept) per category.
    let variants: Vec<Vec<CategoryCoeffs>> = (0..3)
        .map(|idx| CategoryCoeffs::fit_variants(split.train.iter().map(category(idx))))
        .collect();
    if let Some(idx) = variants.iter().position(|v| v.is_empty()) {
        return Err(TrainingError::DegenerateCategory(idx));
    }

    // Model selection by *decision quality*: the policy only ever uses the
    // model to rank pair slowdowns, so pick the per-category variants whose
    // combined model best rank-correlates predicted with observed slowdown
    // on the held-out set (§VI-A: the authors likewise chose the design
    // "showing the most accurate regression model" after evaluating
    // alternatives end to end).
    let eval_set = split.eval();
    // The matcher consumes predicted *slowdowns* and trades them off across
    // applications, so the selection criterion is the held-out error of the
    // predicted slowdown (not per-category CPI error: that underweights
    // fast applications, whose mispredicted suffering is exactly what sends
    // the matcher astray). The observed slowdowns do not depend on the
    // candidate, so they are computed once for every candidate scored.
    let obs: Vec<f64> = eval_set
        .iter()
        .map(|s| s.smt_ij.cpi() / s.st_i.cpi().max(1e-9))
        .collect();
    let score_model = |m: &SynpaModel| -> f64 {
        let pred: Vec<f64> = eval_set
            .iter()
            .map(|s| m.predict_slowdown(&s.st_i, &s.st_j))
            .collect();
        -crate::linalg::mse(&pred, &obs)
    };
    let mut best: Option<(f64, SynpaModel)> = None;
    for &fd in &variants[0] {
        for &fe in &variants[1] {
            for &be in &variants[2] {
                let m = SynpaModel {
                    full_dispatch: fd,
                    frontend: fe,
                    backend: be,
                };
                let score = score_model(&m);
                if best.as_ref().map(|(b, _)| score > *b).unwrap_or(true) {
                    best = Some((score, m));
                }
            }
        }
    }
    // Every category had at least one variant, so the cross product is
    // non-empty; `None` here would mean the loop above never ran.
    let Some((_, model)) = best else {
        return Err(TrainingError::DegenerateCategory(0));
    };
    let mse = [
        model.full_dispatch.mse(eval_set.iter().map(category(0))),
        model.frontend.mse(eval_set.iter().map(category(1))),
        model.backend.mse(eval_set.iter().map(category(2))),
    ];
    Ok(FitReport {
        model,
        mse,
        train_samples: split.train.len(),
        test_samples: split.test.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa_apps::spec;

    fn tiny_cfg() -> TrainingConfig {
        TrainingConfig {
            warmup: 20_000,
            quantum: 4_000,
            st_quanta: 10,
            smt_quanta: 6,
            ..Default::default()
        }
    }

    #[test]
    fn st_profile_accumulates_instructions() {
        let app = spec::by_name("nab_r").unwrap();
        let p = st_profile(&app, &tiny_cfg());
        assert_eq!(p.quanta.len(), 10);
        for w in p.quanta.windows(2) {
            assert!(w[1].0 > w[0].0, "instruction counts are increasing");
        }
    }

    #[test]
    fn st_profile_lookup_wraps() {
        let app = spec::by_name("nab_r").unwrap();
        let p = st_profile(&app, &tiny_cfg());
        let total = p.quanta.last().unwrap().0;
        let a = p.at(100);
        let b = p.at(total + 100);
        assert_eq!(a, b, "positions wrap modulo the profiled span");
    }

    #[test]
    fn pair_samples_have_two_per_quantum() {
        let cfg = tiny_cfg();
        let a = spec::by_name("mcf").unwrap();
        let b = spec::by_name("nab_r").unwrap();
        let pa = st_profile(&a, &cfg);
        let pb = st_profile(&b, &cfg);
        let run = record_run(&[&a, &b], &cfg);
        let samples = pair_samples([0, 1], &run, [&pa, &pb], cfg.categories());
        assert_eq!(samples.len(), cfg.smt_quanta * 2);
        // SMT CPI of a memory-bound app should exceed its ST CPI: running
        // with a co-runner cannot speed it up.
        let mcf_samples: Vec<_> = samples.iter().step_by(2).collect();
        let mean_st: f64 =
            mcf_samples.iter().map(|s| s.st_i.cpi()).sum::<f64>() / mcf_samples.len() as f64;
        let mean_smt: f64 =
            mcf_samples.iter().map(|s| s.smt_ij.cpi()).sum::<f64>() / mcf_samples.len() as f64;
        assert!(
            mean_smt > mean_st * 0.95,
            "SMT CPI {mean_smt} vs ST {mean_st}"
        );
    }

    #[test]
    fn small_training_run_produces_sane_model() {
        // 4 diverse apps: enough variance to fit 4 coefficients per category.
        let names = ["mcf", "nab_r", "gobmk", "hmmer"];
        let apps: Vec<_> = names.iter().map(|n| spec::by_name(n).unwrap()).collect();
        let report = train(&apps, &tiny_cfg(), 4).expect("diverse apps fit");
        assert!(report.train_samples > 0);
        assert!(report.test_samples > 0);
        for (i, m) in report.mse.iter().enumerate() {
            assert!(m.is_finite() && *m >= 0.0, "category {i} MSE {m}");
        }
        // The fitted model must predict *some* interference: a backend-heavy
        // pair should cost more than a mixed pair (Table IV shape). The
        // co-runner enters Eq. 1 through both the linear (gamma) and the
        // interaction (rho) term, and the variant search may keep either on
        // a tiny 4-app fit.
        let m = report.model;
        assert!(
            m.backend.gamma.abs() > 1e-3 || m.backend.rho.abs() > 1e-3,
            "backend category must depend on the co-runner: {:?}",
            m.backend
        );
    }

    /// Writes a recorded run out as a counter trace, one record per thread
    /// per quantum, with app ids in run order.
    fn to_trace(run: &Run) -> Vec<QuantumRecord> {
        (0..run[0].len())
            .flat_map(|q| {
                run.iter()
                    .enumerate()
                    .map(move |(app, seq)| QuantumRecord::from_delta(q as u64, app, &seq[q]))
            })
            .collect()
    }

    #[test]
    fn trace_based_training_matches_live_collection() {
        let cfg = tiny_cfg();
        let a = spec::by_name("mcf").unwrap();
        let b = spec::by_name("nab_r").unwrap();
        // Solo: a profile rebuilt from the trace equals the live profile.
        let pa = st_profile(&a, &cfg);
        let pb = st_profile(&b, &cfg);
        let solo = record_run(&[&a], &cfg);
        let offline_pa =
            Profile::from_deltas(&run_from_trace(&to_trace(&solo), &[0])[0], cfg.categories());
        assert_eq!(offline_pa.quanta, pa.quanta);
        // Pair: samples rebuilt from the co-run's trace equal the live ones.
        let run = record_run(&[&a, &b], &cfg);
        let live = pair_samples([0, 1], &run, [&pa, &pb], cfg.categories());
        let replayed = run_from_trace(&to_trace(&run), &[0, 1]);
        let offline = pair_samples([0, 1], &replayed, [&pa, &pb], cfg.categories());
        assert_eq!(offline.len(), live.len());
        for (x, y) in offline.iter().zip(&live) {
            assert_eq!((x.app_i, x.app_j), (y.app_i, y.app_j));
            assert_eq!(x.smt_ij.as_array(), y.smt_ij.as_array());
            assert_eq!(x.st_i.as_array(), y.st_i.as_array());
            assert_eq!(x.st_j.as_array(), y.st_j.as_array());
        }
    }

    #[test]
    fn st_profile_from_trace_accumulates() {
        use synpa_sim::PmuCounters;
        let records: Vec<QuantumRecord> = (0..5)
            .map(|q| {
                QuantumRecord::from_delta(
                    q,
                    0,
                    &PmuCounters {
                        cpu_cycles: 1000,
                        inst_spec: 2000,
                        stall_frontend: 100,
                        stall_backend: 300,
                        inst_retired: 2000,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let run = run_from_trace(&records, &[0]);
        let prof = Profile::from_deltas(&run[0], |d| Categories::from_delta(d, 4));
        assert_eq!(prof.quanta.len(), 5);
        assert_eq!(prof.quanta.last().unwrap().0, 10_000);
    }

    #[test]
    fn empty_sample_set_is_a_descriptive_error() {
        let err = fit_from_samples(&[], &tiny_cfg()).unwrap_err();
        assert_eq!(err, TrainingError::NoSamples);
        assert!(err.to_string().contains("no training samples"));
    }

    /// Test-only copy of the pipeline the streaming one replaced, kept as
    /// its differential oracle: every profiling run is recorded before any
    /// is derived, all samples are materialized in one vector, and every
    /// Equation-1 variant is fitted from a materialized design matrix.
    fn record_everything_oracle(apps: &[AppProfile], cfg: &TrainingConfig) -> FitReport {
        use crate::linalg::tests::materialized_least_squares;
        let extract = cfg.categories();
        let n = apps.len();
        let solo: Vec<Run> = apps.iter().map(|a| record_run(&[a], cfg)).collect();
        let pairs: Vec<((usize, usize), Run)> = (0..n)
            .flat_map(|i| (i..n).map(move |j| (i, j)))
            .map(|(i, j)| ((i, j), record_run(&[&apps[i], &apps[j]], cfg)))
            .collect();
        let profiles: Vec<StProfile> = solo
            .iter()
            .map(|run| Profile::from_deltas(&run[0], &extract))
            .collect();
        let samples: Vec<PairSample> = pairs
            .iter()
            .flat_map(|&((i, j), ref run)| {
                pair_samples([i, j], run, [&profiles[i], &profiles[j]], &extract)
            })
            .collect();

        let split = HoldoutSplit::new(&samples, cfg);
        let columns = |set: &[&PairSample], idx: usize| -> Vec<(f64, f64, f64)> {
            set.iter()
                .map(|s| {
                    let (i, j, smt) = (s.st_i.as_array(), s.st_j.as_array(), s.smt_ij.as_array());
                    (i[idx], j[idx], smt[idx])
                })
                .collect()
        };
        let variants: Vec<Vec<CategoryCoeffs>> = (0..3)
            .map(|idx| {
                let cols = columns(&split.train, idx);
                let y: Vec<f64> = cols.iter().map(|&(_, _, s)| s).collect();
                let mut out = Vec::new();
                for (use_gamma, use_rho) in
                    [(true, true), (false, true), (true, false), (false, false)]
                {
                    let rows: Vec<Vec<f64>> = cols
                        .iter()
                        .map(|&(ci, cj, _)| {
                            let mut r = vec![1.0, ci];
                            if use_gamma {
                                r.push(cj);
                            }
                            if use_rho {
                                r.push(ci * cj);
                            }
                            r
                        })
                        .collect();
                    let Some(b) = materialized_least_squares(&rows, &y) else {
                        continue;
                    };
                    let gamma = if use_gamma { b[2] } else { 0.0 };
                    let rho = if use_rho { b[b.len() - 1] } else { 0.0 };
                    out.push(CategoryCoeffs {
                        alpha: b[0],
                        beta: b[1],
                        gamma,
                        rho,
                    });
                }
                out
            })
            .collect();

        let eval_set = split.eval();
        let obs: Vec<f64> = eval_set
            .iter()
            .map(|s| s.smt_ij.cpi() / s.st_i.cpi().max(1e-9))
            .collect();
        let mut best: Option<(f64, SynpaModel)> = None;
        for &full_dispatch in &variants[0] {
            for &frontend in &variants[1] {
                for &backend in &variants[2] {
                    let m = SynpaModel {
                        full_dispatch,
                        frontend,
                        backend,
                    };
                    let pred: Vec<f64> = eval_set
                        .iter()
                        .map(|s| m.predict_slowdown(&s.st_i, &s.st_j))
                        .collect();
                    let score = -crate::linalg::mse(&pred, &obs);
                    if best.as_ref().map_or(true, |(b, _)| score > *b) {
                        best = Some((score, m));
                    }
                }
            }
        }
        let (_, model) = best.expect("every category fits");
        let mse = [0, 1, 2].map(|idx| {
            let cols = columns(eval_set, idx);
            let coeffs = model.coeffs()[idx];
            let pred: Vec<f64> = cols
                .iter()
                .map(|&(ci, cj, _)| coeffs.predict(ci, cj))
                .collect();
            let obs: Vec<f64> = cols.iter().map(|&(_, _, s)| s).collect();
            crate::linalg::mse(&pred, &obs)
        });
        FitReport {
            model,
            mse,
            train_samples: split.train.len(),
            test_samples: split.test.len(),
        }
    }

    #[test]
    fn train_is_bit_equal_to_the_record_everything_oracle() {
        let names = ["mcf", "nab_r", "gobmk", "hmmer"];
        let apps: Vec<_> = names.iter().map(|n| spec::by_name(n).unwrap()).collect();
        let cfg = tiny_cfg();
        let bits = |r: &FitReport| -> Vec<u64> {
            let coeffs = r.model.coeffs().map(|c| [c.alpha, c.beta, c.gamma, c.rho]);
            coeffs
                .iter()
                .flatten()
                .chain(&r.mse)
                .map(|x| x.to_bits())
                .collect()
        };
        let want = record_everything_oracle(&apps, &cfg);
        for threads in [1, 3] {
            let got = train(&apps, &cfg, threads).expect("diverse apps fit");
            assert_eq!(bits(&got), bits(&want), "{threads} workers");
            assert_eq!(
                (got.train_samples, got.test_samples),
                (want.train_samples, want.test_samples)
            );
        }
    }

    #[test]
    fn collapsed_category_space_is_a_descriptive_error() {
        // Every sample identical: each category's design matrix is rank-1,
        // so no Equation-1 subset variant can fit. Must be an error naming
        // the offending category, never a solver panic.
        let c = Categories::from_array([0.2, 0.3, 0.5]);
        let samples: Vec<PairSample> = (0..16)
            .map(|_| PairSample {
                app_i: 0,
                app_j: 1,
                st_i: c,
                st_j: c,
                smt_ij: c,
            })
            .collect();
        let err = fit_from_samples(&samples, &tiny_cfg()).unwrap_err();
        assert!(
            matches!(err, TrainingError::DegenerateCategory(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("degenerate training data"));
    }
}
