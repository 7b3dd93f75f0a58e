//! The 20-workload evaluation suite (paper §V-B).
//!
//! * 5 backend-intensive (`be0`–`be4`): 5–6 apps from the backend-bound
//!   group, remainder from "others";
//! * 5 frontend-intensive (`fe0`–`fe4`): most apps from the frontend-bound
//!   group, remainder from "others";
//! * 10 mixed (`fb0`–`fb9`): half backend-bound, half frontend-bound.
//!
//! Three workloads are pinned to the exact mixes the paper publishes so the
//! case-study experiments reproduce app-for-app: `be1` and `fe2` (Fig. 6a/6b)
//! and `fb2` (Fig. 6c, Fig. 7, Table V). The rest are drawn with a seeded
//! RNG following the paper's recipe; duplicates are allowed (the paper's
//! `fb2` contains `mcf` and `leela_r` twice).

use crate::classify::Group;
use crate::spec::group_members;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Workload family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// 5-6 backend-bound apps, remainder from "others".
    BackendIntensive,
    /// 5-6 frontend-bound apps, remainder from "others".
    FrontendIntensive,
    /// Half backend-bound, half frontend-bound.
    Mixed,
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadKind::BackendIntensive => write!(f, "backend"),
            WorkloadKind::FrontendIntensive => write!(f, "frontend"),
            WorkloadKind::Mixed => write!(f, "mixed"),
        }
    }
}

/// An 8-application workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Suite name (`be0`..`fb9`).
    pub name: String,
    /// Workload family.
    pub kind: WorkloadKind,
    /// Application names in arrival order (position = the paper's bracketed
    /// index, e.g. `leela_r(04)` is `apps[4]`).
    pub apps: Vec<String>,
    /// Per-app arrival cycle, parallel to `apps`. Empty means every app
    /// arrives at cycle 0 (the paper's methodology). Non-zero arrivals are
    /// honoured at the first quantum boundary at or after the cycle, and
    /// each app's turnaround time is measured from its arrival. Apps
    /// sharing an arrival cycle form one *wave*; waves may be any size,
    /// including odd — a core then runs a single thread until the pairing
    /// policies find it a partner.
    pub arrivals: Vec<u64>,
    /// Per-app launch-target scale, parallel to `apps`. Empty means every
    /// app keeps its calibrated target (scale 1.0, the paper's
    /// methodology). Calibration still measures each app in isolation over
    /// the standard window; the scale then multiplies the resulting target,
    /// so a heterogeneous workload mixes short and long launches on one
    /// chip — short apps complete and relaunch early while long apps keep
    /// running, decorrelating per-core activity.
    pub target_scale: Vec<f64>,
}

impl Workload {
    /// Arrival cycle of app `k` (0 when arrivals are unset).
    pub fn arrival(&self, k: usize) -> u64 {
        self.arrivals.get(k).copied().unwrap_or(0)
    }

    /// Launch-target scale of app `k` (1.0 when scales are unset).
    ///
    /// Panics when `target_scale` is set but not one scale per app: a
    /// truncated vector is almost always a bug (a workload edited without
    /// its scale list), and falling back to 1.0 would silently run the
    /// tail at its calibrated target.
    pub fn target_scale(&self, k: usize) -> f64 {
        let n = self.apps.len();
        assert!(
            self.target_scale.is_empty() || self.target_scale.len() == n,
            "target_scale length {} does not match the workload's {n} apps \
             (pass one scale per app, or an empty vector for calibrated targets)",
            self.target_scale.len()
        );
        self.target_scale.get(k).copied().unwrap_or(1.0)
    }
}

/// Number of applications per workload.
pub const WORKLOAD_SIZE: usize = 8;

fn pick(rng: &mut StdRng, pool: &[String]) -> String {
    pool[rng.random_range(0..pool.len())].clone()
}

/// The paper's family recipes, generalized to any even workload size. The
/// "intensive" families keep the paper's 5/8–6/8 dominant-group fraction
/// (drawn with one coin flip, so the size-8 RNG stream is unchanged);
/// `Mixed` splits the size evenly between the two bound groups.
fn sized_workload(rng: &mut StdRng, kind: WorkloadKind, size: usize) -> Vec<String> {
    assert!(
        size >= 2 && size % 2 == 0,
        "workload size must be even (SMT2 pairing), got {size}"
    );
    let mut apps: Vec<String> = match kind {
        WorkloadKind::BackendIntensive | WorkloadKind::FrontendIntensive => {
            let dominant = group_members(if kind == WorkloadKind::BackendIntensive {
                Group::BackendBound
            } else {
                Group::FrontendBound
            });
            let others = group_members(Group::Others);
            let n_dom = if rng.random_bool(0.5) {
                size * 5 / 8
            } else {
                size * 6 / 8
            };
            let mut apps: Vec<String> = (0..n_dom).map(|_| pick(rng, &dominant)).collect();
            while apps.len() < size {
                apps.push(pick(rng, &others));
            }
            apps
        }
        WorkloadKind::Mixed => {
            let be = group_members(Group::BackendBound);
            let fe = group_members(Group::FrontendBound);
            let mut apps: Vec<String> = (0..size / 2).map(|_| pick(rng, &be)).collect();
            apps.extend((0..size / 2).map(|_| pick(rng, &fe)));
            apps
        }
    };
    // Arrival order is random (the paper launches randomly built mixes; the
    // Linux baseline pairs by arrival, so order matters).
    apps.shuffle(rng);
    apps
}

fn backend_workload(rng: &mut StdRng) -> Vec<String> {
    sized_workload(rng, WorkloadKind::BackendIntensive, WORKLOAD_SIZE)
}

fn frontend_workload(rng: &mut StdRng) -> Vec<String> {
    sized_workload(rng, WorkloadKind::FrontendIntensive, WORKLOAD_SIZE)
}

fn mixed_workload(rng: &mut StdRng) -> Vec<String> {
    sized_workload(rng, WorkloadKind::Mixed, WORKLOAD_SIZE)
}

/// Composes one randomized workload of `size` applications (must be even)
/// from the profiled app pool, following `kind`'s family recipe.
/// Deterministic per `(kind, size, seed)`.
pub fn random_workload(name: &str, kind: WorkloadKind, size: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    Workload {
        name: name.to_string(),
        kind,
        apps: sized_workload(&mut rng, kind, size),
        arrivals: Vec::new(),
        target_scale: Vec::new(),
    }
}

/// A partial-occupancy workload: `occupied` applications destined for a
/// chip with `slots` hardware threads, leaving `slots - occupied` slots —
/// and in particular whole cores — empty for the entire run. This is the
/// regime where per-core horizon batching shines: idle cores cost the
/// simulator nothing while their neighbours stay busy. Deterministic per
/// `(kind, occupied, seed)`; `occupied` must be even and at most `slots`.
pub fn partial_occupancy_workload(
    name: &str,
    kind: WorkloadKind,
    occupied: usize,
    slots: usize,
    seed: u64,
) -> Workload {
    assert!(
        occupied <= slots,
        "partial occupancy needs occupied ({occupied}) <= slots ({slots})"
    );
    random_workload(name, kind, occupied, seed)
}

/// A phase-shifted-arrival workload: `size` applications arriving in
/// `waves` equal even-sized groups, wave *i* at cycle `i * wave_gap`. The
/// machine fills up in waves — early cores run while late cores sit empty,
/// then the overlap shifts as early apps finish first — so core activity
/// is deliberately decorrelated across the chip (the case the per-core
/// horizon engine is built for, and a scheduling regime the fixed
/// 8-apps-at-once suite never exercises).
pub fn phase_shifted_workload(
    name: &str,
    kind: WorkloadKind,
    size: usize,
    waves: usize,
    wave_gap: u64,
    seed: u64,
) -> Workload {
    assert!(waves >= 1, "need at least one wave");
    assert!(
        size % waves == 0 && (size / waves) % 2 == 0,
        "waves must be equal and even-sized: {size} apps / {waves} waves"
    );
    let mut w = random_workload(name, kind, size, seed);
    let per_wave = size / waves;
    w.arrivals = (0..size)
        .map(|k| (k / per_wave) as u64 * wave_gap)
        .collect();
    w
}

/// A heterogeneous-launch-target workload: the same app mix as
/// [`random_workload`] for the same `(kind, size, seed)`, with per-app
/// launch targets alternating `small`/`large` multiples of the calibrated
/// target in arrival order. Half the chip runs short launches that
/// complete and relaunch early while the other half runs long ones, so
/// completion traffic, relaunch phases and per-core activity stay
/// decorrelated for the entire run — the ROADMAP's "heterogeneous launch
/// targets" regime. Scales layer on top of the app mix (they do not
/// disturb the RNG stream), mirroring how arrivals are layered.
pub fn heterogeneous_workload(
    name: &str,
    kind: WorkloadKind,
    size: usize,
    small: f64,
    large: f64,
    seed: u64,
) -> Workload {
    assert!(
        small > 0.0 && large > 0.0,
        "launch-target scales must be positive: {small}/{large}"
    );
    let mut w = random_workload(name, kind, size, seed);
    w.target_scale = (0..size)
        .map(|k| if k % 2 == 0 { small } else { large })
        .collect();
    w
}

/// A randomized full-chip suite: `count` workloads of `size` applications
/// each (`fc0`, `fc1`, ...), cycling mixed → backend → frontend so every
/// family exercises the dense synergy graph. With `size = 56` this is the
/// 28-core ThunderX2 regime the paper targets.
pub fn full_chip_suite(count: usize, size: usize, seed: u64) -> Vec<Workload> {
    let kinds = [
        WorkloadKind::Mixed,
        WorkloadKind::BackendIntensive,
        WorkloadKind::FrontendIntensive,
    ];
    (0..count)
        .map(|i| {
            random_workload(
                &format!("fc{i}"),
                kinds[i % kinds.len()],
                size,
                seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

fn owned(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The full 20-workload suite: `be0..be4`, `fe0..fe4`, `fb0..fb9`.
pub fn standard_suite() -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(0x57A6_D00D);
    let mut out = Vec::with_capacity(20);
    for i in 0..5 {
        let apps = if i == 1 {
            // Fig. 6a: workload be1.
            owned(&[
                "cactuBSSN_r",
                "mcf",
                "mcf",
                "milc",
                "cactuBSSN_r",
                "parest_r",
                "cam4_r",
                "imagick_r",
            ])
        } else {
            backend_workload(&mut rng)
        };
        out.push(Workload {
            name: format!("be{i}"),
            kind: WorkloadKind::BackendIntensive,
            apps,
            arrivals: Vec::new(),
            target_scale: Vec::new(),
        });
    }
    for i in 0..5 {
        let apps = if i == 2 {
            // Fig. 6b: workload fe2.
            owned(&[
                "leela_r",
                "gobmk",
                "gobmk",
                "leela_r",
                "perlbench",
                "cam4_r",
                "leela_r",
                "povray_r",
            ])
        } else {
            frontend_workload(&mut rng)
        };
        out.push(Workload {
            name: format!("fe{i}"),
            kind: WorkloadKind::FrontendIntensive,
            apps,
            arrivals: Vec::new(),
            target_scale: Vec::new(),
        });
    }
    for i in 0..10 {
        let apps = if i == 2 {
            // Fig. 6c / Fig. 7 / Table V: workload fb2, in the paper's
            // arrival order (§VI-C).
            owned(&[
                "lbm_r",
                "mcf",
                "cactuBSSN_r",
                "mcf",
                "leela_r",
                "leela_r",
                "astar",
                "mcf_r",
            ])
        } else {
            mixed_workload(&mut rng)
        };
        out.push(Workload {
            name: format!("fb{i}"),
            kind: WorkloadKind::Mixed,
            apps,
            arrivals: Vec::new(),
            target_scale: Vec::new(),
        });
    }
    out
}

/// Looks up one workload of the standard suite by name.
pub fn by_name(name: &str) -> Option<Workload> {
    standard_suite().into_iter().find(|w| w.name == name)
}

/// A seeded open-system arrival trace: application `apps[k]` arrives at
/// cycle `arrivals[k]` (non-decreasing). Unlike a [`Workload`] — a closed
/// batch that runs to collective completion — a trace feeds the admission
/// queue of the open-system scheduler service, where apps stream in,
/// finish their single launch, and leave. Built by [`poisson_trace`] and
/// [`bursty_trace`]; deterministic per `(kind, count, rate params, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Trace name (shows up in result tables).
    pub name: String,
    /// App-mix family the per-arrival draws follow.
    pub kind: WorkloadKind,
    /// Application names in arrival order.
    pub apps: Vec<String>,
    /// Arrival cycle per app, parallel to `apps`, non-decreasing.
    pub arrivals: Vec<u64>,
}

impl ArrivalTrace {
    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// `true` when the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Cycle of the last arrival (0 for an empty trace).
    pub fn span(&self) -> u64 {
        self.arrivals.last().copied().unwrap_or(0)
    }

    /// The trace as a [`Workload`], so calibration drivers written for
    /// workloads (`synpa_sched::prepare_workload`) work unchanged on
    /// open-system inputs.
    pub fn to_workload(&self) -> Workload {
        Workload {
            name: self.name.clone(),
            kind: self.kind,
            apps: self.apps.clone(),
            arrivals: self.arrivals.clone(),
            target_scale: Vec::new(),
        }
    }
}

/// One app drawn per arrival, following `kind`'s family recipe: the
/// "intensive" families pick the dominant group with probability 11/16
/// (the midpoint of the paper's 5/8–6/8 fraction), `Mixed` flips a fair
/// coin between the two bound groups.
fn trace_app(rng: &mut StdRng, kind: WorkloadKind) -> String {
    match kind {
        WorkloadKind::BackendIntensive | WorkloadKind::FrontendIntensive => {
            let dominant = group_members(if kind == WorkloadKind::BackendIntensive {
                Group::BackendBound
            } else {
                Group::FrontendBound
            });
            if rng.random_bool(11.0 / 16.0) {
                pick(rng, &dominant)
            } else {
                pick(rng, &group_members(Group::Others))
            }
        }
        WorkloadKind::Mixed => {
            if rng.random_bool(0.5) {
                pick(rng, &group_members(Group::BackendBound))
            } else {
                pick(rng, &group_members(Group::FrontendBound))
            }
        }
    }
}

/// One exponential inter-arrival gap with the given mean, by inverse CDF.
/// `1 - U` keeps the logarithm's argument in `(0, 1]`.
fn exp_gap(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    -mean * (1.0 - u).ln()
}

/// A Poisson arrival trace: `count` applications with exponential
/// inter-arrival gaps of mean `mean_gap_cycles`. Offered load scales as
/// `1 / mean_gap_cycles`; sweeping the gap sweeps the service from a
/// mostly-idle chip to saturation. Deterministic per
/// `(kind, count, mean_gap_cycles, seed)`.
///
/// This is [`bursty_trace`] with `burstiness = 1.0`: storm and lull then
/// share one mean gap (`x / 1.0` and `x * 1.0` are exact), so the period
/// is never consulted.
pub fn poisson_trace(
    name: &str,
    kind: WorkloadKind,
    count: usize,
    mean_gap_cycles: f64,
    seed: u64,
) -> ArrivalTrace {
    bursty_trace(name, kind, count, mean_gap_cycles, 1.0, 2, seed)
}

/// A bursty (diurnal) arrival trace: Poisson arrivals whose rate follows a
/// square wave of period `period_cycles` — during the first half of each
/// period (the *storm*) the mean gap is `mean_gap_cycles / burstiness`,
/// during the second half (the *lull*) it is `mean_gap_cycles *
/// burstiness`. `burstiness = 1.0` degenerates to [`poisson_trace`];
/// `burstiness = 4.0` concentrates ~94% of arrivals into the storms. This
/// is the overload generator: storms overfill the chip and exercise the
/// admission queue and shedding path, lulls let it drain. Deterministic
/// per `(kind, count, rate params, seed)`.
pub fn bursty_trace(
    name: &str,
    kind: WorkloadKind,
    count: usize,
    mean_gap_cycles: f64,
    burstiness: f64,
    period_cycles: u64,
    seed: u64,
) -> ArrivalTrace {
    assert!(
        mean_gap_cycles > 0.0,
        "mean inter-arrival gap must be positive, got {mean_gap_cycles}"
    );
    assert!(burstiness >= 1.0, "burstiness must be >= 1.0");
    assert!(period_cycles >= 2, "period must be at least 2 cycles");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut apps = Vec::with_capacity(count);
    let mut arrivals = Vec::with_capacity(count);
    for _ in 0..count {
        let storm = (at as u64) % period_cycles < period_cycles / 2;
        let mean = if storm {
            mean_gap_cycles / burstiness
        } else {
            mean_gap_cycles * burstiness
        };
        at += exp_gap(&mut rng, mean);
        arrivals.push(at as u64);
        apps.push(trace_app(&mut rng, kind));
    }
    ArrivalTrace {
        name: name.to_string(),
        kind,
        apps,
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::expected_group;

    #[test]
    fn suite_has_20_workloads_of_8_apps() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 20);
        for w in &suite {
            assert_eq!(w.apps.len(), WORKLOAD_SIZE, "{}", w.name);
            for a in &w.apps {
                assert!(expected_group(a).is_some(), "unknown app {a} in {}", w.name);
            }
        }
    }

    #[test]
    fn suite_is_deterministic() {
        assert_eq!(standard_suite(), standard_suite());
    }

    #[test]
    fn poisson_trace_is_deterministic_sorted_and_known() {
        let t = poisson_trace("ln0", WorkloadKind::Mixed, 100, 20_000.0, 0xA11CE);
        assert_eq!(
            t,
            poisson_trace("ln0", WorkloadKind::Mixed, 100, 20_000.0, 0xA11CE)
        );
        assert_eq!(t.len(), 100);
        assert!(t.arrivals.windows(2).all(|w| w[0] <= w[1]));
        for a in &t.apps {
            assert!(expected_group(a).is_some(), "unknown app {a}");
        }
        // The empirical mean gap should be in the ballpark of the target
        // (loose bound: 100 exponential draws).
        let mean = t.span() as f64 / t.len() as f64;
        assert!(
            (10_000.0..40_000.0).contains(&mean),
            "empirical mean gap {mean} far from the 20_000 target"
        );
        // A different seed yields a different trace.
        assert_ne!(
            t,
            poisson_trace("ln0", WorkloadKind::Mixed, 100, 20_000.0, 0xB0B)
        );
    }

    #[test]
    fn bursty_trace_concentrates_arrivals_into_storms() {
        let period = 400_000u64;
        let t = bursty_trace("bn0", WorkloadKind::Mixed, 400, 10_000.0, 4.0, period, 7);
        assert_eq!(
            t,
            bursty_trace("bn0", WorkloadKind::Mixed, 400, 10_000.0, 4.0, period, 7)
        );
        assert!(t.arrivals.windows(2).all(|w| w[0] <= w[1]));
        let in_storm = t
            .arrivals
            .iter()
            .filter(|&&a| a % period < period / 2)
            .count();
        assert!(
            in_storm * 4 > t.len() * 3,
            "only {in_storm}/{} arrivals fell in storms",
            t.len()
        );
        // burstiness = 1 degenerates to plain Poisson.
        assert_eq!(
            bursty_trace("x", WorkloadKind::Mixed, 50, 10_000.0, 1.0, period, 9).arrivals,
            poisson_trace("x", WorkloadKind::Mixed, 50, 10_000.0, 9).arrivals
        );
    }

    #[test]
    fn trace_round_trips_to_a_workload() {
        let t = poisson_trace("ln1", WorkloadKind::BackendIntensive, 10, 5_000.0, 3);
        let w = t.to_workload();
        assert_eq!(w.apps, t.apps);
        assert_eq!(w.arrivals, t.arrivals);
        assert!(w.target_scale.is_empty());
    }

    #[test]
    fn fb2_matches_paper_arrival_order() {
        let fb2 = by_name("fb2").unwrap();
        assert_eq!(
            fb2.apps,
            vec![
                "lbm_r",
                "mcf",
                "cactuBSSN_r",
                "mcf",
                "leela_r",
                "leela_r",
                "astar",
                "mcf_r"
            ]
        );
    }

    #[test]
    fn backend_workloads_follow_recipe() {
        for w in standard_suite()
            .iter()
            .filter(|w| w.kind == WorkloadKind::BackendIntensive)
        {
            let n_be = w
                .apps
                .iter()
                .filter(|a| expected_group(a) == Some(Group::BackendBound))
                .count();
            assert!((5..=6).contains(&n_be), "{}: {n_be} backend apps", w.name);
            let n_fe = w
                .apps
                .iter()
                .filter(|a| expected_group(a) == Some(Group::FrontendBound))
                .count();
            assert_eq!(n_fe, 0, "{}: backend workloads draw from BE+others", w.name);
        }
    }

    #[test]
    fn mixed_workloads_are_half_and_half() {
        for w in standard_suite()
            .iter()
            .filter(|w| w.kind == WorkloadKind::Mixed)
        {
            let n_be = w
                .apps
                .iter()
                .filter(|a| expected_group(a) == Some(Group::BackendBound))
                .count();
            let n_fe = w
                .apps
                .iter()
                .filter(|a| expected_group(a) == Some(Group::FrontendBound))
                .count();
            assert_eq!(n_be, 4, "{}", w.name);
            assert_eq!(n_fe, 4, "{}", w.name);
        }
    }

    #[test]
    fn random_workload_is_sized_and_deterministic() {
        for size in [8, 16, 28, 56] {
            let a = random_workload("w", WorkloadKind::Mixed, size, 42);
            let b = random_workload("w", WorkloadKind::Mixed, size, 42);
            assert_eq!(a, b, "same seed, same workload");
            assert_eq!(a.apps.len(), size);
            for app in &a.apps {
                assert!(expected_group(app).is_some(), "unknown app {app}");
            }
            let c = random_workload("w", WorkloadKind::Mixed, size, 43);
            assert_ne!(a.apps, c.apps, "different seed, different mix");
        }
    }

    #[test]
    fn full_chip_suite_covers_all_families_at_56() {
        let suite = full_chip_suite(6, 56, 0xF0C1);
        assert_eq!(suite.len(), 6);
        for (i, w) in suite.iter().enumerate() {
            assert_eq!(w.name, format!("fc{i}"));
            assert_eq!(w.apps.len(), 56);
        }
        let kinds: std::collections::HashSet<_> = suite.iter().map(|w| w.kind).collect();
        assert_eq!(kinds.len(), 3, "all three families appear");
        // Family recipes hold at 56 apps too.
        for w in &suite {
            let count = |g: Group| {
                w.apps
                    .iter()
                    .filter(|a| expected_group(a) == Some(g))
                    .count()
            };
            match w.kind {
                WorkloadKind::Mixed => {
                    assert_eq!(count(Group::BackendBound), 28, "{}", w.name);
                    assert_eq!(count(Group::FrontendBound), 28, "{}", w.name);
                }
                WorkloadKind::BackendIntensive => {
                    let n = count(Group::BackendBound);
                    assert!((35..=42).contains(&n), "{}: {n} backend apps", w.name);
                    assert_eq!(count(Group::FrontendBound), 0, "{}", w.name);
                }
                WorkloadKind::FrontendIntensive => {
                    let n = count(Group::FrontendBound);
                    assert!((35..=42).contains(&n), "{}: {n} frontend apps", w.name);
                    assert_eq!(count(Group::BackendBound), 0, "{}", w.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_workload_size_panics() {
        random_workload("w", WorkloadKind::Mixed, 7, 1);
    }

    #[test]
    fn partial_occupancy_workload_is_smaller_than_slots() {
        let w = partial_occupancy_workload("half", WorkloadKind::Mixed, 28, 56, 7);
        assert_eq!(w.apps.len(), 28);
        assert!(w.arrivals.is_empty());
        assert_eq!(w.arrival(5), 0, "unset arrivals default to cycle 0");
        for a in &w.apps {
            assert!(expected_group(a).is_some(), "unknown app {a}");
        }
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn partial_occupancy_beyond_slots_panics() {
        partial_occupancy_workload("bad", WorkloadKind::Mixed, 58, 56, 7);
    }

    #[test]
    fn phase_shifted_workload_arrives_in_even_waves() {
        let w = phase_shifted_workload("wave", WorkloadKind::Mixed, 56, 4, 50_000, 9);
        assert_eq!(w.apps.len(), 56);
        assert_eq!(w.arrivals.len(), 56);
        for (k, &a) in w.arrivals.iter().enumerate() {
            assert_eq!(a, (k / 14) as u64 * 50_000, "wave of app {k}");
        }
        // The mix itself matches the unshifted generator for the same seed:
        // arrivals layer on top, they don't disturb the RNG stream.
        let plain = random_workload("wave", WorkloadKind::Mixed, 56, 9);
        assert_eq!(w.apps, plain.apps);
    }

    #[test]
    #[should_panic(expected = "waves")]
    fn uneven_waves_panic() {
        phase_shifted_workload("bad", WorkloadKind::Mixed, 8, 3, 1_000, 1);
    }

    #[test]
    fn heterogeneous_workload_alternates_target_scales() {
        let w = heterogeneous_workload("het", WorkloadKind::Mixed, 56, 0.5, 2.0, 11);
        assert_eq!(w.apps.len(), 56);
        assert_eq!(w.target_scale.len(), 56);
        for k in 0..56 {
            let expect = if k % 2 == 0 { 0.5 } else { 2.0 };
            assert_eq!(w.target_scale(k), expect, "app {k}");
        }
        // Scales layer on top of the mix: the apps match the plain twin.
        let plain = random_workload("het", WorkloadKind::Mixed, 56, 11);
        assert_eq!(w.apps, plain.apps);
        assert_eq!(plain.target_scale(7), 1.0, "unset scales default to 1.0");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_target_scale_panics() {
        heterogeneous_workload("bad", WorkloadKind::Mixed, 8, 0.0, 2.0, 1);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = standard_suite().into_iter().map(|w| w.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 20);
    }
}
