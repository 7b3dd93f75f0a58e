//! Seeded, deterministic counter-fault injection.
//!
//! Real PMUs misbehave in ways the simulator never does: reads get dropped
//! by a busy kernel, counters freeze or return stale cached values,
//! multiplexing and wraps hand back non-monotonic snapshots, and glitches
//! produce zeroed or saturated readings. [`FaultInjector`] models all of
//! that as a wrapper around any [`CounterSource`], driven by a [`FaultPlan`]
//! that is a *pure function* of `(seed, rates, app_id, quantum)` — never of
//! read order, engine choice, worker count or matcher kind. Two runs with
//! the same plan observe byte-identical fault schedules, which is what lets
//! CI byte-diff chaos runs across every engine × thread-count × matcher
//! axis exactly like fault-free tables (see `docs/robustness.md`).

use crate::CounterSource;
use std::cell::RefCell;
use std::collections::HashMap;
use synpa_sim::{PmuCounters, SplitMix64};

/// The kinds of counter faults the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The read fails outright: `read_counters` returns `None` even though
    /// the application is running (a dropped `perf` read).
    Drop,
    /// Stuck counters: the read repeats the last value this source
    /// *returned* for the app (the consumer sees no progress at all).
    Freeze,
    /// Stale repeat: the read returns the previous quantum's *true*
    /// snapshot (a cached value one interval old).
    Stale,
    /// Non-monotonic rollback: every field reads lower than the truth
    /// (counter wrap / multiplexing reset).
    Rollback,
    /// All-zero event counts, as if the counters were just programmed.
    Zero,
    /// Spike/saturation: every field reads absurdly high.
    Spike,
}

impl FaultKind {
    /// Every kind, in taxonomy order (the order [`FaultRates`] draws in);
    /// `kind as usize` is the kind's index here.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Drop,
        FaultKind::Freeze,
        FaultKind::Stale,
        FaultKind::Rollback,
        FaultKind::Zero,
        FaultKind::Spike,
    ];

    /// Number of fault kinds (the length of [`InjectedCounts`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable lowercase name (docs, accounting lines, test output).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Freeze => "freeze",
            FaultKind::Stale => "stale",
            FaultKind::Rollback => "rollback",
            FaultKind::Zero => "zero",
            FaultKind::Spike => "spike",
        }
    }

    /// Parses a kind name as accepted by the `--faults seed:rate:kind`
    /// filter. Strict: an unknown name errors with the full valid list —
    /// a typo must never silently fall back to the uniform mix.
    pub fn parse(name: &str) -> Result<Self, String> {
        FaultKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == name)
            .ok_or_else(|| {
                let valid = FaultKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("unknown fault kind '{name}' (valid: {valid})")
            })
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-kind injected-fault counters, indexed by [`FaultKind`] in
/// [`FaultKind::ALL`] order.
pub type InjectedCounts = [u64; FaultKind::COUNT];

/// Per-quantum fault probability of each kind, indexed by `kind as usize`
/// ([`FaultKind::ALL`] order). The sum must stay ≤ 1 (one read suffers at
/// most one fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates(pub [f64; FaultKind::COUNT]);

impl FaultRates {
    /// No faults at all (the plan never fires; behaviour is byte-identical
    /// to running without an injector).
    pub fn none() -> Self {
        Self::uniform(0.0)
    }

    /// All of `total` concentrated on one kind (the `--faults
    /// seed:rate:kind` filter): isolates a single failure mode for
    /// targeted chaos runs.
    pub fn only(kind: FaultKind, total: f64) -> Self {
        let mut rates = Self::none();
        rates.0[kind as usize] = total;
        rates
    }

    /// Splits a total per-read fault probability evenly across all kinds.
    pub fn uniform(total: f64) -> Self {
        Self([total / FaultKind::COUNT as f64; FaultKind::COUNT])
    }

    /// Rate of one kind.
    pub fn of(&self, kind: FaultKind) -> f64 {
        self.0[kind as usize]
    }

    /// Total per-read fault probability.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// A complete fault-injection configuration: everything a chaos run needs
/// to be byte-replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Plan seed — the only entropy in the whole layer.
    pub seed: u64,
    /// Per-kind fault probabilities.
    pub rates: FaultRates,
}

impl FaultConfig {
    /// Uniform config: `rate` total fault probability split across kinds.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rates: FaultRates::uniform(rate),
        }
    }

    /// Parses the `--faults seed:rate[:kind]` CLI spec shared by the
    /// experiment binaries: a decimal seed, a colon, and a total fault
    /// rate in `[0, 1]` — split uniformly across kinds, unless a third
    /// `:kind` component (e.g. `7:0.05:spike`) concentrates the whole
    /// rate on one [`FaultKind`]. Unknown kind names error with the valid
    /// list; they never fall back to the uniform mix.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, rest) = spec
            .split_once(':')
            .ok_or_else(|| format!("--faults expects seed:rate, got '{spec}'"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("--faults seed '{seed}' is not a u64"))?;
        let (rate, kind) = match rest.split_once(':') {
            Some((rate, kind)) => (rate, Some(kind.trim())),
            None => (rest, None),
        };
        let rate: f64 = rate
            .trim()
            .parse()
            .map_err(|_| format!("--faults rate '{rate}' is not a number"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--faults rate {rate} must be within [0, 1]"));
        }
        match kind {
            Some(name) => {
                let kind = FaultKind::parse(name).map_err(|e| format!("--faults: {e}"))?;
                Ok(Self {
                    seed,
                    rates: FaultRates::only(kind, rate),
                })
            }
            None => Ok(Self::uniform(seed, rate)),
        }
    }
}

/// The deterministic per-app, per-quantum fault schedule.
///
/// [`FaultPlan::kind_at`] is a pure function of `(seed, rates, app_id,
/// quantum)`: the decision for one cell never depends on any other cell,
/// on read order, or on injector state — so any consumer (the injector,
/// an accounting test, a replay) computes the identical schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// Builds the plan. The combined fault probability must stay ≤ 1.
    pub fn new(cfg: &FaultConfig) -> Self {
        assert!(
            cfg.rates.total() <= 1.0 + 1e-12,
            "fault rates sum to {} > 1",
            cfg.rates.total()
        );
        Self {
            seed: cfg.seed,
            rates: cfg.rates,
        }
    }

    /// The fault (if any) scheduled for `app_id` at `quantum`.
    pub fn kind_at(&self, app_id: usize, quantum: u64) -> Option<FaultKind> {
        if self.rates.total() <= 0.0 {
            return None;
        }
        // SplitMix64 is designed to decorrelate sequential seeds, so a
        // linear (app, quantum) mix plus one warm-up draw gives independent
        // per-cell decisions without any shared stream state.
        let mut rng = SplitMix64::new(
            self.seed
                .wrapping_add((app_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(quantum.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
        );
        let u = rng.next_f64();
        let mut acc = 0.0;
        for kind in FaultKind::ALL {
            acc += self.rates.of(kind);
            if u < acc {
                return Some(kind);
            }
        }
        None
    }
}

fn map_fields(c: &PmuCounters, f: impl Fn(u64) -> u64) -> PmuCounters {
    PmuCounters {
        cpu_cycles: f(c.cpu_cycles),
        inst_spec: f(c.inst_spec),
        stall_frontend: f(c.stall_frontend),
        stall_backend: f(c.stall_backend),
        inst_retired: f(c.inst_retired),
        ext: synpa_sim::ExtCounters {
            stall_rob_full: f(c.ext.stall_rob_full),
            stall_iq_full: f(c.ext.stall_iq_full),
            stall_lsq_full: f(c.ext.stall_lsq_full),
            stall_dcache: f(c.ext.stall_dcache),
            stall_exec: f(c.ext.stall_exec),
            stall_width: f(c.ext.stall_width),
            stall_branch: f(c.ext.stall_branch),
            stall_icache: f(c.ext.stall_icache),
            l1d_access: f(c.ext.l1d_access),
            l1d_miss: f(c.ext.l1d_miss),
            l1i_access: f(c.ext.l1i_access),
            l1i_miss: f(c.ext.l1i_miss),
        },
    }
}

#[derive(Debug, Default)]
struct InjectorState {
    quantum: u64,
    /// Last true (inner) reading per app — what [`FaultKind::Stale`]
    /// replays.
    last_true: HashMap<usize, PmuCounters>,
    /// Last reading this source *returned* per app — what
    /// [`FaultKind::Freeze`] repeats.
    last_out: HashMap<usize, PmuCounters>,
    injected: InjectedCounts,
}

/// Stateful fault driver. Wraps an inner [`CounterSource`] per quantum via
/// [`FaultInjector::wrap`]; counts every injected fault by kind so the
/// accounting contract (injected = planned, per kind) is checkable.
///
/// Interior mutability (`RefCell`) keeps [`CounterSource::read_counters`]'s
/// `&self` signature; each app is read at most once per quantum by the
/// sampling layer, always from one thread.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: RefCell<InjectorState>,
}

impl FaultInjector {
    /// Builds the injector from a replayable config.
    pub fn new(cfg: &FaultConfig) -> Self {
        Self {
            plan: FaultPlan::new(cfg),
            state: RefCell::new(InjectorState::default()),
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Sets the quantum ordinal the next reads are attributed to. Call at
    /// every quantum boundary before sampling.
    pub fn begin_quantum(&mut self, quantum: u64) {
        self.state.borrow_mut().quantum = quantum;
    }

    /// Wraps an inner source for this quantum's reads.
    pub fn wrap<'a, S: CounterSource + ?Sized>(&'a self, inner: &'a S) -> FaultySource<'a, S> {
        FaultySource {
            injector: self,
            inner,
        }
    }

    /// Faults injected so far, by kind ([`FaultKind::ALL`] order).
    pub fn injected(&self) -> InjectedCounts {
        self.state.borrow().injected
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.injected().iter().sum()
    }

    fn read_faulty<S: CounterSource + ?Sized>(
        &self,
        inner: &S,
        app_id: usize,
    ) -> Option<PmuCounters> {
        // An app the inner source doesn't know is not a fault — the plan
        // only applies to reads that would otherwise succeed, so every
        // planned fault on a sampled app actually fires (injected =
        // planned over the sampled grid).
        let truth = inner.read_counters(app_id)?;
        let mut st = self.state.borrow_mut();
        let quantum = st.quantum;
        let out = match self.plan.kind_at(app_id, quantum) {
            None => Some(truth),
            Some(kind) => {
                st.injected[kind as usize] += 1;
                match kind {
                    FaultKind::Drop => None,
                    FaultKind::Freeze => {
                        Some(st.last_out.get(&app_id).copied().unwrap_or_default())
                    }
                    FaultKind::Stale => {
                        Some(st.last_true.get(&app_id).copied().unwrap_or_default())
                    }
                    FaultKind::Rollback => Some(map_fields(&truth, |v| v / 2)),
                    FaultKind::Zero => Some(PmuCounters::default()),
                    FaultKind::Spike => Some(map_fields(&truth, |v| v.saturating_mul(1000))),
                }
            }
        };
        st.last_true.insert(app_id, truth);
        if let Some(o) = out {
            st.last_out.insert(app_id, o);
        }
        out
    }
}

/// A [`CounterSource`] view of `inner` with this quantum's faults applied.
/// Borrowed per quantum from [`FaultInjector::wrap`], so the injector's
/// fault state survives across quanta while the chip stays mutably
/// borrowable in between.
#[derive(Debug)]
pub struct FaultySource<'a, S: ?Sized> {
    injector: &'a FaultInjector,
    inner: &'a S,
}

impl<S: CounterSource + ?Sized> CounterSource for FaultySource<'_, S> {
    fn read_counters(&self, app_id: usize) -> Option<PmuCounters> {
        self.injector.read_faulty(self.inner, app_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A monotonic in-memory source: app's cumulative counters grow by a
    /// fixed healthy delta per tick.
    struct Fake {
        now: RefCell<HashMap<usize, PmuCounters>>,
    }

    impl Fake {
        fn new(apps: &[usize]) -> Self {
            Self {
                now: RefCell::new(apps.iter().map(|&a| (a, PmuCounters::default())).collect()),
            }
        }

        fn tick(&self) {
            for c in self.now.borrow_mut().values_mut() {
                c.cpu_cycles += 1000;
                c.inst_spec += 2000;
                c.stall_frontend += 100;
                c.stall_backend += 200;
                c.inst_retired += 1800;
            }
        }
    }

    impl CounterSource for Fake {
        fn read_counters(&self, app_id: usize) -> Option<PmuCounters> {
            self.now.borrow().get(&app_id).copied()
        }
    }

    #[test]
    fn plan_is_pure_and_seed_deterministic() {
        let cfg = FaultConfig::uniform(42, 0.3);
        let a = FaultPlan::new(&cfg);
        let b = FaultPlan::new(&cfg);
        for app in 0..16 {
            for q in 0..64 {
                assert_eq!(a.kind_at(app, q), b.kind_at(app, q));
            }
        }
        let other = FaultPlan::new(&FaultConfig::uniform(43, 0.3));
        let differs = (0..16)
            .flat_map(|app| (0..64).map(move |q| (app, q)))
            .any(|(app, q)| a.kind_at(app, q) != other.kind_at(app, q));
        assert!(differs, "different seeds must schedule differently");
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let plan = FaultPlan::new(&FaultConfig::uniform(7, 0.0));
        for app in 0..8 {
            for q in 0..256 {
                assert_eq!(plan.kind_at(app, q), None);
            }
        }
    }

    #[test]
    fn plan_rate_roughly_matches_over_many_cells() {
        let plan = FaultPlan::new(&FaultConfig::uniform(11, 0.25));
        let cells = 40_000;
        let hits = (0..200)
            .flat_map(|app| (0..200u64).map(move |q| (app, q)))
            .filter(|&(app, q)| plan.kind_at(app, q).is_some())
            .count();
        let rate = hits as f64 / cells as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn injected_counts_match_plan_replay() {
        let cfg = FaultConfig::uniform(99, 0.5);
        let mut injector = FaultInjector::new(&cfg);
        let apps = [3usize, 5, 8];
        let fake = Fake::new(&apps);
        for q in 0..50u64 {
            fake.tick();
            injector.begin_quantum(q);
            let src = injector.wrap(&fake);
            for &a in &apps {
                let _ = src.read_counters(a);
            }
        }
        let mut expected = [0u64; FaultKind::COUNT];
        let plan = FaultPlan::new(&cfg);
        for q in 0..50u64 {
            for &a in &apps {
                if let Some(k) = plan.kind_at(a, q) {
                    expected[k as usize] += 1;
                }
            }
        }
        assert_eq!(injector.injected(), expected);
        assert!(injector.injected_total() > 0, "rate 0.5 must fire");
    }

    #[test]
    fn fault_kinds_produce_their_symptoms() {
        // Pin each kind with a rate-1 single-kind config.
        let single = |kind: FaultKind| {
            let mut rates = FaultRates::none();
            rates.0[kind as usize] = 1.0;
            FaultConfig { seed: 1, rates }
        };
        let apps = [0usize];
        let fake = Fake::new(&apps);
        fake.tick();
        let truth = fake.read_counters(0).unwrap();

        let mut inj = FaultInjector::new(&single(FaultKind::Drop));
        inj.begin_quantum(0);
        assert_eq!(inj.wrap(&fake).read_counters(0), None);

        let mut inj = FaultInjector::new(&single(FaultKind::Zero));
        inj.begin_quantum(0);
        assert_eq!(
            inj.wrap(&fake).read_counters(0),
            Some(PmuCounters::default())
        );

        let mut inj = FaultInjector::new(&single(FaultKind::Rollback));
        inj.begin_quantum(0);
        let rolled = inj.wrap(&fake).read_counters(0).unwrap();
        assert!(rolled.cpu_cycles < truth.cpu_cycles);

        let mut inj = FaultInjector::new(&single(FaultKind::Spike));
        inj.begin_quantum(0);
        let spiked = inj.wrap(&fake).read_counters(0).unwrap();
        assert!(spiked.cpu_cycles > truth.cpu_cycles * 100);

        // Freeze repeats the previously *returned* value; with no prior
        // read it returns zeroed counters.
        let mut inj = FaultInjector::new(&single(FaultKind::Freeze));
        inj.begin_quantum(0);
        assert_eq!(
            inj.wrap(&fake).read_counters(0),
            Some(PmuCounters::default())
        );
        fake.tick();
        inj.begin_quantum(1);
        assert_eq!(
            inj.wrap(&fake).read_counters(0),
            Some(PmuCounters::default()),
            "still frozen at what was last returned"
        );

        // Stale replays the previous quantum's true snapshot.
        let mut inj = FaultInjector::new(&single(FaultKind::Stale));
        inj.begin_quantum(0);
        let _ = inj.wrap(&fake).read_counters(0);
        let before = fake.read_counters(0).unwrap();
        fake.tick();
        inj.begin_quantum(1);
        assert_eq!(inj.wrap(&fake).read_counters(0), Some(before));
    }

    #[test]
    fn faulty_source_passes_unknown_apps_through() {
        let fake = Fake::new(&[1]);
        let mut inj = FaultInjector::new(&FaultConfig::uniform(5, 1.0));
        inj.begin_quantum(0);
        assert_eq!(inj.wrap(&fake).read_counters(99), None);
        assert_eq!(inj.injected_total(), 0, "no fault charged to a dead app");
    }

    #[test]
    fn parse_accepts_seed_colon_rate() {
        let cfg = FaultConfig::parse("123:0.25").unwrap();
        assert_eq!(cfg.seed, 123);
        assert!((cfg.rates.total() - 0.25).abs() < 1e-12);
        assert!(FaultConfig::parse("123").is_err());
        assert!(FaultConfig::parse("x:0.1").is_err());
        assert!(FaultConfig::parse("1:1.5").is_err());
        assert!(FaultConfig::parse("1:-0.1").is_err());
    }

    #[test]
    fn parse_accepts_optional_kind_filter() {
        // `seed:rate:kind` concentrates the whole rate on one kind.
        let cfg = FaultConfig::parse("7:0.05:spike").unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.rates.0[FaultKind::Spike as usize] - 0.05).abs() < 1e-12);
        assert!((cfg.rates.total() - 0.05).abs() < 1e-12);
        for kind in FaultKind::ALL {
            if kind != FaultKind::Spike {
                assert_eq!(cfg.rates.of(kind), 0.0, "kind {kind} must stay 0");
            }
        }
        // Every kind name round-trips through the filter.
        for kind in FaultKind::ALL {
            let cfg = FaultConfig::parse(&format!("1:0.2:{kind}")).unwrap();
            assert!((cfg.rates.of(kind) - 0.2).abs() < 1e-12);
            assert!((cfg.rates.total() - 0.2).abs() < 1e-12);
        }
        // Whitespace around the kind is tolerated (matches seed/rate).
        assert!(FaultConfig::parse("1:0.1: freeze ").is_ok());
    }

    #[test]
    fn parse_rejects_unknown_kind_strictly() {
        let err = FaultConfig::parse("7:0.05:sike").unwrap_err();
        assert!(err.contains("unknown fault kind 'sike'"), "got: {err}");
        for name in ["drop", "freeze", "stale", "rollback", "zero", "spike"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
        // The rate is still validated before the kind is consulted.
        assert!(FaultConfig::parse("7:1.5:spike").is_err());
        // An empty kind component is an error, not the uniform fallback.
        assert!(FaultConfig::parse("7:0.05:").is_err());
    }

    #[test]
    fn only_rates_match_kind_parse() {
        let rates = FaultRates::only(FaultKind::parse("rollback").unwrap(), 0.3);
        assert!((rates.0[FaultKind::Rollback as usize] - 0.3).abs() < 1e-12);
        assert!((rates.total() - 0.3).abs() < 1e-12);
    }
}
