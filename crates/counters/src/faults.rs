//! Seeded, deterministic counter-fault injection.
//!
//! Real PMUs misbehave in ways the simulator never does: reads get dropped
//! by a busy kernel, counters freeze or return stale cached values,
//! multiplexing and wraps hand back non-monotonic snapshots, and glitches
//! produce zeroed or saturated readings. [`FaultInjector`] models all of
//! that on the per-quantum read path: it takes each true reading and
//! returns the faulty one, as scheduled by [`FaultConfig::kind_at`], a
//! *pure function* of `(seed, rates, app_id, quantum)` — never of read
//! order, engine choice or worker count. Two runs with the same config
//! observe byte-identical fault schedules, which is what lets CI byte-diff
//! chaos runs across every engine × thread-count axis exactly like
//! fault-free tables (see `docs/robustness.md`).

use std::collections::HashMap;
use synpa_sim::{parse_seed_rate, PmuCounters, SplitMix64};

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
        let (seed, rate, kind) = parse_seed_rate("--faults", spec)?;
        match kind {
            Some(name) => {
                let kind = FaultKind::parse(name.trim()).map_err(|e| format!("--faults: {e}"))?;
                Ok(Self {
                    seed,
                    rates: FaultRates::only(kind, rate),
                })
            }
            None => Ok(Self::uniform(seed, rate)),
        }
    }

    /// The fault (if any) scheduled for `app_id` at `quantum`: a pure
    /// function of `(seed, rates, app_id, quantum)`. The decision for one
    /// cell never depends on any other cell, on read order, or on injector
    /// state — so any consumer (the injector, an accounting test, a
    /// replay) computes the identical schedule.
    pub fn kind_at(&self, app_id: usize, quantum: u64) -> Option<FaultKind> {
        if self.rates.total() <= 0.0 {
            return None;
        }
        let u = SplitMix64::for_cell(self.seed, app_id as u64, quantum, 0).next_f64();
        let mut acc = 0.0;
        FaultKind::ALL.into_iter().find(|&kind| {
            acc += self.rates.of(kind);
            u < acc
        })
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

/// Stateful fault driver on the per-quantum read path: passes each true
/// reading through the plan and counts every injected fault by kind, so
/// the accounting contract (injected = planned, per kind) is checkable.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    /// Per app: the last true reading (what [`FaultKind::Stale`] replays)
    /// and the last reading returned (what [`FaultKind::Freeze`] repeats).
    last: HashMap<usize, (PmuCounters, PmuCounters)>,
    injected: InjectedCounts,
}

impl FaultInjector {
    /// Builds the injector from a replayable config. The combined fault
    /// probability must stay ≤ 1.
    pub fn new(cfg: &FaultConfig) -> Self {
        assert!(
            cfg.rates.total() <= 1.0 + 1e-12,
            "fault rates sum to {} > 1",
            cfg.rates.total()
        );
        Self {
            cfg: *cfg,
            last: HashMap::new(),
            injected: InjectedCounts::default(),
        }
    }

    /// What a read of `app_id` at `quantum` reports when the true
    /// counters are `truth`: `truth` itself, or the planned fault's
    /// symptom (`None` for a dropped read). Only reads that would succeed
    /// come through here — an app off the chip is not a fault — so every
    /// planned fault on a sampled app fires (injected = planned over the
    /// sampled grid).
    pub fn read(&mut self, app_id: usize, quantum: u64, truth: PmuCounters) -> Option<PmuCounters> {
        let (last_true, last_out) = self.last.entry(app_id).or_default();
        let out = match self.cfg.kind_at(app_id, quantum) {
            None => Some(truth),
            Some(kind) => {
                self.injected[kind as usize] += 1;
                match kind {
                    FaultKind::Drop => None,
                    FaultKind::Freeze => Some(*last_out),
                    FaultKind::Stale => Some(*last_true),
                    FaultKind::Rollback => Some(map_fields(&truth, |v| v / 2)),
                    FaultKind::Zero => Some(PmuCounters::default()),
                    FaultKind::Spike => Some(map_fields(&truth, |v| v.saturating_mul(1000))),
                }
            }
        };
        *last_true = truth;
        if let Some(o) = out {
            *last_out = o;
        }
        out
    }

    /// Faults injected so far, by kind ([`FaultKind::ALL`] order).
    pub fn injected(&self) -> InjectedCounts {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cumulative counters after `ticks` healthy quanta of a monotonic app.
    fn truth_at(ticks: u64) -> PmuCounters {
        PmuCounters {
            cpu_cycles: 1000 * ticks,
            inst_spec: 2000 * ticks,
            stall_frontend: 100 * ticks,
            stall_backend: 200 * ticks,
            inst_retired: 1800 * ticks,
            ..Default::default()
        }
    }

    #[test]
    fn plan_is_pure_and_seed_deterministic() {
        let a = FaultConfig::uniform(42, 0.3);
        let b = FaultConfig::uniform(42, 0.3);
        for app in 0..16 {
            for q in 0..64 {
                assert_eq!(a.kind_at(app, q), b.kind_at(app, q));
            }
        }
        let other = FaultConfig::uniform(43, 0.3);
        let differs = (0..16)
            .flat_map(|app| (0..64).map(move |q| (app, q)))
            .any(|(app, q)| a.kind_at(app, q) != other.kind_at(app, q));
        assert!(differs, "different seeds must schedule differently");
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let plan = FaultConfig::uniform(7, 0.0);
        for app in 0..8 {
            for q in 0..256 {
                assert_eq!(plan.kind_at(app, q), None);
            }
        }
    }

    #[test]
    fn plan_rate_roughly_matches_over_many_cells() {
        let plan = FaultConfig::uniform(11, 0.25);
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
        let mut expected = InjectedCounts::default();
        for q in 0..50u64 {
            for &a in &apps {
                let _ = injector.read(a, q, truth_at(q + 1));
                if let Some(k) = cfg.kind_at(a, q) {
                    expected[k as usize] += 1;
                }
            }
        }
        assert_eq!(injector.injected(), expected);
        assert!(expected.iter().sum::<u64>() > 0, "rate 0.5 must fire");
    }

    #[test]
    fn fault_kinds_produce_their_symptoms() {
        // Pin each kind with a rate-1 single-kind config.
        let single = |kind: FaultKind| {
            FaultInjector::new(&FaultConfig {
                seed: 1,
                rates: FaultRates::only(kind, 1.0),
            })
        };
        let truth = truth_at(1);

        assert_eq!(single(FaultKind::Drop).read(0, 0, truth), None);
        assert_eq!(
            single(FaultKind::Zero).read(0, 0, truth),
            Some(PmuCounters::default())
        );
        let rolled = single(FaultKind::Rollback).read(0, 0, truth).unwrap();
        assert!(rolled.cpu_cycles < truth.cpu_cycles);
        let spiked = single(FaultKind::Spike).read(0, 0, truth).unwrap();
        assert!(spiked.cpu_cycles > truth.cpu_cycles * 100);

        // Freeze repeats the previously *returned* value; with no prior
        // read it returns zeroed counters.
        let mut inj = single(FaultKind::Freeze);
        assert_eq!(inj.read(0, 0, truth), Some(PmuCounters::default()));
        assert_eq!(
            inj.read(0, 1, truth_at(2)),
            Some(PmuCounters::default()),
            "still frozen at what was last returned"
        );

        // Stale replays the previous quantum's true snapshot.
        let mut inj = single(FaultKind::Stale);
        let _ = inj.read(0, 0, truth);
        assert_eq!(inj.read(0, 1, truth_at(2)), Some(truth));
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
