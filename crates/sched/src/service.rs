//! The open-system scheduler service: streaming arrivals, detach on
//! completion, re-pairing under churn.
//!
//! The closed batch (§V-B) runs a fixed app list that relaunches in place
//! until the slowest app finishes its first launch. Production is an *open
//! system*: applications arrive continuously (`synpa_apps::workload::
//! poisson_trace` / `bursty_trace`), run one launch, and leave, so the
//! chip is perpetually partially full (odd occupancy included). This
//! module is that front end over the same per-quantum loop as the closed
//! batch (`manager.rs`), configured to admit through a bounded FIFO queue
//! that sheds the newest arrival, detach apps on completion, and retry
//! evicted apps with backoff under a budget. The survivors are re-paired
//! by the same [`Policy`] objects as the closed batch.
//!
//! Metrics are open-system latencies instead of batch TT: per-app
//! turnaround (completion − arrival) and on-chip sojourn (completion −
//! admission), queue depth and occupancy over time, and the shed count
//! under overload. See `docs/service.md` for the full rules.

use crate::chipfaults::ChipFaultStats;
use crate::manager::{
    DegradedStats, ManagerConfig, OnCompletion, QuantumLoop, QuantumRow, Recovery,
};
use crate::policy::Policy;
use synpa_apps::AppProfile;
use synpa_sim::ThreadProgram;

/// Open-system service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Chip, quantum length and the quanta cap (the cap bounds the run
    /// even if the trace never drains — the overload escape hatch).
    pub manager: ManagerConfig,
    /// Admission-queue bound. An arrival that finds `queue_capacity` apps
    /// already waiting is shed (drop-newest). Capacity 0 means no queueing
    /// at all: arrivals not immediately placeable are shed.
    pub queue_capacity: usize,
    /// Watchdog horizon: an on-chip app that retires zero instructions for
    /// this many consecutive quanta is declared hung and evicted. Catches
    /// the planned `Hang` execution fault (and anything else that wedges)
    /// without any privileged knowledge of the fault plan.
    pub watchdog_quanta: u64,
    /// Retry budget per app: an evicted app (core outage, crash, hang) is
    /// re-queued at most this many times; the next eviction reports it
    /// `failed`. Retries bypass the admission-capacity check — an admitted
    /// app is never shed (the drop-newest rule holds at the door only).
    pub max_retries: u32,
    /// Quanta an evicted app waits before its retry re-enters the queue —
    /// crash-looping apps must not hammer the admission path.
    pub retry_backoff_quanta: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            manager: ManagerConfig::default(),
            queue_capacity: 64,
            watchdog_quanta: 3,
            max_retries: 2,
            retry_backoff_quanta: 2,
        }
    }
}

/// One completed application's open-system outcome.
#[derive(Debug, Clone)]
pub struct ServiceApp {
    /// Trace arrival index.
    pub app: usize,
    /// Application name.
    pub name: String,
    /// Launch target in instructions.
    pub target: u64,
    /// Arrival cycle (entered the admission queue).
    pub arrival: u64,
    /// Admission cycle (attached to a hardware thread).
    pub admitted: u64,
    /// Completion cycle of the single launch.
    pub completed: u64,
}

impl ServiceApp {
    /// Turnaround time: completion − arrival (queue wait + on-chip time).
    pub fn turnaround(&self) -> u64 {
        self.completed - self.arrival
    }

    /// On-chip sojourn: completion − admission (service time under
    /// whatever SMT interference the pairing produced).
    pub fn sojourn(&self) -> u64 {
        self.completed - self.admitted
    }

    /// Queue wait: admission − arrival.
    pub fn queue_wait(&self) -> u64 {
        self.admitted - self.arrival
    }
}

/// Result of driving one arrival trace through the service.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Policy name.
    pub policy: String,
    /// Completed apps in completion order. Apps still queued or on chip
    /// when the quanta cap fired are *not* listed — they are censored, not
    /// assigned fabricated latencies (their count is the difference
    /// against the trace length minus `shed`).
    pub completed: Vec<ServiceApp>,
    /// Trace indices shed by admission control (queue full on arrival).
    pub shed: Vec<usize>,
    /// Trace indices that exhausted their retry budget (crash loop,
    /// repeated hang, or repeated eviction off failing cores) — the
    /// service's terminal failure outcome, in event order. Disjoint from
    /// `completed` and `shed`; on a drained run the three partition the
    /// trace exactly (release-asserted).
    pub failed: Vec<usize>,
    /// Admission-queue depth at each quantum boundary, after admission.
    pub queue_depth: Vec<usize>,
    /// On-chip app count at each quantum boundary, after admission.
    pub occupancy: Vec<usize>,
    /// Per-quantum characterization rows (same schema as the closed batch).
    pub trace: Vec<QuantumRow>,
    /// Quanta executed.
    pub quanta: u64,
    /// Cycle the service stopped at.
    pub end_cycle: u64,
    /// Thread migrations performed (core changes).
    pub migrations: u64,
    /// `true` when the service stopped because the trace was exhausted and
    /// both the queue and the chip were empty; `false` when the quanta cap
    /// cut it off with work still in flight (overload).
    pub drained: bool,
    /// Matching-layer counters (quanta answered by the lower bound /
    /// blossom solves), if the policy drives a pairing matcher.
    pub matcher: Option<synpa_matching::MatcherStats>,
    /// Sample-health and fault accounting (same schema as the closed
    /// batch). All-zero on a healthy source without fault injection.
    pub degraded: DegradedStats,
    /// Execution-fault accounting: cores lost, apps evacuated, crash/hang
    /// events, retries granted and retry budgets exhausted. All-zero
    /// without chip-fault injection.
    pub chip_faults: ChipFaultStats,
}

impl ServiceResult {
    /// Turnaround samples of all completed apps, completion order.
    pub fn turnarounds(&self) -> Vec<u64> {
        self.completed.iter().map(|a| a.turnaround()).collect()
    }

    /// On-chip sojourn samples of all completed apps, completion order.
    pub fn sojourns(&self) -> Vec<u64> {
        self.completed.iter().map(|a| a.sojourn()).collect()
    }

    /// Peak admission-queue depth over the run.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue_depth.iter().copied().max().unwrap_or(0)
    }
}

/// Drives `apps` (calibrated profiles, trace order) arriving at
/// `arrivals[k]` through the open-system service under `policy`.
///
/// The shared quantum loop, configured for the open system: due arrivals
/// stream into the bounded queue (shedding the newest when full), queued
/// apps are admitted FIFO onto free slots, first-launch completions
/// detach, and evicted apps are retried with backoff until their budget
/// runs out. The service stops when the trace is exhausted and the queue,
/// the retry backlog and the chip are all empty (`drained`), or at
/// `cfg.manager.max_quanta` (overload cap).
///
/// Deterministic: same trace, same config ⇒ byte-identical result, for
/// every engine and worker count (the engines are byte-equivalent and no
/// scheduling decision depends on wall clock).
pub fn run_service(
    apps: &[AppProfile],
    arrivals: &[u64],
    policy: &mut dyn Policy,
    cfg: &ServiceConfig,
) -> ServiceResult {
    let n = apps.len();
    assert_eq!(arrivals.len(), n, "one arrival cycle per app");
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrival trace must be sorted by cycle"
    );
    let recovery = Recovery::Retry {
        watchdog_quanta: cfg.watchdog_quanta,
        max_retries: cfg.max_retries,
        backoff_quanta: cfg.retry_backoff_quanta,
    };
    let mut run = QuantumLoop::new(
        apps,
        arrivals,
        &cfg.manager,
        OnCompletion::Detach,
        cfg.queue_capacity,
        recovery,
    );
    run.run(policy);

    // Conservation: every arrival reaches exactly one terminal outcome
    // (or, on a capped run, is still identifiably in flight). Kept as a
    // release assert — a service that loses track of admitted work must
    // abort rather than publish latency numbers.
    let (done, shed, failed) = (run.completed.len(), run.shed.len(), run.failed.len());
    let in_flight =
        run.queue.len() + run.chip.placement().len() + run.backlog.len() + (n - run.next_arrival);
    assert!(
        done + shed + failed + in_flight == n,
        "service must account for every arrival: {done} completed + {shed} shed + {failed} \
         failed + {in_flight} in flight != {n} (drained {})",
        run.drained
    );
    let completed = run
        .completed
        .iter()
        .map(|&k| ServiceApp {
            app: k,
            name: apps[k].name().to_string(),
            target: apps[k].length(),
            arrival: arrivals[k],
            admitted: run.attached_at[k].expect("a completed app was admitted"),
            completed: run.completed_at[k].expect("completion cycle recorded"),
        })
        .collect();
    ServiceResult {
        policy: policy.name().to_string(),
        completed,
        quanta: run.quantum,
        end_cycle: run.chip.cycle(),
        migrations: run.migrations,
        drained: run.drained,
        matcher: policy.matcher_stats(),
        degraded: run.degraded_stats(policy),
        chip_faults: run.chip_fault_stats(),
        shed: run.shed,
        failed: run.failed,
        queue_depth: run.queue_depth,
        occupancy: run.occupancy,
        trace: run.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LinuxLike, RandomPairing};
    use synpa_apps::spec;
    use synpa_sim::ChipConfig;

    fn service_apps(names: &[&str], length: u64) -> Vec<AppProfile> {
        names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(length))
            .collect()
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            manager: ManagerConfig {
                chip: ChipConfig::thunderx2(2), // 2 cores / 4 slots
                quantum_cycles: 10_000,
                max_quanta: 3_000,
                faults: None,
                chip_faults: None,
            },
            queue_capacity: 8,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn drains_a_simple_trace_and_measures_turnaround() {
        let apps = service_apps(&["nab_r", "hmmer", "leela_r", "astar", "gobmk"], 20_000);
        let arrivals = [0, 0, 5_000, 40_000, 200_000];
        let mut policy = LinuxLike;
        let r = run_service(&apps, &arrivals, &mut policy, &small_cfg());
        assert!(r.drained, "trace must drain");
        assert!(r.shed.is_empty());
        assert_eq!(r.completed.len(), 5, "every app completes exactly once");
        assert_eq!(*r.queue_depth.last().unwrap(), 0);
        assert_eq!(*r.occupancy.last().unwrap(), 0);
        for a in &r.completed {
            assert!(a.admitted >= a.arrival);
            assert!(a.completed > a.admitted);
            assert_eq!(a.turnaround(), a.queue_wait() + a.sojourn());
            // Solo floor: a launch can never beat one instruction per
            // dispatch slot per cycle.
            let floor = a.target / u64::from(small_cfg().manager.chip.core.dispatch_width);
            assert!(
                a.sojourn() >= floor.max(1),
                "{} finished {} insts in {} cycles",
                a.name,
                a.target,
                a.sojourn()
            );
        }
        // The last app arrives long after the rest finish: it runs alone
        // and its queue wait is zero.
        let last = r.completed.iter().find(|a| a.app == 4).unwrap();
        assert_eq!(last.queue_wait(), 0);
    }

    #[test]
    fn apps_detach_and_free_slots_for_the_backlog() {
        // 8 apps for 4 slots, all at cycle 0: the second half must wait in
        // the queue and only run once the first half detaches.
        let apps = service_apps(
            &[
                "nab_r", "hmmer", "leela_r", "astar", "gobmk", "nab_r", "hmmer", "leela_r",
            ],
            15_000,
        );
        let arrivals = [0; 8];
        let mut policy = LinuxLike;
        let r = run_service(&apps, &arrivals, &mut policy, &small_cfg());
        assert!(r.drained);
        assert_eq!(r.completed.len(), 8);
        assert_eq!(r.peak_queue_depth(), 4, "second wave queues");
        let late: Vec<_> = r.completed.iter().filter(|a| a.app >= 4).collect();
        assert!(
            late.iter().all(|a| a.queue_wait() > 0),
            "backlogged apps waited for a detach"
        );
    }

    #[test]
    fn full_queue_sheds_newest_and_reports_them() {
        // Queue capacity 1 on a 4-slot chip, 9 simultaneous arrivals: 4
        // attach, 1 queues, 4 are shed — deterministically the newest.
        let apps = service_apps(
            &[
                "nab_r", "hmmer", "leela_r", "astar", "gobmk", "nab_r", "hmmer", "leela_r", "astar",
            ],
            15_000,
        );
        let arrivals = [0; 9];
        let cfg = ServiceConfig {
            queue_capacity: 1,
            ..small_cfg()
        };
        let mut policy = LinuxLike;
        let r = run_service(&apps, &arrivals, &mut policy, &cfg);
        assert!(r.drained);
        assert_eq!(r.shed, vec![5, 6, 7, 8], "drop-newest, in arrival order");
        assert_eq!(r.completed.len(), 5);
        assert_eq!(r.completed.len() + r.shed.len(), 9);
    }

    #[test]
    fn overload_hits_the_cap_without_fabricating_latencies() {
        // Apps far too long for the cap: nothing completes, nothing is
        // invented — the result just reports the censored state.
        let apps = service_apps(&["mcf", "mcf", "mcf", "mcf"], 10_000_000);
        let arrivals = [0; 4];
        let cfg = ServiceConfig {
            manager: ManagerConfig {
                chip: ChipConfig::thunderx2(2),
                quantum_cycles: 10_000,
                max_quanta: 10,
                faults: None,
                chip_faults: None,
            },
            queue_capacity: 8,
            ..ServiceConfig::default()
        };
        let mut policy = LinuxLike;
        let r = run_service(&apps, &arrivals, &mut policy, &cfg);
        assert!(!r.drained, "cap fired with work in flight");
        assert_eq!(r.quanta, 10);
        assert!(r.completed.is_empty());
        assert_eq!(*r.occupancy.last().unwrap(), 4);
    }

    #[test]
    fn odd_occupancy_is_routine_under_a_migrating_policy() {
        // Staggered arrivals of 7 apps: the chip spends most of the run at
        // odd occupancy while RandomPairing re-pairs every quantum.
        let apps = service_apps(
            &[
                "nab_r", "hmmer", "leela_r", "astar", "gobmk", "nab_r", "hmmer",
            ],
            20_000,
        );
        let arrivals = [0, 0, 0, 30_000, 30_000, 60_000, 90_000];
        let mut policy = RandomPairing::new(11);
        let r = run_service(&apps, &arrivals, &mut policy, &small_cfg());
        assert!(r.drained);
        assert_eq!(r.completed.len(), 7);
        assert!(
            r.occupancy.iter().any(|&o| o % 2 == 1),
            "the run must actually pass through odd occupancy"
        );
    }

    #[test]
    fn identical_inputs_are_bit_identical() {
        let apps = service_apps(&["nab_r", "hmmer", "leela_r", "astar"], 20_000);
        let arrivals = [0, 0, 15_000, 15_000];
        let run = || {
            let mut policy = RandomPairing::new(3);
            run_service(&apps, &arrivals, &mut policy, &small_cfg())
        };
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }

    fn chaos_cfg(rate: f64) -> ServiceConfig {
        ServiceConfig {
            manager: ManagerConfig {
                chip: ChipConfig::thunderx2(4), // 4 cores / 8 slots
                quantum_cycles: 10_000,
                max_quanta: 3_000,
                faults: None,
                chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(3, rate)),
            },
            queue_capacity: 8,
            ..ServiceConfig::default()
        }
    }

    /// The headline robustness scenario: a rate-1.0 plan gives every app a
    /// planned crash or hang and regularly takes cores down, yet the
    /// service completes the trace without panicking, retries evicted apps
    /// through the queue, and reports the ones that exhaust their budget as
    /// `failed` — with the three outcome sets partitioning the trace.
    #[test]
    fn execution_faults_are_survived_and_reported_honestly() {
        let apps = service_apps(
            &["nab_r", "hmmer", "leela_r", "astar", "gobmk", "mcf"],
            200_000,
        );
        let arrivals = [0, 0, 20_000, 20_000, 40_000, 60_000];
        let mut policy = RandomPairing::new(7);
        let cfg = chaos_cfg(1.0);
        let r = run_service(&apps, &arrivals, &mut policy, &cfg);
        assert!(r.drained, "every app must reach a terminal outcome");
        assert_eq!(
            r.completed.len() + r.shed.len() + r.failed.len(),
            6,
            "outcomes partition the trace: {r:?}"
        );
        assert!(
            !r.failed.is_empty(),
            "a rate-1.0 fault plan must exhaust someone's retry budget: {:?}",
            r.chip_faults
        );
        let s = r.chip_faults;
        assert!(
            s.apps_crashed + s.apps_hung > 0,
            "planned app faults must fire: {s:?}"
        );
        assert!(s.retries > 0, "evictions must be retried first: {s:?}");
        assert_eq!(s.failed, r.failed.len() as u64);
        // A failed app burned its full budget: the failure event is its
        // (max_retries + 1)-th eviction.
        for &app in &r.failed {
            assert!(
                !r.completed.iter().any(|a| a.app == app),
                "app {app} both completed and failed"
            );
        }
    }

    /// A rate-0 chip-fault plan must be indistinguishable from no plan at
    /// all — the structural `chance(0.0) == false` guarantee surfacing at
    /// the service level (the zero-rate identity the CI byte-diffs).
    #[test]
    fn zero_rate_chip_faults_are_byte_identical_to_none() {
        let apps = service_apps(&["nab_r", "hmmer", "leela_r", "astar"], 20_000);
        let arrivals = [0, 0, 15_000, 15_000];
        let run = |cfg: &ServiceConfig| {
            let mut policy = RandomPairing::new(3);
            format!("{:?}", run_service(&apps, &arrivals, &mut policy, cfg))
        };
        let plain = run(&small_cfg());
        let zero = run(&ServiceConfig {
            manager: ManagerConfig {
                chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(7, 0.0)),
                ..small_cfg().manager
            },
            ..small_cfg()
        });
        // The zero-rate run carries the (all-zero) stats struct either way;
        // everything else must match field for field.
        assert_eq!(plain, zero);
    }

    /// Retried work is censored, never fabricated: a completed app that
    /// went through an eviction still reports completion − arrival as its
    /// turnaround (the lost partial launch is inside that window, unpaid).
    #[test]
    fn moderate_fault_rate_still_drains_with_honest_latencies() {
        let apps = service_apps(
            &["nab_r", "hmmer", "leela_r", "astar", "gobmk", "nab_r"],
            50_000,
        );
        let arrivals = [0, 0, 10_000, 20_000, 30_000, 40_000];
        let mut policy = LinuxLike;
        let cfg = chaos_cfg(0.3);
        let r = run_service(&apps, &arrivals, &mut policy, &cfg);
        assert!(r.drained);
        assert_eq!(r.completed.len() + r.shed.len() + r.failed.len(), 6);
        let width = u64::from(cfg.manager.chip.core.dispatch_width);
        for a in &r.completed {
            assert!(a.completed > a.arrival);
            assert!(
                a.sojourn() >= (a.target / width).max(1),
                "{} finished impossibly fast after faults",
                a.name
            );
        }
    }
}
