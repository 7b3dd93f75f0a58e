//! The quantum manager: the reproduction of the paper's user-level thread
//! manager (§V-A), and the one per-quantum loop behind both front ends.
//!
//! At every quantum boundary the loop applies the chip-fault plan, admits
//! waiting apps onto free slots, advances the chip one quantum, handles
//! first-launch completions, reads each placed app's PMU counters through
//! the fault injector (under `--faults`) into the sanitizer, asks the
//! policy for a placement and applies it. The loop keeps no per-quantum
//! rows; a caller that wants them wraps its policy in a [`crate::RowLog`].
//! Two front ends configure it:
//!
//! * [`run_workload`] / [`run_workload_with_arrivals`] — the closed batch
//!   of the §V-B methodology: each application runs to a target
//!   instruction count and is relaunched immediately so the machine load
//!   stays constant; the workload is finished when the slowest application
//!   completes its first launch;
//! * [`crate::run_service`] — the open system: bounded admission with
//!   shedding, detach on completion, self-healing retries.
//!
//! The front ends pass only a [`FrontEnd`]: the closed batch, or the open
//! system with its admission-queue bound. That one choice decides what a
//! completion does, how admission is bounded and how an evicted app
//! recovers; the table in `docs/service.md` lists the differences.

use crate::chipfaults::ChipFaultDriver;
use crate::policy::{Policy, QuantumView};
use crate::service::{MAX_RETRIES, RETRY_BACKOFF_QUANTA, WATCHDOG_QUANTA};
use crate::stats::RunStats;
use std::collections::VecDeque;
use synpa_apps::AppProfile;
use synpa_counters::{FaultConfig, FaultInjector, SanitizingSession};
use synpa_sim::{AppFault, Chip, ChipConfig, ChipFaultConfig, Slot, ThreadProgram, SMT_CONTEXTS};

/// Final per-application result.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Workload arrival index.
    pub app: usize,
    /// Application name.
    pub name: String,
    /// Target instructions per launch (§V-B).
    pub target: u64,
    /// Turnaround time in cycles, measured from the app's arrival. For a
    /// completed app this is the first-launch completion; for an app the
    /// quanta cap cut off mid-flight it is the censored elapsed time (a
    /// lower bound on the true TT); for an app that never reached the chip
    /// it is 0. Check [`AppResult::completed`] before treating it as a
    /// turnaround measurement.
    pub tt_cycles: u64,
    /// IPC of the first launch. Completed apps report `target / tt_cycles`;
    /// capped-but-running apps report the *measured* IPC of their partial
    /// launch (retired instructions over on-chip cycles) — never a value
    /// fabricated from a clamped turnaround; never-placed apps report 0.
    pub ipc: f64,
    /// Isolated-execution IPC reference (from target-length measurement).
    pub solo_ipc: f64,
    /// Whether the first launch actually completed within the quanta cap.
    /// When `false`, `tt_cycles` and `ipc` are censored observations (or
    /// zero for an app that never arrived/was never placed), not results.
    pub completed: bool,
}

impl AppResult {
    /// Individual speedup vs. isolated execution (≤ 1 under interference);
    /// the quantity fairness is computed over (§VI-D).
    pub fn individual_speedup(&self) -> f64 {
        self.ipc / self.solo_ipc
    }
}

/// Result of running one workload under one policy.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy name.
    pub policy: String,
    /// Workload turnaround time: the slowest application's first-launch
    /// completion, in cycles (§VI-B).
    pub tt_cycles: u64,
    /// Per-application outcomes, in arrival order.
    pub per_app: Vec<AppResult>,
    /// Quanta executed.
    pub quanta: u64,
    /// Thread migrations performed (core changes).
    pub migrations: u64,
    /// `true` when the `max_quanta` cap fired with at least one app still
    /// unfinished (its [`AppResult::completed`] is `false`); the workload
    /// TT is then a lower bound, not a measurement.
    pub capped: bool,
    /// Sample health, injected faults, guardrails, matcher, chip faults
    /// and censored apps. The closed batch only evacuates and re-queues
    /// (no retry cap), so its crash/hang/retry/failed counters stay zero.
    pub stats: RunStats,
}

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Chip to simulate (the evaluation uses 4 SMT2 cores for 8 apps).
    pub chip: ChipConfig,
    /// Cycles per scheduling quantum (the paper's 100 ms, scaled).
    pub quantum_cycles: u64,
    /// Hard cap on quanta (safety against livelock).
    pub max_quanta: u64,
    /// Seeded counter-fault injection (chaos testing). `None` — the
    /// default — reads the chip directly and is byte-identical to the
    /// pre-fault-layer behaviour.
    pub faults: Option<FaultConfig>,
    /// Seeded execution-fault injection: core offlining/outages/derating
    /// plus app crash/hang plans (see `docs/robustness.md`). `None` — the
    /// default — runs a healthy chip and is byte-identical to the
    /// pre-chip-fault behaviour.
    pub chip_faults: Option<ChipFaultConfig>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            chip: ChipConfig::thunderx2(4),
            quantum_cycles: 10_000,
            max_quanta: 3_000,
            faults: None,
            chip_faults: None,
        }
    }
}

/// Runs `apps` (with launch targets already set) under `policy` until every
/// application finishes its first launch. Equivalent to
/// [`run_workload_with_arrivals`] with every app arriving at cycle 0.
///
/// `solo_ipc[k]` is app *k*'s isolated IPC reference. Initial placement is
/// arrival order — app *k* shares core *k mod cores* with app *k + n/2*,
/// matching the Linux placement observed in §VI-C.
pub fn run_workload(
    apps: &[AppProfile],
    solo_ipc: &[f64],
    policy: &mut dyn Policy,
    cfg: &ManagerConfig,
) -> RunResult {
    run_workload_with_arrivals(apps, solo_ipc, policy, cfg, &[])
}

/// First free hardware-thread slot in (context, core) order: arriving apps
/// fill context 0 of every core before any core runs two threads. With
/// every app arriving at cycle 0 this reproduces the classic arrival-order
/// placement (app *k* on ctx 0 of core *k*, app *k + n/2* on ctx 1 of core
/// *k*); mid-run it is the "place on an idle core first" behaviour of a
/// load-balancing OS. `None` means the chip is full — the caller keeps the
/// app waiting until a slot frees. Cores out of service are skipped: a
/// slot on an offlined core is not free capacity.
pub fn first_free_slot(chip: &Chip) -> Option<Slot> {
    let cores = chip.config().cores as usize;
    let occupied: std::collections::HashSet<usize> =
        chip.placement().iter().map(|&(_, s)| s.0).collect();
    for ctx in 0..SMT_CONTEXTS {
        for core in 0..cores {
            if !chip.core_available(core) {
                continue;
            }
            let slot = Slot::new(core, ctx);
            if !occupied.contains(&slot.0) {
                return Some(slot);
            }
        }
    }
    None
}

/// [`run_workload`] with per-app arrival cycles (`arrivals[k]` for app *k*;
/// an empty slice means everyone arrives at cycle 0). Any other length
/// mismatch panics — a truncated arrival list would otherwise silently run
/// the tail at cycle 0 and corrupt per-app turnaround times.
///
/// Apps may underfill the chip (partial occupancy), overfill it
/// (oversubscription), and may arrive staggered: each app is attached at
/// the first quantum boundary at or after its arrival cycle, onto the
/// first free slot in (context, core) order; an app arriving while the
/// chip is full stays pending (FIFO) until a slot frees. In this closed
/// batch no slot ever frees (apps relaunch in place, §V-B), so an
/// oversubscribed workload runs to the quanta cap and the never-placed
/// tail is flagged `completed: false` — it does not panic. Waves may be
/// any size, including odd: a core then simply runs one thread, and the
/// pairing policies place the unpaired app alone. Each app's turnaround
/// time is measured from its own arrival. Apps stranded by a core outage
/// re-attach ahead of new arrivals as soon as a slot is free; the
/// instructions their lost thread had retired are censored, never
/// credited back.
pub fn run_workload_with_arrivals(
    apps: &[AppProfile],
    solo_ipc: &[f64],
    policy: &mut dyn Policy,
    cfg: &ManagerConfig,
    arrivals: &[u64],
) -> RunResult {
    let n = apps.len();
    assert_eq!(solo_ipc.len(), n);
    // A partially-filled arrivals slice is almost always a bug (a workload
    // edited without its arrival list): refusing it beats silently running
    // the truncated tail at cycle 0 and reporting wrong turnaround times.
    assert!(
        arrivals.is_empty() || arrivals.len() == n,
        "arrivals length {} does not match the workload's {n} apps \
         (pass one arrival cycle per app, or an empty slice for all-at-0)",
        arrivals.len()
    );
    let arrivals = if arrivals.is_empty() {
        vec![0; n]
    } else {
        arrivals.to_vec()
    };
    let mut run = QuantumLoop::new(apps, &arrivals, cfg, FrontEnd::Closed);
    run.run(policy);

    // End-of-run accounting. An app the cap cut off mid-flight reports its
    // censored elapsed time and its *measured* partial-launch IPC (retired
    // instructions of its current thread over the cycles since that thread
    // attached); an app that never reached the chip (arrived after the
    // cap, or kept pending by a full chip) reports zeroes. Both are flagged
    // `completed: false` — never an IPC fabricated from a clamped TT.
    let end_cycle = run.chip.cycle();
    let per_app = apps
        .iter()
        .enumerate()
        .map(|(k, app)| {
            let (tt_cycles, ipc, completed) = match (run.completed_at[k], run.attached_at[k]) {
                (Some(done), _) => {
                    let t = done - arrivals[k];
                    (t, app.length() as f64 / t.max(1) as f64, true)
                }
                (None, Some(at)) => {
                    let retired = run.chip.pmu_of(k).map(|p| p.inst_retired).unwrap_or(0);
                    let on_chip = end_cycle.saturating_sub(at).max(1);
                    (
                        end_cycle.saturating_sub(arrivals[k]),
                        retired as f64 / on_chip as f64,
                        false,
                    )
                }
                (None, None) => (0, 0.0, false),
            };
            AppResult {
                app: k,
                name: app.name().to_string(),
                target: app.length(),
                tt_cycles,
                ipc,
                solo_ipc: solo_ipc[k],
                completed,
            }
        })
        .collect::<Vec<_>>();
    RunResult {
        policy: policy.name().to_string(),
        tt_cycles: per_app.iter().map(|a| a.tt_cycles).max().unwrap_or(0),
        capped: per_app.iter().any(|a| !a.completed),
        per_app,
        quanta: run.quantum,
        migrations: run.migrations,
        stats: run.stats,
    }
}

/// The front end a loop serves, and with it everything the two front ends
/// do differently (the table in `docs/service.md`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrontEnd {
    /// Closed batch (§V-B). A first-launch completion is recorded and the
    /// chip relaunches the app in place; admission is unbounded; evacuees
    /// re-attach ahead of any arrival, from the same boundary on (no
    /// planned crash/hang, no watchdog, no budget). The run stops before
    /// the boundary at which every app has completed (or the cap is
    /// reached); every quantum samples in ascending app-id order and
    /// consults the policy, even on an empty chip.
    Closed,
    /// Open system. A completed app is detached at the boundary; a full
    /// admission queue of `queue_capacity` apps sheds the newest arrival;
    /// an app that lost its thread gets the planned crash/hang faults, the
    /// watchdog and a capped retry budget with backoff
    /// ([`WATCHDOG_QUANTA`], [`MAX_RETRIES`], [`RETRY_BACKOFF_QUANTA`]).
    /// The run stops after admission once the trace is drained (or the cap
    /// is reached), records queue depth and occupancy at every boundary,
    /// samples in slot order and skips the policy on an empty chip.
    Open {
        /// Admission-queue bound.
        queue_capacity: usize,
    },
}

/// The one quantum loop and the state it carries between boundaries.
pub(crate) struct QuantumLoop<'a> {
    apps: &'a [AppProfile],
    arrivals: &'a [u64],
    cfg: &'a ManagerConfig,
    front: FrontEnd,
    pub(crate) chip: Chip,
    session: SanitizingSession,
    injector: Option<FaultInjector>,
    driver: Option<ChipFaultDriver>,
    /// App ids in (arrival, id) order, consumed through a cursor.
    order: Vec<usize>,
    pub(crate) next_arrival: usize,
    /// Due apps waiting for a free slot, FIFO.
    pub(crate) queue: VecDeque<usize>,
    /// Evicted apps waiting to re-enter, as `(due_quantum, app)`: in the
    /// closed batch due at once and attached ahead of the queue, in the
    /// open system due after the (constant) backoff and appended to the
    /// queue. Due quanta are nondecreasing in push order.
    pub(crate) backlog: VecDeque<(u64, usize)>,
    /// Arrivals refused at the door (queue full), in arrival order.
    pub(crate) shed: Vec<usize>,
    /// Apps that exhausted their retry budget, in event order.
    pub(crate) failed: Vec<usize>,
    /// Open-system state per app: retries granted, and the watchdog's last
    /// observed retired-instruction counter, consecutive zero-progress
    /// quanta and whether the planned hang already fired.
    retries: Vec<u32>,
    last_retired: Vec<u64>,
    stalled: Vec<u64>,
    hang_applied: Vec<bool>,
    /// Cycle of each app's latest attach. A re-attached app runs on a new
    /// thread whose PMU starts from zero, so every attach updates it.
    pub(crate) attached_at: Vec<Option<u64>>,
    /// First-launch completion cycle per app, and the completion order.
    pub(crate) completed_at: Vec<Option<u64>>,
    pub(crate) completed: Vec<usize>,
    /// Queue depth and occupancy after admission at each boundary
    /// ([`FrontEnd::Open`] only).
    pub(crate) queue_depth: Vec<usize>,
    pub(crate) occupancy: Vec<usize>,
    pub(crate) quantum: u64,
    pub(crate) migrations: u64,
    /// The run's accounting, filled where each event happens and
    /// completed by [`QuantumLoop::run`] on exit.
    pub(crate) stats: RunStats,
    /// Stopped because the trace, the queue, the backlog and the chip
    /// were all empty ([`FrontEnd::Open`] only).
    pub(crate) drained: bool,
}

impl<'a> QuantumLoop<'a> {
    /// A loop over `apps` arriving at `arrivals[k]` (one per app).
    pub(crate) fn new(
        apps: &'a [AppProfile],
        arrivals: &'a [u64],
        cfg: &'a ManagerConfig,
        front: FrontEnd,
    ) -> Self {
        let n = apps.len();
        let driver = cfg
            .chip_faults
            .as_ref()
            .map(|fc| ChipFaultDriver::new(fc, cfg.chip.cores as usize));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&k| (arrivals[k], k));
        QuantumLoop {
            apps,
            arrivals,
            cfg,
            front,
            chip: Chip::new(cfg.chip.clone()),
            session: SanitizingSession::new(cfg.quantum_cycles),
            injector: cfg.faults.as_ref().map(FaultInjector::new),
            driver,
            order,
            next_arrival: 0,
            queue: VecDeque::new(),
            backlog: VecDeque::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            retries: vec![0; n],
            last_retired: vec![0; n],
            stalled: vec![0; n],
            hang_applied: vec![false; n],
            attached_at: vec![None; n],
            completed_at: vec![None; n],
            completed: Vec::new(),
            queue_depth: Vec::new(),
            occupancy: Vec::new(),
            quantum: 0,
            migrations: 0,
            stats: RunStats::default(),
            drained: false,
        }
    }

    /// Runs quanta until the front end's stop condition or the cap, then
    /// completes the stats.
    pub(crate) fn run(&mut self, policy: &mut dyn Policy) {
        let closed = self.front == FrontEnd::Closed;
        let n = self.apps.len();
        let width = self.cfg.chip.core.dispatch_width;
        loop {
            if closed && (self.quantum >= self.cfg.max_quanta || self.completed.len() == n) {
                break;
            }
            // 1. Execution faults: the plan may take cores out of service
            //    at this boundary, stranding their residents. Their threads
            //    are gone (progress censored) and recovery decides whether
            //    and when they run again.
            let mut evacuated = 0;
            if let Some(drv) = self.driver.as_mut() {
                let stranded = drv.apply(&mut self.chip, self.quantum, &mut self.stats);
                evacuated = stranded.len();
                for app in stranded {
                    self.evict(app);
                }
            }
            // 2. Admission.
            self.admit();
            if !closed {
                let occupied = self.chip.placement().len();
                self.queue_depth.push(self.queue.len());
                self.occupancy.push(occupied);
                if self.next_arrival == n
                    && self.queue.is_empty()
                    && self.backlog.is_empty()
                    && occupied == 0
                {
                    self.drained = true;
                    break;
                }
                if self.quantum >= self.cfg.max_quanta {
                    break;
                }
            }
            // 3. One quantum, to the absolute boundary (an empty chip still
            //    advances through idle gaps). Turnaround uses the exact
            //    completion cycle, not the boundary.
            let events = self
                .chip
                .run_until((self.quantum + 1) * self.cfg.quantum_cycles);
            for ev in &events {
                if ev.launch == 0 && self.completed_at[ev.app_id].is_none() {
                    self.complete(ev.app_id, ev.cycle);
                }
            }
            // 4. Planned app faults and the watchdog.
            self.recover();
            // 5. Sample the apps on the chip (unplaced apps must never
            //    reach the sanitizer: a held-over row for an app with no
            //    slot would poison the policy view) and re-pair them.
            let placement = self.chip.placement();
            if closed || !placement.is_empty() {
                let mut ids: Vec<usize> = placement.iter().map(|&(a, _)| a).collect();
                if closed {
                    ids.sort_unstable();
                }
                let q = self.quantum;
                let (chip, injector) = (&self.chip, &mut self.injector);
                let sanitized = self.session.sample(&ids, q, |app| {
                    let truth = *chip.pmu_of(app)?;
                    match injector {
                        Some(inj) => inj.read(app, q, truth),
                        None => Some(truth),
                    }
                });
                if !sanitized.is_clean() {
                    self.stats.degraded_quanta += 1;
                }
                // An empty availability mask is the healthy fast path
                // (policies treat it as all-available).
                let availability = if self.driver.is_some() {
                    self.chip.availability()
                } else {
                    Vec::new()
                };
                let view = QuantumView {
                    quantum: q,
                    samples: &sanitized.samples,
                    placement: &placement,
                    smt_ways: SMT_CONTEXTS,
                    dispatch_width: width,
                    degraded: &sanitized.degraded,
                    availability: &availability,
                    evacuated,
                };
                if let Some(new_placement) = policy.decide(&view) {
                    for &(app, new_slot) in &new_placement {
                        let old = self.chip.slot_of(app).expect("only placed apps are moved");
                        if old.core() != new_slot.core() {
                            self.migrations += 1;
                        }
                    }
                    self.chip.set_placement(&new_placement);
                }
            }
            self.quantum += 1;
        }
        self.finish_stats(policy);
    }

    /// Due evictions re-enter first: evacuees (closed batch) attach ahead
    /// of the queue; retries (open system) rejoin it, bypassing the
    /// capacity check — an admitted app is never shed. Then every arrival
    /// due by now streams through admission in arrival order. The queue is
    /// drained onto free slots before each capacity check, so an arrival is
    /// shed only against the true backlog (drop-newest: a full queue
    /// refuses the arrival at the door; queued apps are never evicted).
    fn admit(&mut self) {
        while let Some(&(due, app)) = self.backlog.front() {
            if due > self.quantum {
                break;
            }
            if self.front == FrontEnd::Closed {
                let Some(slot) = first_free_slot(&self.chip) else {
                    break;
                };
                self.attach(slot, app);
            } else {
                self.queue.push_back(app);
            }
            self.backlog.pop_front();
        }
        let capacity = match self.front {
            FrontEnd::Closed => usize::MAX,
            FrontEnd::Open { queue_capacity } => queue_capacity,
        };
        let now = self.chip.cycle();
        while let Some(&k) = self.order.get(self.next_arrival) {
            if self.arrivals[k] > now {
                break;
            }
            self.drain_queue();
            if self.queue.len() < capacity {
                self.queue.push_back(k);
            } else if self.queue.is_empty() {
                // Capacity 0: no waiting room, but an arrival that can
                // attach right now still runs.
                match first_free_slot(&self.chip) {
                    Some(slot) => self.attach(slot, k),
                    None => self.shed.push(k),
                }
            } else {
                self.shed.push(k);
            }
            self.next_arrival += 1;
        }
        self.drain_queue();
    }

    /// FIFO: a blocked head of line blocks everyone behind it.
    fn drain_queue(&mut self) {
        while let Some(&k) = self.queue.front() {
            let Some(slot) = first_free_slot(&self.chip) else {
                break;
            };
            self.queue.pop_front();
            self.attach(slot, k);
        }
    }

    fn attach(&mut self, slot: Slot, app: usize) {
        self.chip
            .attach(slot, app, Box::new(self.apps[app].clone()));
        self.attached_at[app] = Some(self.chip.cycle());
    }

    fn detach(&mut self, app: usize) {
        let slot = self.chip.slot_of(app).expect("placed app has a slot");
        self.chip.detach(slot);
    }

    fn complete(&mut self, app: usize, cycle: u64) {
        self.completed_at[app] = Some(cycle);
        self.completed.push(app);
        if self.front != FrontEnd::Closed {
            // The chip relaunched it at completion; that partial second
            // launch is discarded — the open system runs each app once.
            self.detach(app);
            self.session.forget(app);
        }
    }

    /// `app` lost its thread (core outage, crash, hang). In the closed
    /// batch it waits to re-attach; in the open system it gets a backed-off
    /// retry while its budget lasts and is reported failed after. Progress
    /// is censored either way: the next attach restarts the launch.
    fn evict(&mut self, app: usize) {
        self.session.forget(app);
        if self.front == FrontEnd::Closed {
            self.backlog.push_back((self.quantum, app));
            return;
        }
        self.last_retired[app] = 0;
        self.stalled[app] = 0;
        self.hang_applied[app] = false;
        if self.retries[app] >= MAX_RETRIES {
            self.failed.push(app);
            self.stats.failed += 1;
        } else {
            self.retries[app] += 1;
            self.stats.retries += 1;
            self.backlog
                .push_back((self.quantum + 1 + RETRY_BACKOFF_QUANTA, app));
        }
    }

    /// Open system under a chip-fault plan: planned execution faults
    /// (drawn from the pure plan) on the survivors, then the watchdog.
    /// Completion wins a same-quantum tie
    /// (its detach already ran). Crashes detach immediately; hangs wedge
    /// the thread in place and are caught by the watchdog like any other
    /// app with zero retirement for [`WATCHDOG_QUANTA`] consecutive quanta —
    /// it reads only the public PMU, never the fault plan.
    fn recover(&mut self) {
        let plan = match self.cfg.chip_faults {
            Some(plan) if self.front != FrontEnd::Closed => plan,
            _ => return,
        };
        for app in self.placed_ids() {
            let (crash, frac) = match plan.app_fault(app) {
                Some(AppFault::Crash { frac }) => (true, frac),
                Some(AppFault::Hang { frac }) => (false, frac),
                None => continue,
            };
            // A fraction of the launch target: it always fires before a
            // healthy completion.
            if self.retired(app) < (frac * self.apps[app].length() as f64) as u64 {
                continue;
            }
            if crash {
                self.detach(app);
                self.stats.apps_crashed += 1;
                self.evict(app);
            } else if !self.hang_applied[app] {
                self.chip.hang_app(app);
                self.hang_applied[app] = true;
                self.stats.apps_hung += 1;
            }
        }
        for app in self.placed_ids() {
            let retired = self.retired(app);
            if retired == self.last_retired[app] {
                self.stalled[app] += 1;
            } else {
                self.stalled[app] = 0;
                self.last_retired[app] = retired;
            }
            if self.stalled[app] >= WATCHDOG_QUANTA {
                self.detach(app);
                self.evict(app);
            }
        }
    }

    fn placed_ids(&self) -> Vec<usize> {
        self.chip.placement().iter().map(|&(a, _)| a).collect()
    }

    fn retired(&self, app: usize) -> u64 {
        self.chip.pmu_of(app).map_or(0, |p| p.inst_retired)
    }

    /// Copies in what other layers count themselves — the sanitizer
    /// ledger, the injector's per-kind counts, the policy's matcher and
    /// guardrail counters — and the apps left without a terminal outcome.
    fn finish_stats(&mut self, policy: &dyn Policy) {
        let health = self.session.totals();
        let matcher = policy.matcher_stats().unwrap_or_default();
        let guard = policy.guardrail_stats().unwrap_or_default();
        let s = &mut self.stats;
        s.samples_ok = health.ok;
        s.samples_clamped = health.clamped;
        s.samples_held = health.held;
        s.samples_missing = health.missing;
        s.injected = self
            .injector
            .as_ref()
            .map_or_else(Default::default, |i| i.injected());
        s.fallback_entries = guard.fallback_entries;
        s.fallback_quanta = guard.fallback_quanta;
        s.matcher_calls = matcher.calls;
        s.matcher_bound = matcher.certificate_hits;
        s.matcher_solves = matcher.cold_solves;
        s.censored =
            (self.apps.len() - self.completed.len() - self.shed.len() - self.failed.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LinuxLike, QuantumRow, RandomPairing, RowLog};
    use synpa_apps::spec;

    /// [`run_workload`] with `policy` inside a [`RowLog`]: the result and
    /// the rows the recorder saw.
    fn run_with_rows(
        apps: &[AppProfile],
        solo: &[f64],
        policy: &mut dyn Policy,
        cfg: &ManagerConfig,
    ) -> (RunResult, Vec<QuantumRow>) {
        let mut log = RowLog::new(policy);
        let result = run_workload(apps, solo, &mut log, cfg);
        (result, log.rows)
    }

    fn small_workload() -> (Vec<AppProfile>, Vec<f64>) {
        let names = [
            "mcf",
            "xalancbmk_r",
            "gobmk",
            "perlbench",
            "nab_r",
            "hmmer",
            "leela_r",
            "astar",
        ];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(30_000))
            .collect();
        let solo = vec![1.0; 8];
        (apps, solo)
    }

    #[test]
    fn linux_run_completes_and_reports() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert_eq!(result.per_app.len(), 8);
        assert!(result.quanta > 0);
        assert_eq!(result.migrations, 0, "Linux never migrates");
        assert!(result.tt_cycles > 0);
        assert_eq!(
            result.tt_cycles,
            result.per_app.iter().map(|a| a.tt_cycles).max().unwrap()
        );
        // Every app retired its target eventually (within the quanta cap).
        assert!(result.quanta < cfg.max_quanta, "workload should finish");
    }

    #[test]
    fn trace_rows_cover_every_app_every_quantum() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let (_, rows) = run_with_rows(&apps, &solo, &mut LinuxLike, &cfg);
        let rows_q0: Vec<_> = rows.iter().filter(|r| r.quantum == 0).collect();
        assert_eq!(rows_q0.len(), 8);
        // Co-runner symmetry within a quantum.
        for r in &rows_q0 {
            let partner = rows_q0.iter().find(|p| p.app == r.co_runner).unwrap();
            assert_eq!(partner.co_runner, r.app);
        }
    }

    /// Under the closed batch the recorder sees exactly one row per placed
    /// app per quantum (Figs. 6/7 and Table V read them). Under either
    /// front end it only observes: the run is the same without it.
    #[test]
    fn the_recorder_logs_one_row_per_placed_app_per_quantum() {
        let (apps, _) = small_workload();
        let cfg = ManagerConfig::default();
        // Staggered arrivals, so the placed set changes under the run.
        let arrivals: Vec<u64> = (0..8).map(|k| k * 15_000).collect();
        let mut closed = QuantumLoop::new(&apps, &arrivals, &cfg, FrontEnd::Closed);
        let mut policy = RandomPairing::new(5);
        let mut log = RowLog::new(&mut policy);
        closed.run(&mut log);
        let trace = log.rows;
        assert!(closed.quantum > 0 && closed.completed.len() == 8);
        let mut logged = 0;
        for q in 0..closed.quantum {
            // Healthy closed batch: an app stays placed from its attach on.
            let boundary = q * cfg.quantum_cycles;
            let placed: Vec<usize> = (0..apps.len())
                .filter(|&k| closed.attached_at[k].is_some_and(|c| c <= boundary))
                .collect();
            let rows: Vec<usize> = trace
                .iter()
                .filter(|r| r.quantum == q)
                .map(|r| r.app)
                .collect();
            assert_eq!(rows, placed, "quantum {q}");
            logged += rows.len();
        }
        assert_eq!(trace.len(), logged, "no row outside the run");
        assert!(logged < 8 * closed.quantum as usize, "occupancy varied");

        // The recorder only observes: with or without it, either front
        // end runs the same quanta, migrations, completions and stats.
        let outcome = |front: FrontEnd, record: bool| {
            let mut run = QuantumLoop::new(&apps, &arrivals, &cfg, front);
            let mut policy = RandomPairing::new(5);
            if record {
                run.run(&mut RowLog::new(&mut policy));
            } else {
                run.run(&mut policy);
            }
            assert!(run.quantum > 0 && run.completed.len() == 8);
            assert_eq!(run.drained, front != FrontEnd::Closed);
            let s = (run.quantum, run.migrations, run.completed_at, run.stats);
            format!("{s:?}")
        };
        for front in [FrontEnd::Closed, FrontEnd::Open { queue_capacity: 8 }] {
            assert_eq!(
                outcome(front, true),
                outcome(front, false),
                "recording changed the run"
            );
        }
    }

    #[test]
    fn random_policy_migrates() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let mut policy = RandomPairing::new(3);
        let result = run_workload(&apps, &solo, &mut policy, &cfg);
        assert!(result.migrations > 0, "random repairing must move threads");
    }

    #[test]
    fn deterministic_given_seed() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let a = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let b = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert_eq!(a.tt_cycles, b.tt_cycles);
        assert_eq!(a.quanta, b.quanta);
    }

    #[test]
    fn partial_occupancy_leaves_cores_idle_and_finishes() {
        // 4 apps on a 4-core / 8-thread chip: two cores stay empty, the
        // run must still complete and report per-app results.
        let names = ["mcf", "gobmk", "hmmer", "astar"];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(30_000))
            .collect();
        let solo = vec![1.0; 4];
        let cfg = ManagerConfig::default();
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert_eq!(result.per_app.len(), 4);
        assert!(result.quanta < cfg.max_quanta, "must finish under the cap");
        assert!(result.per_app.iter().all(|a| a.tt_cycles > 0));
    }

    #[test]
    fn staggered_arrivals_attach_late_and_measure_tt_from_arrival() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        // Second wave arrives 4 quanta in.
        let gap = 4 * cfg.quantum_cycles;
        let arrivals = [0, 0, 0, 0, gap, gap, gap, gap];
        let base = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let wave = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert_eq!(wave.per_app.len(), 8);
        assert!(wave.quanta < cfg.max_quanta, "must finish under the cap");
        // Early apps ran alone on their cores for the first 4 quanta, so
        // they can only be faster than in the everyone-at-once run.
        for k in 0..4 {
            assert!(
                wave.per_app[k].tt_cycles <= base.per_app[k].tt_cycles,
                "app {k}: {} vs {}",
                wave.per_app[k].tt_cycles,
                base.per_app[k].tt_cycles
            );
        }
        // Late apps' TT is measured from their arrival, not from cycle 0.
        let end = wave.quanta * cfg.quantum_cycles;
        for k in 4..8 {
            assert!(wave.per_app[k].tt_cycles > 0);
            assert!(
                wave.per_app[k].tt_cycles <= end - gap + cfg.quantum_cycles,
                "app {k} TT {} not measured from arrival",
                wave.per_app[k].tt_cycles
            );
        }
    }

    #[test]
    fn staggered_arrivals_work_under_a_migrating_policy() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let gap = 2 * cfg.quantum_cycles;
        let arrivals = [0, 0, 0, 0, 0, 0, gap, gap];
        let mut policy = RandomPairing::new(11);
        let result = run_workload_with_arrivals(&apps, &solo, &mut policy, &cfg, &arrivals);
        assert!(result.quanta < cfg.max_quanta);
        assert!(result.migrations > 0, "policy still re-pairs across waves");
    }

    /// Regression: a too-short arrivals slice used to fall back to
    /// arrive-at-0 for the missing tail instead of flagging the mismatch.
    #[test]
    #[should_panic(expected = "does not match the workload")]
    fn truncated_arrivals_slice_panics() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let arrivals = [0, 0, 10_000, 10_000]; // 4 entries for 8 apps
        run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
    }

    #[test]
    fn empty_and_full_length_arrivals_agree() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let base = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &[]);
        let zeros = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &[0; 8]);
        assert_eq!(base.tt_cycles, zeros.tt_cycles);
        assert_eq!(base.quanta, zeros.quanta);
    }

    /// Regression (odd-wave restriction): odd waves used to be rejected
    /// with an "arrival waves must be even-sized" assert. A core now simply
    /// runs one thread until the next wave pairs it up.
    #[test]
    fn odd_arrival_waves_are_legal_and_finish() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig::default();
        let arrivals = [0, 0, 0, 0, 0, 10_000, 10_000, 10_000];
        let result = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert!(result.quanta < cfg.max_quanta, "must finish under the cap");
        assert!(!result.capped);
        assert!(result.per_app.iter().all(|a| a.completed));
    }

    /// Odd waves under a migrating pairing policy: the re-pairing path must
    /// handle the unpaired app every quantum.
    #[test]
    fn odd_waves_work_under_a_migrating_policy() {
        let (apps, solo) = small_workload();
        let apps = apps[..7].to_vec(); // odd total: one app is always single
        let solo = solo[..7].to_vec();
        let cfg = ManagerConfig::default();
        let arrivals = [0, 0, 0, 20_000, 20_000, 20_000, 20_000];
        let mut policy = RandomPairing::new(5);
        let result = run_workload_with_arrivals(&apps, &solo, &mut policy, &cfg, &arrivals);
        assert!(result.quanta < cfg.max_quanta, "must finish under the cap");
        assert!(result.per_app.iter().all(|a| a.completed));
        assert!(
            result.migrations > 0,
            "policy still re-pairs around the single"
        );
    }

    /// Regression (full-chip arrival panic): an arrival while every slot is
    /// occupied used to hit `expect("even waves never overfill the chip")`.
    /// The app now stays pending; in the closed batch no slot ever frees,
    /// so it runs to the cap flagged incomplete instead of panicking.
    #[test]
    fn arrival_while_full_stays_pending_instead_of_panicking() {
        let (apps, solo) = small_workload();
        let apps = apps[..6].to_vec();
        let solo = solo[..6].to_vec();
        let cfg = ManagerConfig {
            chip: ChipConfig::thunderx2(2), // 4 slots for 6 apps
            max_quanta: 60,
            ..Default::default()
        };
        let arrivals = [0, 0, 0, 0, 10_000, 10_000];
        let result = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert!(result.capped, "the pending tail can never be placed");
        assert_eq!(result.quanta, cfg.max_quanta);
        for k in 4..6 {
            let a = &result.per_app[k];
            assert!(!a.completed, "app {k} never reached the chip");
            assert_eq!(a.tt_cycles, 0);
            assert_eq!(a.ipc, 0.0);
        }
        // The first wave kept running normally the whole time.
        assert!(result.per_app[..4].iter().all(|a| a.completed));
    }

    /// Regression (capped-run turnaround): an app still unfinished when
    /// `max_quanta` fires used to get `tt = end - arrival` clamped to 0 and
    /// then `ipc = length / 1` — an absurdly flattering IPC. Unfinished
    /// apps must be flagged and report measured (or zero) IPC only.
    #[test]
    fn capped_run_never_fabricates_ipc() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig {
            max_quanta: 5, // cap fires at cycle 50_000
            ..Default::default()
        };
        // Last wave arrives beyond the cap: pre-fix it reported
        // tt_cycles = 0 and ipc = 30_000.
        let arrivals = [0, 0, 0, 0, 0, 0, 80_000, 80_000];
        let result = run_workload_with_arrivals(&apps, &solo, &mut LinuxLike, &cfg, &arrivals);
        assert!(result.capped);
        let width = cfg.chip.core.dispatch_width as f64;
        for a in &result.per_app {
            assert!(
                a.ipc <= width,
                "app {} reports impossible ipc {} (> dispatch width)",
                a.app,
                a.ipc
            );
        }
        for k in 6..8 {
            let a = &result.per_app[k];
            assert!(!a.completed);
            assert_eq!(a.tt_cycles, 0, "never arrived: no fabricated turnaround");
            assert_eq!(a.ipc, 0.0, "never arrived: no fabricated IPC");
        }
    }

    /// A capped app that *was* running reports its measured partial-launch
    /// IPC (a plausible value), with the censored elapsed time as TT.
    #[test]
    fn capped_mid_flight_app_reports_measured_ipc() {
        let names = ["mcf", "gobmk", "hmmer", "astar"];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(10_000_000))
            .collect();
        let solo = vec![1.0; 4];
        let cfg = ManagerConfig {
            max_quanta: 4,
            ..Default::default()
        };
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        assert!(result.capped);
        let end = cfg.max_quanta * cfg.quantum_cycles;
        for a in &result.per_app {
            assert!(!a.completed);
            assert_eq!(a.tt_cycles, end, "censored elapsed time, not a clamp");
            assert!(a.ipc > 0.0, "ran the whole time: measured IPC is positive");
            assert!(
                a.ipc <= cfg.chip.core.dispatch_width as f64,
                "measured, not fabricated from the target length"
            );
        }
    }

    /// Closed-batch runs survive core outages: evacuees are re-queued and
    /// re-placed (restarting their launch — censored progress), cores come
    /// and go, and the run either finishes or is honestly capped. No retry
    /// budget here: the batch methodology relaunches forever anyway.
    #[test]
    fn core_faults_evacuate_and_requeue_without_panicking() {
        let (apps, solo) = small_workload();
        let cfg = ManagerConfig {
            chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(3, 1.0)),
            max_quanta: 400,
            ..Default::default()
        };
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let s = result.stats;
        assert!(
            s.cores_offlined + s.cores_transient + s.cores_throttled > 0,
            "a rate-1.0 plan must disturb the chip: {s:?}"
        );
        assert!(s.apps_evacuated > 0, "outages must strand residents: {s:?}");
        assert_eq!(s.apps_crashed + s.apps_hung + s.retries + s.failed, 0);
        // Honesty: completed apps have real turnarounds, incomplete ones
        // are flagged — and the dispatch width bounds every reported IPC.
        let width = cfg.chip.core.dispatch_width as f64;
        for a in &result.per_app {
            assert!(a.ipc <= width, "app {} ipc {} impossible", a.app, a.ipc);
            if a.completed {
                assert!(a.tt_cycles > 0);
            }
        }
    }

    /// Regression (censored IPC after a re-attach): an evacuee re-attaches
    /// as a new thread whose PMU starts from zero, but only the first
    /// attach cycle used to be recorded, so a capped evacuee reported the
    /// instructions retired since the re-attach over the cycles since the
    /// first attach. Its IPC must be that of its current thread: the
    /// trace rows since the re-attach, summed.
    #[test]
    fn capped_evacuee_reports_ipc_since_its_reattach() {
        let names = ["mcf", "gobmk", "hmmer", "astar"];
        let apps: Vec<AppProfile> = names
            .iter()
            .map(|n| spec::by_name(n).unwrap().with_length(10_000_000))
            .collect();
        let cfg = ManagerConfig {
            chip: ChipConfig::thunderx2(2), // 4 slots: evacuees must wait
            chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(1, 1.0)),
            max_quanta: 200,
            ..Default::default()
        };
        let (result, trace) = run_with_rows(&apps, &[1.0; 4], &mut LinuxLike, &cfg);
        assert!(result.capped && result.stats.apps_evacuated > 0);
        let last = result.quanta - 1;
        let mut checked = 0;
        for a in result.per_app.iter().filter(|a| !a.completed) {
            let rows: Vec<&QuantumRow> = trace.iter().filter(|r| r.app == a.app).collect();
            // The current thread's rows: the unbroken run ending at the cap.
            let run = rows
                .iter()
                .rev()
                .zip((0..=last).rev())
                .take_while(|(r, q)| r.quantum == *q)
                .count();
            if run == 0 || run == rows.len() {
                continue; // not on chip at the cap, or never off it
            }
            let current = &rows[rows.len() - run..];
            let retired: u64 = current.iter().map(|r| r.retired).sum();
            let cycles: u64 = current.iter().map(|r| r.cycles).sum();
            assert_eq!(cycles, run as u64 * cfg.quantum_cycles);
            let want = retired as f64 / cycles as f64;
            assert!(
                (a.ipc - want).abs() < 1e-12,
                "app {}: ipc {} but its current thread ran at {want}",
                a.app,
                a.ipc
            );
            checked += 1;
        }
        assert!(checked > 0, "no capped app re-attached after a wait");
    }

    #[test]
    fn zero_rate_chip_faults_match_no_chip_faults() {
        let (apps, solo) = small_workload();
        let plain = run_with_rows(&apps, &solo, &mut LinuxLike, &ManagerConfig::default());
        let zero = run_with_rows(
            &apps,
            &solo,
            &mut LinuxLike,
            &ManagerConfig {
                chip_faults: Some(synpa_sim::ChipFaultConfig::uniform(9, 0.0)),
                ..Default::default()
            },
        );
        assert_eq!(format!("{plain:?}"), format!("{zero:?}"));
    }

    #[test]
    fn individual_speedup_uses_solo_reference() {
        let r = AppResult {
            app: 0,
            name: "x".into(),
            target: 1000,
            tt_cycles: 2000,
            ipc: 0.5,
            solo_ipc: 1.0,
            completed: true,
        };
        assert!((r.individual_speedup() - 0.5).abs() < 1e-12);
    }

    /// Slot indices `first_free_slot` hands out, attaching an app to each,
    /// until it reports the chip full.
    fn fill_order(chip: &mut Chip) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(slot) = first_free_slot(chip) {
            let program =
                synpa_sim::UniformProgram::new("p", synpa_sim::PhaseParams::compute(), 10_000);
            chip.attach(slot, order.len(), Box::new(program));
            order.push(slot.0);
        }
        order
    }

    #[test]
    fn first_free_slot_fills_context_zero_of_every_core_first() {
        let mut chip = Chip::new(ChipConfig::thunderx2(4));
        assert_eq!(fill_order(&mut chip), [0, 2, 4, 6, 1, 3, 5, 7]);
        assert_eq!(first_free_slot(&chip), None, "a full chip has no free slot");
    }

    #[test]
    fn first_free_slot_skips_offline_cores() {
        let mut chip = Chip::new(ChipConfig::thunderx2(4));
        chip.set_core_offline(0);
        chip.set_core_offline(2);
        assert_eq!(fill_order(&mut chip), [2, 6, 3, 7]);
        assert_eq!(first_free_slot(&chip), None);
    }
}
