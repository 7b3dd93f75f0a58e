//! The quantum manager: the reproduction of the paper's user-level thread
//! manager (§V-A), and the one per-quantum loop behind both front ends.
//!
//! At every quantum boundary the loop applies the chip-fault plan, admits
//! waiting apps onto free slots, advances the chip one quantum, handles
//! first-launch completions, reads the PMU deltas through the
//! fault/sanitize stack, logs the characterization (the raw material for
//! Figs. 6/7 and Table V), asks the policy for a placement and applies it.
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
//! The front ends pass only their three differences — what a completion
//! does, the admission-queue bound, and how an evicted app recovers; the
//! table in `docs/service.md` lists them.

use crate::chipfaults::{ChipFaultDriver, ChipFaultStats};
use crate::policy::{Policy, QuantumView};
use std::collections::VecDeque;
use synpa_apps::AppProfile;
use synpa_counters::{FaultConfig, FaultInjector, FaultKind, InjectedCounts, SanitizingSession};
use synpa_model::Categories;
use synpa_sim::{AppFault, Chip, ChipConfig, ChipFaultConfig, Slot, ThreadProgram};

/// One application's per-quantum log row.
#[derive(Debug, Clone, Copy)]
pub struct QuantumRow {
    /// Quantum ordinal.
    pub quantum: u64,
    /// Application id (workload arrival index).
    pub app: usize,
    /// Measured SMT categories (CPI components) this quantum.
    pub categories: Categories,
    /// Co-runner app id during this quantum.
    pub co_runner: usize,
    /// Instructions retired this quantum.
    pub retired: u64,
    /// Cycles observed this quantum.
    pub cycles: u64,
}

impl QuantumRow {
    /// Dominant dispatch-stall behaviour this quantum: `true` if frontend
    /// stalls exceed backend stalls (used by the Table V classification).
    pub fn is_frontend_behaving(&self) -> bool {
        self.categories.frontend > self.categories.backend
    }
}

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
    /// Full per-quantum trace (Fig. 6/7, Table V raw data).
    pub trace: Vec<QuantumRow>,
    /// Quanta executed.
    pub quanta: u64,
    /// Thread migrations performed (core changes).
    pub migrations: u64,
    /// `true` when the `max_quanta` cap fired with at least one app still
    /// unfinished (its [`AppResult::completed`] is `false`); the workload
    /// TT is then a lower bound, not a measurement.
    pub capped: bool,
    /// Matching-layer counters (quanta answered by the lower bound /
    /// blossom solves), if the policy drives a pairing matcher. Engine- and
    /// thread-count-independent, like every other field here.
    pub matcher: Option<synpa_matching::MatcherStats>,
    /// Sample-health and fault accounting for the run. All-zero (with
    /// `injected` all-zero) on a healthy source without fault injection.
    pub degraded: DegradedStats,
    /// Execution-fault accounting: cores lost, apps evacuated. All-zero
    /// without chip-fault injection. The closed batch only evacuates and
    /// re-queues (no retry cap), so the crash/hang/retry/failed fields
    /// stay zero here — they belong to the open-system service.
    pub chip_faults: ChipFaultStats,
}

/// Fault-tolerance accounting for one run: what the sanitizer classified,
/// what the injector injected, and how the policy guardrails reacted.
/// Derived entirely from deterministic state, so it is engine- and
/// thread-count-independent like every other result field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedStats {
    /// Samples classified Ok.
    pub samples_ok: u64,
    /// Samples clamped (non-monotonic snapshot, saturated delta).
    pub samples_clamped: u64,
    /// Samples held over from the last good delta.
    pub samples_held: u64,
    /// Samples missing outright (no row reached the policy).
    pub samples_missing: u64,
    /// Quanta with at least one non-Ok sample.
    pub quanta_degraded: u64,
    /// Faults injected, by kind in `FaultKind::ALL` order. All-zero when
    /// fault injection is off.
    pub injected: InjectedCounts,
    /// Times the policy entered fallback (0 for policies without
    /// guardrails).
    pub fallback_entries: u64,
    /// Quanta the policy spent in fallback.
    pub fallback_quanta: u64,
}

impl DegradedStats {
    /// Total faults injected across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Samples that were anything but Ok.
    pub fn samples_degraded(&self) -> u64 {
        self.samples_clamped + self.samples_held + self.samples_missing
    }

    /// One-line accounting summary (the `faults:` row of the experiment
    /// tables): injected per kind, classification totals, fallback counts.
    pub fn summary(&self) -> String {
        let per_kind = FaultKind::ALL
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{} {}", k.name(), self.injected[i]))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "injected {} ({per_kind}), quanta degraded {}, samples ok {} clamped {} held {} \
             missing {}, fallback entries {} quanta {}",
            self.injected_total(),
            self.quanta_degraded,
            self.samples_ok,
            self.samples_clamped,
            self.samples_held,
            self.samples_missing,
            self.fallback_entries,
            self.fallback_quanta,
        )
    }
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
    let smt = chip.config().core.smt_ways as usize;
    let cores = chip.config().cores as usize;
    let occupied: std::collections::HashSet<usize> =
        chip.placement().iter().map(|&(_, s)| s.0).collect();
    for ctx in 0..smt {
        for core in 0..cores {
            if !chip.core_available(core) {
                continue;
            }
            let slot = Slot(core * smt + ctx);
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
    let mut run = QuantumLoop::new(
        apps,
        &arrivals,
        cfg,
        OnCompletion::Relaunch,
        usize::MAX,
        Recovery::Requeue,
    );
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
        matcher: policy.matcher_stats(),
        degraded: run.degraded_stats(policy),
        chip_faults: run.chip_fault_stats(),
        trace: run.trace,
    }
}

/// What a first-launch completion does (the first of the front ends'
/// three differences).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnCompletion {
    /// Closed batch (§V-B): record it; the chip relaunches the app in
    /// place. The run stops before the boundary at which every app has
    /// completed (or the cap is reached); every quantum samples in
    /// ascending app-id order and consults the policy, even on an empty
    /// chip.
    Relaunch,
    /// Open system: detach the app at the boundary. The run stops after
    /// admission once the trace is drained (or the cap is reached),
    /// records queue depth and occupancy at every boundary, samples in
    /// slot order and skips the policy on an empty chip.
    Detach,
}

/// What happens to an app that lost its thread (the third difference).
#[derive(Clone, Copy)]
pub(crate) enum Recovery {
    /// Closed batch: evacuees re-attach ahead of any arrival, from the same
    /// boundary on. No planned crash/hang, no watchdog, no budget.
    Requeue,
    /// Open system: planned crash/hang faults, the watchdog, and a capped
    /// retry budget with backoff (see `ServiceConfig`).
    Retry {
        watchdog_quanta: u64,
        max_retries: u32,
        backoff_quanta: u64,
    },
}

/// Evictions and app faults only happen under a chip-fault plan.
const EVICTIONS: &str = "evictions come from the chip-fault plan";

/// The one quantum loop and the state it carries between boundaries.
pub(crate) struct QuantumLoop<'a> {
    apps: &'a [AppProfile],
    arrivals: &'a [u64],
    cfg: &'a ManagerConfig,
    on_completion: OnCompletion,
    /// Admission-queue bound (the second difference): a full queue sheds
    /// the newest arrival; `usize::MAX` (closed batch) admits every due
    /// app.
    queue_capacity: usize,
    recovery: Recovery,
    pub(crate) chip: Chip,
    session: SanitizingSession,
    injector: Option<FaultInjector>,
    driver: Option<ChipFaultDriver>,
    /// App ids in (arrival, id) order, consumed through a cursor.
    order: Vec<usize>,
    pub(crate) next_arrival: usize,
    /// Due apps waiting for a free slot, FIFO.
    pub(crate) queue: VecDeque<usize>,
    /// Evicted apps waiting to re-enter, as `(due_quantum, app)`: under
    /// `Requeue` due at once and attached ahead of the queue, under
    /// `Retry` due after the (constant) backoff and appended to the queue.
    /// Due quanta are nondecreasing in push order.
    pub(crate) backlog: VecDeque<(u64, usize)>,
    /// Arrivals refused at the door (queue full), in arrival order.
    pub(crate) shed: Vec<usize>,
    /// Apps that exhausted their retry budget, in event order.
    pub(crate) failed: Vec<usize>,
    /// `Retry` state per app: retries granted, and the watchdog's last
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
    /// ([`OnCompletion::Detach`] only).
    pub(crate) queue_depth: Vec<usize>,
    pub(crate) occupancy: Vec<usize>,
    pub(crate) trace: Vec<QuantumRow>,
    pub(crate) quantum: u64,
    pub(crate) migrations: u64,
    quanta_degraded: u64,
    /// Stopped because the trace, the queue, the backlog and the chip
    /// were all empty ([`OnCompletion::Detach`] only).
    pub(crate) drained: bool,
}

impl<'a> QuantumLoop<'a> {
    /// A loop over `apps` arriving at `arrivals[k]` (one per app).
    pub(crate) fn new(
        apps: &'a [AppProfile],
        arrivals: &'a [u64],
        cfg: &'a ManagerConfig,
        on_completion: OnCompletion,
        queue_capacity: usize,
        recovery: Recovery,
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
            on_completion,
            queue_capacity,
            recovery,
            chip: Chip::new(cfg.chip.clone()),
            session: SanitizingSession::new().with_cycle_bound(cfg.quantum_cycles),
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
            trace: Vec::new(),
            quantum: 0,
            migrations: 0,
            quanta_degraded: 0,
            drained: false,
        }
    }

    /// Runs quanta until the front end's stop condition or the cap.
    pub(crate) fn run(&mut self, policy: &mut dyn Policy) {
        let closed = self.on_completion == OnCompletion::Relaunch;
        let n = self.apps.len();
        let smt = self.cfg.chip.core.smt_ways as usize;
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
                let stranded = drv.apply(&mut self.chip, self.quantum);
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
            //    slot would poison the log and the policy view), log the
            //    characterization, and let the policy re-pair them.
            let placement = self.chip.placement();
            if closed || !placement.is_empty() {
                let mut ids: Vec<usize> = placement.iter().map(|&(a, _)| a).collect();
                if closed {
                    ids.sort_unstable();
                }
                let q = self.quantum;
                let sanitized = match self.injector.as_mut() {
                    Some(inj) => {
                        inj.begin_quantum(q);
                        self.session.sample(&inj.wrap(&self.chip), &ids, q)
                    }
                    None => self.session.sample(&self.chip, &ids, q),
                };
                if !sanitized.is_clean() {
                    self.quanta_degraded += 1;
                }
                let slot_of = |app: usize| {
                    let placed = placement.iter().find(|&&(a, _)| a == app);
                    placed.expect("only placed apps are sampled or moved").1
                };
                for &(app, ref delta) in &sanitized.samples {
                    let core = slot_of(app).core(smt);
                    let co_runner = placement
                        .iter()
                        .find(|&&(a, s)| a != app && s.core(smt) == core)
                        .map_or(app, |&(a, _)| a);
                    self.trace.push(QuantumRow {
                        quantum: q,
                        app,
                        categories: Categories::from_delta(delta, width),
                        co_runner,
                        retired: delta.inst_retired,
                        cycles: delta.cpu_cycles,
                    });
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
                    smt_ways: smt,
                    dispatch_width: width,
                    degraded: &sanitized.degraded,
                    availability: &availability,
                    evacuated,
                };
                if let Some(new_placement) = policy.decide(&view) {
                    for &(app, new_slot) in &new_placement {
                        if slot_of(app).core(smt) != new_slot.core(smt) {
                            self.migrations += 1;
                        }
                    }
                    self.chip.set_placement(&new_placement);
                }
            }
            self.quantum += 1;
        }
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
            if let Recovery::Requeue = self.recovery {
                let Some(slot) = first_free_slot(&self.chip) else {
                    break;
                };
                self.attach(slot, app);
            } else {
                self.queue.push_back(app);
            }
            self.backlog.pop_front();
        }
        let now = self.chip.cycle();
        while let Some(&k) = self.order.get(self.next_arrival) {
            if self.arrivals[k] > now {
                break;
            }
            self.drain_queue();
            if self.queue.len() < self.queue_capacity {
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
        if self.on_completion == OnCompletion::Detach {
            // The chip relaunched it at completion; that partial second
            // launch is discarded — the open system runs each app once.
            self.detach(app);
            self.session.forget(app);
        }
    }

    /// `app` lost its thread (core outage, crash, hang). Under `Requeue`
    /// it waits to re-attach; under `Retry` it gets a backed-off retry
    /// while its budget lasts and is reported failed after. Progress is
    /// censored either way: the next attach restarts the launch.
    fn evict(&mut self, app: usize) {
        self.session.forget(app);
        let Recovery::Retry {
            max_retries,
            backoff_quanta,
            ..
        } = self.recovery
        else {
            self.backlog.push_back((self.quantum, app));
            return;
        };
        self.last_retired[app] = 0;
        self.stalled[app] = 0;
        self.hang_applied[app] = false;
        let stats = &mut self.driver.as_mut().expect(EVICTIONS).stats;
        if self.retries[app] >= max_retries {
            self.failed.push(app);
            stats.failed += 1;
        } else {
            self.retries[app] += 1;
            stats.retries += 1;
            self.backlog
                .push_back((self.quantum + 1 + backoff_quanta, app));
        }
    }

    /// Open system under a chip-fault plan: planned execution faults
    /// (drawn from the pure plan) on the survivors, then the watchdog.
    /// Completion wins a same-quantum tie
    /// (its detach already ran). Crashes detach immediately; hangs wedge
    /// the thread in place and are caught by the watchdog like any other
    /// app with zero retirement for `watchdog_quanta` consecutive quanta —
    /// it reads only the public PMU, never the fault plan.
    fn recover(&mut self) {
        let Recovery::Retry {
            watchdog_quanta, ..
        } = self.recovery
        else {
            return;
        };
        if self.driver.is_none() {
            return;
        }
        for app in self.placed_ids() {
            let (crash, frac) = match self.driver.as_ref().and_then(|d| d.plan().app_fault(app)) {
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
                self.fault_stats().apps_crashed += 1;
                self.evict(app);
            } else if !self.hang_applied[app] {
                self.chip.hang_app(app);
                self.hang_applied[app] = true;
                self.fault_stats().apps_hung += 1;
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
            if self.stalled[app] >= watchdog_quanta {
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

    fn fault_stats(&mut self) -> &mut ChipFaultStats {
        &mut self.driver.as_mut().expect(EVICTIONS).stats
    }

    /// Sample-health and fault accounting: the sanitizer ledger, the
    /// injector counters and the policy guardrails.
    pub(crate) fn degraded_stats(&self, policy: &dyn Policy) -> DegradedStats {
        let totals = self.session.totals();
        let guard = policy.guardrail_stats().unwrap_or_default();
        DegradedStats {
            samples_ok: totals.ok,
            samples_clamped: totals.clamped,
            samples_held: totals.held,
            samples_missing: totals.missing,
            quanta_degraded: self.quanta_degraded,
            injected: self
                .injector
                .as_ref()
                .map(|i| i.injected())
                .unwrap_or_default(),
            fallback_entries: guard.fallback_entries,
            fallback_quanta: guard.fallback_quanta,
        }
    }

    pub(crate) fn chip_fault_stats(&self) -> ChipFaultStats {
        self.driver.as_ref().map(|d| d.stats).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LinuxLike, RandomPairing};
    use synpa_apps::spec;

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
        let result = run_workload(&apps, &solo, &mut LinuxLike, &cfg);
        let rows_q0: Vec<_> = result.trace.iter().filter(|r| r.quantum == 0).collect();
        assert_eq!(rows_q0.len(), 8);
        // Co-runner symmetry within a quantum.
        for r in &rows_q0 {
            let partner = rows_q0.iter().find(|p| p.app == r.co_runner).unwrap();
            assert_eq!(partner.co_runner, r.app);
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
        let s = result.chip_faults;
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
        let result = run_workload(&apps, &[1.0; 4], &mut LinuxLike, &cfg);
        assert!(result.capped && result.chip_faults.apps_evacuated > 0);
        let last = result.quanta - 1;
        let mut checked = 0;
        for a in result.per_app.iter().filter(|a| !a.completed) {
            let rows: Vec<&QuantumRow> = result.trace.iter().filter(|r| r.app == a.app).collect();
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
        let plain = run_workload(&apps, &solo, &mut LinuxLike, &ManagerConfig::default());
        let zero = run_workload(
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
}
