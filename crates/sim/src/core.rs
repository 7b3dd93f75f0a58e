//! One SMT core: private cache hierarchy plus the shared-resource
//! arbitration that creates inter-thread interference.
//!
//! Per simulated cycle the core performs three stages, mirroring the
//! dispatch-centric view of §III of the paper:
//!
//! 1. **Fetch** — one hardware thread per cycle may access the I-cache
//!    (the ARM IFetch constraint the paper cites to explain why frontend
//!    stalls depend mostly on the application itself); an I-cache miss
//!    blocks that thread's fetch for the miss latency.
//! 2. **Dispatch** — up to `dispatch_width` µops move from the per-thread
//!    dispatch queues into the shared in-order window, subject to shared
//!    ROB/LSQ capacity. A thread that dispatches nothing this cycle gets a
//!    `STALL_FRONTEND` (queue empty) or `STALL_BACKEND` (resources) tick,
//!    exactly matching the PMU semantics of Table I.
//! 3. **Retire** — each thread retires completed µops in order; a
//!    long-latency batch at the head blocks, filling the window and
//!    back-pressuring dispatch.

use crate::cache::{Access, Cache};
use crate::config::ChipConfig;
use crate::mem::Memory;
use crate::thread::{Completion, FetchBlock, HwThread, RobBatch};

/// Fraction of memory µops that are loads (the rest are stores).
const LOAD_FRACTION: f64 = 0.65;

/// What one [`Core::step`] call did, as observed by the engines.
///
/// `active` is the inertness bit the horizon engine keys on; `llc`/`dram`
/// surface the cycle's *shared-state* touches as explicit events rather
/// than interior side effects, so the rendezvous invariant the per-core
/// engine relies on — an inert cycle touches no shared state — is checked
/// structurally (`debug_assert` in every engine loop) instead of assumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepOutcome {
    /// A fetch was issued, µops dispatched or retired, or a completion
    /// reported. `false` = the cycle was *inert* for this core: the only
    /// state it changed is closed-form advanceable (stall counters, EWMA
    /// decay, MSHR fill queues), which is what lets the horizon engine jump
    /// over stretches of them (see `crate::engine`).
    pub active: bool,
    /// The shared LLC was looked up (hit, fill or bypassed probe — every
    /// variant moves its LRU clock and stats).
    pub llc: bool,
    /// The shared memory model served an access (queue occupancy and the
    /// timing wheel advanced).
    pub dram: bool,
}

impl StepOutcome {
    /// True when the step interacted with any cross-core shared state.
    pub fn touched_shared(&self) -> bool {
        self.llc || self.dram
    }
}

/// A physical core with two hardware-thread contexts (SMT2, the only
/// configuration the paper evaluates).
pub(crate) struct Core {
    pub(crate) id: usize,
    pub(crate) l1i: Cache,
    pub(crate) l1d: Cache,
    pub(crate) l2: Cache,
    pub(crate) ctx: [Option<HwThread>; 2],
    /// Injected dispatch-width derate (thermal throttle / partial failure):
    /// when set, the core dispatches at most `min(dispatch_width, limit)`
    /// µops per cycle.
    pub(crate) width_limit: Option<u32>,
    fetch_rr: usize,
    /// [`shared_caps`] per busy-context count (index 0 unused).
    caps_by_active: [(u32, u32, u32); 3],
    /// Loads among `m` dispatched memory µops, per `m ≤ dispatch_width`.
    loads_by_mem: Vec<u32>,
}

/// ROB entries a thread may still claim this cycle: the shared array's
/// remaining space, clamped by the thread's hog cap.
pub(crate) fn rob_space(
    core: &crate::config::CoreConfig,
    total_rob: u32,
    rob_cap: u32,
    t: &HwThread,
) -> u32 {
    core.rob_size
        .saturating_sub(total_rob)
        .min(rob_cap.saturating_sub(t.rob_occ))
}

/// Shared-window occupancy caps (ROB, LQ, SQ) for `active` busy contexts:
/// the hog cap applies only while more than one context competes.
fn shared_caps(core: &crate::config::CoreConfig, active: u32) -> (u32, u32, u32) {
    if active > 1 {
        let f = core.smt_window_cap.clamp(1.0 / active as f64, 1.0);
        (
            (core.rob_size as f64 * f) as u32,
            (core.load_queue as f64 * f) as u32,
            (core.store_queue as f64 * f) as u32,
        )
    } else {
        (core.rob_size, core.load_queue, core.store_queue)
    }
}

impl Core {
    /// Builds core `id` with cold private caches and empty contexts.
    pub fn new(id: usize, cfg: &ChipConfig) -> Self {
        Self {
            id,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            ctx: [None, None],
            width_limit: None,
            fetch_rr: 0,
            caps_by_active: [0, 1, 2].map(|active| shared_caps(&cfg.core, active)),
            loads_by_mem: (0..=cfg.core.dispatch_width)
                .map(|m| ((m as f64 * LOAD_FRACTION).round() as u32).min(m))
                .collect(),
        }
    }

    /// Number of occupied contexts.
    pub fn occupancy(&self) -> usize {
        self.ctx.iter().filter(|c| c.is_some()).count()
    }

    /// The dispatch width this core actually offers per cycle: the
    /// configured width, derated by an injected throttle (never below 1 —
    /// a zero-width core would be indistinguishable from an offline one).
    pub(crate) fn effective_width(&self, core: &crate::config::CoreConfig) -> u32 {
        match self.width_limit {
            Some(limit) => core.dispatch_width.min(limit.max(1)),
            None => core.dispatch_width,
        }
    }

    /// Executes one cycle. Completions (launch finishes) are appended to
    /// `events`.
    ///
    /// Returns a [`StepOutcome`] reporting whether anything observable
    /// happened and whether the cycle touched the shared LLC or DRAM (the
    /// epoch events the per-core engine's rendezvous rule is built on).
    pub(crate) fn step(
        &mut self,
        now: u64,
        cfg: &ChipConfig,
        llc: &mut Cache,
        mem: &mut Memory,
        events: &mut Vec<Completion>,
    ) -> StepOutcome {
        let mut out = self.fetch_stage(now, cfg, llc, mem);
        let dispatched = self.dispatch_stage(now, cfg, llc, mem, &mut out);
        let retired = self.retire_stage(now, cfg, events);
        out.active |= dispatched | retired;
        out
    }

    /// Earliest future cycle at which any resident thread can act again,
    /// assuming the cycle just executed was inert. `u64::MAX` for an empty
    /// or permanently externally-blocked core.
    pub(crate) fn wake_event(&self, core: &crate::config::CoreConfig) -> u64 {
        self.ctx
            .iter()
            .flatten()
            .map(|t| t.wake_event(core.fetch_width, core.fetch_queue))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Advances every resident thread across `n` inert cycles in closed
    /// form, starting at cycle `now` (the first elided cycle). The caller
    /// (the horizon engine) guarantees no thread on the core can fetch,
    /// dispatch, retire or complete anywhere in the window, so every input
    /// to the stall classification is constant across it.
    pub(crate) fn fast_forward(&mut self, n: u64, now: u64, cfg: &ChipConfig) {
        let (rob_cap, lq_cap, sq_cap) = self.caps_by_active[self.occupancy().max(1)];
        let total_rob: u32 = self.ctx.iter().flatten().map(|t| t.rob_occ).sum();
        for t in self.ctx.iter_mut().flatten() {
            let rob_space = rob_space(&cfg.core, total_rob, rob_cap, t);
            t.fast_forward_stall(n, now, &cfg.core, lq_cap, sq_cap, rob_space);
        }
    }

    // --- stage 1: fetch -------------------------------------------------

    fn fetch_stage(
        &mut self,
        now: u64,
        cfg: &ChipConfig,
        llc: &mut Cache,
        mem: &mut Memory,
    ) -> StepOutcome {
        let mut out = StepOutcome::default();
        let rr = self.fetch_rr;
        // Clear expired fetch blocks.
        for slot in self.ctx.iter_mut().flatten() {
            if slot.fetch_block != FetchBlock::None && now >= slot.fetch_block_until {
                slot.fetch_block = FetchBlock::None;
            }
        }
        // Round-robin among threads that want the port this cycle. A thread
        // with a full dispatch queue does not compete, so a compute-bound
        // co-runner leaves the port essentially free.
        for i in [rr, 1 - rr] {
            let Some(t) = self.ctx[i].as_mut() else {
                continue;
            };
            if !t.wants_fetch(now, cfg.core.fetch_width, cfg.core.fetch_queue) {
                continue;
            }
            let addr = t.next_fetch_addr(cfg.l1i.line_bytes as u64);
            t.pmu.ext.l1i_access += 1;
            if self.l1i.access(addr) == Access::Hit {
                t.fetch_q = (t.fetch_q + cfg.core.fetch_width).min(cfg.core.fetch_queue);
            } else {
                t.pmu.ext.l1i_miss += 1;
                let mut lat = self.l1i.latency() + self.l2.latency();
                if self.l2.access(addr) == Access::Miss {
                    lat += llc.latency();
                    out.llc = true;
                    if llc.access(addr) == Access::Miss {
                        lat += mem.access(now);
                        out.dram = true;
                    }
                }
                t.fetch_block = FetchBlock::ICacheMiss;
                t.fetch_block_until = now + lat as u64;
            }
            self.fetch_rr = 1 - i;
            out.active = true;
            return out;
        }
        out
    }

    // --- stage 2: dispatch ----------------------------------------------

    fn dispatch_stage(
        &mut self,
        now: u64,
        cfg: &ChipConfig,
        llc: &mut Cache,
        mem: &mut Memory,
        out: &mut StepOutcome,
    ) -> bool {
        let mut any_dispatch = false;
        // ICOUNT-style priority: the thread with the smaller in-flight
        // window dispatches first, which is what keeps SMT fair-ish on real
        // hardware; ties go to context `now & 1`, so the favoured context
        // alternates every cycle.
        let (order, busy) = match (&self.ctx[0], &self.ctx[1]) {
            (Some(a), Some(b)) => {
                let b_first = (b.rob_occ, (now + 1) & 1) < (a.rob_occ, now & 1);
                (if b_first { [1, 0] } else { [0, 1] }, 2)
            }
            (Some(_), None) => ([0, 1], 1),
            (None, Some(_)) => ([1, 0], 1),
            (None, None) => return false,
        };
        let order = &order[..busy];

        let mut total_rob: u32 = self.ctx.iter().flatten().map(|t| t.rob_occ).sum();
        let eff_width = self.effective_width(&cfg.core);
        let mut width_left = eff_width;
        // Hog cap: while both contexts are active no thread may hold more
        // than `smt_window_cap` of the shared window, so a frontend-bound
        // co-runner is never starved, yet two memory-bound threads still
        // contend for the remaining shared entries (convex interference).
        let (rob_cap, lq_cap, sq_cap) = self.caps_by_active[busy];

        for &i in order {
            // The co-runner's DRAM bandwidth demand (fills/cycle, EWMA):
            // together with our own it loads the core's shared miss path.
            let other_dram_rate = self.ctx[1 - i].as_ref().map_or(0.0, |t| t.dram_rate);
            // Split borrow: caches vs. thread context.
            let (l1d, l2) = (&mut self.l1d, &mut self.l2);
            let t = self.ctx[i].as_mut().unwrap();

            t.pmu.cpu_cycles += 1;
            t.maybe_refresh_phase();
            t.tick_mshr(now);
            let mut dram_fills: u32 = 0;

            // Zero-dispatch cycle? One shared classifier (also used by the
            // per-core engine's closed-form fast-forward, so the two can
            // never drift apart) picks the Table I stall category and its
            // extended attribution.
            let rob_space = rob_space(&cfg.core, total_rob, rob_cap, t);
            if let Some(kind) =
                t.stall_kind(now, width_left, lq_cap, sq_cap, rob_space, cfg.core.iq_size)
            {
                t.apply_stall(kind, 1);
                t.update_dram_rate(0);
                continue;
            }

            let d = width_left.min(t.fetch_q).min(rob_space);
            debug_assert!(d > 0);
            any_dispatch = true;

            // Memory portion of the dispatched group.
            let m = t.mem_dither.step(d as f64 * t.phase.mem_ratio).min(d);
            let loads = self.loads_by_mem[m as usize];
            let stores = m - loads;

            let mut misses: u32 = 0;
            let mut worst_lat: u32 = 0;
            for _ in 0..m {
                let addr = t.data_stream.next(&mut t.rng);
                t.pmu.ext.l1d_access += 1;
                // Streaming footprints far beyond a level bypass its
                // allocation (streaming-resistant replacement), so a
                // memory hog cannot flush its co-runner's working set.
                let bypass_l2 = t.phase.data_footprint > 4 * cfg.l2.size_bytes;
                // The LLC is shared by every thread on the chip: only
                // working sets that could plausibly hold a useful share
                // allocate; larger streams bypass so they cannot flush
                // the small-footprint apps that depend on it.
                let bypass_llc = t.phase.data_footprint > cfg.llc.size_bytes / 2;
                let (lat, missed) =
                    data_access(l1d, l2, llc, mem, now, addr, bypass_l2, bypass_llc, out);
                if missed {
                    t.pmu.ext.l1d_miss += 1;
                    misses += 1;
                }
                worst_lat = worst_lat.max(lat);
            }

            // Completion time of the batch: base execution latency plus the
            // memory component. Misses beyond the first overlap according to
            // the phase's MLP quality; exceeding the MSHR budget serializes.
            let mut lat = 1 + t.phase.exec_latency;
            if m > 0 {
                if misses > 0 {
                    let extra = (misses - 1) as f64 * (1.0 - t.phase.mlp) * worst_lat as f64;
                    let mut mem_lat = worst_lat as u64 + extra as u64;
                    if t.outstanding_misses >= cfg.core.mshrs_per_thread {
                        mem_lat += worst_lat as u64;
                    }
                    // Shared per-core miss path: the co-runner's in-flight
                    // misses queue ahead of ours — but only DRAM-bound fills
                    // cross the saturating path; cache-hit fills have their
                    // own ports.
                    let dram_bound = worst_lat > l1d.latency() + l2.latency() + llc.latency();
                    if dram_bound {
                        dram_fills = misses;
                        // Miss-path saturation: two *dense* DRAM streams on
                        // one core queue behind each other. Sparse
                        // requesters ride along for free (FR-FCFS-style
                        // low-load priority at the controller), so a
                        // latency-bound victim is not crushed by a streaming
                        // co-runner, but two streams saturate each other.
                        let excess = other_dram_rate - cfg.dram_rate_cap;
                        if excess > 0.0 && t.dram_rate > cfg.dram_rate_cap / 2.0 {
                            let surcharge = (cfg.dram_saturation_penalty * excess
                                / cfg.dram_rate_cap)
                                .min(cfg.dram_saturation_max);
                            mem_lat += surcharge as u64;
                        }
                    }
                    lat += mem_lat as u32;
                    t.issue_misses(misses, now + mem_lat);
                } else {
                    lat += l1d.latency();
                }
            }

            t.rob.push_back(RobBatch {
                ready: now + lat as u64,
                n: d as u16,
                loads: loads as u16,
                stores: stores as u16,
                misses: misses as u16,
            });
            t.rob_occ += d;
            t.lq_occ += loads;
            t.sq_occ += stores;
            total_rob += d;
            width_left -= d;
            t.pmu.inst_spec += d as u64;
            t.fetch_q -= d;
            t.update_dram_rate(dram_fills);

            // Branch mispredicts discovered in this group redirect the
            // frontend: the queue is squashed and fetch pauses. Wrong-path
            // µops that were already past dispatch count toward INST_SPEC
            // (ARM's event is speculative; the paper's §III-B step 3
            // deliberately keeps them) but never retire.
            let b = t.br_dither.step(d as f64 * t.phase.br_misp_rate);
            if b > 0 {
                let wrong_path = t.fetch_q.min(eff_width * 2);
                t.pmu.inst_spec += wrong_path as u64;
                t.fetch_q = 0;
                t.fetch_block = FetchBlock::Redirect;
                t.fetch_block_until = now + cfg.core.redirect_penalty as u64;
            }
        }
        any_dispatch
    }

    // --- stage 3: retire --------------------------------------------------

    fn retire_stage(&mut self, now: u64, cfg: &ChipConfig, events: &mut Vec<Completion>) -> bool {
        let mut any = false;
        for t in self.ctx.iter_mut().flatten() {
            any |= t.retire(now, cfg.core.retire_width) > 0;
            if let Some(ev) = t.check_completion(now) {
                events.push(ev);
                any = true;
            }
        }
        any
    }
}

/// Walks the data-cache hierarchy for one access; returns `(latency,
/// l1_missed)`. Allocates on miss at each level unless bypassed (streaming
/// accesses skip allocation in the outer levels; see the call site).
/// Shared-state touches (LLC lookup, DRAM access) are recorded in `out` —
/// they are the epoch events the per-core engine's rendezvous preserves.
#[allow(clippy::too_many_arguments)]
fn data_access(
    l1d: &mut Cache,
    l2: &mut Cache,
    llc: &mut Cache,
    mem: &mut Memory,
    now: u64,
    addr: u64,
    bypass_l2: bool,
    bypass_llc: bool,
    out: &mut StepOutcome,
) -> (u32, bool) {
    if l1d.access(addr) == Access::Hit {
        return (l1d.latency(), false);
    }
    let mut lat = l1d.latency() + l2.latency();
    let l2_result = if bypass_l2 {
        l2.access_no_alloc(addr)
    } else {
        l2.access(addr)
    };
    if l2_result == Access::Miss {
        lat += llc.latency();
        out.llc = true;
        let llc_result = if bypass_llc {
            llc.access_no_alloc(addr)
        } else {
            llc.access(addr)
        };
        if llc_result == Access::Miss {
            lat += mem.access(now);
            out.dram = true;
        }
    }
    (lat, true)
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PhaseParams, UniformProgram};

    fn setup(cfg: &ChipConfig) -> (Core, Cache, Memory) {
        (
            Core::new(0, cfg),
            Cache::new(cfg.llc),
            Memory::new(cfg.mem_latency, cfg.mem_queue_penalty),
        )
    }

    fn compute_thread(app_id: usize, len: u64) -> HwThread {
        HwThread::new(
            app_id,
            Box::new(UniformProgram::new("c", PhaseParams::compute(), len)),
            42,
            64,
        )
    }

    fn run(core: &mut Core, cfg: &ChipConfig, llc: &mut Cache, mem: &mut Memory, cycles: u64) {
        let mut ev = Vec::new();
        for now in 0..cycles {
            mem.tick(now);
            core.step(now, cfg, llc, mem, &mut ev);
        }
    }

    #[test]
    fn single_thread_makes_progress() {
        let cfg = ChipConfig::thunderx2(1);
        let (mut core, mut llc, mut mem) = setup(&cfg);
        core.ctx[0] = Some(compute_thread(0, 1_000_000));
        run(&mut core, &cfg, &mut llc, &mut mem, 5_000);
        let t = core.ctx[0].as_ref().unwrap();
        assert!(t.pmu.inst_retired > 1_000, "retired {}", t.pmu.inst_retired);
        assert_eq!(t.pmu.cpu_cycles, 5_000);
        // Accounting identity: every cycle is dispatch, FE stall or BE stall.
        assert!(
            t.pmu.stall_frontend + t.pmu.stall_backend <= t.pmu.cpu_cycles,
            "stalls cannot exceed cycles"
        );
    }

    #[test]
    fn compute_thread_is_mostly_dispatching() {
        let cfg = ChipConfig::thunderx2(1);
        let (mut core, mut llc, mut mem) = setup(&cfg);
        core.ctx[0] = Some(compute_thread(0, u64::MAX));
        run(&mut core, &cfg, &mut llc, &mut mem, 20_000);
        let t = core.ctx[0].as_ref().unwrap();
        let stall_frac =
            (t.pmu.stall_frontend + t.pmu.stall_backend) as f64 / t.pmu.cpu_cycles as f64;
        assert!(stall_frac < 0.4, "stall fraction {stall_frac}");
    }

    #[test]
    fn memory_bound_thread_accumulates_backend_stalls() {
        let cfg = ChipConfig::thunderx2(1);
        let (mut core, mut llc, mut mem) = setup(&cfg);
        let params = PhaseParams {
            mem_ratio: 0.45,
            data_footprint: 16 << 20, // far beyond LLC
            data_seq: 0.05,
            code_footprint: 1024,
            code_hot: 1.0,
            br_misp_rate: 0.0002,
            exec_latency: 1,
            mlp: 0.3,
        };
        core.ctx[0] = Some(HwThread::new(
            0,
            Box::new(UniformProgram::new("mem", params, u64::MAX)),
            7,
            64,
        ));
        run(&mut core, &cfg, &mut llc, &mut mem, 30_000);
        let t = core.ctx[0].as_ref().unwrap();
        let be = t.pmu.stall_backend as f64 / t.pmu.cpu_cycles as f64;
        let fe = t.pmu.stall_frontend as f64 / t.pmu.cpu_cycles as f64;
        assert!(be > 0.5, "backend stall fraction {be}");
        assert!(fe < 0.2, "frontend stall fraction {fe}");
    }

    #[test]
    fn icache_hostile_thread_accumulates_frontend_stalls() {
        let cfg = ChipConfig::thunderx2(1);
        let (mut core, mut llc, mut mem) = setup(&cfg);
        let params = PhaseParams {
            mem_ratio: 0.1,
            data_footprint: 2048,
            data_seq: 0.9,
            code_footprint: 256 << 10, // far beyond the L1I
            code_hot: 0.3,
            br_misp_rate: 0.012,
            exec_latency: 1,
            mlp: 0.8,
        };
        core.ctx[0] = Some(HwThread::new(
            0,
            Box::new(UniformProgram::new("fe", params, u64::MAX)),
            9,
            64,
        ));
        run(&mut core, &cfg, &mut llc, &mut mem, 30_000);
        let t = core.ctx[0].as_ref().unwrap();
        let fe = t.pmu.stall_frontend as f64 / t.pmu.cpu_cycles as f64;
        assert!(fe > 0.35, "frontend stall fraction {fe}");
    }

    #[test]
    fn complementary_smt_pair_beats_time_slicing() {
        // SMT's raison d'etre: a compute-bound and a memory-bound thread
        // sharing a core retire more total work than time-slicing them on a
        // single context. (Two identical window-limited threads would NOT
        // show a gain - the shared ROB caps combined MLP - which is exactly
        // the interference SYNPA exploits.)
        let cfg = ChipConfig::thunderx2(1);
        let mem_params = PhaseParams {
            mem_ratio: 0.35,
            data_footprint: 32 << 10,
            data_seq: 0.5,
            code_footprint: 1024,
            code_hot: 1.0,
            br_misp_rate: 0.0005,
            exec_latency: 2,
            mlp: 0.7,
        };
        let solo = |params: PhaseParams, cycles: u64| {
            let (mut core, mut llc, mut mem) = setup(&cfg);
            core.ctx[0] = Some(HwThread::new(
                0,
                Box::new(UniformProgram::new("s", params, u64::MAX)),
                42,
                64,
            ));
            run(&mut core, &cfg, &mut llc, &mut mem, cycles);
            core.ctx[0].as_ref().unwrap().pmu.inst_retired
        };
        let solo_compute = solo(PhaseParams::compute(), 20_000);
        let solo_mem = solo(mem_params, 20_000);

        let (mut core, mut llc, mut mem) = setup(&cfg);
        core.ctx[0] = Some(HwThread::new(
            0,
            Box::new(UniformProgram::new("c", PhaseParams::compute(), u64::MAX)),
            42,
            64,
        ));
        core.ctx[1] = Some(HwThread::new(
            1,
            Box::new(UniformProgram::new("m", mem_params, u64::MAX)),
            42,
            64,
        ));
        run(&mut core, &cfg, &mut llc, &mut mem, 20_000);
        let a = core.ctx[0].as_ref().unwrap().pmu.inst_retired;
        let b = core.ctx[1].as_ref().unwrap().pmu.inst_retired;

        assert!(
            a < solo_compute,
            "SMT thread slower than solo: {a} vs {solo_compute}"
        );
        assert!(
            b < solo_mem,
            "SMT thread slower than solo: {b} vs {solo_mem}"
        );
        let time_sliced = (solo_compute + solo_mem) / 2;
        assert!(
            a + b > time_sliced,
            "complementary SMT pair must beat time-slicing: {} vs {time_sliced}",
            a + b
        );
    }

    #[test]
    fn pmu_accounting_identity_holds_in_smt() {
        let cfg = ChipConfig::thunderx2(1);
        let (mut core, mut llc, mut mem) = setup(&cfg);
        core.ctx[0] = Some(compute_thread(0, u64::MAX));
        core.ctx[1] = Some(compute_thread(1, u64::MAX));
        run(&mut core, &cfg, &mut llc, &mut mem, 10_000);
        for t in core.ctx.iter().flatten() {
            // Each cycle is exactly one of: dispatched>0, FE stall, BE stall.
            let dispatch_cycles = t.pmu.cpu_cycles - t.pmu.stall_frontend - t.pmu.stall_backend;
            assert!(dispatch_cycles > 0);
            // Dispatch (incl. squashed wrong-path µops) is width-bounded per
            // active cycle.
            assert!(t.pmu.inst_spec <= t.pmu.cpu_cycles * cfg.core.dispatch_width as u64);
        }
    }

    #[test]
    fn completions_are_reported() {
        let cfg = ChipConfig::thunderx2(1);
        let (mut core, mut llc, mut mem) = setup(&cfg);
        core.ctx[0] = Some(compute_thread(3, 2_000));
        let mut ev = Vec::new();
        for now in 0..5_000 {
            mem.tick(now);
            core.step(now, &cfg, &mut llc, &mut mem, &mut ev);
        }
        assert!(!ev.is_empty(), "short program should complete");
        assert_eq!(ev[0].app_id, 3);
        assert!(ev.iter().filter(|e| e.launch == 0).count() == 1);
    }
}
