//! Per-hardware-thread pipeline state.
//!
//! Each [`HwThread`] models the dispatch-stage view of one running
//! application: a fetch/dispatch queue fed by the (shared) frontend, an
//! in-order window of µop batches standing in for the ROB, and the PMU
//! counters the SYNPA manager will read. The cross-thread resources (dispatch
//! width, ROB/LSQ capacity, cache arrays, the I-cache port) live in
//! [`crate::core::Core`]; this module holds everything thread-private.

use std::collections::VecDeque;

use crate::config::CoreConfig;
use crate::pmu::PmuCounters;
use crate::program::{PhaseParams, ThreadProgram};
use crate::rng::{Dither, SplitMix64};
use crate::stream::AddrStream;

/// How often (retired instructions) the active phase parameters are
/// refreshed from the program model.
const PHASE_REFRESH: u64 = 2048;

/// Attack rate of the DRAM-demand estimator: on a fill cycle the rate is
/// pulled toward the observed fills with this EWMA weight.
const DRAM_RATE_ALPHA: f64 = 1.0 / 128.0;

/// Linear leak of the DRAM-demand estimator per zero-fill cycle. A power
/// of two, so `rate - LEAK` — and the batched `rate - n·LEAK` — are exact
/// f64 operations for every rate below 2^40 (the leak lies on the ulp grid
/// of any such rate, and the difference needs no extra significand bits):
/// that exactness is what lets the horizon engine advance the estimator
/// across an elided window in O(1) instead of replaying per-cycle
/// roundings. 2^-13 empties a saturated estimator (rate ≈ the 0.02
/// `dram_rate_cap`) in ~160 cycles, matching the horizon over which the
/// PR 3/PR 4 EWMA (half-life ≈ 89 cycles) forgot a burst of demand.
const DRAM_RATE_LEAK: f64 = 1.0 / 8192.0;

/// Furthest a fill may lie beyond the MSHR clock: later fill times are
/// clamped to `mshr_tick + MSHR_HORIZON`. The value is part of the
/// simulated result (it sets when a clamped fill releases); the test
/// `mshr_fill_queue_matches_the_wheel` pins it to the 4096-slot wheel
/// model.
const MSHR_HORIZON: u64 = 4094;

/// One in-order batch of dispatched µops awaiting retirement.
///
/// Batches are pushed in dispatch (program) order and retired strictly from
/// the head, so a long-latency head batch blocks retirement exactly like a
/// load miss at the ROB head does on real hardware.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RobBatch {
    /// Cycle at which the batch's results are complete.
    pub ready: u64,
    /// µops remaining in the batch.
    pub n: u16,
    /// Loads and stores carried (for LSQ accounting on drain).
    pub loads: u16,
    pub stores: u16,
    /// L1D misses carried (for MSHR accounting on drain).
    pub misses: u16,
}

/// Why a thread dispatched nothing this cycle: the Table I architectural
/// split (frontend vs. backend) with the extended attribution of §VI-A.
/// One classifier ([`HwThread::stall_kind`]) is shared by the per-cycle
/// dispatch stage and the per-core engine's closed-form fast-forward, so
/// the two accountings can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallKind {
    /// Dispatch queue empty after a branch-mispredict redirect.
    FrontendBranch,
    /// Dispatch queue empty waiting on the I-cache (or the fetch port).
    FrontendICache,
    /// Co-runners consumed the whole dispatch width this cycle.
    Width,
    /// Load or store queue at capacity.
    LsqFull,
    /// ROB full behind an outstanding data-cache miss at the head.
    DCache,
    /// In-flight window beyond the issue-queue size.
    IqFull,
    /// ROB (shared array or per-thread hog cap) full.
    RobFull,
}

/// Why a fetch is currently not producing µops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchBlock {
    None,
    /// I-cache miss outstanding until the stored cycle.
    ICacheMiss,
    /// Branch-mispredict redirect until the stored cycle.
    Redirect,
}

/// Events a thread can report to the outside world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Application identity (stable across migrations and relaunches).
    pub app_id: usize,
    /// Cycle at which the launch completed.
    pub cycle: u64,
    /// Launch ordinal that just finished (0 = first).
    pub launch: u64,
}

/// A hardware thread executing one application model.
pub struct HwThread {
    pub(crate) app_id: usize,
    pub(crate) program: Box<dyn ThreadProgram>,
    pub(crate) phase: PhaseParams,
    next_phase_refresh: u64,

    /// Retired instructions within the current launch.
    pub(crate) retired_in_launch: u64,
    pub(crate) launches: u64,
    /// Wedged by an injected execution fault: the thread occupies its slot
    /// and keeps accumulating cycles (attributed as a backend data stall —
    /// a load that will never return), but never fetches, retires or
    /// completes again.
    pub(crate) hung: bool,

    // --- frontend ---
    pub(crate) fetch_q: u32,
    pub(crate) fetch_block: FetchBlock,
    pub(crate) fetch_block_until: u64,

    // --- backend window ---
    pub(crate) rob: VecDeque<RobBatch>,
    pub(crate) rob_occ: u32,
    pub(crate) lq_occ: u32,
    pub(crate) sq_occ: u32,
    /// L1D misses whose fills are still in flight (MSHR occupancy).
    pub(crate) outstanding_misses: u32,
    /// Exponentially averaged DRAM fills issued per cycle (bandwidth
    /// demand; drives the shared miss-path saturation model).
    pub(crate) dram_rate: f64,
    /// In-flight miss fills as `(fill cycle, count)`: sorted by fill cycle,
    /// at most one entry per cycle, every cycle in
    /// `(mshr_tick, mshr_tick + MSHR_HORIZON]`.
    mshr_fills: VecDeque<(u64, u16)>,
    mshr_tick: u64,
    /// Cached `program.length()`: read on every cycle by
    /// [`HwThread::check_completion`], so the virtual call is made once.
    program_len: u64,

    // --- streams & stochastics ---
    pub(crate) code_stream: AddrStream,
    pub(crate) data_stream: AddrStream,
    /// Round-robin cursor over the thread's hot code lines.
    pub(crate) hot_code_cursor: u64,
    pub(crate) mem_dither: Dither,
    pub(crate) br_dither: Dither,
    pub(crate) rng: SplitMix64,

    // --- accounting ---
    pub(crate) pmu: PmuCounters,
    /// Cycle until which the thread pays a migration penalty.
    pub(crate) migrate_stall_until: u64,
}

impl HwThread {
    /// Creates a thread for `program`. `app_id` must be unique per
    /// application instance in the workload; it also seeds this thread's
    /// private address region and RNG stream.
    pub fn new(app_id: usize, program: Box<dyn ThreadProgram>, seed: u64, line: u64) -> Self {
        let phase = program.phase_at(0);
        let program_len = program.length();
        let base = (app_id as u64 + 1) << 44;
        Self {
            app_id,
            // Cold code walks whole lines; data strides sub-line (8 B) so
            // sequential phases enjoy spatial locality within a line.
            code_stream: AddrStream::new(base, phase.code_footprint, 0.7, line, line),
            data_stream: AddrStream::new(
                base | 1 << 43,
                phase.data_footprint,
                phase.data_seq,
                line,
                8,
            ),
            hot_code_cursor: 0,
            program,
            phase,
            next_phase_refresh: PHASE_REFRESH,
            retired_in_launch: 0,
            launches: 0,
            hung: false,
            fetch_q: 0,
            fetch_block: FetchBlock::None,
            fetch_block_until: 0,
            rob: VecDeque::with_capacity(64),
            rob_occ: 0,
            lq_occ: 0,
            sq_occ: 0,
            outstanding_misses: 0,
            dram_rate: 0.0,
            mshr_fills: VecDeque::new(),
            mshr_tick: 0,
            program_len,
            mem_dither: Dither::default(),
            br_dither: Dither::default(),
            rng: SplitMix64::new(seed ^ (app_id as u64).wrapping_mul(0x9E37_79B9)),
            pmu: PmuCounters::default(),
            migrate_stall_until: 0,
        }
    }

    /// Application identity (stable across migrations and relaunches).
    pub fn app_id(&self) -> usize {
        self.app_id
    }

    /// Application name.
    pub fn name(&self) -> &str {
        self.program.name()
    }

    /// This thread's PMU counters.
    pub fn pmu(&self) -> &PmuCounters {
        &self.pmu
    }

    /// Completed launches of the program (paper §V-B relaunch count).
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Wedges the thread (injected hang): it keeps its slot and its cycle
    /// counter, but never fetches, retires or completes again. Irreversible
    /// for the thread's lifetime — recovery is detach-and-relaunch.
    pub fn hang(&mut self) {
        self.hung = true;
    }

    /// True when the thread has been wedged by [`HwThread::hang`].
    pub fn is_hung(&self) -> bool {
        self.hung
    }

    /// Refreshes phase parameters if the program crossed a refresh boundary.
    pub(crate) fn maybe_refresh_phase(&mut self) {
        if self.retired_in_launch >= self.next_phase_refresh {
            self.phase = self.program.phase_at(self.retired_in_launch);
            self.code_stream.retune(self.phase.code_footprint, 0.7);
            self.data_stream
                .retune(self.phase.data_footprint, self.phase.data_seq);
            self.next_phase_refresh = self.retired_in_launch + PHASE_REFRESH;
        }
    }

    /// Advances the MSHR clock to `now`, releasing every fill due by then.
    ///
    /// Costs O(fills released): waking from a long elided stall pops the
    /// due entries and jumps, which the horizon engine relies on.
    /// `outstanding_misses` never falls below the queued total (a cycle's
    /// count saturates, the miss total does not), so the saturating
    /// release can only reach 0 once the queue is empty.
    pub(crate) fn tick_mshr(&mut self, now: u64) {
        while let Some(&(time, count)) = self.mshr_fills.front() {
            if time > now {
                break;
            }
            self.outstanding_misses = self.outstanding_misses.saturating_sub(u32::from(count));
            self.mshr_fills.pop_front();
        }
        self.mshr_tick = self.mshr_tick.max(now);
    }

    /// Updates the DRAM-demand estimate with this cycle's DRAM fills:
    /// EWMA-style attack toward the observed fill rate on fill cycles, a
    /// linear leak on zero-fill cycles.
    ///
    /// The leak (rather than an exponential zero-fill decay) is what gives
    /// the horizon engine an exact closed form: iterated f64 rounding of
    /// `rate · (1-α)` has none, so PR 4 had to *replay* the decay once per
    /// elided cycle — O(window length) per fast-forward, and the dominant
    /// cost of eliding at full-chip scale, since a realistic rate only
    /// reaches the decay's fixed point after ~90 000 iterations. A leak by
    /// a power of two subtracts exactly (see [`DRAM_RATE_LEAK`]), so `n`
    /// leaked cycles equal one batched subtraction bit-for-bit
    /// ([`HwThread::decay_dram_rate`]). Solo-run observables are untouched
    /// by the law change: the rate is only ever read through the
    /// saturation branch, which needs a co-runner with excess demand.
    #[inline]
    pub(crate) fn update_dram_rate(&mut self, fills: u32) {
        if fills > 0 {
            self.dram_rate += (fills as f64 - self.dram_rate) * DRAM_RATE_ALPHA;
        } else {
            self.dram_rate = (self.dram_rate - DRAM_RATE_LEAK).max(0.0);
        }
    }

    /// Applies `n` zero-fill updates in closed form, bit-identical to `n`
    /// single [`HwThread::update_dram_rate`]`(0)` calls: `rate - k·LEAK`
    /// is exact for every representable rate (both operands sit on a
    /// common grid of ≤ 53 significand bits), and once the rate reaches
    /// 0.0 every further step is a fixed point.
    #[inline]
    pub(crate) fn decay_dram_rate(&mut self, n: u64) {
        if self.dram_rate > 0.0 {
            // Steps until the subtraction would cross zero: the ceiling of
            // `rate / LEAK`. Division by a power of two is exact, and the
            // quotient (a rate is at most a few fills per cycle) is far
            // below 2^53, so truncation plus a round-up is the exact
            // `ceil` without a libm call.
            let quotient = self.dram_rate / DRAM_RATE_LEAK;
            let whole = quotient as u64 as f64;
            let to_floor = if whole < quotient { whole + 1.0 } else { whole };
            let steps = to_floor.min(n as f64);
            self.dram_rate = (self.dram_rate - steps * DRAM_RATE_LEAK).max(0.0);
        }
    }

    /// Registers `misses` in-flight fills completing at `fill_time`, which
    /// must lie after the MSHR clock (the dispatch stage ticks it to `now`
    /// first). Fills beyond the horizon are clamped to it, not lost; a
    /// cycle's count saturates at `u16::MAX`.
    pub(crate) fn issue_misses(&mut self, misses: u32, fill_time: u64) {
        debug_assert!(fill_time > self.mshr_tick, "fill in the past");
        self.outstanding_misses += misses;
        let fill_time = fill_time.min(self.mshr_tick + MSHR_HORIZON);
        // Fills arrive in near-sorted order: search from the back.
        match self
            .mshr_fills
            .iter()
            .rposition(|&(time, _)| time <= fill_time)
        {
            Some(k) if self.mshr_fills[k].0 == fill_time => {
                let count = &mut self.mshr_fills[k].1;
                *count = count.saturating_add(misses as u16);
            }
            k => {
                let at = k.map_or(0, |k| k + 1);
                // The common case appends; `push_back` skips `insert`'s
                // general shifting path.
                if at == self.mshr_fills.len() {
                    self.mshr_fills.push_back((fill_time, misses as u16));
                } else {
                    self.mshr_fills.insert(at, (fill_time, misses as u16));
                }
            }
        }
    }

    /// Next instruction-fetch address: hot loop body with probability
    /// `code_hot` (8 resident lines, cycled), otherwise a cold-code access.
    pub(crate) fn next_fetch_addr(&mut self, line: u64) -> u64 {
        if self.rng.chance(self.phase.code_hot) {
            self.hot_code_cursor = (self.hot_code_cursor + 1) % 8;
            ((self.app_id as u64 + 1) << 44) + self.hot_code_cursor * line
        } else {
            self.code_stream.next(&mut self.rng)
        }
    }

    /// Retires up to `width` µops in order. Returns retired count.
    pub(crate) fn retire(&mut self, now: u64, width: u32) -> u32 {
        if self.hung {
            return 0;
        }
        let mut budget = width;
        while budget > 0 {
            let Some(head) = self.rob.front_mut() else {
                break;
            };
            if head.ready > now {
                break;
            }
            let take = (head.n as u32).min(budget);
            head.n -= take as u16;
            self.rob_occ -= take;
            self.retired_in_launch += take as u64;
            self.pmu.inst_retired += take as u64;
            budget -= take;
            if head.n == 0 {
                self.lq_occ = self.lq_occ.saturating_sub(head.loads as u32);
                self.sq_occ = self.sq_occ.saturating_sub(head.stores as u32);
                self.rob.pop_front();
            }
        }
        width - budget
    }

    /// Handles end-of-launch: if the launch target was reached, resets
    /// progress and reports a [`Completion`]. The thread keeps running
    /// (relaunch methodology, paper §V-B).
    pub(crate) fn check_completion(&mut self, now: u64) -> Option<Completion> {
        if self.hung {
            return None;
        }
        let len = self.program_len;
        if self.retired_in_launch >= len {
            let launch = self.launches;
            self.launches += 1;
            self.retired_in_launch -= len;
            self.next_phase_refresh = PHASE_REFRESH.min(len);
            self.phase = self.program.phase_at(self.retired_in_launch);
            Some(Completion {
                app_id: self.app_id,
                cycle: now,
                launch,
            })
        } else {
            None
        }
    }

    /// Earliest future cycle at which this thread can act again, given that
    /// it is currently fully stalled (it did not fetch, dispatch, retire or
    /// complete in the cycle just executed). Two things can wake it on its
    /// own: the ROB head completing (enables retirement, and with it ROB/LSQ
    /// space) and the I-fetch path unblocking (I-cache miss or migration
    /// stall expiring while the dispatch queue has room). `u64::MAX` when
    /// only *other* threads' progress can unblock it — their own wake events
    /// bound the chip-wide horizon in that case.
    pub(crate) fn wake_event(&self, fetch_width: u32, queue_cap: u32) -> u64 {
        if self.hung {
            // Nothing can ever wake a wedged thread on its own.
            return u64::MAX;
        }
        let mut wake = match self.rob.front() {
            Some(head) => head.ready,
            None => u64::MAX,
        };
        if self.fetch_q + fetch_width <= queue_cap {
            let mut refetch = self.migrate_stall_until;
            if self.fetch_block != FetchBlock::None {
                refetch = refetch.max(self.fetch_block_until);
            }
            wake = wake.min(refetch);
        }
        wake
    }

    /// Classifies this thread's zero-dispatch cycle at `now`, mirroring
    /// the dispatch stage's resource-check cascade exactly: frontend-empty
    /// first (ARM's `STALL_FRONTEND` is "no operation in the queue"), then
    /// dispatch width, LSQ capacity, and the shared-window ROB space.
    /// `None` means the thread can dispatch this cycle.
    pub(crate) fn stall_kind(
        &self,
        now: u64,
        width_left: u32,
        lq_cap: u32,
        sq_cap: u32,
        rob_space: u32,
        iq_size: u32,
    ) -> Option<StallKind> {
        if self.hung {
            // A wedged thread accounts as a permanent backend data stall —
            // a load that will never return. One classification shared by
            // the per-cycle path and the fast-forward, so both engines
            // attribute the hang identically.
            return Some(StallKind::DCache);
        }
        if self.fetch_q == 0 {
            return Some(match self.fetch_block {
                FetchBlock::Redirect => StallKind::FrontendBranch,
                _ => StallKind::FrontendICache,
            });
        }
        if width_left == 0 {
            return Some(StallKind::Width);
        }
        if self.lq_occ >= lq_cap || self.sq_occ >= sq_cap {
            return Some(StallKind::LsqFull);
        }
        if rob_space == 0 {
            let head_blocked_on_miss = self
                .rob
                .front()
                .map(|h| h.ready > now && h.misses > 0)
                .unwrap_or(false);
            return Some(if head_blocked_on_miss {
                StallKind::DCache
            } else if self.rob_occ > iq_size {
                StallKind::IqFull
            } else {
                StallKind::RobFull
            });
        }
        None
    }

    /// Charges `n` cycles of `kind` to the architectural and extended PMU
    /// counters.
    pub(crate) fn apply_stall(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::FrontendBranch | StallKind::FrontendICache => self.pmu.stall_frontend += n,
            _ => self.pmu.stall_backend += n,
        }
        match kind {
            StallKind::FrontendBranch => self.pmu.ext.stall_branch += n,
            StallKind::FrontendICache => self.pmu.ext.stall_icache += n,
            StallKind::Width => self.pmu.ext.stall_width += n,
            StallKind::LsqFull => self.pmu.ext.stall_lsq_full += n,
            StallKind::DCache => self.pmu.ext.stall_dcache += n,
            StallKind::IqFull => self.pmu.ext.stall_iq_full += n,
            StallKind::RobFull => self.pmu.ext.stall_rob_full += n,
        }
    }

    /// Advances `n` fully-stalled cycles starting at cycle `now` in closed
    /// form: exactly the counter increments and EWMA updates the per-cycle
    /// dispatch stage performs on its stall paths. The caller (the horizon
    /// engine) has established that nothing observable changes across the
    /// window, so the classification is constant and applied `n` times at
    /// once. (`ready > now` holds for the whole window because the ROB
    /// head's `ready` bounds the horizon.)
    pub(crate) fn fast_forward_stall(
        &mut self,
        n: u64,
        now: u64,
        core: &CoreConfig,
        lq_cap: u32,
        sq_cap: u32,
        rob_space: u32,
    ) {
        self.pmu.cpu_cycles += n;
        // In an inert cycle nobody dispatched, so every thread saw the full
        // dispatch width; an unstalled thread would contradict inertness.
        let kind = self
            .stall_kind(
                now,
                core.dispatch_width,
                lq_cap,
                sq_cap,
                rob_space,
                core.iq_size,
            )
            .expect("inert window implies every thread is stalled");
        self.apply_stall(kind, n);
        // The `n` zero-fill demand updates batch into one exact
        // subtraction (see `decay_dram_rate`) — the O(window) per-cycle
        // EWMA replay this path needed before the leak-law change was the
        // dominant cost of eliding at full-chip scale.
        self.decay_dram_rate(n);
    }

    /// True when the thread wants the I-cache port this cycle.
    pub(crate) fn wants_fetch(&self, now: u64, fetch_width: u32, queue_cap: u32) -> bool {
        if self.hung || now < self.migrate_stall_until {
            return false;
        }
        match self.fetch_block {
            FetchBlock::None => self.fetch_q + fetch_width <= queue_cap,
            _ => now >= self.fetch_block_until && self.fetch_q + fetch_width <= queue_cap,
        }
    }

    /// Applies the cost of a migration to a different core: the dispatch
    /// queue and in-flight window drain, private-cache warmth is lost
    /// implicitly (the new core's caches don't hold this thread's lines).
    pub(crate) fn apply_migration(&mut self, now: u64, penalty: u32) {
        self.fetch_q = 0;
        self.fetch_block = FetchBlock::None;
        // In-flight work completes before the move (we model the drain as a
        // stall rather than discarding retired-instruction credit).
        for b in &mut self.rob {
            b.ready = b.ready.min(now);
        }
        self.migrate_stall_until = now + penalty as u64;
        self.mem_dither.reset();
        self.br_dither.reset();
    }
}

impl std::fmt::Debug for HwThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwThread")
            .field("app_id", &self.app_id)
            .field("name", &self.program.name())
            .field("retired_in_launch", &self.retired_in_launch)
            .field("launches", &self.launches)
            .field("rob_occ", &self.rob_occ)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UniformProgram;

    fn thread(len: u64) -> HwThread {
        HwThread::new(
            0,
            Box::new(UniformProgram::new("t", PhaseParams::compute(), len)),
            1,
            64,
        )
    }

    #[test]
    fn retire_is_in_order_and_blocking() {
        let mut t = thread(1000);
        t.rob.push_back(RobBatch {
            ready: 10,
            n: 4,
            loads: 0,
            stores: 0,
            misses: 0,
        });
        t.rob.push_back(RobBatch {
            ready: 0,
            n: 4,
            loads: 0,
            stores: 0,
            misses: 0,
        });
        t.rob_occ = 8;
        // Head not ready at cycle 5: nothing retires even though the second
        // batch is ready.
        assert_eq!(t.retire(5, 4), 0);
        // At cycle 10 the head retires, then the width limit stops us.
        assert_eq!(t.retire(10, 4), 4);
        assert_eq!(t.retire(10, 4), 4);
        assert_eq!(t.rob_occ, 0);
        assert_eq!(t.retired_in_launch, 8);
    }

    #[test]
    fn retire_partial_batch() {
        let mut t = thread(1000);
        t.rob.push_back(RobBatch {
            ready: 0,
            n: 10,
            loads: 2,
            stores: 1,
            misses: 1,
        });
        t.rob_occ = 10;
        t.lq_occ = 2;
        t.sq_occ = 1;
        assert_eq!(t.retire(0, 4), 4);
        // Batch not fully drained: LSQ still held.
        assert_eq!(t.lq_occ, 2);
        assert_eq!(t.retire(0, 6), 6);
        assert_eq!(t.lq_occ, 0);
        assert_eq!(t.sq_occ, 0);
    }

    #[test]
    fn mshr_wheel_releases_fills_on_time() {
        let mut t = thread(1000);
        t.tick_mshr(100);
        t.issue_misses(3, 150);
        assert_eq!(t.outstanding_misses, 3);
        t.tick_mshr(149);
        assert_eq!(t.outstanding_misses, 3);
        t.tick_mshr(150);
        assert_eq!(t.outstanding_misses, 0);
    }

    #[test]
    fn mshr_far_future_fill_is_clamped_not_lost() {
        let mut t = thread(1000);
        t.tick_mshr(10);
        t.issue_misses(2, 10 + 100_000);
        assert_eq!(t.outstanding_misses, 2);
        t.tick_mshr(10 + 5000);
        assert_eq!(t.outstanding_misses, 0, "clamped fill eventually releases");
    }

    /// Test-only copy of the 4096-slot MSHR fill wheel the fill queue
    /// replaced, kept as its differential oracle.
    struct WheelOracle {
        wheel: Vec<u16>,
        tick: u64,
        outstanding: u32,
    }

    impl WheelOracle {
        const SLOTS: usize = 4096;

        fn new() -> Self {
            Self {
                wheel: vec![0; Self::SLOTS],
                tick: 0,
                outstanding: 0,
            }
        }

        fn tick_mshr(&mut self, now: u64) {
            while self.outstanding > 0 && self.tick < now {
                self.tick += 1;
                let slot = (self.tick as usize) & (Self::SLOTS - 1);
                self.outstanding = self.outstanding.saturating_sub(u32::from(self.wheel[slot]));
                self.wheel[slot] = 0;
            }
            self.tick = self.tick.max(now);
        }

        fn issue_misses(&mut self, misses: u32, fill_time: u64) {
            self.outstanding += misses;
            let fill_time = fill_time.min(self.tick + (Self::SLOTS - 2) as u64);
            let slot = (fill_time as usize) & (Self::SLOTS - 1);
            self.wheel[slot] = self.wheel[slot].saturating_add(misses as u16);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn mshr_fill_queue_matches_the_wheel(
            start in 0u64..10_000,
            ops in proptest::collection::vec((0u32..3, 0u32..9, 1u64..9_000), 1..400),
        ) {
            let mut t = thread(1000);
            let mut oracle = WheelOracle::new();
            let mut now = start;
            t.tick_mshr(now);
            oracle.tick_mshr(now);
            for (i, &(kind, misses, delay)) in ops.iter().enumerate() {
                if kind == 0 {
                    // Delays up to 9000 cycles cross the 4094-cycle clamp.
                    t.issue_misses(misses, now + delay);
                    oracle.issue_misses(misses, now + delay);
                } else {
                    // Mostly short steps, sometimes a long elided jump.
                    now += if kind == 1 { delay % 64 } else { delay };
                    t.tick_mshr(now);
                    oracle.tick_mshr(now);
                }
                proptest::prop_assert_eq!(t.outstanding_misses, oracle.outstanding, "op {}", i);
            }
        }
    }

    #[test]
    fn completion_resets_progress_and_counts_launches() {
        let mut t = thread(100);
        t.retired_in_launch = 105;
        let c = t.check_completion(50).expect("completed");
        assert_eq!(c.launch, 0);
        assert_eq!(c.cycle, 50);
        assert_eq!(t.retired_in_launch, 5, "overshoot carries over");
        assert_eq!(t.launches, 1);
        assert!(t.check_completion(51).is_none());
    }

    #[test]
    fn wants_fetch_respects_queue_capacity() {
        let mut t = thread(100);
        t.fetch_q = 30;
        assert!(!t.wants_fetch(0, 8, 32));
        t.fetch_q = 24;
        assert!(t.wants_fetch(0, 8, 32));
    }

    #[test]
    fn wants_fetch_respects_block_and_migration() {
        let mut t = thread(100);
        t.fetch_block = FetchBlock::ICacheMiss;
        t.fetch_block_until = 20;
        assert!(!t.wants_fetch(10, 8, 32));
        assert!(t.wants_fetch(20, 8, 32));
        t.apply_migration(30, 100);
        assert!(!t.wants_fetch(50, 8, 32));
        assert!(t.wants_fetch(130, 8, 32));
    }

    #[test]
    fn migration_flushes_frontend_not_progress() {
        let mut t = thread(100);
        t.fetch_q = 16;
        t.retired_in_launch = 42;
        t.apply_migration(0, 10);
        assert_eq!(t.fetch_q, 0);
        assert_eq!(t.retired_in_launch, 42);
    }

    #[test]
    fn batched_dram_decay_is_bit_identical_to_per_cycle_steps() {
        // The closed form must equal `n` per-cycle zero-fill updates
        // bit-for-bit for arbitrary attack-produced rates and window
        // lengths — including windows that cross the zero floor.
        let mut rng = crate::rng::SplitMix64::new(99);
        for _ in 0..200 {
            let mut a = thread(1000);
            // Arbitrary attack history puts the rate at an arbitrary f64.
            for _ in 0..(1 + rng.next_below(6)) {
                a.update_dram_rate(1 + rng.next_below(4) as u32);
            }
            let mut b = thread(1000);
            b.dram_rate = a.dram_rate;
            let n = rng.next_below(600);
            for _ in 0..n {
                a.update_dram_rate(0);
            }
            b.decay_dram_rate(n);
            assert_eq!(
                a.dram_rate.to_bits(),
                b.dram_rate.to_bits(),
                "n = {n}, start = {}",
                a.dram_rate
            );
        }
        // A long window drains any rate to exactly zero.
        let mut t = thread(1000);
        t.update_dram_rate(4);
        t.decay_dram_rate(1_000_000);
        assert_eq!(t.dram_rate, 0.0);
    }

    #[test]
    fn phase_refresh_pulls_from_program() {
        let mut t = thread(1_000_000);
        let before = t.phase;
        t.retired_in_launch = PHASE_REFRESH + 1;
        t.maybe_refresh_phase();
        // UniformProgram: same params, but refresh must not corrupt state.
        assert_eq!(t.phase, before);
    }
}
