//! The policy decorator every benchmarked run goes through.
//!
//! [`Probe`] implements `Policy` around `Synpa` or `LinuxLike` and forwards
//! every call. Untimed, it only counts what the quantum loop shows it:
//! decide calls, placements returned, retired instructions and placed
//! thread-cycles. Timed (the traced run), it adds two `Instant`
//! reads per quantum: one before and one after the inner `decide`. The time
//! between the end of one `decide` and the start of the next is the loop
//! outside the policy (engine `run_until`, counter sampling, bookkeeping).
//! It can also keep copies of the views it saw, for the replay probe.
//!
//! A probe hands its record to a shared sink when it is dropped, which is
//! when `run_cell` or the caller of `run_service` finishes the run.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use synpa::matching::MatcherStats;
use synpa::prelude::{Policy, Slot};
use synpa::sched::QuantumView;
use synpa::sim::PmuDelta;

/// A copy of one `QuantumView`, without the fault fields (the benchmark
/// runs healthy chips, so they are always empty).
#[derive(Debug)]
pub struct RecordedView {
    pub samples: Vec<(usize, PmuDelta)>,
    pub placement: Vec<(usize, Slot)>,
    pub smt_ways: usize,
    pub dispatch_width: u32,
}

impl RecordedView {
    pub fn view(&self) -> QuantumView<'_> {
        QuantumView {
            quantum: 0,
            samples: &self.samples,
            placement: &self.placement,
            smt_ways: self.smt_ways,
            dispatch_width: self.dispatch_width,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        }
    }
}

/// What one run (one policy, one repetition) showed the probe.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// Index of the workload cell inside the pass.
    pub cell: usize,
    pub policy: &'static str,
    pub seed: u64,
    pub calls: u64,
    /// Decisions that returned a placement.
    pub placements: u64,
    /// Instructions retired over all sampled quanta.
    pub instructions: u64,
    /// Σ placed threads × quantum cycles over all decide calls.
    pub thread_cycles: u64,
    pub matcher: Option<MatcherStats>,
    /// Host nanoseconds of each decide call (timed probes only).
    pub decide_ns: Vec<u64>,
    /// Host nanoseconds between decide calls (timed probes only).
    pub outside_ns: u64,
    /// Host nanoseconds from construction to drop (timed probes only).
    pub run_ns: u64,
    pub views: Vec<RecordedView>,
}

/// Shared destination of finished run records.
pub type Sink = Arc<Mutex<Vec<RunRecord>>>;

/// How much a probe does besides counting.
#[derive(Debug, Clone, Copy)]
pub struct ProbeMode {
    pub timed: bool,
    /// Keep a copy of every view (for the replay probe).
    pub record_views: bool,
}

pub struct Probe {
    inner: Box<dyn Policy>,
    mode: ProbeMode,
    quantum_cycles: u64,
    record: RunRecord,
    born: Option<Instant>,
    last: Option<Instant>,
    sink: Sink,
}

impl Probe {
    pub fn new(
        inner: Box<dyn Policy>,
        mode: ProbeMode,
        quantum_cycles: u64,
        cell: usize,
        seed: u64,
        sink: Sink,
    ) -> Self {
        let now = mode.timed.then(Instant::now);
        Probe {
            record: RunRecord {
                cell,
                policy: inner.name(),
                seed,
                ..RunRecord::default()
            },
            inner,
            mode,
            quantum_cycles,
            born: now,
            last: now,
            sink,
        }
    }
}

impl Policy for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        let r = &mut self.record;
        r.calls += 1;
        r.thread_cycles += view.placement.len() as u64 * self.quantum_cycles;
        r.instructions += view
            .samples
            .iter()
            .map(|(_, d)| d.inst_retired)
            .sum::<u64>();
        if self.mode.record_views {
            r.views.push(RecordedView {
                samples: view.samples.to_vec(),
                placement: view.placement.to_vec(),
                smt_ways: view.smt_ways,
                dispatch_width: view.dispatch_width,
            });
        }
        let decision = match self.last {
            Some(last) => {
                let start = Instant::now();
                let d = self.inner.decide(view);
                let end = Instant::now();
                r.outside_ns += (start - last).as_nanos() as u64;
                r.decide_ns.push((end - start).as_nanos() as u64);
                self.last = Some(end);
                d
            }
            None => self.inner.decide(view),
        };
        if decision.is_some() {
            r.placements += 1;
        }
        decision
    }

    fn matcher_stats(&self) -> Option<MatcherStats> {
        self.inner.matcher_stats()
    }

    fn guardrail_stats(&self) -> Option<synpa::sched::GuardrailStats> {
        self.inner.guardrail_stats()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let mut record = std::mem::take(&mut self.record);
        record.matcher = self.inner.matcher_stats();
        if let Some(born) = self.born {
            record.run_ns = born.elapsed().as_nanos() as u64;
        }
        // Drop must not panic: a poisoned sink loses the record, and the
        // missing record then fails the pass's completeness check.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(record);
        }
    }
}
