//! Property tests over the counter-sampling path: the sanitizer's
//! snapshot store under random sample/forget interleavings must always
//! emit the delta since the last observation (full cumulative counts after
//! a forget), and a sanitized trace recorded from *faulted* reads must
//! round-trip byte-exactly through `TraceWriter` → `read_trace` →
//! `TraceReplay`.

use proptest::prelude::*;
use std::collections::HashMap;
use synpa::counters::{
    read_trace, FaultConfig, FaultInjector, QuantumRecord, SanitizingSession, TraceReplay,
    TraceWriter,
};
use synpa::sim::PmuCounters;

/// Cumulative counters set directly by the test; all five main events
/// advance together so snapshots are always monotonic and plausible
/// (stalls sum to half the cycles).
#[derive(Default)]
struct Scripted {
    cum: HashMap<usize, u64>,
}

impl Scripted {
    fn advance(&mut self, app: usize, cycles: u64) {
        *self.cum.entry(app).or_insert(0) += cycles;
    }

    fn read(&self, app: usize) -> Option<PmuCounters> {
        self.cum.get(&app).map(|&c| counters_at(c))
    }
}

fn counters_at(cum: u64) -> PmuCounters {
    PmuCounters {
        cpu_cycles: cum,
        inst_spec: cum * 2,
        stall_frontend: cum / 4,
        stall_backend: cum / 4,
        inst_retired: cum * 2,
        ..Default::default()
    }
}

/// One step of a random interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Advance one app's cumulative counters, then sample it.
    Sample { app: usize, advance: u64 },
    /// Forget one app's snapshot (as the manager does on detach).
    Forget { app: usize },
}

/// Sample ops outnumber forgets 4:1 (the manager forgets only on detach).
/// Advances are multiples of 4, so the quarter-cycle stalls of
/// [`counters_at`] advance exactly and every snapshot is plausible.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..5, 0usize..3, 1u64..500).prop_map(|(variant, app, advance)| {
        if variant < 4 {
            Op::Sample {
                app,
                advance: advance * 4,
            }
        } else {
            Op::Forget { app }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Whatever the interleaving, every emitted delta equals the source's
    // cumulative progress since the previous observation of that app —
    // and the full cumulative count right after a forget. Deltas summed
    // between forgets therefore never exceed the cumulative total. The
    // cycle bound sits above any scripted progress, so every read is Ok
    // and the snapshot store alone decides the delta.
    #[test]
    fn sampling_session_deltas_track_cumulative_progress(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut source = Scripted::default();
        let mut session = SanitizingSession::new(1 << 40);
        // The model: cumulative value at each app's last observation.
        let mut last_seen: HashMap<usize, u64> = HashMap::new();
        for (quantum, op) in (0u64..).zip(ops) {
            match op {
                Op::Sample { app, advance } => {
                    source.advance(app, advance);
                    let cum = source.cum[&app];
                    let out = session.sample(&[app], quantum, |id| source.read(id));
                    prop_assert!(out.is_clean(), "every scripted read is Ok");
                    prop_assert_eq!(out.samples.len(), 1);
                    let delta = out.samples[0].1;
                    let expect = cum - last_seen.get(&app).copied().unwrap_or(0);
                    prop_assert_eq!(delta.cpu_cycles, expect);
                    prop_assert!(delta.cpu_cycles <= cum, "delta may never exceed cumulative");
                    prop_assert_eq!(delta.inst_spec, counters_at(cum).inst_spec
                        - last_seen.get(&app).map_or(0, |&c| counters_at(c).inst_spec));
                    last_seen.insert(app, cum);
                }
                Op::Forget { app } => {
                    session.forget(app);
                    last_seen.remove(&app);
                }
            }
        }
    }

    // A trace recorded from a *faulted* source through the sanitizer
    // round-trips exactly: `read_trace` returns the records byte-for-byte
    // and `TraceReplay` regroups them into the original quanta.
    #[test]
    fn faulted_trace_roundtrips_through_writer_and_replay(seed in 0u64..u64::MAX, rate in 0.0f64..0.4) {
        let mut source = Scripted::default();
        for app in 0..3 {
            source.advance(app, 1);
        }
        let cfg = FaultConfig::uniform(seed, rate);
        let mut injector = FaultInjector::new(&cfg);
        let mut session = SanitizingSession::new(1_000);
        let mut writer = TraceWriter::new(Vec::new());
        let mut per_quantum: Vec<Vec<(usize, synpa::sim::PmuDelta)>> = Vec::new();
        for q in 0..12u64 {
            for app in 0..3 {
                source.advance(app, 1_000);
            }
            let sanitized = session.sample(&[0, 1, 2], q, |app| {
                injector.read(app, q, source.read(app)?)
            });
            for &(app, ref d) in &sanitized.samples {
                writer.write(&QuantumRecord::from_delta(q, app, d)).unwrap();
            }
            if !sanitized.samples.is_empty() {
                per_quantum.push(sanitized.samples.clone());
            }
        }
        let bytes = writer.finish().unwrap();
        let records = read_trace(std::io::BufReader::new(&bytes[..])).unwrap();
        prop_assert_eq!(records.len() as u64, per_quantum.iter().map(|q| q.len() as u64).sum::<u64>());
        let mut replay = TraceReplay::new(records);
        for expected in &per_quantum {
            let got = replay.next_quantum().expect("quantum present");
            prop_assert_eq!(got.len(), expected.len());
            for ((ga, gd), (ea, ed)) in got.iter().zip(expected) {
                prop_assert_eq!(ga, ea);
                // Extended events are not traced; the four PMU events and
                // retired instructions must survive exactly.
                prop_assert_eq!(gd.cpu_cycles, ed.cpu_cycles);
                prop_assert_eq!(gd.inst_spec, ed.inst_spec);
                prop_assert_eq!(gd.stall_frontend, ed.stall_frontend);
                prop_assert_eq!(gd.stall_backend, ed.stall_backend);
                prop_assert_eq!(gd.inst_retired, ed.inst_retired);
            }
        }
        prop_assert!(replay.next_quantum().is_none());
    }
}
