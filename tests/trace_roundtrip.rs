//! Record/replay integration: counter traces captured from a live simulator
//! run must replay into exactly the same per-quantum characterization —
//! the offline-training path a real `perf`-recorded trace would take.

use synpa::counters::{read_trace, QuantumRecord, TraceReplay, TraceWriter};
use synpa::model::Categories;
use synpa::prelude::*;

fn record_run(quanta: u64, quantum_cycles: u64) -> (Vec<QuantumRecord>, Vec<Categories>) {
    let mut chip = Chip::new(ChipConfig::thunderx2(1));
    for (i, name) in ["mcf", "gobmk"].iter().enumerate() {
        chip.attach(
            Slot(i),
            i,
            Box::new(spec::by_name(name).unwrap().with_length(u64::MAX)),
        );
    }
    // Warm the caches so early quanta reflect steady-state behaviour.
    chip.run_cycles(60_000);
    let mut last = [0, 1].map(|app| *chip.pmu_of(app).unwrap());
    let mut records = Vec::new();
    let mut live_categories = Vec::new();
    for q in 0..quanta {
        chip.run_cycles(quantum_cycles);
        for (app, last) in last.iter_mut().enumerate() {
            let now = *chip.pmu_of(app).unwrap();
            let delta = now.delta_since(last);
            *last = now;
            records.push(QuantumRecord::from_delta(q, app, &delta));
            live_categories.push(Categories::from_delta(&delta, 4));
        }
    }
    (records, live_categories)
}

#[test]
fn recorded_trace_replays_identically() {
    let (records, live) = record_run(12, 5_000);

    // Serialize through the JSON-lines writer and read back.
    let mut writer = TraceWriter::new(Vec::new());
    for r in &records {
        writer.write(r).unwrap();
    }
    let bytes = writer.finish().unwrap();
    let parsed = read_trace(std::io::BufReader::new(&bytes[..])).unwrap();
    assert_eq!(parsed, records);

    // Replay quantum by quantum: the characterization pipeline must see the
    // exact same category values it saw live.
    let mut replay = TraceReplay::new(parsed);
    let mut replayed = Vec::new();
    while let Some(samples) = replay.next_quantum() {
        for (_, delta) in samples {
            replayed.push(Categories::from_delta(&delta, 4));
        }
    }
    assert_eq!(replayed.len(), live.len());
    for (a, b) in replayed.iter().zip(&live) {
        assert!((a.cpi() - b.cpi()).abs() < 1e-12, "replayed CPI differs");
        assert_eq!(a.as_array(), b.as_array());
    }
}

#[test]
fn replay_supports_behavioural_classification() {
    // A recorded trace is enough to classify behaviour offline: mcf must be
    // backend-behaving, gobmk frontend-behaving, in the majority of quanta.
    let (records, _) = record_run(20, 5_000);
    let mut replay = TraceReplay::new(records);
    let mut backend_wins = [0u32; 2];
    let mut quanta = 0;
    while let Some(samples) = replay.next_quantum() {
        quanta += 1;
        for (app, delta) in samples {
            let c = Categories::from_delta(&delta, 4);
            if c.backend > c.frontend {
                backend_wins[app] += 1;
            }
        }
    }
    assert!(quanta >= 20);
    assert!(
        backend_wins[0] > quanta * 3 / 4,
        "mcf backend-behaving in {}/{quanta}",
        backend_wins[0]
    );
    assert!(
        backend_wins[1] < quanta / 2,
        "gobmk frontend-behaving, but backend won {}/{quanta}",
        backend_wins[1]
    );
}
