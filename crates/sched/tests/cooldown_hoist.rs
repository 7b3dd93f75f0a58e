//! Regression pin for the cooldown early-out in `Synpa::decide`.
//!
//! The cooldown gate used to run *after* the cost matrix and the blossom
//! solve, discarding their result; it now runs before them so a cooled-down
//! quantum skips estimation+matching entirely. Both gates are pure
//! predicates and `last_migration` is only written when every gate passes,
//! so the reordering must not change a single decision. This test drives a
//! deterministic 40-quantum drifting-sample scenario and pins the exact
//! decision trace (FNV-1a over the Debug rendering) and migration count
//! captured from the pre-hoist implementation.

use synpa_sched::{Policy, QuantumView, Synpa};
use synpa_sim::{PmuCounters, PmuDelta, Slot};

fn model() -> synpa_model::SynpaModel {
    use synpa_model::CategoryCoeffs;
    synpa_model::SynpaModel {
        full_dispatch: CategoryCoeffs {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        },
        frontend: CategoryCoeffs {
            alpha: 0.03,
            beta: 1.0,
            gamma: 0.0,
            rho: 0.0,
        },
        backend: CategoryCoeffs {
            alpha: 0.1,
            beta: 1.0,
            gamma: 0.1,
            rho: 0.8,
        },
    }
}

fn delta(fe: u64, be: u64) -> PmuDelta {
    PmuCounters {
        cpu_cycles: 1000,
        inst_spec: (1000 - fe - be) * 4,
        stall_frontend: fe,
        stall_backend: be,
        inst_retired: (1000 - fe - be) * 4,
        ..Default::default()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn hoisted_cooldown_gate_preserves_every_decision() {
    let mut policy = Synpa::new(model());
    // Zero hysteresis: every eligible quantum wants to migrate, so the
    // cooldown gate is what actually spaces migrations out — the
    // interaction the hoist could have broken.
    policy.hysteresis = 0.0;
    let mut placement: Vec<(usize, Slot)> = (0..4usize)
        .flat_map(|k| [(k, Slot::new(k, 0)), (k + 4, Slot::new(k, 1))])
        .collect();
    let mut trace = String::new();
    let mut migrations = 0u64;
    for q in 0..40u64 {
        // Drifting per-app stall mix. Which four apps are backend-ish
        // rotates every 5 quanta, so the optimal pairing keeps changing
        // and migrations genuinely interleave with the cooldown window;
        // within a phase everything still wanders a little.
        let phase = q / 5;
        // Five distinct "which half is backend-bound" partitions; no
        // single pairing is cross-type under two consecutive ones.
        let masks = [0x0Fu64, 0x33, 0x55, 0x3C, 0x66];
        let samples: Vec<(usize, PmuDelta)> = (0..8u64)
            .map(|a| {
                let backendish = masks[(phase % 5) as usize] >> a & 1 == 1;
                let (fe, be) = if backendish {
                    (
                        40 + 20 * ((a * 7 + q * 13) % 11),
                        600 - 30 * ((a * 3 + q * 5) % 9),
                    )
                } else {
                    (
                        400 + 20 * ((a * 5 + q * 11) % 10),
                        60 + 15 * ((a * 7 + q * 3) % 7),
                    )
                };
                (a as usize, delta(fe, be))
            })
            .collect();
        let view = QuantumView {
            quantum: q,
            samples: &samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let decision = policy.decide(&view);
        use std::fmt::Write as _;
        write!(trace, "{q}:{decision:?};").unwrap();
        if let Some(p) = decision {
            migrations += 1;
            placement = p;
            // Keep the view's app order canonical (sorted by id) so the
            // pinned trace is insensitive to the placement-vector order a
            // manager would happen to produce.
            placement.sort_unstable();
        }
    }
    // Values captured from the pre-hoist decision path on this exact
    // scenario; the hoist must reproduce them byte for byte.
    assert_eq!(migrations, 14, "trace: {trace}");
    assert_eq!(
        fnv1a(trace.as_bytes()),
        0xc079_d90f_637b_f773,
        "trace: {trace}"
    );
}
