//! Host speed, measured with a fixed reference loop.
//!
//! The benchmark runs on shared machines whose speed drifts by half or more
//! for minutes at a time, as neighbours come and go. A fixed loop that owes
//! nothing to the repository's code, timed between the runs being measured,
//! shows how fast the machine was meanwhile. Every host-time metric is
//! reported at reference speed: host seconds scaled by how much slower the
//! loop ran than [`NOMINAL_S`]. A change to the repository's code moves a
//! scaled time exactly as it moves the raw one, because the loop does not
//! change with it.

use std::hint::black_box;
use std::time::Instant;

/// The reference loop's time at reference speed: its typical time on a
/// quiet 2.0 GHz Xeon vCPU. It only sets the scale of reported times.
pub const NOMINAL_S: f64 = 0.008;

/// Times one run of the reference loop: two million steps of a xorshift
/// generator feeding data-dependent branches and loads and stores into a
/// 16 KiB table, so it is bound by the core and its first-level cache.
fn reference_loop_s() -> f64 {
    let t0 = Instant::now();
    let mut table = [0u64; 2048];
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & 2047;
        if x & 3 == 0 {
            table[k] = table[k].wrapping_add(x);
        } else {
            acc = acc.wrapping_add(table[k] ^ i);
        }
    }
    black_box((acc, &table));
    t0.elapsed().as_secs_f64()
}

/// Reference-loop times sampled over one benchmark process.
#[derive(Default)]
pub struct Speed {
    samples: Vec<f64>,
}

impl Speed {
    /// Times the reference loop once more.
    pub fn sample(&mut self) {
        self.samples.push(reference_loop_s());
    }

    /// Lower quartile of the reference-loop times, in seconds: the loop's
    /// time when the host was least disturbed, as the fastest repetition is
    /// for a measured run.
    pub fn reference_s(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v.get(v.len().saturating_sub(1) / 4)
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Factor that turns host seconds measured in this process into
    /// seconds at reference speed.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.reference_s()
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}
