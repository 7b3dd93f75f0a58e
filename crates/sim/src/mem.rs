//! Main-memory model with a simple bandwidth/queueing effect.
//!
//! Latency seen by an LLC miss is the unloaded DRAM latency plus a penalty
//! proportional to the number of misses currently in flight chip-wide. In
//! SMT mode two memory-bound co-runners therefore see *longer* effective
//! memory latency than either sees alone — one of the super-linear
//! interference effects the linear regression model has to approximate.

/// Timing-wheel based memory model. O(1) per access and per cycle.
#[derive(Debug, Clone)]
pub(crate) struct Memory {
    base_latency: u32,
    queue_penalty: f64,
    /// Completions indexed by `cycle & (WHEEL - 1)`.
    wheel: Vec<u32>,
    outstanding: u32,
    #[cfg(debug_assertions)]
    accesses: u64,
    now: u64,
}

/// Wheel capacity; must exceed the maximum possible memory latency.
const WHEEL: usize = 4096;

impl Memory {
    /// Builds an idle memory with the given unloaded latency and queueing
    /// penalty per outstanding miss.
    pub fn new(base_latency: u32, queue_penalty: f64) -> Self {
        assert!((base_latency as usize) < WHEEL / 2);
        Self {
            base_latency,
            queue_penalty,
            wheel: vec![0; WHEEL],
            outstanding: 0,
            #[cfg(debug_assertions)]
            accesses: 0,
            now: 0,
        }
    }

    /// Advances the wheel to `cycle`, retiring completed accesses.
    ///
    /// The wheel's total content equals `outstanding` (completions are
    /// registered and retired in lockstep), so an idle memory — whether
    /// idle on entry or drained mid-walk — jumps to `cycle` in O(1). While
    /// accesses are outstanding the walk steps once per cycle, so after a
    /// long elided stretch it costs as many steps as there are cycles
    /// until the last outstanding completion: at most the longest
    /// outstanding latency, which `loaded_latency` clamps to `WHEEL - 2`.
    pub fn tick(&mut self, cycle: u64) {
        while self.outstanding > 0 && self.now < cycle {
            self.now += 1;
            let slot = (self.now as usize) & (WHEEL - 1);
            self.outstanding = self.outstanding.saturating_sub(self.wheel[slot]);
            self.wheel[slot] = 0;
        }
        self.now = self.now.max(cycle);
    }

    /// Issues an access at `cycle`, returning its latency in cycles.
    pub fn access(&mut self, cycle: u64) -> u32 {
        self.tick(cycle);
        let latency = self.loaded_latency();
        let done = ((cycle + latency as u64) as usize) & (WHEEL - 1);
        self.wheel[done] += 1;
        self.outstanding += 1;
        #[cfg(debug_assertions)]
        {
            self.accesses += 1;
        }
        latency
    }

    /// Loaded latency at the wheel's current position: unloaded base plus
    /// the queueing penalty per in-flight miss, clamped to the wheel span.
    fn loaded_latency(&self) -> u32 {
        let latency = self.base_latency + (self.queue_penalty * self.outstanding as f64) as u32;
        latency.min((WHEEL - 2) as u32)
    }

    /// Total accesses served. Counted only in debug builds, for the
    /// shared-touch check in `engine::checked_step` and for tests.
    #[cfg(debug_assertions)]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_base() {
        let mut m = Memory::new(100, 2.0);
        assert_eq!(m.access(0), 100);
    }

    #[test]
    fn latency_grows_with_load() {
        let mut m = Memory::new(100, 2.0);
        let first = m.access(0);
        let second = m.access(0);
        let third = m.access(1);
        assert_eq!(first, 100);
        assert_eq!(second, 102);
        assert_eq!(third, 104);
    }

    #[test]
    fn outstanding_drains_after_completion() {
        let mut m = Memory::new(10, 0.0);
        m.access(0);
        m.access(0);
        assert_eq!(m.outstanding, 2);
        m.tick(11);
        assert_eq!(m.outstanding, 0);
        // Latency is back to base.
        assert_eq!(m.access(11), 10);
    }

    #[test]
    fn tick_is_idempotent_per_cycle() {
        let mut m = Memory::new(10, 1.0);
        m.access(0);
        m.tick(5);
        m.tick(5);
        assert_eq!(m.outstanding, 1);
    }

    #[test]
    fn wheel_wraps_correctly_over_long_runs() {
        let mut m = Memory::new(50, 0.0);
        for c in 0..(3 * WHEEL as u64) {
            if c % 7 == 0 {
                m.access(c);
            } else {
                m.tick(c);
            }
        }
        m.tick(3 * WHEEL as u64 + 100);
        assert_eq!(m.outstanding, 0, "all accesses eventually complete");
        #[cfg(debug_assertions)]
        assert!(m.accesses() > 0);
    }
}
