//! Execution-fault driving at the scheduler layer.
//!
//! The sim crate owns the *plan* (`synpa_sim::ChipFaultConfig`'s draws, a
//! pure function of `(seed, cell)`); this module owns the *mechanism*: at
//! each quantum boundary [`ChipFaultDriver::apply`] draws the per-core events,
//! evacuates residents of failing cores, takes the cores out of service
//! (and returns transients to it), and derates throttled cores. Which apps
//! were stranded is returned to the quantum loop, which re-queues them
//! (closed batch) or routes them through the capped-retry machinery (open
//! system). See `docs/robustness.md` for the full taxonomy and recovery
//! rules.

use crate::stats::RunStats;
use synpa_sim::{Chip, ChipFaultConfig, CoreFault};

/// Applies the seeded core-fault plan to a live chip, one quantum boundary
/// at a time. Holds the per-core outage clock; the chip itself only knows
/// its current availability mask.
pub(crate) struct ChipFaultDriver {
    plan: ChipFaultConfig,
    /// Per-core outage deadline: 0 = in service, `u64::MAX` = permanently
    /// offline, otherwise the quantum at whose boundary the core returns.
    down_until: Vec<u64>,
    /// Cores already derated (a core throttles at most once).
    throttled: Vec<bool>,
}

impl ChipFaultDriver {
    pub fn new(cfg: &ChipFaultConfig, cores: usize) -> Self {
        ChipFaultDriver {
            plan: *cfg,
            down_until: vec![0; cores],
            throttled: vec![false; cores],
        }
    }

    /// Advances the fault state one quantum boundary: revives due
    /// transients, draws this quantum's per-core events, evacuates and
    /// offlines failing cores, derates throttled ones, counting the core
    /// events and evacuations into `stats`. Returns the ids of the
    /// evacuated apps in ascending order; their threads are gone (progress
    /// censored, never fabricated) and the caller decides whether and when
    /// they run again.
    ///
    /// Availability floor: the last in-service core never fails — a chip
    /// with zero capacity could neither finish nor honestly account for
    /// the work it accepted, and real fleets drain a failing node rather
    /// than run it to zero.
    pub fn apply(&mut self, chip: &mut Chip, quantum: u64, stats: &mut RunStats) -> Vec<usize> {
        // Revive transients whose outage expired.
        for core in 0..self.down_until.len() {
            let due = self.down_until[core];
            if due != 0 && due != u64::MAX && due <= quantum {
                chip.set_core_online(core);
                self.down_until[core] = 0;
            }
        }
        // Draw this quantum's event per in-service core, in core order
        // (the order matters only for the availability floor, and a fixed
        // order keeps it deterministic).
        let mut evacuees: Vec<usize> = Vec::new();
        for core in 0..self.down_until.len() {
            if self.down_until[core] != 0 {
                continue;
            }
            match self.plan.core_event(core, quantum) {
                Some(CoreFault::Offline | CoreFault::Transient { .. })
                    if chip.available_cores() <= 1 =>
                {
                    // Availability floor: swallow the outage.
                }
                Some(fault @ (CoreFault::Offline | CoreFault::Transient { .. })) => {
                    for app in chip.apps_on_core(core) {
                        let slot = chip.slot_of(app).expect("resident app has a slot");
                        chip.detach(slot);
                        evacuees.push(app);
                    }
                    chip.set_core_offline(core);
                    self.down_until[core] = match fault {
                        CoreFault::Offline => {
                            stats.cores_offlined += 1;
                            u64::MAX
                        }
                        CoreFault::Transient { down } => {
                            stats.cores_transient += 1;
                            quantum + down
                        }
                        CoreFault::Throttled => unreachable!("matched above"),
                    };
                }
                Some(CoreFault::Throttled) if !self.throttled[core] => {
                    self.throttled[core] = true;
                    let width = chip.config().core.dispatch_width;
                    chip.set_core_width_limit(core, Some((width / 2).max(1)));
                    stats.cores_throttled += 1;
                }
                // Already-throttled cores redrawing Throttled, and quanta
                // with no event at all.
                _ => {}
            }
        }
        evacuees.sort_unstable();
        stats.apps_evacuated += evacuees.len() as u64;
        evacuees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa_sim::ChipConfig;

    #[test]
    fn zero_rate_driver_never_touches_the_chip() {
        let cfg = ChipFaultConfig::uniform(7, 0.0);
        let chip_cfg = ChipConfig::thunderx2(4);
        let mut chip = Chip::new(chip_cfg);
        let mut drv = ChipFaultDriver::new(&cfg, 4);
        let mut stats = RunStats::default();
        for q in 0..200 {
            assert!(drv.apply(&mut chip, q, &mut stats).is_empty());
        }
        assert_eq!(stats, RunStats::default());
        assert_eq!(chip.available_cores(), 4);
    }

    #[test]
    fn high_rate_driver_keeps_the_availability_floor() {
        let cfg = ChipFaultConfig::uniform(3, 1.0);
        let chip_cfg = ChipConfig::thunderx2(4);
        let mut chip = Chip::new(chip_cfg);
        let mut drv = ChipFaultDriver::new(&cfg, 4);
        let mut stats = RunStats::default();
        for q in 0..500 {
            drv.apply(&mut chip, q, &mut stats);
            assert!(chip.available_cores() >= 1, "floor violated at quantum {q}");
        }
        assert!(
            stats.cores_offlined + stats.cores_transient > 0,
            "a rate-1.0 plan must take cores down"
        );
    }

    #[test]
    fn availability_mask_always_matches_the_outage_clock() {
        // The chip's availability mask and the driver's `down_until` clock
        // must agree after every boundary: a core is in service iff its
        // outage deadline is clear. Transients coming back is a corollary
        // (their deadline expires and the mask flips with it).
        let cfg = ChipFaultConfig::uniform(11, 1.0);
        let mut chip = Chip::new(ChipConfig::thunderx2(4));
        let mut drv = ChipFaultDriver::new(&cfg, 4);
        let mut stats = RunStats::default();
        let mut saw_revival = false;
        for q in 0..500 {
            let before = chip.availability();
            drv.apply(&mut chip, q, &mut stats);
            let after = chip.availability();
            for c in 0..4 {
                assert_eq!(
                    after[c],
                    drv.down_until[c] == 0,
                    "core {c} mask/clock disagree at quantum {q}"
                );
                if !before[c] && after[c] {
                    saw_revival = true;
                }
            }
        }
        assert!(
            stats.cores_transient > 0 && saw_revival,
            "a rate-1.0 plan over 500 quanta must exercise a transient revival"
        );
    }

    #[test]
    fn summary_mentions_every_counter() {
        let s = RunStats {
            cores_offlined: 1,
            cores_transient: 2,
            cores_throttled: 3,
            apps_evacuated: 4,
            apps_crashed: 5,
            apps_hung: 6,
            retries: 7,
            failed: 8,
            ..RunStats::default()
        };
        let line = s.chip_faults_summary();
        for needle in ["offlined 1", "transient 2", "throttled 3", "evacuated 4"] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        for needle in ["crashed 5", "hung 6", "retries 7", "failed 8"] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }
}
