//! Seeded *execution*-fault plans: per-core availability events and
//! per-app crash/hang faults, drawn from [`ChipFaultConfig`] the way the
//! counter-fault `FaultConfig` in `synpa-counters` draws its data-plane
//! faults.
//!
//! The plan is a pure function of `(seed, core, quantum)` / `(seed, app)`
//! — no state, no global RNG — so a faulted run is byte-replayable: every
//! engine, worker count and matcher sees the identical fault stream, and
//! the chaos wall can diff full tables across all of them. A rate of zero
//! draws nothing at all ([`crate::rng::SplitMix64::chance`] short-circuits
//! on `p <= 0`), which makes the `--chip-faults seed:0` ≡ no-flag identity
//! hold structurally rather than statistically.

use crate::rng::SplitMix64;

/// Parses the `seed:rate[:rest]` spec behind both `--faults` and
/// `--chip-faults`: a decimal seed, a colon and a rate in `[0, 1]`, each
/// trimmed of surrounding whitespace, plus whatever follows a second
/// colon (`--faults` reads it as a fault-kind filter). Errors name `flag`.
pub fn parse_seed_rate<'a>(
    flag: &str,
    spec: &'a str,
) -> Result<(u64, f64, Option<&'a str>), String> {
    let (seed, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("{flag} expects seed:rate, got '{spec}'"))?;
    let seed: u64 = seed
        .trim()
        .parse()
        .map_err(|_| format!("{flag} seed '{seed}' is not a u64"))?;
    let (rate, tail) = match rest.split_once(':') {
        Some((rate, tail)) => (rate, Some(tail)),
        None => (rest, None),
    };
    let rate: f64 = rate
        .trim()
        .parse()
        .map_err(|_| format!("{flag} rate '{rate}' is not a number"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("{flag} rate {rate} must be within [0, 1]"));
    }
    Ok((seed, rate, tail))
}

/// Chip-fault configuration and its pure plan: a base seed and a per-cell
/// event rate, exactly like the counter-fault `FaultConfig` but for the
/// execution plane. Every query derives a fresh [`SplitMix64`] from the
/// seed and the cell coordinates, so results are independent of query
/// order and count — the property the cross-engine byte-identity of
/// faulted runs rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipFaultConfig {
    /// Base seed of the pure fault plan.
    pub seed: u64,
    /// Per-app fault probability in `[0, 1]`; per-core events fire at a
    /// derated fraction of this (see [`ChipFaultConfig::core_event`]).
    pub rate: f64,
}

/// Per-core events are this factor rarer than per-app faults: a core
/// failing is a chip-level event, an app crashing is routine.
const CORE_EVENT_DERATE: f64 = 16.0;

impl ChipFaultConfig {
    /// A plan with the given seed and rate.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "chip-fault rate {rate} must be within [0, 1]"
        );
        ChipFaultConfig { seed, rate }
    }

    /// Parses the `--chip-faults seed:rate` CLI spec (see
    /// [`parse_seed_rate`]); a third component is an error.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match parse_seed_rate("--chip-faults", spec)? {
            (seed, rate, None) => Ok(ChipFaultConfig { seed, rate }),
            (_, _, Some(_)) => Err(format!("--chip-faults expects seed:rate, got '{spec}'")),
        }
    }

    /// The availability event (if any) for `core` at the boundary of
    /// `quantum`. Fires at `rate / 16`: core failures are much rarer than
    /// app-level faults at the same configured rate.
    pub fn core_event(&self, core: usize, quantum: u64) -> Option<CoreFault> {
        let mut rng = SplitMix64::for_cell(self.seed, core as u64, quantum, 1);
        if !rng.chance(self.rate / CORE_EVENT_DERATE) {
            return None;
        }
        Some(match rng.next_below(10) {
            0 | 1 => CoreFault::Offline,
            2..=6 => CoreFault::Transient {
                down: 1 + rng.next_below(4),
            },
            _ => CoreFault::Throttled,
        })
    }

    /// The execution fault (if any) baked into `app` for its whole
    /// lifetime. Fires at the full configured rate; crash and hang are
    /// equally likely, at a uniformly drawn progress fraction in
    /// `[0.1, 0.9)`.
    pub fn app_fault(&self, app: usize) -> Option<AppFault> {
        let mut rng = SplitMix64::for_cell(self.seed, app as u64, 0, 2);
        if !rng.chance(self.rate) {
            return None;
        }
        let frac = 0.1 + 0.8 * (rng.next_below(1000) as f64 / 1000.0);
        Some(if rng.next_below(2) == 0 {
            AppFault::Crash { frac }
        } else {
            AppFault::Hang { frac }
        })
    }
}

/// A per-core availability event drawn at a quantum boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreFault {
    /// The core fails permanently: it must be emptied and never placed on
    /// again for the rest of the run.
    Offline,
    /// The core goes down for `down` quanta, then returns to service.
    Transient {
        /// Number of quanta the core stays unavailable.
        down: u64,
    },
    /// The core stays in service with its dispatch width derated — a
    /// thermally throttled or partially failed unit.
    Throttled,
}

/// A per-app execution fault, fixed for the app's whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppFault {
    /// The app terminates abnormally after retiring `frac` of its target
    /// instruction count (`frac` in `(0, 1)`).
    Crash {
        /// Fraction of the app's instruction target at which it dies.
        frac: f64,
    },
    /// The app wedges after retiring `frac` of its target: it keeps its
    /// hardware thread occupied but never retires another instruction.
    Hang {
        /// Fraction of the app's instruction target at which it wedges.
        frac: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_its_cell() {
        let plan = ChipFaultConfig::uniform(42, 0.8);
        for core in 0..8 {
            for q in 0..64 {
                assert_eq!(plan.core_event(core, q), plan.core_event(core, q));
            }
        }
        for app in 0..64 {
            assert_eq!(plan.app_fault(app), plan.app_fault(app));
        }
    }

    #[test]
    fn zero_rate_draws_nothing() {
        let plan = ChipFaultConfig::uniform(7, 0.0);
        for core in 0..8 {
            for q in 0..256 {
                assert_eq!(plan.core_event(core, q), None);
            }
        }
        for app in 0..256 {
            assert_eq!(plan.app_fault(app), None);
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = ChipFaultConfig::uniform(1, 1.0);
        let b = ChipFaultConfig::uniform(2, 1.0);
        let differs = (0..64).any(|app| a.app_fault(app) != b.app_fault(app))
            || (0..64).any(|q| a.core_event(0, q) != b.core_event(0, q));
        assert!(differs, "seeds 1 and 2 produced identical fault streams");
    }

    #[test]
    fn high_rate_draws_every_kind() {
        let plan = ChipFaultConfig::uniform(3, 1.0);
        let (mut off, mut tr, mut thr) = (0, 0, 0);
        for core in 0..16 {
            for q in 0..64 {
                match plan.core_event(core, q) {
                    Some(CoreFault::Offline) => off += 1,
                    Some(CoreFault::Transient { down }) => {
                        assert!((1..=4).contains(&down));
                        tr += 1;
                    }
                    Some(CoreFault::Throttled) => thr += 1,
                    None => {}
                }
            }
        }
        assert!(off > 0 && tr > 0 && thr > 0, "{off}/{tr}/{thr}");
        let (mut crash, mut hang) = (0, 0);
        for app in 0..128 {
            match plan.app_fault(app) {
                Some(AppFault::Crash { frac }) => {
                    assert!((0.1..0.9).contains(&frac));
                    crash += 1;
                }
                Some(AppFault::Hang { frac }) => {
                    assert!((0.1..0.9).contains(&frac));
                    hang += 1;
                }
                None => {}
            }
        }
        assert!(crash > 0 && hang > 0, "{crash}/{hang}");
    }

    #[test]
    fn parse_accepts_seed_colon_rate() {
        assert_eq!(
            ChipFaultConfig::parse("7:0.25"),
            Ok(ChipFaultConfig::uniform(7, 0.25))
        );
        assert_eq!(
            ChipFaultConfig::parse("bad"),
            Err("--chip-faults expects seed:rate, got 'bad'".into())
        );
        assert_eq!(
            ChipFaultConfig::parse("x:0.5"),
            Err("--chip-faults seed 'x' is not a u64".into())
        );
        assert_eq!(
            ChipFaultConfig::parse("7:y"),
            Err("--chip-faults rate 'y' is not a number".into())
        );
        assert_eq!(
            ChipFaultConfig::parse("7:1.5"),
            Err("--chip-faults rate 1.5 must be within [0, 1]".into())
        );
    }

    #[test]
    fn parse_rejects_a_kind_component() {
        // `--chip-faults` has no kind filter; only `--faults` takes one.
        assert_eq!(
            ChipFaultConfig::parse("7:0.05:spike"),
            Err("--chip-faults expects seed:rate, got '7:0.05:spike'".into())
        );
    }
}
