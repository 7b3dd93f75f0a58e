//! Profiling runs: one application alone on one core (ST mode), or two
//! sharing its SMT2 contexts, with a warm-up period discarded so cold
//! caches don't skew the measurement. Isolated characterization (paper
//! Fig. 4 methodology), launch-target calibration and model training all
//! measure through [`profiling_run`].

use crate::classify::Fractions;
use crate::profile::AppProfile;
use synpa_sim::{Chip, ChipConfig, PmuDelta, Slot, ThreadProgram};

/// Runs `apps` (one alone, or two sharing one SMT2 core) on a one-core
/// chip built from `cfg` (`cfg.cores` is forced to 1): `warmup` cycles
/// discarded, then `windows` windows of `window` cycles each. Returns each
/// app's per-window counter deltas, in the order the apps were given; app
/// *k* runs as id *k* on slot *k*.
pub fn profiling_run(
    apps: &[&AppProfile],
    cfg: &ChipConfig,
    warmup: u64,
    window: u64,
    windows: usize,
) -> Vec<Vec<PmuDelta>> {
    assert!(
        matches!(apps.len(), 1 | 2),
        "a profiling run holds one application or one SMT2 pair"
    );
    let mut cfg = cfg.clone();
    cfg.cores = 1;
    let mut chip = Chip::new(cfg);
    for (id, app) in apps.iter().enumerate() {
        // Launch length irrelevant here; make it effectively infinite so a
        // relaunch boundary never lands mid-measurement.
        chip.attach(Slot(id), id, Box::new((*app).clone().with_length(u64::MAX)));
    }
    chip.run_cycles(warmup);
    let snapshot = |chip: &Chip| {
        let read = |id| *chip.pmu_of(id).expect("profiled apps never leave the chip");
        (0..apps.len()).map(read).collect::<Vec<_>>()
    };
    let mut last = snapshot(&chip);
    let mut run = vec![Vec::with_capacity(windows); apps.len()];
    for _ in 0..windows {
        chip.run_cycles(window);
        let now = snapshot(&chip);
        for ((seq, now), last) in run.iter_mut().zip(&now).zip(&last) {
            seq.push(now.delta_since(last));
        }
        last = now;
    }
    run
}

/// Result of an isolated characterization run.
#[derive(Debug, Clone)]
pub struct IsolatedRun {
    /// Application name.
    pub name: String,
    /// Step-3 category fractions over the measurement window.
    pub fractions: Fractions,
    /// Instructions retired during the measurement window.
    pub retired: u64,
    /// Measurement window length in cycles.
    pub cycles: u64,
    /// IPC over the measurement window.
    pub ipc: f64,
    /// The window's raw counter deltas, extended events included.
    pub delta: PmuDelta,
}

/// Characterizes `app` in isolation: `warmup` cycles discarded, `measure`
/// cycles measured. The chip uses a single core so the app has every shared
/// resource to itself.
pub fn characterize_isolated(app: &AppProfile, warmup: u64, measure: u64) -> IsolatedRun {
    characterize_isolated_with(app, warmup, measure, &ChipConfig::thunderx2(1))
}

/// Same as [`characterize_isolated`] with an explicit chip configuration
/// (`cfg.cores` is forced to 1).
pub fn characterize_isolated_with(
    app: &AppProfile,
    warmup: u64,
    measure: u64,
    cfg: &ChipConfig,
) -> IsolatedRun {
    let delta = profiling_run(&[app], cfg, warmup, measure, 1)[0][0];
    IsolatedRun {
        name: app.name().to_string(),
        fractions: Fractions::from_pmu(&delta, cfg.core.dispatch_width),
        retired: delta.inst_retired,
        cycles: delta.cpu_cycles,
        ipc: delta.inst_retired as f64 / delta.cpu_cycles.max(1) as f64,
        delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn isolated_run_reports_consistent_window() {
        let app = spec::by_name("nab_r").unwrap();
        let run = characterize_isolated(&app, 5_000, 20_000);
        assert_eq!(run.cycles, 20_000);
        assert!(run.retired > 0);
        assert!((run.fractions.total() - 1.0).abs() < 1e-6);
        assert!(run.ipc > 0.0 && run.ipc <= 4.0);
    }

    #[test]
    fn target_lengths_track_app_speed() {
        let fast = spec::by_name("exchange2_r").unwrap(); // compute bound
        let slow = spec::by_name("mcf").unwrap(); // memory bound
        let lens = [fast, slow].map(|a| characterize_isolated(&a, 10_000, 30_000).retired);
        assert!(
            lens[0] > lens[1],
            "compute app should retire more: {lens:?}"
        );
    }

    #[test]
    fn characterization_is_deterministic() {
        let app = spec::by_name("mcf").unwrap();
        let a = characterize_isolated(&app, 5_000, 20_000);
        let b = characterize_isolated(&app, 5_000, 20_000);
        assert_eq!(a.retired, b.retired);
        assert_eq!(a.fractions, b.fractions);
    }
}
