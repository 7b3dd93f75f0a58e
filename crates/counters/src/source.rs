//! End-to-end checks of the counter source: the simulator's
//! `Chip::pmu_of` read through [`crate::SanitizingSession`], the same read
//! path the quantum loop takes.

#[cfg(test)]
mod tests {
    use crate::SanitizingSession;
    use synpa_sim::{Chip, ChipConfig, PhaseParams, Slot, UniformProgram};

    fn chip_with_one_app() -> Chip {
        let mut chip = Chip::new(ChipConfig::thunderx2(1));
        chip.attach(
            Slot(0),
            3,
            Box::new(UniformProgram::new("a", PhaseParams::compute(), u64::MAX)),
        );
        chip
    }

    fn sample_cycles(session: &mut SanitizingSession, chip: &Chip, quantum: u64) -> u64 {
        let out = session.sample(&[3], quantum, |id| chip.pmu_of(id).copied());
        assert!(out.is_clean());
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.samples[0].0, 3);
        out.samples[0].1.cpu_cycles
    }

    #[test]
    fn sampling_session_yields_deltas() {
        let mut chip = chip_with_one_app();
        let mut session = SanitizingSession::new(1000);
        chip.run_cycles(500);
        assert_eq!(sample_cycles(&mut session, &chip, 0), 500);
        chip.run_cycles(250);
        assert_eq!(
            sample_cycles(&mut session, &chip, 1),
            250,
            "delta, not cumulative"
        );
    }

    #[test]
    fn forget_restarts_from_zero() {
        let mut chip = chip_with_one_app();
        let mut session = SanitizingSession::new(1000);
        chip.run_cycles(100);
        sample_cycles(&mut session, &chip, 0);
        session.forget(3);
        chip.run_cycles(50);
        assert_eq!(
            sample_cycles(&mut session, &chip, 1),
            150,
            "cumulative again after forget"
        );
    }
}
