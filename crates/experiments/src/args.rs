//! Command-line parsing shared by the scenario binaries (`full_chip`,
//! `open_system`): the common flags, plus each binary's own `--name N`
//! count flags. Errors come back as the message the binary prints after
//! `error:` before exiting with status 2.

use synpa::prelude::{ChipFaultConfig, EngineKind, FaultConfig};

/// Parsed scenario flags.
#[derive(Debug, Default)]
pub struct ScenarioArgs {
    /// `--smoke`: the CI configuration (short runs, canned model).
    pub smoke: bool,
    /// `--engine reference|percore`. Unknown names are an error, never a
    /// silent default.
    pub engine: Option<EngineKind>,
    /// `--faults seed:rate[:kind]`: seeded counter-fault injection,
    /// byte-replayable from the seed.
    pub faults: Option<FaultConfig>,
    /// `--chip-faults seed:rate`: seeded execution-fault injection (core
    /// offlining, outages, throttling, crashing and hung apps).
    pub chip_faults: Option<ChipFaultConfig>,
    counts: Vec<(&'static str, u32)>,
}

impl ScenarioArgs {
    /// Parses `args` (without the program name). `counts` lists the
    /// binary's own count flags with their minimum value.
    pub fn parse(args: &[String], counts: &[(&'static str, u32)]) -> Result<Self, String> {
        let mut out = ScenarioArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--engine" => out.engine = Some(EngineKind::parse(value("a value")?)?),
                "--faults" => out.faults = Some(FaultConfig::parse(value("seed:rate")?)?),
                "--chip-faults" => {
                    out.chip_faults = Some(ChipFaultConfig::parse(value("seed:rate")?)?)
                }
                flag => {
                    let &(name, min) = counts
                        .iter()
                        .find(|(name, _)| *name == flag)
                        .ok_or(format!("unknown argument '{flag}'"))?;
                    let what = if min >= 1 { "positive" } else { "non-negative" };
                    let n = it
                        .next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .filter(|&n| n >= min)
                        .ok_or(format!("{name} needs a {what} count"))?;
                    out.counts.push((name, n));
                }
            }
        }
        Ok(out)
    }

    /// The last value given for the count flag `name`, if any.
    pub fn count(&self, name: &str) -> Option<u32> {
        self.counts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTS: &[(&str, u32)] = &[("--reps", 1), ("--queue-capacity", 0)];

    fn parse(args: &[&str]) -> Result<ScenarioArgs, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ScenarioArgs::parse(&args, COUNTS)
    }

    #[test]
    fn parses_shared_and_own_flags() {
        let a = parse(&[
            "--smoke",
            "--engine",
            "reference",
            "--chip-faults",
            "7:0.05",
            "--reps",
            "3",
            "--queue-capacity",
            "0",
        ])
        .unwrap();
        assert!(a.smoke);
        assert_eq!(a.engine, Some(EngineKind::Reference));
        assert!(a.faults.is_none() && a.chip_faults.is_some());
        assert_eq!(
            (a.count("--reps"), a.count("--queue-capacity")),
            (Some(3), Some(0))
        );
        assert_eq!(a.count("--arrivals"), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(parse(&["--engine"]).unwrap_err(), "--engine needs a value");
        assert_eq!(
            parse(&["--faults"]).unwrap_err(),
            "--faults needs seed:rate"
        );
        assert_eq!(
            parse(&["--reps"]).unwrap_err(),
            "--reps needs a positive count"
        );
    }

    #[test]
    fn unknown_engine_is_an_error() {
        assert!(parse(&["--engine", "batched"]).is_err());
    }

    #[test]
    fn both_fault_flags_trim_whitespace() {
        let a = parse(&["--faults", " 7 : 0.05", "--chip-faults", " 7 : 0.05"]).unwrap();
        assert_eq!(a.faults, Some(FaultConfig::uniform(7, 0.05)));
        assert_eq!(a.chip_faults, Some(ChipFaultConfig::uniform(7, 0.05)));
    }

    #[test]
    fn malformed_seed_rate_is_an_error() {
        assert!(parse(&["--faults", "7"]).is_err());
        assert!(parse(&["--chip-faults", "x:0.1"]).is_err());
    }

    #[test]
    fn unknown_flag_and_bad_count_are_errors() {
        assert_eq!(
            parse(&["--workloads", "2"]).unwrap_err(),
            "unknown argument '--workloads'"
        );
        assert_eq!(
            parse(&["--reps", "0"]).unwrap_err(),
            "--reps needs a positive count"
        );
        assert_eq!(
            parse(&["--queue-capacity", "-1"]).unwrap_err(),
            "--queue-capacity needs a non-negative count"
        );
    }
}
