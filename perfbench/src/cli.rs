//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 1 loop (detect → classify → mask → verify) over the suite.
    Table1Pipeline,
    /// Detection campaigns only, one worker, default engine.
    DetectSweep,
    /// Fault-free driver runs of `P` against `P_C`.
    MaskedRuntime,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Pipeline,
        Workload::DetectSweep,
        Workload::MaskedRuntime,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Pipeline => "table1-pipeline",
            Workload::DetectSweep => "detect-sweep",
            Workload::MaskedRuntime => "masked-runtime",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Orders the inputs; equal seeds give equal inputs.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: u64,
    /// Traced run: print per-layer instead of end-to-end metrics.
    pub trace: bool,
}

/// Usage line printed on a bad command line.
pub const USAGE: &str = "usage: atomask-perfbench --workload <table1-pipeline|detect-sweep|masked-runtime> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse("--workload detect-sweep --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::DetectSweep,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload detect-sweep --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload detect-sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload detect-sweep --seed 1 --seconds 1").is_err());
        assert!(parse("--workload detect-sweep --seed").is_err());
    }
}
