//! # atomask-bench — the benchmark harness
//!
//! The `report` binary prints Table 1, Figs. 2–5 and the §6.1 case study
//! (`cargo run --release -p atomask-bench --bin report -- all`), and
//! `report gate` checks that the sweep engine's two optimizations,
//! checkpoint-resume and lazy capture, still pay for themselves.
//!
//! The gate compares each optimization with its own reference: every
//! campaign runs once on the default engine and once with one
//! optimization switched off, in the same process and alternating, and
//! the gate reads the reference/default time ratio. Both sides share the
//! host, so the ratio moves far less between runs than absolute
//! throughput does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atomask::apps::AppSpec;
use atomask::report::{evaluate, AppEvaluation};
use atomask::{
    classify, verify_masked_configured, Campaign, CampaignConfig, CaptureMode, CheckpointStride,
    MaskStrategy, Policy,
};
use std::time::Instant;

/// Evaluates a list of suite applications, printing progress to stderr.
///
/// `cap` limits each campaign's injector runs (`None` = full sweep).
pub fn evaluate_apps(specs: &[AppSpec], cap: Option<u64>) -> Vec<AppEvaluation> {
    specs
        .iter()
        .map(|spec| {
            eprintln!("campaigning {} ...", spec.name);
            evaluate(spec, cap)
        })
        .collect()
}

/// Timed repetitions of each side per comparison, after one discarded
/// warm-up of each. Ten full gate runs on a 2-vCPU host at 3 repetitions
/// spread each ratio by at most 5.7% (max − min over median) in 22.6–26.9 s
/// of wall time; at 5 repetitions the spread was at most 3.0% in
/// 33.8–39.6 s. Three keep the gate well under a minute, and its floors
/// sit far below that spread.
const REPS: usize = 3;

/// One ratio the gate checks: a campaign on a reference engine, timed
/// against the same campaign on the default engine.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// The ratio's name, as the gate prints it.
    pub name: &'static str,
    /// Whether the campaign is a masking verification (else detection).
    pub verify: bool,
    /// The reference engine's capture mode.
    pub capture: CaptureMode,
    /// The reference engine's checkpoint stride.
    pub stride: CheckpointStride,
    /// The lowest passing reading: geomean over the suite of each app's
    /// median reference/default time.
    pub floor: f64,
}

/// The gate's four ratios. Every campaign is a full sweep (no point cap).
///
/// Each floor is 0.8 × the lowest of ten gate runs on a 2-vCPU host
/// (`REPS` = 3), rounded down to a tenth: far below the lowest reading
/// by more than the readings' interquartile spread, with room for a host
/// whose caches favour one side, and far above the 1.0 that a default
/// engine silently running its reference would read.
pub const CHECKS: [Check; 4] = [
    Check {
        name: "detection resume",
        verify: false,
        capture: CaptureMode::Lazy,
        stride: CheckpointStride::Off,
        // Ten runs: lowest 2.367, median 2.418, IQR 0.030.
        floor: 1.8,
    },
    Check {
        name: "detection capture",
        verify: false,
        capture: CaptureMode::Eager,
        stride: CheckpointStride::Auto,
        // Ten runs: lowest 3.840, median 3.955, IQR 0.104.
        floor: 3.0,
    },
    Check {
        name: "verification resume",
        verify: true,
        capture: CaptureMode::Lazy,
        stride: CheckpointStride::Off,
        // Ten runs: lowest 2.711, median 2.845, IQR 0.051.
        floor: 2.1,
    },
    Check {
        name: "verification capture",
        verify: true,
        capture: CaptureMode::Eager,
        stride: CheckpointStride::Auto,
        // Ten runs: lowest 4.354, median 4.431, IQR 0.036.
        floor: 3.4,
    },
];

/// Median wall times of the same campaign on the default engine and on a
/// reference engine, ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Median wall time on the default engine.
    pub default_ns: u128,
    /// Median wall time on the reference engine.
    pub reference_ns: u128,
}

impl Timing {
    /// Reference time over default time: how many times faster the
    /// default engine ran. `None` when either side measured zero.
    pub fn ratio(self) -> Option<f64> {
        (self.default_ns > 0 && self.reference_ns > 0)
            .then(|| self.reference_ns as f64 / self.default_ns as f64)
    }
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Times one campaign on the default engine and on a reference engine in
/// this process: one discarded warm-up of each side (first-touch page
/// faults, lazy allocator growth), then [`REPS`] timed repetitions whose
/// order alternates, so that drift over the run hits both sides alike.
/// Reports each side's **median** wall time: single cold runs made ratio
/// metrics noisy enough to go negative (the seed once reported a −10%
/// "overhead" for the disabled flight recorder).
fn timed_sweep(default: impl Fn(), reference: impl Fn()) -> Timing {
    let time = |side: &dyn Fn()| {
        let t0 = Instant::now();
        side();
        t0.elapsed().as_nanos()
    };
    default();
    reference();
    let mut defaults = Vec::with_capacity(REPS);
    let mut references = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        if rep % 2 == 0 {
            defaults.push(time(&default));
            references.push(time(&reference));
        } else {
            references.push(time(&reference));
            defaults.push(time(&default));
        }
    }
    Timing {
        default_ns: median(defaults),
        reference_ns: median(references),
    }
}

/// Times one application's campaigns for every [`CHECKS`] entry, in
/// order, on one worker. Verification wraps the `Policy::default()` mask
/// set of a default-engine detection run under
/// [`MaskStrategy::DeepCopy`].
pub fn measure_app(spec: &AppSpec) -> [Timing; 4] {
    let program = spec.program();
    let engine = |capture, checkpoint_stride| CampaignConfig {
        workers: 1,
        capture,
        checkpoint_stride,
        ..CampaignConfig::default()
    };
    let default = engine(CaptureMode::Lazy, CheckpointStride::Auto);
    let policy = Policy::default();
    let filter = policy.mark_filter();
    let detection = Campaign::new(&program).config(default).run();
    let mask_set = policy.mask_set(&classify(&detection, &filter));
    let run = |verify: bool, config: CampaignConfig| {
        if verify {
            verify_masked_configured(
                &program,
                &mask_set,
                &filter,
                MaskStrategy::DeepCopy,
                config,
                None,
            );
        } else {
            Campaign::new(&program).config(config).run();
        }
    };
    CHECKS.map(|check| {
        timed_sweep(
            || run(check.verify, default),
            || run(check.verify, engine(check.capture, check.stride)),
        )
    })
}

/// Geometric mean of `xs`, or `None` when `xs` is empty or holds a
/// missing value: a zero timing must fail the gate, never vanish into
/// the mean.
pub fn geomean(xs: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0;
    for x in xs {
        sum += x?.ln();
        n += 1;
    }
    (n > 0).then(|| (sum / n as f64).exp())
}

/// The gate's verdict on `(name, reading, floor)` triples: one line per
/// ratio that is missing or below its floor. Empty means pass.
pub fn gate_failures(readings: &[(&str, Option<f64>, f64)]) -> Vec<String> {
    readings
        .iter()
        .filter_map(|&(name, reading, floor)| match reading {
            Some(r) if r >= floor => None,
            Some(r) => Some(format!("{name} ratio {r:.3} is below its floor {floor:.2}")),
            None => Some(format!(
                "{name} ratio has no reading (a timing was zero or missing)"
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_apps_respects_cap() {
        let specs: Vec<AppSpec> = atomask::apps::cpp_apps().into_iter().take(1).collect();
        let rows = evaluate_apps(&specs, Some(50));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].injections >= 50);
    }

    #[test]
    fn a_ratio_above_its_floor_passes() {
        assert!(
            gate_failures(&[("resume", Some(2.6), 2.0), ("capture", Some(2.0), 2.0)]).is_empty()
        );
    }

    #[test]
    fn a_ratio_below_its_floor_fails_by_name() {
        let failures = gate_failures(&[("resume", Some(2.6), 2.0), ("capture", Some(1.1), 2.0)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("capture"), "{failures:?}");
        assert!(failures[0].contains("1.100"), "{failures:?}");
    }

    #[test]
    fn a_zero_or_missing_timing_fails() {
        let zero = Timing {
            default_ns: 0,
            reference_ns: 5,
        };
        let fine = Timing {
            default_ns: 2,
            reference_ns: 5,
        };
        assert_eq!(zero.ratio(), None);
        assert_eq!(fine.ratio(), Some(2.5));
        // One zero app poisons the suite's geomean; no apps is no reading.
        let reading = geomean([fine.ratio(), zero.ratio()]);
        assert_eq!(reading, None);
        assert_eq!(geomean([]), None);
        let failures = gate_failures(&[("resume", reading, 0.0)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("resume"), "{failures:?}");
        // A NaN reading compares below every floor.
        assert_eq!(gate_failures(&[("capture", Some(f64::NAN), 0.0)]).len(), 1);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean([Some(2.0), Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn measure_app_times_every_check() {
        let spec = atomask::apps::cpp_apps().into_iter().next().unwrap();
        for timing in measure_app(&spec) {
            assert!(timing.ratio().is_some(), "{timing:?}");
        }
    }
}
