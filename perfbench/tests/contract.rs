//! The benchmark's own checks: well-formed metric names, every metric
//! printed with its unit, count metrics that repeat exactly across seeds,
//! and a short run of every workload passing its output checks.
//!
//! Each short run still makes one Fig. 1 loop over the whole suite, about
//! ten seconds with the workspace crates optimized (the package's dev
//! profile optimizes them, so a plain `cargo test` works).

use atomask_perfbench::{per_layer_metrics, run, Args, Outcome, Workload, END_TO_END};
use std::collections::HashSet;
use std::sync::OnceLock;

fn all_metrics() -> Vec<(String, &'static str)> {
    let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u));
    e2e.chain(per_layer_metrics()).collect()
}

/// A one-second run of `workload`, shared by the tests that need it.
fn short_run(workload: Workload, seed: u64, trace: bool) -> &'static Outcome {
    static RUNS: [OnceLock<Outcome>; 5] = [const { OnceLock::new() }; 5];
    let slot = match (workload, seed, trace) {
        (Workload::Table1Pipeline, 1, false) => 0,
        (Workload::DetectSweep, 1, false) => 1,
        (Workload::MaskedRuntime, 1, false) => 2,
        (Workload::DetectSweep, 1, true) => 3,
        (Workload::DetectSweep, 2, true) => 4,
        other => panic!("no slot for {other:?}"),
    };
    RUNS[slot].get_or_init(|| {
        run(&Args {
            workload,
            seed,
            seconds: 1,
            trace,
        })
    })
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let name_ok = |s: &str| {
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = HashSet::new();
    for (name, unit) in all_metrics() {
        assert!(name_ok(&name), "bad metric name {name:?}");
        assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name.clone()), "{name} is defined twice");
    }
    assert!(per_layer_metrics().len() <= 128);
}

#[test]
fn benchmark_json_names_every_workload_and_metric() {
    let json = include_str!("../../BENCHMARK.json");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", ")),
            "{w} missing"
        );
    }
    let metrics = all_metrics();
    for (name, unit) in &metrics {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\":").count(), metrics.len());
}

/// Every expected metric, in order, each printed as `"name": {"value":
/// <number>, "unit": "<unit>"}` in the result line.
fn assert_printed(outcome: &Outcome, expected: &[(String, &str)]) {
    let got: Vec<(String, &str)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    assert_eq!(got, expected);
    let line = outcome.result_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for m in &outcome.metrics {
        let text = format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
        assert!(line.contains(&text), "{text} not in {line}");
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    assert_printed(short_run(Workload::DetectSweep, 1, false), &e2e);
    assert_printed(
        short_run(Workload::DetectSweep, 1, true),
        &per_layer_metrics(),
    );
}

#[test]
fn count_metrics_repeat_exactly_across_seeds() {
    let a = short_run(Workload::DetectSweep, 1, true);
    let b = short_run(Workload::DetectSweep, 2, true);
    let counts: Vec<_> = a
        .metrics
        .iter()
        .zip(&b.metrics)
        .filter(|(m, _)| m.unit == "count" || m.unit == "bytes")
        .collect();
    assert!(counts.len() >= 10, "only {} count metrics", counts.len());
    for (x, y) in counts {
        assert_eq!(x, y, "{} differs between seeds 1 and 2", x.name);
    }
    assert_eq!(
        a.metrics
            .iter()
            .find(|m| m.name == "inject.points")
            .unwrap()
            .value,
        11862.0
    );
}

fn assert_passes(workload: Workload) {
    let outcome = short_run(workload, 1, false);
    assert!(outcome.correct, "{workload}: {:#?}", outcome.problems);
    assert_eq!(outcome.failed, 0, "{workload}");
    assert!(
        outcome.attempted > 11862,
        "{workload}: {}",
        outcome.attempted
    );
}

#[test]
fn table1_pipeline_passes_its_output_checks() {
    assert_passes(Workload::Table1Pipeline);
}

#[test]
fn detect_sweep_passes_its_output_checks() {
    assert_passes(Workload::DetectSweep);
}

#[test]
fn masked_runtime_passes_its_output_checks() {
    assert_passes(Workload::MaskedRuntime);
}
