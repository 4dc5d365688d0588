//! # atomask-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! * the `report` binary prints Table 1, Figs. 2–5 and the §6.1 case study
//!   (`cargo run --release -p atomask-bench --bin report -- all`);
//! * the Criterion benches time the substrate (`substrate`), the detection
//!   campaigns (`detection`) and the masking overhead grid (`masking`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atomask::report::{evaluate, AppEvaluation};
use atomask::{Campaign, CampaignConfig, CaptureMode, CheckpointStride, Lang, Program, Vm};
use atomask_apps::AppSpec;
use std::hint::black_box;
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

/// One application's detection-campaign performance profile: wall time of
/// the sequential vs. sharded sweep, and capture cost of the eager vs.
/// lazy before-state strategy.
#[derive(Debug, Clone)]
pub struct DetectionPerf {
    /// Application name (Table 1 row).
    pub name: String,
    /// Language side of the evaluation.
    pub lang: Lang,
    /// Injection points actually swept.
    pub points: u64,
    /// Worker threads used by the parallel sweep.
    pub workers: usize,
    /// Wall time of the sequential (1-worker) lazy-capture sweep with
    /// checkpoint-resume at its default (auto) stride, ns.
    pub sequential_ns: u128,
    /// Wall time of the sharded lazy-capture sweep, ns.
    pub parallel_ns: u128,
    /// Wall time of a sequential lazy-capture sweep with checkpoint-resume
    /// forced off — every injection run re-executes its prefix from
    /// program entry (the pre-checkpoint engine), ns.
    pub scratch_ns: u128,
    /// Checkpoint stride the sequential sweep resolved to (`None` when the
    /// environment disabled checkpoint-resume).
    pub stride: Option<u64>,
    /// Median wall time of one `Vm::checkpoint()` over the program's final
    /// heap, ns — the per-boundary cost side of the stride cost model.
    pub checkpoint_ns: u128,
    /// Wall time of the sequential eager-capture sweep (the seed's
    /// behaviour), ns.
    pub eager_ns: u128,
    /// Object-graph snapshots taken by an eager-capture sweep.
    pub snapshots_eager: u64,
    /// Object-graph snapshots taken by the lazy-capture sweep.
    pub snapshots_lazy: u64,
    /// Approximate bytes captured by the eager-capture sweep.
    pub capture_bytes_eager: u64,
    /// Approximate bytes captured by the lazy-capture sweep.
    pub capture_bytes_lazy: u64,
}

impl DetectionPerf {
    /// Sequential wall time over parallel wall time.
    pub fn speedup(&self) -> f64 {
        if self.parallel_ns == 0 {
            return 1.0;
        }
        self.sequential_ns as f64 / self.parallel_ns as f64
    }

    /// Injection points swept per second (`ns` is a sweep's wall time).
    pub fn points_per_sec(&self, ns: u128) -> f64 {
        if ns == 0 {
            return 0.0;
        }
        self.points as f64 * 1e9 / ns as f64
    }

    /// Percentage of eager snapshots the lazy capture path avoided.
    pub fn snapshot_reduction_pct(&self) -> f64 {
        if self.snapshots_eager == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.snapshots_lazy as f64 / self.snapshots_eager as f64)
    }

    /// Eager-capture wall time over lazy-capture wall time, both
    /// sequential: the speedup of the O(writes) capture path alone.
    pub fn capture_speedup(&self) -> f64 {
        if self.sequential_ns == 0 {
            return 1.0;
        }
        self.eager_ns as f64 / self.sequential_ns as f64
    }

    /// Eager sequential (the seed's executor) over lazy sharded wall
    /// time: the combined end-to-end speedup of this optimization pair.
    pub fn total_speedup(&self) -> f64 {
        if self.parallel_ns == 0 {
            return 1.0;
        }
        self.eager_ns as f64 / self.parallel_ns as f64
    }

    /// From-scratch sequential wall time over checkpoint-resume sequential
    /// wall time: the speedup of the resume engine alone.
    pub fn resume_speedup(&self) -> f64 {
        if self.sequential_ns == 0 {
            return 1.0;
        }
        self.scratch_ns as f64 / self.sequential_ns as f64
    }
}

/// Timed sweep iterations per configuration (after one untimed warmup);
/// the reported wall time is the median. Override with
/// `ATOMASK_PERF_ITERS` (values < 1 are ignored).
fn perf_iters() -> usize {
    std::env::var("ATOMASK_PERF_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Runs one sweep configuration `1 + perf_iters()` times — a discarded
/// warmup (first-touch page faults, lazy allocator growth) followed by
/// timed iterations — and reports the **median** wall time. Single cold
/// runs made ratio metrics noisy enough to go negative (the seed once
/// reported a −10% "overhead" for the disabled flight recorder); the
/// campaigns themselves are deterministic, so the capture statistics are
/// taken from the last run.
fn timed_sweep(
    spec: &AppSpec,
    cap: Option<u64>,
    workers: usize,
    capture: CaptureMode,
    stride: CheckpointStride,
) -> (u128, u64, u64, u64) {
    let run_once = || {
        let program = spec.program();
        let mut campaign = Campaign::new(&program).config(CampaignConfig {
            workers,
            capture,
            checkpoint_stride: stride,
            ..CampaignConfig::default()
        });
        if let Some(cap) = cap {
            campaign = campaign.max_points(cap);
        }
        let t0 = Instant::now();
        let result = campaign.run();
        let wall = t0.elapsed().as_nanos();
        let health = result.health();
        (
            wall,
            result.runs.len() as u64,
            health.snapshots,
            health.capture_bytes,
        )
    };
    run_once(); // warmup, discarded
    let mut walls = Vec::with_capacity(perf_iters());
    let mut last = (0, 0, 0, 0);
    for _ in 0..perf_iters() {
        last = run_once();
        walls.push(last.0);
    }
    (median(walls), last.1, last.2, last.3)
}

/// Median wall time of one [`Vm::checkpoint`] over the program's final
/// heap — the structural-copy cost the stride cost model weighs against
/// replay savings. The driver runs once (untimed), then the checkpoint is
/// taken `perf_iters()` times on the quiescent VM.
fn measure_checkpoint(spec: &AppSpec) -> u128 {
    let program = spec.program();
    let mut vm = Vm::new(program.build_registry());
    let _ = program.run(&mut vm);
    let _ = black_box(vm.checkpoint()); // warmup, discarded
    let mut walls = Vec::with_capacity(perf_iters());
    for _ in 0..perf_iters() {
        let t0 = Instant::now();
        let cp = vm.checkpoint();
        walls.push(t0.elapsed().as_nanos());
        black_box(cp);
    }
    median(walls)
}

/// Profiles one application's detection campaign: a sequential and a
/// `workers`-way sharded sweep under lazy capture (for the speedup), a
/// from-scratch sequential sweep with checkpoint-resume forced off (for
/// the resume speedup), and a sequential eager-capture sweep (for the
/// capture-cost baseline). Checkpoint-resume runs at its default (auto)
/// stride everywhere except the dedicated from-scratch leg.
pub fn measure_detection(spec: &AppSpec, cap: Option<u64>, workers: usize) -> DetectionPerf {
    let (sequential_ns, points, snapshots_lazy, capture_bytes_lazy) =
        timed_sweep(spec, cap, 1, CaptureMode::Lazy, CheckpointStride::Auto);
    let (parallel_ns, _, _, _) = timed_sweep(
        spec,
        cap,
        workers,
        CaptureMode::Lazy,
        CheckpointStride::Auto,
    );
    let (scratch_ns, _, _, _) = timed_sweep(spec, cap, 1, CaptureMode::Lazy, CheckpointStride::Off);
    let (eager_ns, _, snapshots_eager, capture_bytes_eager) =
        timed_sweep(spec, cap, 1, CaptureMode::Eager, CheckpointStride::Auto);
    DetectionPerf {
        name: spec.name.to_owned(),
        lang: spec.lang,
        points,
        workers,
        sequential_ns,
        parallel_ns,
        scratch_ns,
        stride: CheckpointStride::Auto.resolve(points),
        checkpoint_ns: measure_checkpoint(spec),
        eager_ns,
        snapshots_eager,
        snapshots_lazy,
        capture_bytes_eager,
        capture_bytes_lazy,
    }
}

/// Geometric mean of `xs` (1.0 when empty; values are floored at 1e-9 so
/// a degenerate zero cannot poison the product).
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0f64, 0usize), |(s, n), x| (s + x.max(1e-9).ln(), n + 1));
    if n == 0 {
        return 1.0;
    }
    (sum / n as f64).exp()
}

/// Geometric mean of the sequential sweep throughput (points/sec) across
/// `rows` — the scalar the CI perf gate regresses against.
pub fn geomean_sequential_pps(rows: &[DetectionPerf]) -> f64 {
    geomean(rows.iter().map(|r| r.points_per_sec(r.sequential_ns)))
}

/// Extracts every `"sequential_points_per_sec"` value from a
/// `BENCH_detection.json` document, in row order. Line-wise on purpose:
/// the workspace carries no JSON dependency, and the file is machine-
/// written by [`detection_perf_json`] with one key per line.
pub fn parse_sequential_pps(json: &str) -> Vec<f64> {
    json.lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("\"sequential_points_per_sec\":")?;
            rest.trim().trim_end_matches(',').parse().ok()
        })
        .collect()
}

/// Renders the detection-performance rows as a JSON document (the
/// `BENCH_detection.json` artifact). Hand-rolled: the workspace carries no
/// serialization dependency.
pub fn detection_perf_json(rows: &[DetectionPerf], workers: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.3},\n",
        geomean(rows.iter().map(DetectionPerf::speedup))
    ));
    out.push_str(&format!(
        "  \"geomean_capture_speedup\": {:.3},\n",
        geomean(rows.iter().map(DetectionPerf::capture_speedup))
    ));
    out.push_str(&format!(
        "  \"geomean_total_speedup\": {:.3},\n",
        geomean(rows.iter().map(DetectionPerf::total_speedup))
    ));
    out.push_str(&format!(
        "  \"geomean_sequential_points_per_sec\": {:.1},\n",
        geomean_sequential_pps(rows)
    ));
    out.push_str(&format!(
        "  \"geomean_resume_speedup\": {:.3},\n",
        geomean(rows.iter().map(DetectionPerf::resume_speedup))
    ));
    out.push_str(&format!(
        "  \"max_snapshot_reduction_pct\": {:.1},\n",
        rows.iter()
            .map(DetectionPerf::snapshot_reduction_pct)
            .fold(0.0, f64::max)
    ));
    out.push_str("  \"apps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"lang\": \"{}\",\n", r.lang));
        out.push_str(&format!("      \"points\": {},\n", r.points));
        out.push_str(&format!(
            "      \"sequential_ms\": {:.3},\n",
            r.sequential_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "      \"parallel_ms\": {:.3},\n",
            r.parallel_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "      \"sequential_points_per_sec\": {:.1},\n",
            r.points_per_sec(r.sequential_ns)
        ));
        out.push_str(&format!(
            "      \"parallel_points_per_sec\": {:.1},\n",
            r.points_per_sec(r.parallel_ns)
        ));
        out.push_str(&format!(
            "      \"scratch_ms\": {:.3},\n",
            r.scratch_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "      \"resume_points_per_sec\": {:.1},\n",
            r.points_per_sec(r.sequential_ns)
        ));
        out.push_str(&format!(
            "      \"resume_speedup\": {:.3},\n",
            r.resume_speedup()
        ));
        out.push_str(&format!(
            "      \"stride\": {},\n",
            r.stride.map_or("null".to_owned(), |s| s.to_string())
        ));
        out.push_str(&format!(
            "      \"checkpoint_ms\": {:.4},\n",
            r.checkpoint_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "      \"eager_ms\": {:.3},\n",
            r.eager_ns as f64 / 1e6
        ));
        out.push_str(&format!("      \"speedup\": {:.3},\n", r.speedup()));
        out.push_str(&format!(
            "      \"capture_speedup\": {:.3},\n",
            r.capture_speedup()
        ));
        out.push_str(&format!(
            "      \"total_speedup\": {:.3},\n",
            r.total_speedup()
        ));
        out.push_str(&format!(
            "      \"snapshots_eager\": {},\n",
            r.snapshots_eager
        ));
        out.push_str(&format!(
            "      \"snapshots_lazy\": {},\n",
            r.snapshots_lazy
        ));
        out.push_str(&format!(
            "      \"snapshot_reduction_pct\": {:.1},\n",
            r.snapshot_reduction_pct()
        ));
        out.push_str(&format!(
            "      \"capture_bytes_eager\": {},\n",
            r.capture_bytes_eager
        ));
        out.push_str(&format!(
            "      \"capture_bytes_lazy\": {}\n",
            r.capture_bytes_lazy
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_apps_respects_cap() {
        let specs: Vec<AppSpec> = atomask_apps::cpp_apps().into_iter().take(1).collect();
        let rows = evaluate_apps(&specs, Some(50));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].injections >= 50);
    }

    #[test]
    fn detection_perf_measures_and_serializes() {
        let spec = atomask_apps::cpp_apps().into_iter().next().unwrap();
        let perf = measure_detection(&spec, Some(40), 2);
        assert_eq!(perf.points, 40);
        assert!(perf.sequential_ns > 0 && perf.parallel_ns > 0);
        assert!(
            perf.snapshots_lazy <= perf.snapshots_eager,
            "lazy capture never snapshots more than eager: {} > {}",
            perf.snapshots_lazy,
            perf.snapshots_eager
        );
        let json = detection_perf_json(std::slice::from_ref(&perf), 2);
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)));
        assert!(json.contains("\"snapshot_reduction_pct\""));
        assert!(json.contains("\"geomean_speedup\""));
        assert!(json.contains("\"geomean_sequential_points_per_sec\""));
        // The gate's parser round-trips the serialized throughput rows.
        let parsed = parse_sequential_pps(&json);
        assert_eq!(parsed.len(), 1);
        assert!((parsed[0] - perf.points_per_sec(perf.sequential_ns)).abs() < 0.1);
        assert!(json.contains("\"resume_points_per_sec\""));
        assert!(json.contains("\"resume_speedup\""));
        assert!(json.contains("\"checkpoint_ms\""));
        assert!(json.contains("\"stride\""));
        assert!(json.contains("\"geomean_resume_speedup\""));
        assert!(perf.checkpoint_ns > 0, "checkpoint micro-measure ran");
        // Shape check: braces and brackets balance.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn perf_ratios_are_safe_on_degenerate_input() {
        let perf = DetectionPerf {
            name: "degenerate".into(),
            lang: Lang::Cpp,
            points: 0,
            workers: 1,
            sequential_ns: 0,
            parallel_ns: 0,
            scratch_ns: 0,
            stride: None,
            checkpoint_ns: 0,
            eager_ns: 0,
            snapshots_eager: 0,
            snapshots_lazy: 0,
            capture_bytes_eager: 0,
            capture_bytes_lazy: 0,
        };
        assert_eq!(perf.speedup(), 1.0);
        assert_eq!(perf.points_per_sec(0), 0.0);
        assert_eq!(perf.snapshot_reduction_pct(), 0.0);
        assert_eq!(perf.capture_speedup(), 1.0);
        assert_eq!(perf.total_speedup(), 1.0);
        assert_eq!(perf.resume_speedup(), 1.0);
    }

    #[test]
    fn sequential_pps_parser_reads_committed_shape() {
        let doc = "{\n  \"geomean_sequential_points_per_sec\": 123.4,\n  \"apps\": [\n    {\n      \"sequential_points_per_sec\": 8913.2,\n    },\n    {\n      \"sequential_points_per_sec\": 18680.5\n    }\n  ]\n}\n";
        // Only per-app rows match; the geomean key has a different name.
        assert_eq!(parse_sequential_pps(doc), vec![8913.2, 18680.5]);
        assert_eq!(parse_sequential_pps("{}"), Vec::<f64>::new());
    }

    #[test]
    fn geomean_is_scale_invariant_and_safe() {
        assert_eq!(geomean(std::iter::empty()), 1.0);
        let g = geomean([100.0, 400.0].into_iter());
        assert!((g - 200.0).abs() < 1e-9);
        // A zero row is floored, not a NaN factory.
        assert!(geomean([0.0, 10.0].into_iter()).is_finite());
    }
}
