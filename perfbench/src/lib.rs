//! End-to-end and per-layer benchmark of the atomask workspace.
//!
//! One run executes one workload for a measurement window and prints
//! either the end-to-end metrics (untraced run) or the per-layer metrics
//! (traced run), after checking the program's outputs. See `README.md`
//! for the workloads, the metric definitions and how to run it.

pub mod checks;
pub mod cli;
pub mod legs;
pub mod spans;
pub mod stats;

pub use cli::{Args, Workload};

use atomask::apps::AppSpec;
use legs::{Bench, Ledger, Leg, Probes, Variant, SHARD_REPS, SHARD_WORKERS, WORKERS};
use spans::Tracer;
use stats::{geomean, median, median_s};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups before the measurement window; one more follows each second
/// of it, so `setup_s` (their median) sees the run's host conditions.
pub const SETUP_REPS: usize = 5;
/// The traced run's layer-sum check: the stage spans of every
/// `core.pipeline` span must cover at least this share of it.
pub const STAGE_COVER_MIN: f64 = 0.98;

/// Share of the measurement window each [`Leg`] gets, by workload.
/// Every workload reports every end-to-end metric, so each leg runs in
/// each; a workload gives its own leg a larger share than any other
/// workload does. The Fig. 1 leg keeps at least 0.45 everywhere else: one
/// loop over the suite takes ~8 s, and `pipeline_s` needs a few of them
/// per run. The detect leg keeps at least 0.2, so that with the
/// pipeline's detection stages each application's detection is sampled
/// about ten times. The runtime leg's units take ~0.5 ms, so 0.1 already
/// samples each application hundreds of times; past that, its spread
/// between runs is the host's drift, which more samples do not shrink.
pub fn shares(workload: Workload) -> [f64; 3] {
    match workload {
        Workload::Table1Pipeline => [0.7, 0.2, 0.1],
        Workload::DetectSweep => [0.45, 0.45, 0.1],
        Workload::MaskedRuntime => [0.5, 0.2, 0.3],
    }
}

/// The leg a workload is named after.
pub fn primary(workload: Workload) -> Leg {
    match workload {
        Workload::Table1Pipeline => Leg::Pipeline,
        Workload::DetectSweep => Leg::Detect,
        Workload::MaskedRuntime => Leg::Runtime,
    }
}

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("pipeline_s", "s"),
    ("detect_s", "s"),
    ("detect_pps_geomean", "points/s"),
    ("pc_run_us", "us"),
    ("pc_overhead_x", "x"),
    ("pc_undo_overhead_x", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run) other than the per-application ones.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("apps.build_registry_us", "us"),
    ("mor.driver_run_us", "us"),
    ("mor.vm_checkpoint_us", "us"),
    ("mor.vm_restore_us", "us"),
    ("mor.baseline_calls", "count"),
    ("mor.heap_objects", "count"),
    ("objgraph.snapshot_us", "us"),
    ("objgraph.graph_bytes", "bytes"),
    ("objgraph.fingerprint_us", "us"),
    ("objgraph.checkpoint_capture_us", "us"),
    ("objgraph.checkpoint_restore_us", "us"),
    ("inject.points", "count"),
    ("inject.snapshots", "count"),
    ("inject.capture_bytes", "bytes"),
    ("inject.retries", "count"),
    ("inject.classify_ms", "ms"),
    ("inject.shard_speedup", "x"),
    ("inject.verify_snapshots", "count"),
    ("inject.verify_capture_bytes", "bytes"),
    ("mask.verify_to_detect_x", "x"),
    ("mask.mask_set_size", "count"),
    ("mask.checkpoints", "count"),
    ("mask.bytes_checkpointed", "bytes"),
    ("mask.reclaimed", "count"),
    ("mask.undo_journals", "count"),
    ("core.pipeline_ms", "ms"),
    ("core.pipeline_self_ms", "ms"),
    ("core.stage_cover_frac", "ratio"),
    ("bench.trace_overhead_x", "x"),
];

/// Per-application per-layer metric families: `<prefix><app>`.
pub const PER_APP: [(&str, &str); 2] = [("inject.detect_ms.", "ms"), ("mask.verify_ms.", "ms")];

/// Every per-layer metric name with its unit, applications in Table 1
/// order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for (prefix, unit) in PER_APP {
        for spec in atomask::apps::all_apps() {
            all.push((format!("{prefix}{}", spec.name), unit));
        }
    }
    all
}

/// SplitMix64: the seed's only use is ordering the fixed inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Campaign runs plus driver runs.
    pub attempted: u64,
    /// Unhealthy campaign runs plus driver runs that returned `Err`.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Host and build description.
    pub host: Vec<(&'static str, String)>,
    /// Where the traced run wrote its spans.
    pub spans_file: Option<PathBuf>,
}

/// Runs one workload as `args` says.
pub fn run(args: &Args) -> Outcome {
    let mut rng = Rng::new(args.seed);
    let mut specs = atomask::apps::all_apps();
    rng.shuffle(&mut specs);
    let mut tracer = Tracer::new(args.trace);
    let mut setup = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..SETUP_REPS {
        let (built, took) = timed_setup(&specs, &mut tracer);
        setup.push(took);
        apps = built;
    }
    let mut ledger = Ledger::default();
    for app in &apps {
        ledger.attempted += 1;
        ledger.failed += u64::from(app.reference.result.is_err());
    }
    checks::goldens(&mut ledger);
    checks::synthetic(&mut ledger);

    let mut b = Bench::new(apps, tracer, ledger);
    let (overhead, rss) = measure(args, &specs, &mut b, &mut setup, &mut rng);

    let (metrics, spans_file) = if args.trace {
        let probes = b.probes();
        let sharded = b.shard_probe();
        let cover = stage_cover(&b.tracer);
        let worst = cover.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        b.ledger.check(worst >= STAGE_COVER_MIN, || {
            format!(
                "layer sum: stage spans cover only {:.2}% of a core.pipeline span (minimum {:.0}%)",
                worst * 100.0,
                STAGE_COVER_MIN * 100.0
            )
        });
        let file = spans_path(args);
        if let Err(e) = write_spans(&b.tracer, &file) {
            b.ledger
                .problems
                .push(format!("writing {}: {e}", file.display()));
        }
        (
            per_layer(&b, &probes, &sharded, &cover, overhead),
            Some(file),
        )
    } else {
        (end_to_end(&b, &setup, rss), None)
    };

    let mut problems = std::mem::take(&mut b.ledger.problems);
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not a finite number", m.name));
        }
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: b.ledger.attempted,
        failed: b.ledger.failed,
        metrics,
        problems,
        host: host(args),
        spans_file,
    }
}

fn timed_setup(specs: &[AppSpec], tracer: &mut Tracer) -> (Vec<legs::App>, Duration) {
    tracer.next_trace();
    let open = tracer.open("bench.setup", "");
    let built = legs::setup(specs, tracer);
    (built, tracer.close(open))
}

/// The measurement window. One Fig. 1 loop per application comes first
/// (the runtime leg needs its mask sets); then each step runs the next
/// application's unit of the leg furthest below its share of the time
/// spent, until the window has passed and every leg has sampled every
/// application at least once (twice for the traced primary leg).
///
/// A traced run keeps spans on a primary-leg unit only when that
/// application's sample count is even. Returns the traced/untraced ratio
/// of the primary leg's summed per-application medians, and the peak RSS
/// (MiB) once every leg has run every application: later units repeat
/// the same work, and only the benchmark's sample storage keeps growing.
fn measure(
    args: &Args,
    specs: &[AppSpec],
    b: &mut Bench,
    setup: &mut Vec<Duration>,
    rng: &mut Rng,
) -> (f64, f64) {
    let n = b.apps.len();
    let share = shares(args.workload);
    let main = primary(args.workload);
    let start = Instant::now();
    let window = Duration::from_secs(args.seconds);
    let mut spent = [Duration::ZERO; 3];
    let mut cursor = [0usize; 3];
    let mut split: Vec<[Vec<f64>; 2]> = vec![Default::default(); n];
    let mut last_setup = start;
    let mut rss = None;
    loop {
        let least = |leg: Leg| (0..n).map(|i| b.samples(leg, i)).min().unwrap_or(0);
        if rss.is_none() && Leg::ALL.iter().all(|&l| least(l) >= 1) {
            rss = Some(peak_rss_mib());
        }
        let need = |leg: Leg| if args.trace && leg == main { 2 } else { 1 };
        let done = Leg::ALL.iter().all(|&l| least(l) >= need(l));
        if done && start.elapsed() >= window {
            break;
        }
        let leg = if least(Leg::Pipeline) == 0 {
            Leg::Pipeline
        } else {
            let behind = |l: Leg| spent[l as usize].as_secs_f64() / share[l as usize];
            Leg::ALL
                .into_iter()
                .min_by(|&x, &y| behind(x).total_cmp(&behind(y)))
                .expect("three legs")
        };
        let i = cursor[leg as usize] % n;
        cursor[leg as usize] += 1;
        let keep = !args.trace || leg != main || b.samples(leg, i).is_multiple_of(2);
        b.tracer.pause(!keep);
        let took = b.unit(leg, i, rng);
        b.tracer.pause(false);
        spent[leg as usize] += took;
        if leg == main {
            split[i][usize::from(keep)].push(took.as_secs_f64());
        }
        if last_setup.elapsed() >= Duration::from_secs(1) {
            setup.push(timed_setup(specs, &mut b.tracer).1);
            last_setup = Instant::now();
        }
    }
    let both: Vec<_> = split
        .iter()
        .filter(|s| !s[0].is_empty() && !s[1].is_empty())
        .collect();
    let sum = |k: usize| both.iter().map(|s| median(&s[k])).sum::<f64>();
    (sum(1) / sum(0), rss.unwrap_or_else(peak_rss_mib))
}

/// A metric declared in [`END_TO_END`], [`PER_LAYER`] or [`PER_APP`],
/// which give its unit.
fn metric(name: impl Into<String>, value: f64) -> Metric {
    let name = name.into();
    let declared = END_TO_END.iter().chain(&PER_LAYER).find(|d| d.0 == name);
    let unit = declared
        .or_else(|| PER_APP.iter().find(|d| name.starts_with(d.0)))
        .expect("every metric is declared")
        .1;
    Metric { name, unit, value }
}

/// Median, over applications' samples, of variant `v`'s driver runs.
fn runtime_medians(b: &Bench, v: Variant) -> Vec<f64> {
    b.runtime.iter().map(|s| median_s(&s[v as usize])).collect()
}

/// Per application, the median of `f` over its samples, in seconds.
fn per_app<T>(samples: &[Vec<T>], f: impl Fn(&T) -> Duration) -> Vec<f64> {
    let med = |xs: &Vec<T>| median_s(&xs.iter().map(&f).collect::<Vec<_>>());
    samples.iter().map(med).collect()
}

fn end_to_end(b: &Bench, setup: &[Duration], rss_mib: f64) -> Vec<Metric> {
    let detect = per_app(&b.detect_samples(), |d| *d);
    let points = b.facts.iter().flatten().map(|f| f.points as f64);
    let pps = points.zip(&detect).map(|(p, &s)| p / s);
    let plain = runtime_medians(b, Variant::Plain);
    let deep = runtime_medians(b, Variant::DeepCopy);
    let undo = runtime_medians(b, Variant::UndoLog);
    let ratio = |xs: &[f64]| geomean(xs.iter().zip(&plain).map(|(x, p)| x / p));
    vec![
        metric("pipeline_s", per_app(&b.pipeline, |a| a.total).iter().sum()),
        metric("detect_s", detect.iter().sum()),
        metric("detect_pps_geomean", geomean(pps)),
        metric("pc_run_us", geomean(deep.iter().map(|s| s * 1e6))),
        metric("pc_overhead_x", ratio(&deep)),
        metric("pc_undo_overhead_x", ratio(&undo)),
        metric("setup_s", median_s(setup)),
        metric("peak_rss_mb", rss_mib),
    ]
}

/// Every traced `core.pipeline` span: its application, the share of it
/// its stage spans cover, and its self time (ms).
fn stage_cover(tracer: &Tracer) -> Vec<(&'static str, f64, f64)> {
    let self_ns = tracer.self_times_ns();
    let spans = tracer.spans().iter().zip(self_ns);
    spans
        .filter(|(s, _)| s.name == "core.pipeline")
        .map(|(s, own)| {
            (
                s.app,
                1.0 - own as f64 / s.duration_ns() as f64,
                own as f64 / 1e6,
            )
        })
        .collect()
}

fn per_layer(
    b: &Bench,
    probes: &Probes,
    sharded: &[f64],
    cover: &[(&str, f64, f64)],
    overhead: f64,
) -> Vec<Metric> {
    let ms = |s: f64| s * 1e3;
    let facts =
        |f: fn(&legs::PipelineFacts) -> u64| b.facts.iter().flatten().map(f).sum::<u64>() as f64;
    let detect_health = |f: fn(&atomask::RunHealth) -> u64| {
        b.detect_health.iter().flatten().map(f).sum::<u64>() as f64
    };
    let mask = |f: fn(&atomask::MaskStats) -> u64| {
        b.mask_stats.iter().flatten().map(f).sum::<u64>() as f64
    };
    let stage_detect = per_app(&b.pipeline, |a| a.detect);
    let stage_verify = per_app(&b.pipeline, |a| a.verify);
    let sweep = per_app(&b.detect_samples(), |d| *d);
    let own_ms: f64 = b
        .apps
        .iter()
        .map(|a| {
            median(
                &cover
                    .iter()
                    .filter(|c| c.0 == a.name)
                    .map(|c| c.2)
                    .collect::<Vec<_>>(),
            )
        })
        .sum();

    let mut out = vec![
        metric("apps.build_registry_us", probes.build_registry_us),
        metric(
            "mor.driver_run_us",
            geomean(runtime_medians(b, Variant::Plain).iter().map(|s| s * 1e6)),
        ),
        metric("mor.vm_checkpoint_us", probes.vm_checkpoint_us),
        metric("mor.vm_restore_us", probes.vm_restore_us),
        metric("mor.baseline_calls", facts(|f| f.baseline_calls)),
        metric(
            "mor.heap_objects",
            b.apps.iter().map(|a| a.reference.heap_objects as f64).sum(),
        ),
        metric("objgraph.snapshot_us", probes.snapshot_us),
        metric("objgraph.graph_bytes", probes.graph_bytes as f64),
        metric("objgraph.fingerprint_us", probes.fingerprint_us),
        metric(
            "objgraph.checkpoint_capture_us",
            probes.checkpoint_capture_us,
        ),
        metric(
            "objgraph.checkpoint_restore_us",
            probes.checkpoint_restore_us,
        ),
        metric("inject.points", facts(|f| f.points)),
        metric("inject.snapshots", detect_health(|h| h.snapshots)),
        metric("inject.capture_bytes", detect_health(|h| h.capture_bytes)),
        metric("inject.retries", detect_health(|h| h.retries)),
        metric(
            "inject.classify_ms",
            ms(per_app(&b.pipeline, |a| a.classify).iter().sum()),
        ),
        metric(
            "inject.shard_speedup",
            geomean(sweep.iter().zip(sharded).map(|(one, two)| one / two)),
        ),
        metric(
            "inject.verify_snapshots",
            facts(|f| f.verify_health.snapshots),
        ),
        metric(
            "inject.verify_capture_bytes",
            facts(|f| f.verify_health.capture_bytes),
        ),
        metric(
            "mask.verify_to_detect_x",
            stage_verify.iter().sum::<f64>() / stage_detect.iter().sum::<f64>(),
        ),
        metric("mask.mask_set_size", facts(|f| f.mask_set.len() as u64)),
        metric("mask.checkpoints", mask(|m| m.checkpoints)),
        metric("mask.bytes_checkpointed", mask(|m| m.bytes_checkpointed)),
        metric("mask.reclaimed", mask(|m| m.reclaimed)),
        metric(
            "mask.undo_journals",
            b.undo_stats
                .iter()
                .flatten()
                .map(|u| u.journals)
                .sum::<u64>() as f64,
        ),
        metric(
            "core.pipeline_ms",
            ms(per_app(&b.pipeline, |a| a.total).iter().sum()),
        ),
        metric("core.pipeline_self_ms", own_ms),
        metric(
            "core.stage_cover_frac",
            cover.iter().map(|c| c.1).fold(f64::INFINITY, f64::min),
        ),
        metric("bench.trace_overhead_x", overhead),
    ];
    // Per-application families, in Table 1 order.
    let table1 = atomask::apps::all_apps();
    for (prefix, values) in [
        ("inject.detect_ms.", &sweep),
        ("mask.verify_ms.", &stage_verify),
    ] {
        for spec in &table1 {
            let i = b
                .apps
                .iter()
                .position(|a| a.name == spec.name)
                .expect("every app runs");
            out.push(metric(format!("{prefix}{}", spec.name), ms(values[i])));
        }
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The benchmark package directory (inside the checkout it was built in).
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn spans_path(args: &Args) -> PathBuf {
    package_dir()
        .join("out")
        .join(format!("spans-{}.jsonl", args.workload))
}

fn write_spans(tracer: &Tracer, file: &Path) -> std::io::Result<()> {
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(file)?);
    tracer.write_jsonl(&mut out)?;
    out.flush()
}

/// The commit of the checkout, read from `.git` without leaving it.
fn commit() -> String {
    let Some(git) = package_dir().parent().map(|root| root.join(".git")) else {
        return "unknown".to_owned();
    };
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    std::fs::read_to_string(git.join(name))
        .ok()
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                let (sha, r) = l.split_once(' ')?;
                (r == name).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

fn host(args: &Args) -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim())
        })
        .unwrap_or("unknown");
    vec![
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cpus", cpus.to_string()),
        ("cpu_model", model.to_owned()),
        (
            "workers",
            format!("timed={WORKERS} shard_probe={SHARD_WORKERS}x{SHARD_REPS}"),
        ),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        ("profile", env!("PERFBENCH_PROFILE").to_owned()),
        ("commit", commit()),
    ]
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The host line: `{"host": {...}}`.
    pub fn host_json(&self) -> String {
        let fields: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{\"host\": {{{}}}}}", fields.join(", "))
    }

    /// The result line the benchmark prints last.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
