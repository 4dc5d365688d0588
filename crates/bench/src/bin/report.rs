//! Regenerates the paper's tables and figures.
//!
//! ```text
//! report [table1|fig2|fig3|fig4|fig5|casestudy|perf|all] [--quick]
//! report repro --app <name> --point <n>
//! report perfgate [--tolerance <pct>]
//! ```
//!
//! Without a subcommand it runs `all`; an unknown subcommand prints this
//! usage to stderr and exits with status 2.
//!
//! `--quick` caps every campaign at 300 injection points and shrinks the
//! Fig. 5 grid; without it the full sweeps run (as in the paper).
//!
//! `perf` profiles the detection campaigns — sequential vs. sharded sweep
//! wall time and eager vs. lazy capture cost — and writes the results to
//! `BENCH_detection.json` (worker count from `ATOMASK_WORKERS`, default 4).
//!
//! `repro` replays one injection point of one suite application with the
//! flight recorder on: it prints the full event trace, the minimized
//! divergence, and a comparison against a fresh campaign's recorded
//! classification of the same point.
//!
//! `perfgate` is the CI throughput smoke test: it re-measures every
//! application's *sequential* sweep, compares the geomean points/sec
//! against the committed `BENCH_detection.json`, and exits non-zero when
//! the live number regresses by more than the tolerance (default 20%).
//! Faster-than-committed is never an error — CI machines vary; the gate
//! only catches real throughput cliffs.

use atomask::report::{
    render_case_study, render_class_distribution, render_method_classification, render_overhead,
    render_replay, render_run_health, render_table1,
};
use atomask::{classify, overhead, Campaign, Lang, MarkFilter};
use atomask_bench::{
    detection_perf_json, evaluate_apps, geomean, geomean_sequential_pps, measure_detection,
    parse_sequential_pps,
};

/// The subcommand forms listed in the module doc.
const USAGE: &str = "usage: report [table1|fig2|fig3|fig4|fig5|casestudy|perf|all] [--quick]
       report repro --app <name> --point <n>
       report perfgate [--tolerance <pct>]";

const SUBCOMMANDS: [&str; 10] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "casestudy",
    "perf",
    "all",
    "repro",
    "perfgate",
];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn repro(args: &[String]) {
    let usage = "usage: report repro --app <name> --point <n>";
    let app = flag_value(args, "--app").unwrap_or_else(|| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    let point: u64 = flag_value(args, "--point")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{usage}");
            std::process::exit(2);
        });
    let program = atomask::apps::program_by_name(&app).unwrap_or_else(|| {
        let known: Vec<&str> = atomask::apps::all_apps().iter().map(|a| a.name).collect();
        eprintln!("unknown application `{app}`; known: {}", known.join(", "));
        std::process::exit(2);
    });
    let replay = Campaign::new(&program).replay(point);
    print!("{}", render_replay(&replay));
    // Cross-check: a fresh campaign over the same point records the same
    // marks bit for bit.
    let swept = Campaign::new(&program).max_points(point).run();
    match swept.runs.iter().find(|r| r.injection_point == point) {
        Some(recorded) if recorded.marks == replay.run.marks => {
            println!("cross-check: replay matches the campaign's recorded classification");
        }
        Some(recorded) => {
            println!(
                "cross-check: MISMATCH — campaign recorded {} mark(s), replay {}",
                recorded.marks.len(),
                replay.run.marks.len()
            );
            std::process::exit(1);
        }
        None => println!("cross-check: point {point} beyond the campaign's sweep"),
    }
}

fn perfgate(args: &[String]) {
    let tolerance_pct: f64 = flag_value(args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    let committed = std::fs::read_to_string("BENCH_detection.json").unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read BENCH_detection.json: {e}");
        std::process::exit(2);
    });
    let committed_pps = parse_sequential_pps(&committed);
    if committed_pps.is_empty() {
        eprintln!("perfgate: no sequential_points_per_sec rows in BENCH_detection.json");
        std::process::exit(2);
    }
    let committed_geomean = geomean(committed_pps.iter().copied());
    // Sequential throughput only: it is what the committed geomean tracks
    // and it sidesteps CI-runner core-count variance entirely. Workers=1
    // below is the sharding plan, not the sweep shape — `measure_detection`
    // still times its parallel leg, which the gate ignores.
    let rows: Vec<_> = atomask::apps::all_apps()
        .iter()
        .map(|spec| {
            eprintln!("perfgate: profiling {} ...", spec.name);
            measure_detection(spec, None, 1)
        })
        .collect();
    let live_geomean = geomean_sequential_pps(&rows);
    let floor = committed_geomean * (1.0 - tolerance_pct / 100.0);
    println!(
        "perfgate: sequential geomean {live_geomean:.1} points/sec \
         (committed {committed_geomean:.1}, floor {floor:.1} at -{tolerance_pct:.0}%)"
    );
    if live_geomean < floor {
        println!("perfgate: FAIL — sequential sweep throughput regressed past the tolerance");
        std::process::exit(1);
    }
    println!("perfgate: ok");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let cap = if quick { Some(300) } else { None };

    if !SUBCOMMANDS.contains(&what) {
        eprintln!("unknown subcommand `{what}`\n{USAGE}");
        std::process::exit(2);
    }
    if what == "repro" {
        repro(&args);
        return;
    }
    if what == "perfgate" {
        perfgate(&args);
        return;
    }

    let needs_eval = matches!(what, "table1" | "fig2" | "fig3" | "fig4" | "all");
    let rows = if needs_eval {
        evaluate_apps(&atomask::apps::all_apps(), cap)
    } else {
        Vec::new()
    };

    if matches!(what, "table1" | "all") {
        println!("{}", render_table1(&rows));
        println!("{}", render_run_health(&rows));
    }
    if matches!(what, "fig2" | "all") {
        println!("{}", render_method_classification(&rows, Lang::Cpp));
    }
    if matches!(what, "fig3" | "all") {
        println!("{}", render_method_classification(&rows, Lang::Java));
    }
    if matches!(what, "fig4" | "all") {
        println!("{}", render_class_distribution(&rows));
    }
    if matches!(what, "fig5" | "all") {
        let (calls, runs) = if quick { (300, 7) } else { (2_000, 41) };
        let mut samples = Vec::new();
        for &bytes in &overhead::OBJECT_SIZES {
            for &pct in &overhead::WRAPPED_PCTS {
                eprintln!("measuring fig5 point: {bytes} B, {pct}% wrapped ...");
                samples.push(overhead::measure(bytes, pct, calls, runs));
            }
        }
        println!("{}", render_overhead(&samples));

        // Ablation: the paper's §6.2 copy-on-write suggestion, at the
        // worst-case column (100% wrapped calls).
        let mut undo = Vec::new();
        for &bytes in &overhead::OBJECT_SIZES {
            eprintln!("measuring undo-log ablation: {bytes} B ...");
            undo.push(overhead::measure_with(
                atomask::MaskStrategy::UndoLog,
                bytes,
                100,
                calls,
                runs,
            ));
        }
        println!("Ablation: undo-log wrappers at 100% wrapped calls (§6.2)");
        println!("{}", render_overhead(&undo));
    }
    if matches!(what, "perf" | "all") {
        let workers = std::env::var("ATOMASK_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&w| w > 0)
            .unwrap_or(4);
        let mut rows = Vec::new();
        for spec in atomask::apps::all_apps() {
            eprintln!("profiling detection sweep for {} ...", spec.name);
            rows.push(measure_detection(&spec, cap, workers));
        }
        let json = detection_perf_json(&rows, workers);
        std::fs::write("BENCH_detection.json", &json).expect("write BENCH_detection.json");
        eprintln!("wrote BENCH_detection.json");
        println!("{json}");
    }
    if matches!(what, "casestudy" | "all") {
        eprintln!("running LinkedList case study ...");
        let buggy = atomask::apps::collections::linked_list::program();
        let fixed = atomask::apps::collections::linked_list::fixed_program();
        let mut c1 = Campaign::new(&buggy);
        let mut c2 = Campaign::new(&fixed);
        if let Some(cap) = cap {
            c1 = c1.max_points(cap);
            c2 = c2.max_points(cap);
        }
        let buggy_c = classify(&c1.run(), &MarkFilter::default());
        let fixed_c = classify(&c2.run(), &MarkFilter::default());
        println!("{}", render_case_study(&buggy_c, &fixed_c));
    }
}
