//! Regenerates the paper's tables and figures.
//!
//! ```text
//! report [table1|fig2|fig3|fig4|fig5|casestudy|all] [--quick]
//! report repro --app <name> --point <n>
//! report gate
//! ```
//!
//! Without a subcommand it runs `all`; an unknown subcommand prints this
//! usage to stderr and exits with status 2.
//!
//! `--quick` caps every campaign at 300 injection points and shrinks the
//! Fig. 5 grid; without it the full sweeps run (as in the paper).
//!
//! `repro` replays one injection point of one suite application with the
//! flight recorder on: it prints the full event trace, the minimized
//! divergence, and a comparison against a fresh campaign's recorded
//! classification of the same point.
//!
//! `gate` is the CI performance gate. For every suite application it
//! times detection and masking verification on the default engine
//! against the same campaign with checkpoint-resume off and with eager
//! capture, prints the four reference/default ratios, and exits 1 when
//! any ratio falls below its floor (see `atomask_bench::CHECKS`). It
//! takes no options.

use atomask::report::{
    render_case_study, render_class_distribution, render_method_classification, render_overhead,
    render_replay, render_run_health, render_table1,
};
use atomask::{classify, overhead, Campaign, Lang, MarkFilter};
use atomask_bench::{evaluate_apps, gate_failures, geomean, measure_app, Timing, CHECKS};

/// The subcommand forms listed in the module doc.
const USAGE: &str = "usage: report [table1|fig2|fig3|fig4|fig5|casestudy|all] [--quick]
       report repro --app <name> --point <n>
       report gate";

const SUBCOMMANDS: [&str; 9] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "casestudy",
    "all",
    "repro",
    "gate",
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

fn gate() {
    let apps = atomask::apps::all_apps();
    let names: Vec<&str> = CHECKS.iter().map(|c| c.name).collect();
    println!(
        "gate: reference/default time per app ({})",
        names.join(", ")
    );
    let timings: Vec<[Timing; 4]> = apps
        .iter()
        .map(|spec| {
            let timings = measure_app(spec);
            let ratios: Vec<String> = timings
                .iter()
                .map(|t| t.ratio().map_or("-".to_owned(), |r| format!("{r:.2}")))
                .collect();
            println!("  {:<14}{}", spec.name, ratios.join("  "));
            timings
        })
        .collect();
    let readings: Vec<(&str, Option<f64>, f64)> = CHECKS
        .iter()
        .enumerate()
        .map(|(i, check)| {
            let reading = geomean(timings.iter().map(|t| t[i].ratio()));
            (check.name, reading, check.floor)
        })
        .collect();
    for &(name, reading, floor) in &readings {
        let shown = reading.map_or("-".to_owned(), |r| format!("{r:.3}"));
        println!("gate: {name:<21} {shown} (floor {floor:.2})");
    }
    let failures = gate_failures(&readings);
    for failure in &failures {
        println!("gate: FAIL — {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("gate: ok");
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
    if what == "gate" {
        if args.len() != 1 {
            eprintln!("`report gate` takes no options\n{USAGE}");
            std::process::exit(2);
        }
        gate();
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
