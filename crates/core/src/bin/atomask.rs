//! The `atomask` command line: run detection, masking and verification
//! over the built-in evaluation applications.
//!
//! ```text
//! atomask list
//! atomask detect  <app> [--cap N] [--verbose]
//! atomask suggest <app>
//! atomask mask    <app> [--cap N] [--wrap-conditional] [--undo-log]
//! atomask verify  <app> [--cap N] [--wrap-conditional] [--undo-log]
//! ```

use atomask::{
    classify, suggest_exception_free, Campaign, Classification, MaskStrategy, Pipeline, Policy,
    Verdict,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  atomask list\n  atomask detect <app> [--cap N] [--verbose]\n  \
         atomask suggest <app>\n  \
         atomask mask <app> [--cap N] [--wrap-conditional] [--undo-log]\n  \
         atomask verify <app> [--cap N] [--wrap-conditional] [--undo-log]\n\n\
         <app> is a Table 1 name (see `atomask list`) or `LinkedList-fixed`."
    );
    ExitCode::FAILURE
}

struct Options {
    app: String,
    cap: Option<u64>,
    verbose: bool,
    wrap_conditional: bool,
    undo_log: bool,
}

fn parse(args: &[String]) -> Option<Options> {
    let mut opts = Options {
        app: String::new(),
        cap: None,
        verbose: false,
        wrap_conditional: false,
        undo_log: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cap" => opts.cap = Some(it.next()?.parse().ok()?),
            "--verbose" => opts.verbose = true,
            "--wrap-conditional" => opts.wrap_conditional = true,
            "--undo-log" => opts.undo_log = true,
            name if !name.starts_with("--") && opts.app.is_empty() => {
                opts.app = name.to_owned();
            }
            _ => return None,
        }
    }
    if opts.app.is_empty() {
        return None;
    }
    Some(opts)
}

fn print_classification(c: &Classification, verbose: bool) {
    println!(
        "methods: {} atomic / {} conditional / {} pure non-atomic",
        c.method_counts.atomic, c.method_counts.conditional, c.method_counts.pure_nonatomic
    );
    println!(
        "calls:   {:.1}% atomic / {:.1}% conditional / {:.1}% pure non-atomic",
        c.call_counts.pct(Verdict::FailureAtomic),
        c.call_counts.pct(Verdict::ConditionalNonAtomic),
        c.call_counts.pct(Verdict::PureNonAtomic)
    );
    for m in &c.methods {
        match m.verdict {
            Some(Verdict::FailureAtomic) if !verbose => continue,
            None => continue,
            _ => {}
        }
        println!(
            "  {:<32} {:<16} ({} calls)",
            m.name,
            m.verdict.map(|v| v.to_string()).unwrap_or_default(),
            m.calls
        );
        if let Some(diff) = &m.sample_diff {
            println!("      e.g. {diff}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    if command == "list" {
        for spec in atomask::apps::all_apps() {
            println!("{:<6} {}", spec.lang.to_string(), spec.name);
        }
        println!("Java   LinkedList-fixed (the §6.1 case-study variant)");
        return ExitCode::SUCCESS;
    }
    let Some(opts) = parse(&args[1..]) else {
        return usage();
    };
    let Some(program) = atomask::apps::program_by_name(&opts.app) else {
        eprintln!("unknown application `{}` (try `atomask list`)", opts.app);
        return ExitCode::FAILURE;
    };
    let policy = if opts.wrap_conditional {
        Policy::wrap_everything()
    } else {
        Policy::default()
    };
    let strategy = if opts.undo_log {
        MaskStrategy::UndoLog
    } else {
        MaskStrategy::DeepCopy
    };

    match command {
        "suggest" => {
            let registry = {
                use atomask::Program;
                program.build_registry()
            };
            let suggested = suggest_exception_free(&program);
            println!(
                "{} methods observed as exception-free leaf candidates:",
                suggested.len()
            );
            for m in &suggested {
                println!("  {}", registry.method_display(*m));
            }
            println!(
                "confirm them, then discount their injections via \
                 Policy::with_exception_free / MarkFilter::exception_free"
            );
            ExitCode::SUCCESS
        }
        "detect" => {
            let mut campaign = Campaign::new(&program);
            if let Some(cap) = opts.cap {
                campaign = campaign.max_points(cap);
            }
            let result = campaign.run();
            println!(
                "{}: {} injections over {} dynamic calls",
                opts.app,
                result.injections(),
                result.baseline_calls.iter().sum::<u64>()
            );
            let c = classify(&result, &policy.mark_filter());
            print_classification(&c, opts.verbose);
            ExitCode::SUCCESS
        }
        "mask" | "verify" => {
            let mut pipeline = Pipeline::new(&program).policy(policy).strategy(strategy);
            if let Some(cap) = opts.cap {
                pipeline = pipeline.max_points(cap);
            }
            let report = pipeline.run();
            println!("{}: wrapped {:?}", opts.app, report.wrapped_names());
            if command == "verify" {
                print_classification(&report.verified, opts.verbose);
                if report.corrected_is_atomic() {
                    println!("corrected program is failure atomic");
                    ExitCode::SUCCESS
                } else {
                    println!("corrected program is STILL NON-ATOMIC");
                    ExitCode::FAILURE
                }
            } else {
                print_classification(&report.classification, opts.verbose);
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
