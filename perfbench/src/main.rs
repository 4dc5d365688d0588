//! `atomask-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a host line, then one JSON result line; exits non-zero if any
//! output check failed.

use atomask_perfbench::cli::{Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The detection sweep measures the default engine, whose automatic
    // checkpoint stride this variable would override.
    if std::env::var_os("ATOMASK_CKPT_STRIDE").is_some() {
        eprintln!("unset ATOMASK_CKPT_STRIDE: the benchmark measures the default stride");
        return ExitCode::from(2);
    }
    let outcome = atomask_perfbench::run(&args);
    println!("{}", outcome.host_json());
    if let Some(file) = &outcome.spans_file {
        eprintln!("spans written to {}", file.display());
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", outcome.result_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
