//! The `report` binary's command line: a mistyped or retired subcommand
//! must fail loudly instead of printing nothing and exiting 0, and the
//! performance gate takes no options.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report binary runs")
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    for sub in ["bogus-subcommand", "perf", "perfgate"] {
        let out = report(&[sub]);
        assert_eq!(out.status.code(), Some(2), "exit status of `report {sub}`");
        assert!(out.stdout.is_empty(), "nothing on stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(sub), "{stderr}");
        assert!(stderr.contains("usage: report"), "{stderr}");
    }
}

#[test]
fn gate_takes_no_options() {
    let out = report(&["gate", "--tolerance", "5"]);
    assert_eq!(out.status.code(), Some(2), "exit status");
    assert!(out.stdout.is_empty(), "nothing on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: report"), "{stderr}");
}
