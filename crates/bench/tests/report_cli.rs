//! The `report` binary's command line: a mistyped subcommand must fail
//! loudly instead of printing nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("bogus-subcommand")
        .output()
        .expect("report binary runs");
    assert_eq!(out.status.code(), Some(2), "exit status");
    assert!(out.stdout.is_empty(), "nothing on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus-subcommand"), "{stderr}");
    assert!(stderr.contains("usage: report"), "{stderr}");
}
