//! The `atomask` binary's command line: `verify` reports on the strategy
//! and cap it was given, and a bad invocation fails with the usage.

use std::process::Command;

fn atomask(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_atomask"))
        .args(args)
        .output()
        .expect("atomask binary runs")
}

#[test]
fn verify_under_the_undo_log_succeeds() {
    let out = atomask(&["verify", "LinkedBuffer", "--cap", "40", "--undo-log"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit status {:?}: {stdout}",
        out.status
    );
    assert!(
        stdout.contains("corrected program is failure atomic"),
        "{stdout}"
    );
}

#[test]
fn bad_invocation_prints_usage_and_fails() {
    let out = atomask(&["verify", "LinkedBuffer", "--bogus-flag"]);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("atomask verify <app>"), "{stderr}");
}
