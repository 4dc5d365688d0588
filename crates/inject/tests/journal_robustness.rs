//! Robustness of the campaign-journal text format.
//!
//! Two guarantees under test: (1) legacy v1–v3 journals still parse, with
//! the capture stats v1 lacked reading as zero and v3's trace-event column
//! dropped, and a legacy journal resumes like a current one; (2) malformed
//! input is rejected whole — `CampaignJournal::parse` is all-or-nothing, so
//! [`atomask_inject::Campaign::resume`] can never silently treat a
//! corrupted prefix as a valid partial sweep.

use atomask_inject::{Campaign, CampaignJournal, Mark, RunOutcome, RunResult};
use atomask_mor::{ExcId, FnProgram, MethodId, Profile, RegistryBuilder, Value};
use proptest::prelude::*;

/// Mirror of the journal's escaping (the format is stable and documented;
/// the mirror lets these tests build legacy journals by hand).
fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn opt_str(value: &Option<String>) -> String {
    match value {
        None => "-".to_owned(),
        Some(s) => format!("={}", escape(s)),
    }
}

/// Strings that stress the escaping: empty, the `-`/`=` sigils, tabs,
/// newlines, backslashes.
const TRICKY: &[&str] = &[
    "",
    "-",
    "=",
    "plain text",
    "tab\there",
    "line\nbreak",
    "back\\slash",
    "[injected exc:1] injected",
    "trailing\\",
];

const OUTCOMES: &[RunOutcome] = &[
    RunOutcome::Completed,
    RunOutcome::Diverged,
    RunOutcome::Panicked,
    RunOutcome::Skipped,
];

/// A run exercising every field the formats disagree on.
#[allow(clippy::too_many_arguments)]
fn build_run(
    point: u64,
    outcome_idx: usize,
    retries: u32,
    fuel: u64,
    snapshots: u64,
    capture_bytes: u64,
    err_idx: usize,
    marks: usize,
) -> RunResult {
    RunResult {
        injection_point: point,
        injected: if point.is_multiple_of(2) {
            Some((MethodId::from_raw(point as u32 + 1), ExcId::from_raw(1)))
        } else {
            None
        },
        marks: (0..marks)
            .map(|i| {
                if i % 2 == 0 {
                    Mark::atomic(MethodId::from_raw(i as u32 + 1), point)
                } else {
                    Mark::nonatomic(
                        MethodId::from_raw(i as u32 + 1),
                        point,
                        TRICKY[(err_idx + i) % TRICKY.len()].to_owned(),
                    )
                }
            })
            .collect(),
        top_error: if err_idx.is_multiple_of(2) {
            Some(TRICKY[err_idx % TRICKY.len()].to_owned())
        } else {
            None
        },
        outcome: OUTCOMES[outcome_idx % OUTCOMES.len()],
        retries,
        fuel_spent: fuel,
        snapshots,
        capture_bytes,
    }
}

/// Renders `runs` in the v1 or v2 text format, exactly as those releases
/// serialized them.
fn legacy_text(version: u8, runs: &[RunResult]) -> String {
    let mut out = format!("atomask-campaign-journal v{version}\n");
    out.push_str(&format!("program\t{}\n", escape("legacy")));
    out.push_str("baseline\t9\t1,2,3\n");
    for run in runs {
        let injected = match run.injected {
            None => "-".to_owned(),
            Some((m, e)) => format!("{},{}", m.into_raw(), e.into_raw()),
        };
        match version {
            1 => out.push_str(&format!(
                "run\t{}\t{}\t{}\t{}\t{}\t{}\n",
                run.injection_point,
                run.outcome.as_str(),
                run.retries,
                run.fuel_spent,
                injected,
                opt_str(&run.top_error),
            )),
            2 => out.push_str(&format!(
                "run\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                run.injection_point,
                run.outcome.as_str(),
                run.retries,
                run.fuel_spent,
                run.snapshots,
                run.capture_bytes,
                injected,
                opt_str(&run.top_error),
            )),
            other => panic!("no legacy serializer for v{other}"),
        }
        for mark in &run.marks {
            out.push_str(&format!(
                "mark\t{}\t{}\t{}\t{}\n",
                mark.method.into_raw(),
                mark.chain,
                if mark.atomic { "a" } else { "n" },
                opt_str(&mark.diff),
            ));
        }
    }
    out
}

/// Rewrites a current (v4) journal text as v3 wrote it: the v3 header and
/// a trace-event count, `events`, after each run's capture stats.
fn as_v3(v4_text: &str, events: u64) -> String {
    let mut out = String::new();
    for line in v4_text.lines() {
        if let Some(rest) = line.strip_prefix("atomask-campaign-journal v4") {
            out.push_str("atomask-campaign-journal v3");
            out.push_str(rest);
        } else if line.starts_with("run\t") {
            let mut fields: Vec<String> = line.split('\t').map(str::to_owned).collect();
            fields.insert(7, events.to_string());
            out.push_str(&fields.join("\t"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// What a legacy journal should parse to: the original runs with the
/// fields that postdate `version` zeroed.
fn expect_parsed(version: u8, runs: &[RunResult]) -> CampaignJournal {
    let mut journal = CampaignJournal::new();
    journal.bind("legacy");
    journal.record_baseline(9, &[1, 2, 3]);
    for run in runs {
        let mut run = run.clone();
        if version < 2 {
            run.snapshots = 0;
            run.capture_bytes = 0;
        }
        journal.record_run(&run);
    }
    journal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// v1 journals (no capture stats) parse, and the missing fields read
    /// as zero.
    #[test]
    fn v1_journals_still_parse(
        point in 1u64..40,
        outcome_idx in 0usize..4,
        retries in 0u32..3,
        fuel in 0u64..10_000,
        err_idx in 0usize..9,
        marks in 0usize..4,
    ) {
        let runs = vec![
            build_run(point, outcome_idx, retries, fuel, 7, 512, err_idx, marks),
            build_run(point + 1, outcome_idx + 1, retries, fuel, 7, 512, err_idx + 1, marks),
        ];
        let parsed = CampaignJournal::parse(&legacy_text(1, &runs));
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        prop_assert_eq!(parsed.unwrap(), expect_parsed(1, &runs));
    }

    /// v2 journals (capture stats, v4's run shape) parse the same way.
    #[test]
    fn v2_journals_still_parse(
        point in 1u64..40,
        outcome_idx in 0usize..4,
        retries in 0u32..3,
        fuel in 0u64..10_000,
        snapshots in 0u64..50,
        capture_bytes in 0u64..100_000,
        err_idx in 0usize..9,
        marks in 0usize..4,
    ) {
        let runs = vec![build_run(
            point, outcome_idx, retries, fuel, snapshots, capture_bytes, err_idx, marks,
        )];
        let parsed = CampaignJournal::parse(&legacy_text(2, &runs));
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        prop_assert_eq!(parsed.unwrap(), expect_parsed(2, &runs));
    }

    /// v3 journals parse with their trace-event column dropped, whatever
    /// count it holds.
    #[test]
    fn v3_journals_still_parse(
        point in 1u64..40,
        outcome_idx in 0usize..4,
        snapshots in 0u64..50,
        events in 0u64..100_000,
        err_idx in 0usize..9,
        marks in 0usize..4,
    ) {
        let runs = vec![
            build_run(point, outcome_idx, 2, 77, snapshots, 96, err_idx, marks),
            build_run(point + 1, outcome_idx + 1, 0, 5, 0, 0, err_idx + 1, marks),
        ];
        let journal = expect_parsed(3, &runs);
        let parsed = CampaignJournal::parse(&as_v3(&journal.serialize(), events));
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        prop_assert_eq!(parsed.unwrap(), journal);
    }

    /// The current format round-trips, and serialization is idempotent.
    #[test]
    fn v4_round_trips(
        point in 1u64..40,
        outcome_idx in 0usize..4,
        err_idx in 0usize..9,
        marks in 0usize..4,
    ) {
        let mut journal = CampaignJournal::new();
        journal.bind("current");
        journal.record_baseline(4, &[4]);
        journal.record_run(&build_run(point, outcome_idx, 1, 33, 2, 64, err_idx, marks));
        let text = journal.serialize();
        let parsed = CampaignJournal::parse(&text).expect("own output parses");
        prop_assert_eq!(&parsed, &journal);
        prop_assert_eq!(parsed.serialize(), text);
    }
}

/// A small real-shaped v4 journal to corrupt.
fn sample_text() -> String {
    let mut journal = CampaignJournal::new();
    journal.bind("sample");
    journal.record_baseline(3, &[1, 2]);
    journal.record_run(&build_run(1, 0, 0, 10, 1, 32, 0, 2));
    journal.record_run(&build_run(2, 1, 1, 20, 0, 0, 1, 1));
    journal.serialize()
}

#[test]
fn truncated_run_line_is_rejected_with_its_line_number() {
    let text = sample_text();
    // Cut the first run line short mid-field.
    let run_line_idx = text
        .lines()
        .position(|l| l.starts_with("run\t"))
        .expect("sample has a run line");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let cut = lines[run_line_idx].len() / 2;
    lines[run_line_idx].truncate(cut);
    let corrupted = lines.join("\n");
    let err = CampaignJournal::parse(&corrupted).expect_err("truncated line must not parse");
    assert_eq!(err.line, run_line_idx + 1, "error names the corrupted line");
}

#[test]
fn corrupted_middle_line_rejects_the_whole_journal() {
    // The valid prefix before the corruption must NOT come back as a
    // partial journal: parse is all-or-nothing, so resume can never
    // mistake a corrupted journal for a short sweep.
    let text = sample_text();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let last_run = lines
        .iter()
        .rposition(|l| l.starts_with("run\t"))
        .expect("sample has run lines");
    lines[last_run] = lines[last_run].replacen("run\t", "rnu\t", 1);
    let corrupted = lines.join("\n");
    let err = CampaignJournal::parse(&corrupted).expect_err("corrupt tag must not parse");
    assert_eq!(err.line, last_run + 1);
    assert!(err.to_string().contains("unrecognized"), "{err}");
}

#[test]
fn bad_field_values_are_rejected() {
    let text = sample_text();
    for (needle, replacement) in [
        ("completed", "finished"),                // unknown outcome token
        ("mark\t", "mark\t\t"),                   // extra field in a mark line
        ("baseline\t3\t1,2", "baseline\t3\t1,x"), // non-numeric call count
    ] {
        let corrupted = text.replacen(needle, replacement, 1);
        assert_ne!(corrupted, text, "replacement `{needle}` must apply");
        assert!(
            CampaignJournal::parse(&corrupted).is_err(),
            "`{needle}` -> `{replacement}` must be rejected"
        );
    }
}

#[test]
fn version_and_shape_must_agree() {
    // A v3 header with a 9-field (v4-shaped) run line is malformed, and
    // vice versa: field counts are validated per version.
    let v4_text = sample_text();
    let v3_header = v4_text.replacen("journal v4", "journal v3", 1);
    assert!(CampaignJournal::parse(&v3_header).is_err());
    let v4_header = as_v3(&v4_text, 7).replacen("journal v3", "journal v4", 1);
    assert!(CampaignJournal::parse(&v4_header).is_err());
}

#[test]
fn unknown_versions_and_missing_headers_are_rejected() {
    assert!(CampaignJournal::parse("").is_err());
    assert!(CampaignJournal::parse("atomask-campaign-journal v5\n").is_err());
    assert!(CampaignJournal::parse("not a journal\nrun\t1\n").is_err());
    let err = CampaignJournal::parse("garbage").expect_err("no header");
    assert_eq!(err.line, 1);
}

#[test]
fn truncating_between_lines_still_parses_as_a_shorter_journal() {
    // Clean truncation at a line boundary is an *interruption*, not a
    // corruption: the prefix is a valid journal with fewer runs, which is
    // exactly what resume completes.
    let text = sample_text();
    let lines: Vec<&str> = text.lines().collect();
    let last_run = lines
        .iter()
        .rposition(|l| l.starts_with("run\t"))
        .expect("sample has run lines");
    let prefix = lines[..last_run].join("\n");
    let parsed = CampaignJournal::parse(&prefix).expect("line-aligned prefix parses");
    assert_eq!(parsed.len(), 1, "one complete run survives");
}

/// `T.outer` bumps `a`, calls `inner`, then restores `a`: injections into
/// `inner` leave `outer` non-atomic.
fn two_level_program() -> FnProgram {
    FnProgram::new(
        "two-level",
        || {
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.class("T", |c| {
                c.field("a", Value::Int(0));
                c.method("outer", |ctx, this, _| {
                    let a = ctx.get_int(this, "a");
                    ctx.set(this, "a", Value::Int(a + 1));
                    ctx.call(this, "inner", &[])?;
                    ctx.set(this, "a", Value::Int(a));
                    Ok(Value::Null)
                });
                c.method("inner", |_, _, _| Ok(Value::Null));
            });
            rb.build()
        },
        |vm| {
            let t = vm.construct("T", &[])?;
            vm.root(t);
            for _ in 0..3 {
                let _ = vm.call(t, "outer", &[]);
            }
            Ok(Value::Null)
        },
    )
}

#[test]
fn truncated_v3_journal_resumes_to_the_uninterrupted_result() {
    let p = two_level_program();
    let full = Campaign::new(&p).run();
    assert!(full.runs.iter().any(|r| r.marks.iter().any(|m| !m.atomic)));
    let mut interrupted = full.journal();
    interrupted.truncate_runs(full.runs.len() / 2);
    let mut journal =
        CampaignJournal::parse(&as_v3(&interrupted.serialize(), 123)).expect("a v3 journal parses");
    let resumed = Campaign::new(&p).resume(&mut journal);
    assert_eq!(resumed.program, full.program);
    assert_eq!(resumed.total_points, full.total_points);
    assert_eq!(resumed.baseline_calls, full.baseline_calls);
    assert_eq!(resumed.runs, full.runs, "resume is bit-for-bit");
    // The completed journal is written in the current version and equals
    // the uninterrupted sweep's.
    assert_eq!(journal.serialize(), full.journal().serialize());
}
