//! Campaign journaling: the append-only record that makes detection
//! campaigns resumable.
//!
//! A [`CampaignJournal`] holds the baseline of a campaign (total potential
//! injection points plus baseline call counts) and every finished
//! [`RunResult`]. [`crate::Campaign::resume`] replays journaled runs
//! verbatim and executes only the points the journal is missing, so an
//! interrupted sweep completes to the same [`crate::CampaignResult`] the
//! uninterrupted sweep would have produced.
//!
//! The journal also has a line-oriented text form ([`CampaignJournal::
//! serialize`] / [`CampaignJournal::parse`]) so a harness can persist it
//! between processes without any external serialization dependency.

use crate::campaign::{RunOutcome, RunResult};
use crate::marks::Mark;
use atomask_mor::{ExcId, MethodId};
use std::collections::HashMap;
use std::fmt;

/// Magic first line of the text form; bump the version on format changes.
/// v2 added the per-run capture stats (`snapshots`, `capture_bytes`) to
/// the `run` line; v3 added a per-run trace-event count, which v4 dropped
/// again (sweeps no longer trace), so a v4 `run` line has v2's shape.
const HEADER: &str = "atomask-campaign-journal v4";
/// Previous format versions, still parseable (missing stats read as 0,
/// v3's trace-event column is checked and dropped).
const HEADER_V3: &str = "atomask-campaign-journal v3";
const HEADER_V2: &str = "atomask-campaign-journal v2";
const HEADER_V1: &str = "atomask-campaign-journal v1";

/// Append-only record of a (possibly partial) detection campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignJournal {
    program: Option<String>,
    baseline: Option<(u64, Vec<u64>)>,
    runs: Vec<RunResult>,
    /// Injection point → index in `runs` of its first run.
    by_point: HashMap<u64, usize>,
}

impl CampaignJournal {
    /// An empty journal (no program bound, no baseline, no runs).
    pub fn new() -> Self {
        CampaignJournal::default()
    }

    /// The program this journal belongs to, once bound.
    pub fn program(&self) -> Option<&str> {
        self.program.as_deref()
    }

    /// Binds the journal to `program`, or asserts it is already bound to
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the journal was recorded by a different program — mixing
    /// journals across programs would silently corrupt a campaign (host
    /// error).
    pub fn bind(&mut self, program: &str) {
        match &self.program {
            None => self.program = Some(program.to_owned()),
            Some(bound) => assert_eq!(
                bound, program,
                "campaign journal belongs to program `{bound}`, not `{program}`"
            ),
        }
    }

    /// The journaled baseline, if the counting run finished: total
    /// potential injection points and per-method baseline call counts.
    pub fn baseline(&self) -> Option<(u64, &[u64])> {
        self.baseline
            .as_ref()
            .map(|(points, calls)| (*points, calls.as_slice()))
    }

    /// Records the counting run's result.
    pub fn record_baseline(&mut self, total_points: u64, baseline_calls: &[u64]) {
        self.baseline = Some((total_points, baseline_calls.to_vec()));
    }

    /// Appends one finished run (cloned into the journal, so callers keep
    /// ownership of theirs).
    pub fn record_run(&mut self, run: &RunResult) {
        self.push_run(run.clone());
    }

    /// Appends one finished run, taking ownership of it.
    pub(crate) fn push_run(&mut self, run: RunResult) {
        self.by_point
            .entry(run.injection_point)
            .or_insert(self.runs.len());
        self.runs.push(run);
    }

    /// The journaled result for `injection_point`, if that run finished
    /// (the first one, should the journal hold the point twice). O(1).
    pub fn run_for(&self, injection_point: u64) -> Option<&RunResult> {
        self.by_point.get(&injection_point).map(|&i| &self.runs[i])
    }

    /// All journaled runs, in append order.
    pub fn runs(&self) -> &[RunResult] {
        &self.runs
    }

    /// Number of journaled runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` iff no runs are journaled.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Keeps only the first `keep` runs — simulates (or tidies up after)
    /// an interruption.
    pub fn truncate_runs(&mut self, keep: usize) {
        self.runs.truncate(keep);
        self.by_point.retain(|_, i| *i < keep);
    }

    /// Consumes the journal, returning its runs in append order.
    pub(crate) fn into_runs(self) -> Vec<RunResult> {
        self.runs
    }

    /// Renders the journal in its line-oriented text form.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        if let Some(program) = &self.program {
            out.push_str("program\t");
            out.push_str(&escape(program));
            out.push('\n');
        }
        if let Some((points, calls)) = &self.baseline {
            let rendered: Vec<String> = calls.iter().map(u64::to_string).collect();
            out.push_str(&format!("baseline\t{points}\t{}\n", rendered.join(",")));
        }
        for run in &self.runs {
            let injected = match run.injected {
                None => "-".to_owned(),
                Some((m, e)) => format!("{},{}", m.into_raw(), e.into_raw()),
            };
            out.push_str(&format!(
                "run\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                run.injection_point,
                run.outcome.as_str(),
                run.retries,
                run.fuel_spent,
                run.snapshots,
                run.capture_bytes,
                injected,
                opt_str(&run.top_error),
            ));
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

    /// Parses the text form produced by [`CampaignJournal::serialize`].
    /// Legacy v1–v3 journals still parse: capture stats a v1 journal lacks
    /// read as 0, and v3's trace-event column is dropped. Serialization
    /// always writes the current version.
    ///
    /// # Errors
    ///
    /// Returns a [`JournalParseError`] naming the offending line when the
    /// input is not a valid journal of any known version. A parse failure
    /// is a hard error — [`crate::Campaign::resume`] never silently skips
    /// a malformed prefix.
    pub fn parse(text: &str) -> Result<Self, JournalParseError> {
        let fail = |line: usize, msg: &str| JournalParseError {
            line,
            msg: msg.to_owned(),
        };
        let mut lines = text.lines().enumerate();
        let version = match lines.next() {
            Some((_, first)) if first == HEADER => 4,
            Some((_, first)) if first == HEADER_V3 => 3,
            Some((_, first)) if first == HEADER_V2 => 2,
            Some((_, first)) if first == HEADER_V1 => 1,
            _ => return Err(fail(1, "missing journal header")),
        };
        // Per-version `run` line shape: total field count and the index of
        // the `injected` field (the optional `top_error` always follows).
        let (run_fields, injected_at) = match version {
            1 => (7, 5),
            3 => (10, 8),
            _ => (9, 7),
        };
        let mut journal = CampaignJournal::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[0] {
                "program" if fields.len() == 2 => {
                    journal.program = Some(unescape(fields[1]));
                }
                "baseline" if fields.len() == 3 => {
                    let points = parse_u64(fields[1], lineno, "total points")?;
                    let calls = if fields[2].is_empty() {
                        Vec::new()
                    } else {
                        fields[2]
                            .split(',')
                            .map(|c| parse_u64(c, lineno, "baseline call count"))
                            .collect::<Result<_, _>>()?
                    };
                    journal.baseline = Some((points, calls));
                }
                "run" if fields.len() == run_fields => {
                    let outcome = RunOutcome::parse(fields[2])
                        .ok_or_else(|| fail(lineno, "unknown run outcome"))?;
                    let injected = match fields[injected_at] {
                        "-" => None,
                        pair => {
                            let (m, e) = pair
                                .split_once(',')
                                .ok_or_else(|| fail(lineno, "malformed injected pair"))?;
                            Some((
                                MethodId::from_raw(parse_u32(m, lineno, "method id")?),
                                ExcId::from_raw(parse_u32(e, lineno, "exception id")?),
                            ))
                        }
                    };
                    let (snapshots, capture_bytes) = if version >= 2 {
                        (
                            parse_u64(fields[5], lineno, "snapshots")?,
                            parse_u64(fields[6], lineno, "capture bytes")?,
                        )
                    } else {
                        (0, 0)
                    };
                    // v3's trace-event count: still validated, so a corrupt
                    // v3 line is rejected whole, then dropped.
                    if version == 3 {
                        parse_u64(fields[7], lineno, "trace events")?;
                    }
                    journal.push_run(RunResult {
                        injection_point: parse_u64(fields[1], lineno, "injection point")?,
                        injected,
                        marks: Vec::new(),
                        top_error: parse_opt_str(fields[injected_at + 1], lineno)?,
                        outcome,
                        retries: parse_u32(fields[3], lineno, "retries")?,
                        fuel_spent: parse_u64(fields[4], lineno, "fuel")?,
                        snapshots,
                        capture_bytes,
                    });
                }
                "mark" if fields.len() == 5 => {
                    let run = journal
                        .runs
                        .last_mut()
                        .ok_or_else(|| fail(lineno, "mark before any run"))?;
                    let atomic = match fields[3] {
                        "a" => true,
                        "n" => false,
                        _ => return Err(fail(lineno, "mark flag must be `a` or `n`")),
                    };
                    run.marks.push(Mark {
                        method: MethodId::from_raw(parse_u32(fields[1], lineno, "method id")?),
                        chain: parse_u64(fields[2], lineno, "chain id")?,
                        atomic,
                        diff: parse_opt_str(fields[4], lineno)?,
                    });
                }
                _ => return Err(fail(lineno, "unrecognized journal line")),
            }
        }
        Ok(journal)
    }
}

/// Error from [`CampaignJournal::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for JournalParseError {}

/// Optional strings render as `-` (absent) or `=<escaped>` (present); the
/// `=` sigil keeps a literal `-` value unambiguous.
fn opt_str(value: &Option<String>) -> String {
    match value {
        None => "-".to_owned(),
        Some(s) => format!("={}", escape(s)),
    }
}

fn parse_opt_str(field: &str, line: usize) -> Result<Option<String>, JournalParseError> {
    match field {
        "-" => Ok(None),
        s if s.starts_with('=') => Ok(Some(unescape(&s[1..]))),
        _ => Err(JournalParseError {
            line,
            msg: "optional string must start with `-` or `=`".to_owned(),
        }),
    }
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, JournalParseError> {
    s.parse().map_err(|_| JournalParseError {
        line,
        msg: format!("invalid {what}: `{s}`"),
    })
}

fn parse_u32(s: &str, line: usize, what: &str) -> Result<u32, JournalParseError> {
    s.parse().map_err(|_| JournalParseError {
        line,
        msg: format!("invalid {what}: `{s}`"),
    })
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(point: u64) -> RunResult {
        RunResult {
            injection_point: point,
            injected: Some((MethodId::from_raw(3), ExcId::from_raw(1))),
            marks: vec![
                Mark::atomic(MethodId::from_raw(3), 9),
                Mark::nonatomic(MethodId::from_raw(2), 9, "field\ta:\n1 vs 2".to_owned()),
            ],
            top_error: Some("[injected exc:1] injected".to_owned()),
            outcome: RunOutcome::Completed,
            retries: 1,
            fuel_spent: 123,
            snapshots: 5,
            capture_bytes: 640,
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut j = CampaignJournal::new();
        j.bind("demo");
        j.record_baseline(7, &[0, 2, 5]);
        j.record_run(&sample_run(1));
        j.record_run(&RunResult::skipped(2));
        let parsed = CampaignJournal::parse(&j.serialize()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn escaping_survives_tabs_newlines_and_dashes() {
        let mut run = sample_run(1);
        run.top_error = Some("-".to_owned());
        let mut j = CampaignJournal::new();
        j.record_run(&run);
        let parsed = CampaignJournal::parse(&j.serialize()).unwrap();
        assert_eq!(parsed.runs()[0], run);
    }

    #[test]
    fn run_for_finds_journaled_points() {
        let mut j = CampaignJournal::new();
        j.record_run(&sample_run(4));
        assert!(j.run_for(4).is_some());
        assert!(j.run_for(1).is_none());
        assert_eq!(j.len(), 1);
        assert!(!j.is_empty());
        // A point journaled twice resolves to its first run.
        let mut again = sample_run(4);
        again.retries = 9;
        j.record_run(&again);
        assert_eq!(j.run_for(4).unwrap().retries, 1);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn truncation_simulates_interruption() {
        let mut j = CampaignJournal::new();
        j.record_run(&sample_run(1));
        j.record_run(&sample_run(2));
        j.truncate_runs(1);
        assert_eq!(j.len(), 1);
        assert!(j.run_for(2).is_none());
    }

    #[test]
    #[should_panic(expected = "belongs to program")]
    fn bind_rejects_a_different_program() {
        let mut j = CampaignJournal::new();
        j.bind("alpha");
        j.bind("beta");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignJournal::parse("not a journal").is_err());
        let bad_line = format!("{HEADER}\nwat\t1\n");
        let err = CampaignJournal::parse(&bad_line).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let bad_mark = format!("{HEADER}\nmark\t1\t2\ta\t-\n");
        assert!(CampaignJournal::parse(&bad_mark).is_err());
    }
}
