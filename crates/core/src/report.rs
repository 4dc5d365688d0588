//! Rendering of every table and figure in the paper's evaluation section.
//!
//! | artifact | renderer |
//! |---|---|
//! | Table 1 (application statistics) | [`render_table1`] |
//! | Fig. 2a/2b (C++ method classification) | [`render_method_classification`] |
//! | Fig. 3a/3b (Java method classification) | [`render_method_classification`] |
//! | Fig. 4 (class distribution) | [`render_class_distribution`] |
//! | Fig. 5 (masking overhead) | [`render_overhead`] |
//! | §6.1 LinkedList case study | [`render_case_study`] |

use crate::overhead::OverheadSample;
use atomask_apps::AppSpec;
use atomask_inject::{
    classify, Campaign, CampaignConfig, Classification, MarkFilter, ReplayReport, RunHealth,
    Verdict, VerdictCounts,
};
use atomask_mor::Lang;

/// The per-application numbers behind Table 1 and Figs. 2–4.
#[derive(Debug, Clone)]
pub struct AppEvaluation {
    /// Application name (Table 1 row).
    pub name: String,
    /// Language side of the evaluation.
    pub lang: Lang,
    /// Classes defined *and used* by the test program.
    pub classes: usize,
    /// Methods defined *and used* by the test program.
    pub methods: usize,
    /// Total potential injection points (= injector runs; Table 1's
    /// `#Injections`).
    pub injections: u64,
    /// Dynamic method+constructor calls in the baseline run.
    pub calls: u64,
    /// Per-verdict method counts (Figs. 2a/3a).
    pub method_counts: VerdictCounts,
    /// Per-verdict call counts (Figs. 2b/3b).
    pub call_counts: VerdictCounts,
    /// Per-verdict class counts (Fig. 4).
    pub class_counts: VerdictCounts,
    /// Run health of the campaign behind these numbers. Any unhealthy runs
    /// (diverged, panicked, skipped) contributed no marks — they flag the
    /// row as resting on a partial sweep.
    pub health: RunHealth,
}

/// Runs the detection campaign for one suite application and summarizes it.
///
/// `cap` limits the number of injector runs (pass `None` for the full
/// sweep, as the paper does).
pub fn evaluate(spec: &AppSpec, cap: Option<u64>) -> AppEvaluation {
    evaluate_configured(spec, cap, CampaignConfig::default())
}

/// [`evaluate`] under an explicit resilience [`CampaignConfig`] (fuel
/// budget, retry policy, failure cap).
pub fn evaluate_configured(
    spec: &AppSpec,
    cap: Option<u64>,
    config: CampaignConfig,
) -> AppEvaluation {
    let program = spec.program();
    let mut campaign = Campaign::new(&program).config(config);
    if let Some(cap) = cap {
        campaign = campaign.max_points(cap);
    }
    let result = campaign.run();
    let c: Classification = classify(&result, &MarkFilter::default());
    AppEvaluation {
        name: spec.name.to_owned(),
        lang: spec.lang,
        classes: c.classes.len(),
        methods: c.method_counts.total() as usize,
        injections: result.total_points,
        calls: result.baseline_calls.iter().sum(),
        method_counts: c.method_counts,
        call_counts: c.call_counts,
        class_counts: c.class_counts,
        health: c.health,
    }
}

/// Renders Table 1: per-application class/method/injection counts.
pub fn render_table1(rows: &[AppEvaluation]) -> String {
    let mut out = String::new();
    out.push_str("Table 1: application statistics\n");
    out.push_str(&format!(
        "{:<6} {:<14} {:>8} {:>9} {:>12}\n",
        "Lang", "Application", "#Classes", "#Methods", "#Injections"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<6} {:<14} {:>8} {:>9} {:>12}\n",
            row.lang.to_string(),
            row.name,
            row.classes,
            row.methods,
            row.injections
        ));
    }
    out
}

/// Renders the run-health companion to Table 1: per-application outcome
/// tallies, retries, and fuel consumption of the detection campaign. A row
/// with a non-zero unhealthy count rests on a partial sweep.
pub fn render_run_health(rows: &[AppEvaluation]) -> String {
    let mut out = String::new();
    out.push_str("Run health: campaign outcomes per application\n");
    out.push_str(&format!(
        "{:<6} {:<14} {:>9} {:>9} {:>9} {:>8} {:>8} {:>12} {:>9}\n",
        "Lang",
        "Application",
        "completed",
        "diverged",
        "panicked",
        "skipped",
        "retries",
        "fuel",
        "snapshots"
    ));
    for row in rows {
        let h = &row.health;
        out.push_str(&format!(
            "{:<6} {:<14} {:>9} {:>9} {:>9} {:>8} {:>8} {:>12} {:>9}\n",
            row.lang.to_string(),
            row.name,
            h.completed,
            h.diverged,
            h.panicked,
            h.skipped,
            h.retries,
            h.fuel_spent,
            h.snapshots
        ));
    }
    let unhealthy: u64 = rows.iter().map(|r| r.health.unhealthy()).sum();
    if unhealthy == 0 {
        out.push_str("all runs healthy: every classification rests on a full sweep\n");
    } else {
        out.push_str(&format!(
            "{unhealthy} unhealthy runs: affected rows rest on partial sweeps\n"
        ));
    }
    out
}

fn pct_triplet(counts: &VerdictCounts) -> (f64, f64, f64) {
    (
        counts.pct(Verdict::FailureAtomic),
        counts.pct(Verdict::ConditionalNonAtomic),
        counts.pct(Verdict::PureNonAtomic),
    )
}

/// Renders Fig. 2 (C++, `lang == Lang::Cpp`) or Fig. 3 (Java): the
/// classification of methods as a percentage of (a) methods defined and
/// used and (b) method calls.
pub fn render_method_classification(rows: &[AppEvaluation], lang: Lang) -> String {
    let figure = match lang {
        Lang::Cpp => "Figure 2",
        Lang::Java => "Figure 3",
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{figure}: method classification, {lang} applications\n"
    ));
    out.push_str(&format!(
        "{:<14} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}\n",
        "", "(a)%atom", "%cond", "%pure", "(b)%atom", "%cond", "%pure"
    ));
    let mut max_pure_calls: f64 = 0.0;
    for row in rows.iter().filter(|r| r.lang == lang) {
        let (ma, mc, mp) = pct_triplet(&row.method_counts);
        let (ca, cc, cp) = pct_triplet(&row.call_counts);
        max_pure_calls = max_pure_calls.max(cp);
        out.push_str(&format!(
            "{:<14} | {:>8.1} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} {:>8.1}\n",
            row.name, ma, mc, mp, ca, cc, cp
        ));
    }
    out.push_str(&format!(
        "largest pure failure non-atomic call share: {max_pure_calls:.2}%\n"
    ));
    out
}

/// Renders Fig. 4: distribution of classes (a class is pure failure
/// non-atomic if it contains at least one pure failure non-atomic method).
pub fn render_class_distribution(rows: &[AppEvaluation]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: class distribution\n");
    out.push_str(&format!(
        "{:<6} {:<14} | {:>7} {:>7} {:>7}\n",
        "Lang", "Application", "%atom", "%cond", "%pure"
    ));
    for row in rows {
        let (a, c, p) = pct_triplet(&row.class_counts);
        out.push_str(&format!(
            "{:<6} {:<14} | {:>7.1} {:>7.1} {:>7.1}\n",
            row.lang.to_string(),
            row.name,
            a,
            c,
            p
        ));
    }
    out
}

/// Renders Fig. 5: masking overhead over the checkpoint-size ×
/// wrapped-call-fraction grid.
pub fn render_overhead(samples: &[OverheadSample]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5: masking overhead (masked/base processing time)\n");
    out.push_str(&format!(
        "{:>12} {:>10} {:>12} {:>12} {:>9}\n",
        "object bytes", "%wrapped", "base ns/call", "masked ns", "factor"
    ));
    for s in samples {
        out.push_str(&format!(
            "{:>12} {:>10} {:>12.0} {:>12.0} {:>9.2}\n",
            s.object_bytes,
            s.wrapped_pct,
            s.base_ns,
            s.masked_ns,
            s.factor()
        ));
    }
    out
}

/// Renders the §6.1 LinkedList case study: pure failure non-atomic methods
/// before and after the trivial fixes.
pub fn render_case_study(buggy: &Classification, fixed: &Classification) -> String {
    let mut out = String::new();
    out.push_str("Case study (§6.1): LinkedList trivial fixes\n");
    let b = buggy.method_counts;
    let f = fixed.method_counts;
    let bc = buggy.call_counts;
    let fc = fixed.call_counts;
    out.push_str(&format!(
        "original: {:>2} pure non-atomic methods ({:.2}% of calls)\n",
        b.pure_nonatomic,
        bc.pct(Verdict::PureNonAtomic)
    ));
    out.push_str(&format!(
        "fixed:    {:>2} pure non-atomic methods ({:.2}% of calls)\n",
        f.pure_nonatomic,
        fc.pct(Verdict::PureNonAtomic)
    ));
    out.push_str("remaining pure non-atomic methods after fixes:\n");
    for m in fixed.pure_nonatomic() {
        out.push_str(&format!("  {} ({} calls)\n", m.name, m.calls));
    }
    out
}

/// Renders a [`ReplayReport`] — the `report repro` artifact: run summary,
/// full event trace, and the minimized divergence when the point was
/// non-atomic.
pub fn render_replay(report: &ReplayReport) -> String {
    let reg = &report.registry;
    let run = &report.run;
    let mut out = String::new();
    out.push_str(&format!(
        "replay of injection point {}: outcome {}\n",
        run.injection_point,
        run.outcome.as_str()
    ));
    match run.injected {
        Some((method, exc)) => out.push_str(&format!(
            "injected {} into {}\n",
            reg.exceptions().name(exc),
            reg.method_display(method)
        )),
        None => out.push_str("no injection fired (point beyond the run's dynamic extent)\n"),
    }
    if let Some(err) = &run.top_error {
        out.push_str(&format!("top-level error: {err}\n"));
    }
    let nonatomic = run.marks.iter().filter(|m| !m.atomic).count();
    out.push_str(&format!(
        "marks: {} ({} non-atomic); fuel {}; {} trace event(s)",
        run.marks.len(),
        nonatomic,
        run.fuel_spent,
        report.trace_emitted
    ));
    if report.trace_dropped > 0 {
        out.push_str(&format!(" ({} dropped)", report.trace_dropped));
    }
    out.push('\n');
    out.push_str("trace:\n");
    for event in &report.trace {
        out.push_str("  ");
        out.push_str(&event.render(reg));
        out.push('\n');
    }
    for mark in &run.marks {
        out.push_str(&format!(
            "mark: {} {}\n",
            reg.method_display(mark.method),
            if mark.atomic { "atomic" } else { "NON-ATOMIC" }
        ));
    }
    match &report.divergence {
        Some(d) => out.push_str(&d.render(reg)),
        None if nonatomic > 0 => {
            out.push_str("divergence: not minimized\n");
        }
        None => out.push_str("divergence: none — the graph was unchanged\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_apps::{cpp_apps, java_apps};

    fn quick_eval(name: &str) -> AppEvaluation {
        let spec = atomask_apps::all_apps()
            .into_iter()
            .find(|a| a.name == name)
            .unwrap();
        evaluate(&spec, Some(100))
    }

    #[test]
    fn evaluate_produces_consistent_counts() {
        let eval = quick_eval("stdQ");
        assert_eq!(eval.name, "stdQ");
        assert_eq!(eval.lang, Lang::Cpp);
        assert!(eval.classes >= 3, "queue + producer + consumer");
        assert!(eval.methods > 5);
        assert!(eval.injections >= 100);
        assert!(eval.calls > 0);
        assert_eq!(eval.method_counts.total() as usize, eval.methods);
        assert_eq!(eval.health.unhealthy(), 0, "suite apps are healthy");
        assert_eq!(eval.health.total(), eval.injections.min(100));
    }

    #[test]
    fn run_health_table_reports_full_sweeps() {
        let rows = vec![quick_eval("stdQ"), quick_eval("LinkedBuffer")];
        let table = render_run_health(&rows);
        assert!(table.contains("stdQ"));
        assert!(table.contains("LinkedBuffer"));
        assert!(table.contains("completed"));
        assert!(
            table.contains("all runs healthy"),
            "suite apps sweep cleanly:\n{table}"
        );
    }

    #[test]
    fn evaluate_configured_meters_fuel() {
        let spec = atomask_apps::all_apps()
            .into_iter()
            .find(|a| a.name == "stdQ")
            .unwrap();
        let config = CampaignConfig {
            budget: atomask_mor::Budget::fuel(10_000_000),
            ..CampaignConfig::default()
        };
        let eval = evaluate_configured(&spec, Some(20), config);
        assert_eq!(eval.health.unhealthy(), 0);
        assert!(eval.health.fuel_spent > 0, "budgeted runs meter fuel");
    }

    #[test]
    fn table1_renders_all_rows() {
        let rows = vec![quick_eval("stdQ"), quick_eval("LinkedBuffer")];
        let table = render_table1(&rows);
        assert!(table.contains("stdQ"));
        assert!(table.contains("LinkedBuffer"));
        assert!(table.contains("#Injections"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn figures_filter_by_language() {
        let rows = vec![quick_eval("stdQ"), quick_eval("LinkedBuffer")];
        let fig2 = render_method_classification(&rows, Lang::Cpp);
        assert!(fig2.contains("stdQ"));
        assert!(!fig2.contains("LinkedBuffer"));
        let fig3 = render_method_classification(&rows, Lang::Java);
        assert!(fig3.contains("LinkedBuffer"));
        let fig4 = render_class_distribution(&rows);
        assert!(fig4.contains("stdQ") && fig4.contains("LinkedBuffer"));
    }

    #[test]
    fn overhead_table_shows_factor() {
        let samples = vec![OverheadSample {
            object_bytes: 64,
            wrapped_pct: 10,
            base_ns: 100.0,
            masked_ns: 250.0,
        }];
        let fig5 = render_overhead(&samples);
        assert!(fig5.contains("2.50"));
    }

    #[test]
    fn replay_report_renders_trace_and_divergence() {
        // Point 5 of the LinkedList case study injects into `LLCell::<init>`
        // and leaves `insertLast` non-atomic (`size` bumped before the
        // cell exists).
        let program = atomask_apps::collections::linked_list::program();
        let replay = Campaign::new(&program).replay(5);
        let text = render_replay(&replay);
        assert!(text.contains("replay of injection point 5"), "{text}");
        assert!(text.contains("inject"), "{text}");
        assert!(text.contains("NON-ATOMIC"), "{text}");
        assert!(
            text.contains("non-atomic: LinkedList::insertLast"),
            "divergence names the method:\n{text}"
        );
        assert!(text.contains("LinkedList.size: 0 -> 1"), "{text}");
        // Rendering is pure: the same replay renders identically.
        assert_eq!(text, render_replay(&replay));
    }

    #[test]
    fn suite_lists_match_report_langs() {
        assert!(cpp_apps().iter().all(|a| a.lang == Lang::Cpp));
        assert!(java_apps().iter().all(|a| a.lang == Lang::Java));
    }
}
