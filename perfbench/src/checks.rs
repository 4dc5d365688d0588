//! Output checks that need campaigns of their own: the committed report
//! goldens and the synthetic ground truth.

use crate::legs::{campaign_config, Ledger, WORKERS};
use atomask::report::{evaluate_configured, render_method_classification, render_table1};
use atomask::synthetic::{ground_truth, validation_program};
use atomask::{apps, Lang, Pipeline};

/// Injection-point cap per campaign that `tests/golden_reports.rs` blesses
/// the Table 1 / Fig. 2 / Fig. 3 goldens with.
pub const GOLDEN_CAP: u64 = 120;

const GOLDENS: [(&str, &str); 3] = [
    ("table1.txt", include_str!("../../tests/golden/table1.txt")),
    ("fig2.txt", include_str!("../../tests/golden/fig2.txt")),
    ("fig3.txt", include_str!("../../tests/golden/fig3.txt")),
];

/// Re-renders Table 1 and Figs. 2–3 from fresh detection campaigns (in
/// Table 1 order, whatever the seed) and compares them with the goldens.
pub fn goldens(ledger: &mut Ledger) {
    let rows: Vec<_> = apps::all_apps()
        .iter()
        .map(|spec| evaluate_configured(spec, Some(GOLDEN_CAP), campaign_config(WORKERS)))
        .collect();
    for row in &rows {
        ledger.campaign(&row.health);
    }
    let rendered = [
        render_table1(&rows),
        render_method_classification(&rows, Lang::Cpp),
        render_method_classification(&rows, Lang::Java),
    ];
    for ((file, golden), actual) in GOLDENS.iter().zip(&rendered) {
        ledger.check(golden == actual, || {
            format!("detection verdicts differ from tests/golden/{file}:\n{actual}")
        });
    }
}

/// Runs `Pipeline::run` on the synthetic validation program: its
/// classification must equal the ground truth and its `P_C` must be
/// failure atomic.
pub fn synthetic(ledger: &mut Ledger) {
    let program = validation_program();
    let report = Pipeline::new(&program)
        .campaign_config(campaign_config(WORKERS))
        .run();
    ledger.campaign(&report.detection_health());
    ledger.campaign(&report.verification_health());
    for (name, expected) in ground_truth() {
        let got = report.classification.method(name).and_then(|m| m.verdict);
        ledger.check(got == Some(expected), || {
            format!("synthetic {name}: classified {got:?}, ground truth {expected:?}")
        });
    }
    ledger.check(report.corrected_is_atomic(), || {
        "synthetic validation program: P_C is not failure atomic".to_owned()
    });
}
