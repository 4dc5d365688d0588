//! Differential property of the two before-state capture strategies: over
//! the full Table 1 suite, `CaptureMode::Eager` (snapshot every observed
//! call) and `CaptureMode::Lazy` (heap journal + as-of reconstruction)
//! must classify identically — same marks, same outcomes, same journals —
//! differing only in the capture statistics they report.
//!
//! The same holds for verification campaigns, whose masking hooks roll
//! state back (and reclaim garbage) inside the injection wrappers' extent:
//! the default engine (lazy capture, checkpoint-resume) must reproduce the
//! eager from-scratch reference under both masking strategies.
//!
//! Every sweep over the suite, detection and verification alike, agrees
//! run for run with [`Campaign::replay`], the traced literal-loop
//! reference.

use atomask_suite::{
    classify, Campaign, CampaignConfig, CampaignResult, CaptureMode, CheckpointStride, FnProgram,
    MaskStrategy, MethodId, Policy, Profile, Program, RegistryBuilder, RunResult, Value,
};
use std::collections::HashSet;

/// Cap per app: enough points to cross every app's non-atomic territory
/// while keeping the differential sweep fast in debug builds.
const CAP: u64 = 120;

/// Zeroes the fields the two capture modes legitimately disagree on.
/// Eager snapshots every observed call; lazy snapshots only on exception,
/// so `snapshots`/`capture_bytes` differ by design. Everything else — the
/// semantic content of a run — must be bit-for-bit identical.
fn normalized(run: &RunResult) -> RunResult {
    let mut run = run.clone();
    run.snapshots = 0;
    run.capture_bytes = 0;
    run
}

fn config(capture: CaptureMode) -> CampaignConfig {
    CampaignConfig {
        capture,
        ..CampaignConfig::default()
    }
}

#[test]
fn eager_and_lazy_capture_classify_identically_across_the_suite() {
    for spec in atomask_suite::apps::all_apps() {
        let program = spec.program();
        let eager = Campaign::new(&program)
            .config(config(CaptureMode::Eager))
            .max_points(CAP)
            .run();
        let lazy = Campaign::new(&program)
            .config(config(CaptureMode::Lazy))
            .max_points(CAP)
            .run();

        assert_eq!(eager.total_points, lazy.total_points, "{}", spec.name);
        assert_eq!(eager.baseline_calls, lazy.baseline_calls, "{}", spec.name);
        assert_eq!(eager.runs.len(), lazy.runs.len(), "{}", spec.name);
        for (e, l) in eager.runs.iter().zip(&lazy.runs) {
            assert_eq!(
                normalized(e),
                normalized(l),
                "{} point {}: capture modes disagree",
                spec.name,
                e.injection_point
            );
        }

        // The journals agree the same way: serialize both with the capture
        // stats normalized and compare the text forms byte for byte.
        let strip = |result: &atomask_suite::CampaignResult| {
            let mut journal = atomask_suite::CampaignJournal::new();
            journal.bind(&result.program);
            journal.record_baseline(result.total_points, &result.baseline_calls);
            for run in &result.runs {
                journal.record_run(&normalized(run));
            }
            journal.serialize()
        };
        assert_eq!(
            strip(&eager),
            strip(&lazy),
            "{}: journals diverge",
            spec.name
        );
    }
}

/// Asserts two campaigns agree run for run and journal for journal, once
/// both sides' runs are [`normalized`].
fn assert_equivalent(label: &str, reference: &CampaignResult, other: &CampaignResult) {
    assert_eq!(reference.total_points, other.total_points, "{label}");
    assert_eq!(reference.baseline_calls, other.baseline_calls, "{label}");
    assert_eq!(reference.runs.len(), other.runs.len(), "{label}");
    for (r, o) in reference.runs.iter().zip(&other.runs) {
        assert_eq!(
            normalized(r),
            normalized(o),
            "{label} point {}: engines disagree",
            r.injection_point
        );
    }
    // The journals agree the same way: serialize both with the runs
    // normalized and compare the text forms byte for byte.
    let strip = |result: &CampaignResult| {
        let mut journal = atomask_suite::CampaignJournal::new();
        journal.bind(&result.program);
        journal.record_baseline(result.total_points, &result.baseline_calls);
        for run in &result.runs {
            journal.record_run(&normalized(run));
        }
        journal.serialize()
    };
    assert_eq!(strip(reference), strip(other), "{label}: journals diverge");
}

/// A verification campaign: `program` with `strategy` wrappers around
/// `mask_set`, woven inside the injection wrappers.
fn masked_campaign<'p>(
    program: &'p dyn Program,
    mask_set: &HashSet<MethodId>,
    strategy: MaskStrategy,
    config: CampaignConfig,
) -> Campaign<'p> {
    let mask_set = mask_set.clone();
    Campaign::new(program)
        .with_inner_hook(move |_| strategy.hook(mask_set.clone()))
        .config(config)
}

/// The path verification took before it ran on the detection engine:
/// eager capture, every point from scratch.
fn eager_from_scratch() -> CampaignConfig {
    CampaignConfig {
        checkpoint_stride: CheckpointStride::Off,
        ..config(CaptureMode::Eager)
    }
}

/// The default engine: lazy capture, checkpoint-resume.
fn default_engine() -> CampaignConfig {
    CampaignConfig::default()
}

#[test]
fn verification_on_the_default_engine_matches_eager_from_scratch() {
    let policy = Policy::default();
    for spec in atomask_suite::apps::all_apps() {
        let program = spec.program();
        let detection = Campaign::new(&program)
            .config(default_engine())
            .max_points(CAP)
            .run();
        let mask_set = policy.mask_set(&classify(&detection, &policy.mark_filter()));
        for strategy in [MaskStrategy::DeepCopy, MaskStrategy::UndoLog] {
            let run = |config| {
                masked_campaign(&program, &mask_set, strategy, config)
                    .max_points(CAP)
                    .run()
            };
            let label = format!("{} {strategy:?}", spec.name);
            assert_equivalent(&label, &run(eager_from_scratch()), &run(default_engine()));
        }
    }
}

/// Asserts every 7th run of `sweep` equals its replay exactly.
fn assert_replays_match(label: &str, campaign: &Campaign<'_>, sweep: &CampaignResult) {
    for run in sweep.runs.iter().step_by(7) {
        assert_eq!(
            campaign.replay(run.injection_point).run,
            *run,
            "{label} point {}: sweep and replay differ",
            run.injection_point
        );
    }
}

#[test]
fn sweeps_equal_their_replays_across_the_suite() {
    let policy = Policy::default();
    for spec in atomask_suite::apps::all_apps() {
        let program = spec.program();
        let campaign = Campaign::new(&program)
            .config(default_engine())
            .max_points(CAP);
        let detection = campaign.run();
        assert_replays_match(spec.name, &campaign, &detection);
        let mask_set = policy.mask_set(&classify(&detection, &policy.mark_filter()));
        for strategy in [MaskStrategy::DeepCopy, MaskStrategy::UndoLog] {
            let campaign =
                masked_campaign(&program, &mask_set, strategy, default_engine()).max_points(CAP);
            let label = format!("{} {strategy:?}", spec.name);
            assert_replays_match(&label, &campaign, &campaign.run());
        }
    }
}

/// `Holder.drop(m)` drops the only reference to a `Leaf`, then calls the
/// masked `M.boom`, which calls `M.inner`. An injection into `inner` makes
/// the mask roll `boom` back and reclaim garbage while `drop`'s injection
/// wrapper is still open — and that wrapper's before-graph still holds the
/// leaf.
fn reclaim_under_open_wrapper() -> FnProgram {
    FnProgram::new(
        "reclaim-under-open-wrapper",
        || {
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.class("Leaf", |c| {
                c.field("v", Value::Int(1));
            });
            rb.class("M", |c| {
                c.field("n", Value::Int(0));
                c.method("boom", |ctx, this, _| {
                    let n = ctx.get_int(this, "n");
                    ctx.set(this, "n", Value::Int(n + 1));
                    ctx.call(this, "inner", &[])
                });
                c.method("inner", |_, _, _| Ok(Value::Null));
            });
            rb.class("Holder", |c| {
                c.field("f", Value::Null);
                c.method("init", |ctx, this, _| {
                    let leaf = ctx.new_object("Leaf", &[])?;
                    ctx.set(this, "f", Value::Ref(leaf));
                    Ok(Value::Null)
                });
                c.method("drop", |ctx, this, args| {
                    ctx.set(this, "f", Value::Null);
                    ctx.call_value(&args[0], "boom", &[])
                });
            });
            rb.build()
        },
        |vm| {
            let holder = vm.construct("Holder", &[])?;
            vm.root(holder);
            let m = vm.construct("M", &[])?;
            vm.root(m);
            vm.call(holder, "init", &[])?;
            vm.call(holder, "drop", &[Value::Ref(m)])
        },
    )
}

#[test]
fn mask_reclaim_inside_an_open_wrapper_keeps_the_before_graph() {
    let program = reclaim_under_open_wrapper();
    let registry = program.build_registry();
    let boom = registry
        .method_ids()
        .find(|&m| registry.method_display(m) == "M::boom")
        .expect("M::boom exists");
    let mask_set = HashSet::from([boom]);
    for strategy in [MaskStrategy::DeepCopy, MaskStrategy::UndoLog] {
        let run = |config| masked_campaign(&program, &mask_set, strategy, config).run();
        let reference = run(eager_from_scratch());
        let nonatomic = reference
            .runs
            .iter()
            .find(|r| r.marks.iter().any(|m| !m.atomic))
            .expect("Holder::drop is marked non-atomic");
        assert_equivalent(&format!("{strategy:?}"), &reference, &run(default_engine()));
        // Replay minimizes inside verification campaigns too: the one
        // surviving write is the dropped reference.
        let replay = masked_campaign(&program, &mask_set, strategy, default_engine())
            .replay(nonatomic.injection_point);
        assert_eq!(replay.run.marks, nonatomic.marks, "{strategy:?}");
        let divergence = replay.divergence.expect("non-atomic point is minimized");
        assert_eq!(registry.method_display(divergence.method), "Holder::drop");
        assert_eq!(divergence.minimal.len(), 1, "{strategy:?}");
        assert_eq!(divergence.minimal[0].field, "f", "{strategy:?}");
    }
}
