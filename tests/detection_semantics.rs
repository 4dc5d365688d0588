//! Detection-phase semantics against ground truth, the aggregate "shape"
//! claims of the paper's §6.1, and the campaign resilience layer (fuel
//! budgets, panic isolation, resumable sweeps).

use atomask_suite::report::evaluate;
use atomask_suite::synthetic::{ground_truth, validation_program};
use atomask_suite::{
    classify, Budget, Campaign, CampaignConfig, FnProgram, Lang, MarkFilter, Profile,
    RegistryBuilder, RetryPolicy, RunOutcome, Value, Verdict,
};

/// §6: the synthetic benchmark with known combinations of (pure /
/// conditional) failure (non-)atomic methods is classified exactly right.
#[test]
fn synthetic_ground_truth() {
    let p = validation_program();
    let result = Campaign::new(&p).run();
    let c = classify(&result, &MarkFilter::default());
    for (name, expected) in ground_truth() {
        assert_eq!(
            c.method(name).unwrap().verdict,
            Some(expected),
            "{name} misclassified"
        );
    }
}

/// A method is failure atomic iff *never* marked non-atomic: a method that
/// is atomic for some injections and non-atomic for others must be
/// classified non-atomic.
#[test]
fn single_nonatomic_mark_decides() {
    let p = validation_program();
    let result = Campaign::new(&p).run();
    let c = classify(&result, &MarkFilter::default());
    // `delegate` is marked atomic when the injection aborts `mutateDirty`
    // at its entry (nothing had changed yet) and non-atomic when it lands
    // deeper (mutateDirty's partial write is visible). One non-atomic mark
    // outweighs any number of atomic ones.
    let delegate = c.method("Probe::delegate").unwrap();
    assert!(delegate.nonatomic_marks > 0);
    assert!(
        delegate.atomic_marks > 0,
        "delegate is atomic for injections that abort its callee at entry"
    );
    assert_ne!(delegate.verdict, Some(Verdict::FailureAtomic));
}

/// Paper §6.1, Figs. 2 vs 3: the Java applications exhibit a markedly
/// higher pure failure non-atomic fraction than the carefully written C++
/// (Self*) applications.
#[test]
fn java_has_higher_pure_fraction_than_cpp() {
    // Representative subset for test-suite speed; the report binary runs
    // all sixteen.
    let cpp: Vec<_> = atomask_suite::apps::cpp_apps()
        .into_iter()
        .filter(|a| matches!(a.name, "stdQ" | "xml2xml1" | "xml2Ctcp"))
        .collect();
    let java: Vec<_> = atomask_suite::apps::java_apps()
        .into_iter()
        .filter(|a| matches!(a.name, "LinkedList" | "LLMap" | "LinkedBuffer"))
        .collect();
    let pure_pct = |rows: &[atomask_suite::report::AppEvaluation]| {
        let (pure, total) = rows.iter().fold((0u64, 0u64), |(p, t), r| {
            (
                p + r.method_counts.pure_nonatomic,
                t + r.method_counts.total(),
            )
        });
        pure as f64 * 100.0 / total as f64
    };
    let cpp_rows: Vec<_> = cpp.iter().map(|s| evaluate(s, None)).collect();
    let java_rows: Vec<_> = java.iter().map(|s| evaluate(s, None)).collect();
    let (cpp_pure, java_pure) = (pure_pct(&cpp_rows), pure_pct(&java_rows));
    assert!(
        java_pure > cpp_pure,
        "expected Java pure% ({java_pure:.1}) > C++ pure% ({cpp_pure:.1})"
    );
    assert!(
        cpp_pure < 20.0,
        "C++ pure fraction should stay small, got {cpp_pure:.1}%"
    );
}

/// Paper §6.1, Figs. 2b/3b: failure non-atomic methods are called
/// (proportionally) less frequently than failure atomic methods.
#[test]
fn nonatomic_methods_are_called_less_often() {
    for name in ["LinkedList", "HashedMap", "Dynarray"] {
        let spec = atomask_suite::apps::all_apps()
            .into_iter()
            .find(|a| a.name == name)
            .unwrap();
        let row = evaluate(&spec, None);
        let pure_methods = row.method_counts.pct(Verdict::PureNonAtomic);
        let pure_calls = row.call_counts.pct(Verdict::PureNonAtomic);
        assert!(
            pure_calls < pure_methods,
            "{name}: pure methods {pure_methods:.1}% of methods but {pure_calls:.1}% of calls"
        );
    }
}

/// The Java core-class limitation (§5.2): core classes contribute no
/// injection points and are never classified.
#[test]
fn core_classes_are_invisible() {
    let program = atomask_suite::apps::program_by_name("RegExp").unwrap();
    let result = Campaign::new(&program).run();
    let c = classify(&result, &MarkFilter::default());
    let char_at = c.method("CharOps::charAt").unwrap();
    assert_eq!(char_at.verdict, Some(Verdict::FailureAtomic));
    assert_eq!(char_at.nonatomic_marks + char_at.atomic_marks, 0);
    // But under C++ rules the same class *would* be instrumented.
    assert_eq!(result.registry.profile().lang, Lang::Java);
}

/// A program whose *reaction* to injected failures is pathological: one
/// injection point corrupts state that an application-level retry loop
/// spins on forever, and another trips a host-level panic. A resilient
/// campaign must isolate both and classify the rest normally.
fn pathological_program() -> FnProgram {
    FnProgram::new(
        "suite-pathological",
        || {
            let mut profile = Profile::cpp();
            profile.runtime_exceptions = vec!["Fault".to_owned()];
            let mut rb = RegistryBuilder::new(profile);
            rb.exception("StateError");
            rb.class("P", |c| {
                c.field("locked", Value::Bool(false));
                c.field("done", Value::Int(0));
                c.method("transact", |ctx, this, _| {
                    if ctx.get_bool(this, "locked") {
                        return Err(ctx.exception("StateError", "still locked"));
                    }
                    ctx.set(this, "locked", Value::Bool(true));
                    // Non-atomic: an exception here leaks the lock.
                    ctx.call(this, "commit", &[])?;
                    ctx.set(this, "locked", Value::Bool(false));
                    Ok(Value::Null)
                });
                c.method("commit", |_, _, _| Ok(Value::Null));
                c.method("strict", |ctx, this, _| {
                    if ctx.call(this, "probe", &[]).is_err() {
                        panic!("invariant violated: probe can never fail");
                    }
                    Ok(Value::Null)
                });
                c.method("probe", |_, _, _| Ok(Value::Null));
                c.method("calm", |ctx, this, _| {
                    let d = ctx.get_int(this, "done");
                    ctx.set(this, "done", Value::Int(d + 1));
                    Ok(Value::Null)
                });
            });
            rb.build()
        },
        |d| {
            let p = d.construct("P", &[])?;
            d.root(p);
            // Application-level retry loop: swallows failures and tries
            // again; the leaked lock turns it into an infinite loop that
            // only the fuel budget can end.
            loop {
                match d.call(p, "transact", &[]) {
                    Ok(_) => break,
                    Err(_) => continue,
                }
            }
            d.call_absorbed(p, "strict", &[]);
            d.call(p, "calm", &[])
        },
    )
}

fn resilient_config() -> CampaignConfig {
    CampaignConfig {
        budget: Budget::fuel(20_000),
        retry: RetryPolicy::none(),
        max_failures: None,
        ..CampaignConfig::default()
    }
}

/// Tentpole acceptance: a full sweep over the pathological program
/// completes, reports exactly one diverged and one panicked run, and
/// classifies the remaining points normally.
#[test]
fn pathological_sweep_isolates_divergence_and_panic() {
    let p = pathological_program();
    let result = Campaign::new(&p).config(resilient_config()).run();
    let health = result.health();
    assert_eq!(health.diverged, 1, "exactly one diverging point: {health}");
    assert_eq!(health.panicked, 1, "exactly one panicking point: {health}");
    assert_eq!(health.skipped, 0, "{health}");
    assert_eq!(health.total(), result.total_points, "full sweep");

    // The diverging run is the injection into `commit` (lock leak); the
    // campaign cut it off via the fuel budget.
    let diverged = result
        .runs
        .iter()
        .find(|r| r.outcome == RunOutcome::Diverged)
        .unwrap();
    let (m, _) = diverged.injected.unwrap();
    assert_eq!(result.registry.method_display(m), "P::commit");

    // The panicking run was confined: the panic message is captured and
    // its neighbours completed normally.
    let panicked = result
        .runs
        .iter()
        .find(|r| r.outcome == RunOutcome::Panicked)
        .unwrap();
    assert!(
        panicked.top_error.as_deref().unwrap().contains("invariant"),
        "{:?}",
        panicked.top_error
    );

    // Unhealthy runs contribute no marks, but the healthy remainder still
    // classifies; the health tally rides along on the classification.
    let c = classify(&result, &MarkFilter::default());
    assert_eq!(c.health.unhealthy(), 2);
    assert!(c.method("P::calm").is_some());
}

/// Resume semantics at suite level: interrupting a sweep halfway and
/// resuming from the journal reproduces the uninterrupted sweep
/// bit-for-bit, including the unhealthy runs.
#[test]
fn resumed_pathological_sweep_is_bit_for_bit() {
    let p = pathological_program();
    let full = Campaign::new(&p).config(resilient_config()).run();
    let mut journal = full.journal();
    journal.truncate_runs(full.runs.len() / 2);
    let resumed = Campaign::new(&p)
        .config(resilient_config())
        .resume(&mut journal);
    assert_eq!(resumed.runs, full.runs, "resume is bit-for-bit");

    // The journal survives a trip through its text format.
    let text = journal.serialize();
    let reparsed = atomask_suite::CampaignJournal::parse(&text).unwrap();
    assert_eq!(reparsed, journal);
}

/// Injections into constructors happen and are counted (Table 1 counts
/// "method and constructor calls").
#[test]
fn constructors_receive_injections() {
    let program = atomask_suite::apps::program_by_name("LLMap").unwrap();
    let result = Campaign::new(&program).run();
    let ctor_injections = result
        .runs
        .iter()
        .filter_map(|r| r.injected)
        .filter(|(m, _)| result.registry.method(*m).is_ctor)
        .count();
    assert!(ctor_injections > 0);
}
