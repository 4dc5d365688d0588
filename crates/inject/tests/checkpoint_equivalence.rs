//! Property suite for checkpoint-resume sweeps: a campaign that restores
//! strided [`atomask_mor::Vm::checkpoint`]s and replays the recorded
//! driver prefix must be **bit-for-bit identical** — run records,
//! baseline statistics, *and* serialized journals — to a campaign that
//! re-executes every prefix from program entry. Across real evaluation
//! applications, stride choices (1, 7, auto), worker counts (1, 4), and
//! the resilience edge cases: panicking bodies, fuel-exhausted runs, and
//! recordings too starved to produce a usable plan — and for verification
//! campaigns, which weave a masking hook inside the injection wrappers.
//!
//! This is the proof obligation that lets `CheckpointStride::Auto` ship
//! on by default: since resume and from-scratch agree everywhere we can
//! observe, any future divergence indicts the replay engine, not the
//! sweep semantics.

use atomask_inject::{
    classify, Campaign, CampaignConfig, CampaignResult, CheckpointStride, MarkFilter, RunOutcome,
};
use atomask_mask::{MaskStrategy, Policy};
use atomask_mor::{Budget, FnProgram, Profile, Program, RegistryBuilder, Value};

/// Strides under test.
const STRIDES: [CheckpointStride; 3] = [
    CheckpointStride::Every(1),
    CheckpointStride::Every(7),
    CheckpointStride::Auto,
];

fn config(workers: usize, budget: Budget) -> CampaignConfig {
    CampaignConfig {
        budget,
        workers,
        ..CampaignConfig::default()
    }
}

fn sweep(
    p: &FnProgram,
    workers: usize,
    budget: Budget,
    stride: CheckpointStride,
) -> CampaignResult {
    Campaign::new(p)
        .config(config(workers, budget))
        .checkpoint_stride(stride)
        .run()
}

/// Asserts the full bit-identity contract between a resumed sweep and the
/// from-scratch reference: runs, totals, baseline stats, serialized
/// journal, and the classification derived from all of it.
fn assert_bit_identical(label: &str, reference: &CampaignResult, resumed: &CampaignResult) {
    assert_eq!(resumed.runs, reference.runs, "{label}: run records differ");
    assert_eq!(
        resumed.total_points, reference.total_points,
        "{label}: total points differ"
    );
    assert_eq!(
        resumed.baseline_calls, reference.baseline_calls,
        "{label}: baseline call counts differ"
    );
    assert_eq!(
        resumed.journal().serialize(),
        reference.journal().serialize(),
        "{label}: serialized journals differ"
    );
    let cref = classify(reference, &MarkFilter::default());
    let cres = classify(resumed, &MarkFilter::default());
    assert_eq!(
        cres.method_counts, cref.method_counts,
        "{label}: classification differs"
    );
}

/// Runs the whole stride × worker matrix for one program and budget,
/// returning the sequential reference for witness assertions.
fn check_matrix(p: &FnProgram, budget: Budget) -> CampaignResult {
    let mut sequential_reference = None;
    for workers in [1usize, 4] {
        let reference = sweep(p, workers, budget, CheckpointStride::Off);
        for stride in STRIDES {
            let resumed = sweep(p, workers, budget, stride);
            let label = format!("{} workers={workers} stride={stride:?}", p.name());
            assert_bit_identical(&label, &reference, &resumed);
        }
        if workers == 1 {
            sequential_reference = Some(reference);
        }
    }
    sequential_reference.expect("workers=1 leg always runs")
}

/// Fast evaluation applications: full stride × worker matrix each. The
/// set spans both language profiles and includes drivers with nontrivial
/// control flow (loops over calls, error-path probing).
#[test]
fn evaluation_apps_resume_bit_identically() {
    for name in [
        "xml2xml1",
        "stdQ",
        "xml2Ctcp",
        "LinkedBuffer",
        "CircularList",
    ] {
        let p = atomask_apps::program_by_name(name).expect("suite app exists");
        let reference = check_matrix(&p, Budget::unlimited());
        assert!(
            reference.total_points > 100,
            "{name}: matrix must cover a real sweep, got {} points",
            reference.total_points
        );
    }
}

/// `xml2Cviasc1`'s driver branches on heap reads (`Vm::field` on the
/// builder's `sink`), so its recorded op log contains `Field` entries —
/// the replay path that plain call-only drivers never exercise.
#[test]
fn field_reading_driver_resumes_bit_identically() {
    let p = atomask_apps::program_by_name("xml2Cviasc1").expect("suite app exists");
    check_matrix(&p, Budget::unlimited());
}

/// Verification campaigns resume too: a resumed run gets a fresh masking
/// hook from the factory, which is sound because masking hooks carry no
/// behaviour-relevant state across top-level driver ops. `xml2Ctcp`'s
/// driver raises and handles its own exceptions, so masks also roll back
/// inside the recorded prefixes.
#[test]
fn inner_hook_campaigns_resume_bit_identically() {
    let policy = Policy::default();
    for name in ["xml2Ctcp", "LinkedBuffer"] {
        let p = atomask_apps::program_by_name(name).expect("suite app exists");
        let detection = Campaign::new(&p).run();
        let mask_set = policy.mask_set(&classify(&detection, &policy.mark_filter()));
        assert!(!mask_set.is_empty(), "{name}: nothing to mask");
        for strategy in [MaskStrategy::DeepCopy, MaskStrategy::UndoLog] {
            let sweep = |stride| {
                let mask_set = mask_set.clone();
                Campaign::new(&p)
                    .with_inner_hook(move |_| strategy.hook(mask_set.clone()))
                    .config(config(1, Budget::unlimited()))
                    .checkpoint_stride(stride)
                    .run()
            };
            let reference = sweep(CheckpointStride::Off);
            for stride in [CheckpointStride::Every(1), CheckpointStride::Auto] {
                let label = format!("{name} {strategy:?} stride={stride:?}");
                assert_bit_identical(&label, &reference, &sweep(stride));
            }
        }
    }
}

/// A body that panics when an injected failure reaches a "can never
/// fail" probe, plus an application-level retry loop that spins until
/// the fuel budget ends the run — the two unhealthy outcomes the
/// resilience layer isolates. Checkpoint-resume must reproduce both
/// verbatim, including retry counts and fuel accounting.
fn pathological_program() -> FnProgram {
    FnProgram::new(
        "pathological",
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
            // Swallow-and-retry: once the injected failure leaks the lock,
            // only the fuel budget ends the run.
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

#[test]
fn panicking_and_diverging_runs_resume_bit_identically() {
    let p = pathological_program();
    let reference = check_matrix(&p, Budget::fuel(20_000));
    // Witness: the matrix actually covered the unhealthy outcomes this
    // test exists for, with real retries behind them.
    let health = reference.health();
    assert!(health.diverged > 0, "no fuel-exhausted runs: {health}");
    assert!(health.panicked > 0, "no panicking runs: {health}");
    assert!(health.retries > 0, "no retried runs: {health}");
    assert!(
        reference
            .runs
            .iter()
            .any(|r| r.outcome != RunOutcome::Completed && r.retries > 0),
        "an unhealthy outcome must have been accepted only after retries"
    );
}

/// With a budget so tight the recording pass itself exhausts fuel, no
/// plan is produced and every point falls back to from-scratch — the
/// sweep must still be bit-identical, not merely slower.
#[test]
fn starved_recording_falls_back_bit_identically() {
    let p = pathological_program();
    let reference = check_matrix(&p, Budget::fuel(300));
    assert!(
        reference.health().diverged > 0,
        "the starved budget must actually cut runs short"
    );
}
