//! Property tests of the sharded campaign executor: for every worker
//! count the parallel sweep must be *observationally identical* to the
//! sequential one — same `CampaignResult`, bit-identical serialized
//! journal — including for programs whose runs diverge or panic, and
//! under a `max_failures` cap (whose Skipped semantics stay defined in
//! injection-point order, not worker-completion order).

use atomask_inject::{classify, Campaign, CampaignConfig, CaptureMode, MarkFilter, RunOutcome};
use atomask_mor::{Budget, FnProgram, Profile, RegistryBuilder, Value};
use proptest::prelude::*;

/// A mutating call tree: `fanout` children per `spin` call, a counter
/// update after the recursion so mid-tree injections leave partial state
/// (and therefore non-atomic marks).
fn tree_program(depth: u8, fanout: u8) -> FnProgram {
    FnProgram::new(
        "tree",
        move || {
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.class("T", |c| {
                c.field("work", Value::Int(0));
                c.method("spin", move |ctx, this, args| {
                    let level = args[0].as_int().unwrap_or(0);
                    if level > 0 {
                        for _ in 0..fanout {
                            ctx.call(this, "spin", &[Value::Int(level - 1)])?;
                        }
                    }
                    let w = ctx.get_int(this, "work");
                    ctx.set(this, "work", Value::Int(w + 1));
                    Ok(Value::Null)
                });
            });
            rb.build()
        },
        move |d| {
            let t = d.construct("T", &[])?;
            d.root(t);
            d.call(t, "spin", &[Value::Int(depth as i64)])
        },
    )
}

/// A program whose reaction to injections is pathological: one point
/// corrupts state an application-level retry loop spins on until the fuel
/// budget cuts it off (Diverged), another trips a host panic (Panicked).
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

fn config_with_workers(workers: usize) -> CampaignConfig {
    CampaignConfig {
        budget: Budget::fuel(20_000),
        workers,
        ..CampaignConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole equivalence: for any worker count, the sharded sweep
    /// produces the same `CampaignResult` and a bit-identical serialized
    /// journal as the sequential sweep.
    #[test]
    fn parallel_sweep_is_observationally_sequential(
        depth in 0u8..3,
        fanout in 1u8..3,
        workers in 1usize..5,
    ) {
        let p = tree_program(depth, fanout);
        let seq = Campaign::new(&p).config(config_with_workers(1)).run();
        let par = Campaign::new(&p).config(config_with_workers(workers)).run();
        prop_assert_eq!(&par.runs, &seq.runs);
        prop_assert_eq!(par.total_points, seq.total_points);
        prop_assert_eq!(&par.baseline_calls, &seq.baseline_calls);
        prop_assert_eq!(par.journal().serialize(), seq.journal().serialize());
        let cs = classify(&seq, &MarkFilter::default());
        let cp = classify(&par, &MarkFilter::default());
        prop_assert_eq!(cs.method_counts, cp.method_counts);
    }

    /// Equivalence holds for pathological programs too: diverged and
    /// panicked runs land on the same points with the same outcomes no
    /// matter how the sweep is sharded.
    #[test]
    fn pathological_runs_shard_deterministically(workers in 2usize..5) {
        let p = pathological_program();
        let seq = Campaign::new(&p).config(config_with_workers(1)).run();
        let par = Campaign::new(&p).config(config_with_workers(workers)).run();
        prop_assert_eq!(&par.runs, &seq.runs);
        prop_assert_eq!(par.journal().serialize(), seq.journal().serialize());
        let health = par.health();
        prop_assert!(health.diverged > 0, "the retry loop diverges somewhere");
        prop_assert!(health.panicked > 0, "the strict invariant panics somewhere");
    }

    /// `max_failures` keeps its sequential meaning under sharding: results
    /// are accounted in injection-point order, so the set of Skipped
    /// points is identical even though a worker may have speculatively
    /// executed a point past the cap before the writer reached it.
    #[test]
    fn skipped_cap_is_point_ordered_under_sharding(
        workers in 2usize..5,
        cap in 1u64..3,
    ) {
        let p = pathological_program();
        let config = CampaignConfig {
            max_failures: Some(cap),
            ..config_with_workers(1)
        };
        let seq = Campaign::new(&p).config(config).run();
        let par = Campaign::new(&p)
            .config(CampaignConfig { workers, ..config })
            .run();
        prop_assert_eq!(&par.runs, &seq.runs);
        prop_assert_eq!(par.journal().serialize(), seq.journal().serialize());
        prop_assert!(
            par.runs.iter().any(|r| r.outcome == RunOutcome::Skipped),
            "a cap of {cap} on this program must skip a tail"
        );
        // Skipped runs form a suffix in point order.
        let first_skipped = par
            .runs
            .iter()
            .position(|r| r.outcome == RunOutcome::Skipped)
            .unwrap();
        prop_assert!(par.runs[first_skipped..]
            .iter()
            .all(|r| r.outcome == RunOutcome::Skipped));
    }

    /// Lazy capture is a pure optimization: marks, outcomes and verdicts
    /// match the eager sweep while the snapshot count never grows (and
    /// shrinks whenever some runs complete without an escaping exception).
    #[test]
    fn lazy_capture_is_mark_equivalent_and_cheaper(
        depth in 1u8..3,
        fanout in 1u8..3,
    ) {
        let p = tree_program(depth, fanout);
        let eager = Campaign::new(&p)
            .config(CampaignConfig {
                capture: CaptureMode::Eager,
                ..config_with_workers(1)
            })
            .run();
        let lazy = Campaign::new(&p)
            .config(CampaignConfig {
                capture: CaptureMode::Lazy,
                ..config_with_workers(1)
            })
            .run();
        prop_assert_eq!(lazy.runs.len(), eager.runs.len());
        for (l, e) in lazy.runs.iter().zip(&eager.runs) {
            prop_assert_eq!(l.outcome, e.outcome);
            prop_assert_eq!(l.injected, e.injected);
            prop_assert_eq!(&l.marks, &e.marks);
        }
        let ce = classify(&eager, &MarkFilter::default());
        let cl = classify(&lazy, &MarkFilter::default());
        prop_assert_eq!(ce.method_counts, cl.method_counts);
        prop_assert!(
            lazy.health().snapshots <= eager.health().snapshots,
            "lazy {} > eager {}",
            lazy.health().snapshots,
            eager.health().snapshots
        );
    }
}

/// The ATOMASK_WORKERS override and the explicit `workers` knob meet the
/// same ordered-writer path: a quick smoke over every small worker count
/// on the pathological program, checking bit-identical journals pairwise.
#[test]
fn journals_are_bit_identical_across_worker_counts() {
    let p = pathological_program();
    let baseline = Campaign::new(&p)
        .config(config_with_workers(1))
        .run()
        .journal()
        .serialize();
    for workers in 2..=4 {
        let journal = Campaign::new(&p)
            .config(config_with_workers(workers))
            .run()
            .journal()
            .serialize();
        assert_eq!(journal, baseline, "worker count {workers}");
    }
}
