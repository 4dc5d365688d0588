//! Property tests of the campaign machinery: injection-point arithmetic,
//! determinism, exactly-once injection, and resilience invariants
//! (budgeted sweeps, journal round-trips, bit-for-bit resume).

use atomask_inject::{classify, Campaign, CampaignConfig, CampaignJournal, MarkFilter, RunOutcome};
use atomask_mor::{Budget, FnProgram, Profile, RegistryBuilder, TraceEvent, Value};
use proptest::prelude::*;

/// Registry for the configurable call tree: `fanout` children per `spin`
/// call, each method declaring `extra_exc` exceptions.
fn tree_registry(fanout: u8, extra_exc: u8) -> atomask_mor::Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    rb.class("T", |c| {
        c.field("work", Value::Int(0));
        let mut cfg = c.method("spin", move |ctx, this, args| {
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
        for e in 0..extra_exc {
            cfg.throws(&format!("E{e}"));
        }
    });
    rb.build()
}

/// A program with a configurable call tree: `fanout` children per call,
/// `depth` levels, each method declaring `extra_exc` exceptions.
fn tree_program(depth: u8, fanout: u8, extra_exc: u8) -> FnProgram {
    FnProgram::new(
        "tree",
        move || tree_registry(fanout, extra_exc),
        move |vm| {
            let t = vm.construct("T", &[])?;
            vm.root(t);
            vm.call(t, "spin", &[Value::Int(depth as i64)])
        },
    )
}

/// The same tree under an application-level retry driver that swallows
/// failures and tries again: a run either completes or is cut off by the
/// fuel budget — nothing else can end it.
fn retrying_tree_program(depth: u8, fanout: u8) -> FnProgram {
    FnProgram::new(
        "retry-tree",
        move || tree_registry(fanout, 0),
        move |vm| {
            let t = vm.construct("T", &[])?;
            vm.root(t);
            loop {
                if vm.call(t, "spin", &[Value::Int(depth as i64)]).is_ok() {
                    return Ok(Value::Null);
                }
            }
        },
    )
}

/// Dynamic call count of the full tree.
fn calls(depth: u8, fanout: u8) -> u64 {
    // 1 + f + f^2 + ... + f^depth
    let f = fanout as u64;
    if f <= 1 {
        depth as u64 + 1
    } else {
        (f.pow(depth as u32 + 1) - 1) / (f - 1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Total potential injection points = dynamic calls × exception types
    /// per method (Listing 1's counter arithmetic).
    #[test]
    fn point_arithmetic(depth in 0u8..4, fanout in 1u8..3, extra in 0u8..3) {
        let p = tree_program(depth, fanout, extra);
        let result = Campaign::new(&p).max_points(1).run();
        // spin: `extra` declared + 2 runtime exceptions.
        let per_call = extra as u64 + 2;
        prop_assert_eq!(result.total_points, calls(depth, fanout) * per_call);
        prop_assert_eq!(
            result.baseline_calls.iter().sum::<u64>(),
            calls(depth, fanout)
        );
    }

    /// Campaigns are deterministic: two full runs produce identical marks
    /// and classifications.
    #[test]
    fn campaigns_are_deterministic(depth in 0u8..3, fanout in 1u8..3) {
        let p = tree_program(depth, fanout, 1);
        let a = Campaign::new(&p).run();
        let b = Campaign::new(&p).run();
        prop_assert_eq!(a.total_points, b.total_points);
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            prop_assert_eq!(ra.injected, rb.injected);
            prop_assert_eq!(ra.marks.len(), rb.marks.len());
            for (ma, mb) in ra.marks.iter().zip(&rb.marks) {
                prop_assert_eq!(ma.method, mb.method);
                prop_assert_eq!(ma.atomic, mb.atomic);
            }
        }
        let ca = classify(&a, &MarkFilter::default());
        let cb = classify(&b, &MarkFilter::default());
        prop_assert_eq!(ca.method_counts, cb.method_counts);
    }

    /// Every run with `InjectionPoint <= N` injects exactly once, and the
    /// injected exception escapes to the top unless the program catches it
    /// (the plain tree never catches). Under the retrying driver every
    /// retry walks the whole tree past the target again: a point that
    /// could fire twice would fail every retry until the budget ran out,
    /// so every run must complete, and its replay trace must show one
    /// injection.
    #[test]
    fn every_run_injects_exactly_once(depth in 0u8..3, fanout in 1u8..3) {
        let p = tree_program(depth, fanout, 0);
        let result = Campaign::new(&p).run();
        prop_assert_eq!(result.runs.len() as u64, result.total_points);
        for run in &result.runs {
            prop_assert!(run.injected.is_some(), "run {} did not inject", run.injection_point);
            prop_assert!(
                run.top_error.as_deref().unwrap_or("").contains("injected"),
                "run {}: {:?}",
                run.injection_point,
                run.top_error
            );
        }

        let retrying = retrying_tree_program(depth, fanout);
        let campaign = Campaign::new(&retrying).config(CampaignConfig {
            budget: Budget::fuel(100_000),
            retry: atomask_inject::RetryPolicy::none(),
            ..CampaignConfig::default()
        });
        let result = campaign.run();
        prop_assert_eq!(result.runs.len() as u64, result.total_points);
        for run in &result.runs {
            let point = run.injection_point;
            prop_assert_eq!(run.outcome, RunOutcome::Completed, "run {}", point);
            prop_assert!(run.injected.is_some(), "run {} did not inject", point);
            let fires = campaign
                .replay(point)
                .trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::InjectionFire { .. }))
                .count();
            prop_assert_eq!(fires, 1, "run {}", point);
        }
    }

    /// Methods are never classified both ways: the verdict partition is a
    /// function of the marks.
    #[test]
    fn verdicts_partition_used_methods(depth in 1u8..3, fanout in 1u8..3) {
        let p = tree_program(depth, fanout, 1);
        let result = Campaign::new(&p).run();
        let c = classify(&result, &MarkFilter::default());
        let used = result.used_methods().count() as u64;
        prop_assert_eq!(c.method_counts.total(), used);
    }

    /// A generous fuel budget never changes the outcome of a terminating
    /// program: every run completes, no retries are spent, and fuel is
    /// metered on every run.
    #[test]
    fn generous_budgets_are_invisible(depth in 0u8..3, fanout in 1u8..3) {
        let p = tree_program(depth, fanout, 1);
        let unlimited = Campaign::new(&p).run();
        let budgeted = Campaign::new(&p)
            .budget(Budget::fuel(1_000_000))
            .run();
        prop_assert_eq!(&budgeted.runs, &unlimited.runs);
        let health = budgeted.health();
        prop_assert_eq!(health.completed, budgeted.total_points);
        prop_assert_eq!(health.unhealthy(), 0);
        prop_assert_eq!(health.retries, 0);
        prop_assert!(health.fuel_spent > 0);
    }

    /// Resuming from a journal truncated at *any* prefix length reproduces
    /// the uninterrupted sweep bit-for-bit.
    #[test]
    fn resume_from_any_prefix_is_bit_for_bit(
        depth in 0u8..3,
        fanout in 1u8..3,
        cut_pct in 0u8..101,
    ) {
        let p = tree_program(depth, fanout, 1);
        let config = CampaignConfig {
            budget: Budget::fuel(1_000_000),
            ..CampaignConfig::default()
        };
        let full = Campaign::new(&p).config(config).run();
        let keep = full.runs.len() * cut_pct as usize / 100;
        let mut journal = full.journal();
        journal.truncate_runs(keep);
        let resumed = Campaign::new(&p).config(config).resume(&mut journal);
        prop_assert_eq!(&resumed.runs, &full.runs);
        prop_assert_eq!(journal.len(), full.runs.len(), "journal backfilled");
    }

    /// The journal text format round-trips every campaign it records.
    #[test]
    fn journal_text_format_round_trips(depth in 0u8..3, fanout in 1u8..3, extra in 0u8..2) {
        let p = tree_program(depth, fanout, extra);
        let result = Campaign::new(&p).run();
        let journal = result.journal();
        let reparsed = CampaignJournal::parse(&journal.serialize());
        prop_assert!(reparsed.is_ok(), "{:?}", reparsed.err());
        prop_assert_eq!(reparsed.unwrap(), journal);
    }

    /// A retrying driver turns every injected failure into another full
    /// tree walk, so a starved budget must cut runs off: the sweep still
    /// covers every counted point, marks those runs diverged (never
    /// panicked — the escalation stays inside the campaign), and completes
    /// rather than hanging.
    #[test]
    fn starved_budgets_degrade_to_diverged(depth in 1u8..3, fanout in 2u8..3) {
        let p = retrying_tree_program(depth, fanout);
        let config = CampaignConfig {
            budget: Budget::fuel(3),
            retry: atomask_inject::RetryPolicy::none(),
            max_failures: None,
            ..CampaignConfig::default()
        };
        let result = Campaign::new(&p).config(config).run();
        prop_assert_eq!(result.runs.len() as u64, result.total_points);
        for run in &result.runs {
            prop_assert!(
                matches!(run.outcome, RunOutcome::Completed | RunOutcome::Diverged),
                "run {}: {:?}",
                run.injection_point,
                run.outcome
            );
        }
        prop_assert!(result.health().diverged > 0, "retrying past exhaustion diverges");
    }
}
