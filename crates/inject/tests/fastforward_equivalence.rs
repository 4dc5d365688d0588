//! The sweep against the literal-loop reference: every run a campaign
//! journals — counter-gated fast-forward counting, checkpoint-resumed
//! prefixes, lazy or eager capture, one worker or several — must equal the run [`Campaign::replay`] produces
//! for that point from scratch, walking Listing 1's per-exception-type
//! loop with fast-forward off.
//!
//! This is the campaign-level proof obligation behind turning the gate on
//! by default: since the two agree everywhere, a replay/sweep mismatch
//! indicts the gate or the resume engine.

use atomask_inject::{Campaign, CampaignConfig, CaptureMode};
use atomask_mor::{Budget, FnProgram, Profile, RegistryBuilder, Value};

/// A mutating call tree whose methods carry *different* declared-exception
/// counts, so the fast-forward arithmetic advances the counter by a
/// different stride per call site — the case a per-type loop and a single
/// addition could plausibly disagree on.
fn striped_tree(depth: u8, fanout: u8) -> FnProgram {
    FnProgram::new(
        "stripedTree",
        || {
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.class("T", |c| {
                c.field("work", Value::Int(0));
                c.field("audit", Value::Int(0));
                c.method("spin", |ctx, this, args| {
                    let level = args[0].as_int().unwrap_or(0);
                    if level > 0 {
                        let fanout = ctx.get_int(this, "fanout");
                        for _ in 0..fanout {
                            ctx.call(this, "bump", &[])?;
                            ctx.call(this, "spin", &[Value::Int(level - 1)])?;
                        }
                    }
                    let w = ctx.get_int(this, "work");
                    ctx.set(this, "work", Value::Int(w + 1));
                    Ok(Value::Null)
                })
                .throws("IOError")
                .throws("ParseError");
                // Partial-state window: `audit` is updated after a nested
                // call, so mid-call injections mark `bump` non-atomic.
                c.method("bump", |ctx, this, _| {
                    let a = ctx.get_int(this, "audit");
                    ctx.call(this, "leaf", &[])?;
                    ctx.set(this, "audit", Value::Int(a + 1));
                    Ok(Value::Null)
                })
                .throws("IOError");
                c.method("leaf", |ctx, this, _| {
                    let w = ctx.get_int(this, "work");
                    ctx.set(this, "work", Value::Int(w ^ 5));
                    Ok(Value::Null)
                });
                c.field("fanout", Value::Int(0));
            });
            rb.build()
        },
        move |vm| {
            let t = vm.construct("T", &[])?;
            vm.root(t);
            vm.heap_mut()
                .set_field(t, "fanout", Value::Int(fanout as i64))
                .expect("fanout field exists");
            vm.call(t, "spin", &[Value::Int(depth as i64)])
        },
    )
}

fn base_config(workers: usize, capture: CaptureMode) -> CampaignConfig {
    CampaignConfig {
        budget: Budget::fuel(20_000),
        workers,
        capture,
        ..CampaignConfig::default()
    }
}

/// Striped-tree shapes under test: `(depth, fanout)`.
const SHAPES: [(u8, u8); 6] = [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)];

/// Every run of every sweep equals its replay.
#[test]
fn every_sweep_run_equals_its_replay() {
    for (depth, fanout) in SHAPES {
        let p = striped_tree(depth, fanout);
        for workers in 1..=3 {
            for capture in [CaptureMode::Eager, CaptureMode::Lazy] {
                let label = format!("{depth}x{fanout} workers={workers} {capture:?}");
                let campaign = Campaign::new(&p).config(base_config(workers, capture));
                let result = campaign.run();
                assert_eq!(result.injections() as u64, result.total_points, "{label}");
                for run in &result.runs {
                    let point = run.injection_point;
                    // Replay does not retry, so a retried run would
                    // compare against a different attempt.
                    assert_eq!(run.retries, 0, "{label} point {point}: retried");
                    assert_eq!(
                        campaign.replay(point).run,
                        *run,
                        "{label} point {point}: sweep and replay differ"
                    );
                }
            }
        }
    }
}

/// The striped tree actually exercises what this suite claims to test:
/// non-atomic verdicts exist, and at least two distinct per-method strides
/// are in play (2 vs. 3 vs. 4 injectable exceptions).
#[test]
fn striped_tree_is_a_meaningful_witness() {
    let p = striped_tree(2, 2);
    let result = Campaign::new(&p)
        .config(base_config(1, CaptureMode::Lazy))
        .run();
    assert!(result.total_points > 0);
    assert!(
        result
            .runs
            .iter()
            .any(|r| r.marks.iter().any(|m| !m.atomic)),
        "the audit-after-call window must yield non-atomic marks"
    );
    let strides: std::collections::HashSet<usize> = result
        .registry
        .method_ids()
        .map(|m| result.registry.injectable_exceptions(m).len())
        .collect();
    assert!(
        strides.len() >= 3,
        "methods must differ in injectable-exception count, got {strides:?}"
    );
}
