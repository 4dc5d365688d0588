//! The sweep against its references, on a call tree whose methods declare
//! different numbers of exception types.
//!
//! * Every run a campaign journals — checkpoint-resumed prefixes, lazy or
//!   eager capture, one worker or several — must equal the run
//!   [`Campaign::replay`] produces for that point from scratch.
//! * The counter-gated count, which advances the point counter by a
//!   method's whole exception-type count in one step, must fire where
//!   Listing 1's literal per-exception-type loop fires. [`LiteralLoop`]
//!   is that loop, kept here as a test-only counting [`CallHook`].

use atomask_inject::{Campaign, CampaignConfig, CaptureMode};
use atomask_mor::{
    Budget, CallHook, CallSite, ExcId, Exception, FnProgram, HookGuard, MethodId, MethodResult,
    Profile, Program, RegistryBuilder, Value, Vm,
};
use std::cell::RefCell;
use std::rc::Rc;

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
                    let fanout = args[1].clone();
                    if level > 0 {
                        for _ in 0..fanout.as_int().unwrap_or(0) {
                            ctx.call(this, "bump", &[])?;
                            ctx.call(this, "spin", &[Value::Int(level - 1), fanout.clone()])?;
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
            });
            rb.build()
        },
        move |d| {
            let t = d.construct("T", &[])?;
            d.root(t);
            d.call(
                t,
                "spin",
                &[Value::Int(depth as i64), Value::Int(fanout as i64)],
            )
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

/// Listing 1 lines 2-5 as written: every wrapped call walks its method's
/// exception types one by one, counting a point per type, and throws the
/// type at which the count reaches `target`. It never captures or marks.
struct LiteralLoop {
    point: u64,
    target: u64,
    fired: Option<(MethodId, ExcId)>,
}

impl CallHook for LiteralLoop {
    fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
        let registry = vm.registry().clone();
        if !registry.instrumentable(site.method) {
            return Ok(None);
        }
        for &exc in registry.injectable_exceptions(site.method) {
            self.point += 1;
            if self.point == self.target {
                self.fired = Some((site.method, exc));
                return Err(vm.injected_exception(exc, site.method));
            }
        }
        Ok(None)
    }

    fn after(
        &mut self,
        _vm: &mut Vm,
        _site: &CallSite,
        _guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult {
        outcome
    }
}

/// Runs `p` from scratch under the literal loop aimed at `target` (`0`
/// never fires) and returns the loop's final state.
fn literal_loop(p: &FnProgram, target: u64) -> LiteralLoop {
    let hook = Rc::new(RefCell::new(LiteralLoop {
        point: 0,
        target,
        fired: None,
    }));
    let mut vm = Vm::new(p.build_registry());
    vm.set_budget(Budget::fuel(20_000));
    vm.set_hook(Some(hook.clone()));
    let _ = p.run(&mut vm);
    vm.set_hook(None);
    Rc::try_unwrap(hook)
        .ok()
        .expect("the VM released the hook")
        .into_inner()
}

/// The counter-gated count fires where the per-type loop fires, at every
/// point of every shape, and both count the same total.
#[test]
fn counter_gate_fires_where_the_literal_loop_fires() {
    for (depth, fanout) in SHAPES {
        let p = striped_tree(depth, fanout);
        let result = Campaign::new(&p)
            .config(base_config(1, CaptureMode::Lazy))
            .run();
        let label = format!("{depth}x{fanout}");
        assert_eq!(
            literal_loop(&p, 0).point,
            result.total_points,
            "{label}: total"
        );
        for run in &result.runs {
            let point = run.injection_point;
            let oracle = literal_loop(&p, point);
            assert!(oracle.fired.is_some(), "{label} point {point}: never fired");
            assert_eq!(oracle.fired, run.injected, "{label} point {point}");
        }
    }
}
