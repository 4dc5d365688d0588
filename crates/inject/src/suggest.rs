//! Exception-free suggestions — the Analyzer improvement the paper leaves
//! as future work.
//!
//! §4.3: *"This conservative classification is a consequence of the
//! limitations of our current Analyzer implementation, which does not
//! attempt to determine whether it is possible for a runtime exception to
//! occur in a given method. We plan to address this issue in the future."*
//!
//! Method bodies are opaque host functions in this runtime, so a static
//! analysis is out of reach — but an *empirical* one is not: observe a
//! baseline run and propose as exception-free every instrumentable method
//! that (a) was actually exercised, (b) made **no** nested calls (a leaf —
//! nothing downstream can throw into it), and (c) never threw itself.
//!
//! The suggestions carry the same caveat the paper attaches to the manual
//! annotations: they are judgements about *possible executions* based on
//! observed ones. Accepting a wrong suggestion never corrupts a program —
//! it merely discounts injections that could, in fact, happen — so the
//! paper's "merely an unnecessary loss in performance" trade-off inverts
//! into "possibly an unnoticed non-atomicity"; the API therefore returns
//! suggestions for a human (or test) to confirm rather than feeding them
//! into the policy silently.

use atomask_mor::{CallHook, CallSite, Exception, HookGuard, MethodId, MethodResult, Program, Vm};
use std::cell::RefCell;
use std::rc::Rc;

/// Observes one run and records, per method: dynamic calls, whether it made
/// nested calls, and whether it ever returned with an exception.
#[derive(Debug, Default)]
struct ObservationHook {
    stack: Vec<MethodId>,
    calls: Vec<u64>,
    makes_calls: Vec<bool>,
    threw: Vec<bool>,
}

impl ObservationHook {
    fn sized(methods: usize) -> Self {
        ObservationHook {
            stack: Vec::new(),
            calls: vec![0; methods],
            makes_calls: vec![false; methods],
            threw: vec![false; methods],
        }
    }
}

impl CallHook for ObservationHook {
    fn before(&mut self, _vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
        if let Some(&parent) = self.stack.last() {
            self.makes_calls[parent.index()] = true;
        }
        self.calls[site.method.index()] += 1;
        self.stack.push(site.method);
        Ok(None)
    }

    fn after(
        &mut self,
        _vm: &mut Vm,
        site: &CallSite,
        _guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult {
        self.stack.pop();
        if outcome.is_err() {
            self.threw[site.method.index()] = true;
        }
        outcome
    }
}

/// Runs `program` once under observation and returns the methods that look
/// exception-free: exercised leaves that never threw.
///
/// Feed the (confirmed) result into
/// [`MarkFilter::exception_free`](crate::MarkFilter::exception_free) or a
/// masking policy to discount the corresponding injections.
pub fn suggest_exception_free(program: &dyn Program) -> Vec<MethodId> {
    let mut vm = Vm::new(program.build_registry());
    let methods = vm.registry().method_count();
    let hook = Rc::new(RefCell::new(ObservationHook::sized(methods)));
    vm.set_hook(Some(hook.clone()));
    let _ = program.run(&mut vm);
    vm.set_hook(None);
    let registry = vm.registry().clone();
    let hook = hook.borrow();
    registry
        .method_ids()
        .filter(|m| {
            let i = m.index();
            hook.calls[i] > 0
                && !hook.makes_calls[i]
                && !hook.threw[i]
                && registry.instrumentable(*m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, Campaign, MarkFilter, Verdict};
    use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};

    /// `getter` and `setter` are quiet leaves; `thrower` is a leaf that
    /// throws; `walker` makes calls.
    fn program() -> FnProgram {
        FnProgram::new(
            "suggest-demo",
            || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.exception("AppError");
                rb.class("A", |c| {
                    c.field("x", Value::Int(0));
                    c.method("getter", |ctx, this, _| Ok(ctx.get(this, "x")));
                    c.method("setter", |ctx, this, args| {
                        ctx.set(this, "x", args[0].clone());
                        Ok(Value::Null)
                    });
                    c.method("thrower", |ctx, _, _| {
                        Err(ctx.exception("AppError", "always"))
                    });
                    c.method("walker", |ctx, this, args| {
                        let x = ctx.get_int(this, "x");
                        ctx.set(this, "x", Value::Int(x + 1));
                        ctx.call(this, "setter", &[args[0].clone()])?;
                        ctx.call(this, "getter", &[])
                    });
                    c.method("unused", |_, _, _| Ok(Value::Null));
                });
                rb.build()
            },
            |d| {
                let a = d.construct("A", &[])?;
                d.root(a);
                d.call(a, "walker", &[Value::Int(5)])?;
                d.call_absorbed(a, "thrower", &[]);
                d.call(a, "getter", &[])
            },
        )
    }

    fn names(p: &FnProgram, ids: &[MethodId]) -> Vec<String> {
        use atomask_mor::Program;
        let reg = p.build_registry();
        let mut out: Vec<String> = ids.iter().map(|m| reg.method_display(*m)).collect();
        out.sort();
        out
    }

    #[test]
    fn suggests_quiet_leaves_only() {
        let p = program();
        let suggested = suggest_exception_free(&p);
        assert_eq!(
            names(&p, &suggested),
            vec!["A::getter".to_owned(), "A::setter".to_owned()],
            "thrower threw, walker makes calls, unused was never exercised"
        );
    }

    #[test]
    fn suggestions_reclassify_the_walker() {
        let p = program();
        let result = Campaign::new(&p).run();
        // Without suggestions, walker is pure non-atomic: injections into
        // its callees land after its first write.
        let c = classify(&result, &MarkFilter::default());
        assert_eq!(
            c.method("A::walker").unwrap().verdict,
            Some(Verdict::PureNonAtomic)
        );
        // With the suggested exception-free set, only thrower's (real!)
        // exception path remains — and that aborts walker before it runs,
        // so walker becomes failure atomic.
        let suggested = suggest_exception_free(&p);
        let c = classify(&result, &MarkFilter::exception_free(suggested));
        assert_eq!(
            c.method("A::walker").unwrap().verdict,
            Some(Verdict::FailureAtomic)
        );
    }

    #[test]
    fn core_methods_are_not_suggested() {
        let p = FnProgram::new(
            "core-demo",
            || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.class("Str", |c| {
                    c.core();
                    c.field("dummy", Value::Null);
                    c.method("len", |_, _, _| Ok(Value::Int(0)));
                });
                rb.build()
            },
            |d| {
                let s = d.construct("Str", &[])?;
                d.root(s);
                d.call(s, "len", &[])
            },
        );
        // A core-class method never gets injections anyway: suggesting it
        // would be noise.
        assert!(suggest_exception_free(&p).is_empty());
    }
}
