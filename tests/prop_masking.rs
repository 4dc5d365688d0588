//! Property-based tests of the masking guarantee itself: for *arbitrary*
//! guest method shapes (random interleavings of mutations and throwing
//! calls), a wrapped method is failure atomic under every injection point.

use atomask_suite::{
    classify, Campaign, FnProgram, MarkFilter, MaskingHook, Pipeline, Profile, RegistryBuilder,
    Value,
};
use proptest::prelude::*;

/// One step of a generated method body.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Write a field.
    Mutate(i64),
    /// Call the (possibly injected) helper.
    CallHelper,
    /// Allocate a node and link it to the chain head.
    Grow,
    /// Drop the chain head.
    Shrink,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0i64..100).prop_map(Step::Mutate),
        Just(Step::CallHelper),
        Just(Step::Grow),
        Just(Step::Shrink),
    ]
}

/// Builds a program whose `scripted` method performs the generated steps.
fn scripted_program(steps: Vec<Step>) -> FnProgram {
    FnProgram::new(
        "scripted",
        move || {
            let steps = steps.clone();
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.class("Node", |c| {
                c.field("next", Value::Null);
            });
            rb.class("Scripted", |c| {
                c.field("state", Value::Int(0));
                c.field("chain", Value::Null);
                c.method("helper", |_, _, _| Ok(Value::Null));
                c.method("scripted", move |ctx, this, _| {
                    for step in &steps {
                        match step {
                            Step::Mutate(v) => ctx.set(this, "state", Value::Int(*v)),
                            Step::CallHelper => {
                                ctx.call(this, "helper", &[])?;
                            }
                            Step::Grow => {
                                let node = ctx.new_object("Node", &[])?;
                                let head = ctx.get(this, "chain");
                                ctx.set(node, "next", head);
                                ctx.set(this, "chain", Value::Ref(node));
                            }
                            Step::Shrink => {
                                if let Some(head) = ctx.get_ref(this, "chain") {
                                    let next = ctx.get(head, "next");
                                    ctx.set(this, "chain", next);
                                }
                            }
                        }
                    }
                    Ok(Value::Null)
                });
            });
            rb.build()
        },
        |d| {
            let s = d.construct("Scripted", &[])?;
            d.root(s);
            d.call(s, "scripted", &[])?;
            d.call(s, "scripted", &[])
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever mutation/call interleaving the method body performs, the
    /// masked program verifies failure atomic under every injection point.
    #[test]
    fn masked_scripted_methods_are_atomic(
        steps in prop::collection::vec(step_strategy(), 1..12)
    ) {
        let program = scripted_program(steps);
        let report = Pipeline::new(&program).run();
        prop_assert!(
            report.corrected_is_atomic(),
            "verified: {:?}",
            report.verified.method_counts
        );
    }

    /// Detection soundness: a generated method is classified non-atomic
    /// IFF some injection actually produced a before/after difference —
    /// never because of a snapshot artefact. We check one direction
    /// explicitly: methods whose steps contain no mutation-before-call
    /// pattern and no call-after-mutation pattern are classified atomic.
    #[test]
    fn pure_reader_scripts_classify_atomic(
        n_calls in 1usize..6
    ) {
        let steps = vec![Step::CallHelper; n_calls];
        let program = scripted_program(steps);
        let result = Campaign::new(&program).run();
        let c = classify(&result, &MarkFilter::default());
        prop_assert_eq!(
            c.method("Scripted::scripted").unwrap().verdict,
            Some(atomask_suite::Verdict::FailureAtomic)
        );
    }

    /// Masking transparency under load: wrapped or not, a fault-free run
    /// computes the same final state.
    #[test]
    fn masking_preserves_fault_free_results(
        steps in prop::collection::vec(step_strategy(), 1..12)
    ) {
        use atomask_suite::{Program, Snapshot, Vm};
        let program = scripted_program(steps);

        let mut plain = Vm::new(program.build_registry());
        program.run(&mut plain).unwrap();

        let mut masked = Vm::new(program.build_registry());
        let all: std::collections::HashSet<_> =
            masked.registry().method_ids().collect();
        masked.set_hook(Some(std::rc::Rc::new(std::cell::RefCell::new(
            MaskingHook::new(all),
        ))));
        program.run(&mut masked).unwrap();

        let find = |vm: &Vm| {
            vm.heap()
                .iter()
                .find(|(_, o)| vm.registry().class(o.class_id()).name == "Scripted")
                .map(|(id, _)| id)
                .expect("scripted object")
        };
        let (a, b) = (find(&plain), find(&masked));
        prop_assert_eq!(
            Snapshot::of(plain.heap(), a),
            Snapshot::of(masked.heap(), b)
        );
    }
}
