//! Behavioural tests of the masking phase on real data structures: under
//! *every* injection point and both wrapper strategies, a masked red-black
//! tree keeps its invariants and a masked queue keeps its contents.

use atomask_suite::{InjectionHook, MaskStrategy, Pipeline, Program, Value, Vm, WrapSet};
use std::cell::RefCell;
use std::rc::Rc;

const STRATEGIES: [MaskStrategy; 2] = [MaskStrategy::DeepCopy, MaskStrategy::UndoLog];

/// Runs `program` once per injection point and strategy, with the
/// injection wrapper outside the atomicity wrapper for the mask set a
/// detection pipeline derived, and hands each faulted run's VM to
/// `inspect`.
fn faulted_runs(program: &atomask_suite::FnProgram, inspect: impl Fn(&Vm)) {
    let report = Pipeline::new(program).run();
    let wrapped = WrapSet::from(&report.mask_set);
    let total = report.detection.total_points;
    for strategy in STRATEGIES {
        for ip in 1..=total {
            let mut vm = Vm::new(program.build_registry());
            let injector = Rc::new(RefCell::new(InjectionHook::with_injection_point(ip)));
            vm.set_hook(Some(injector));
            vm.set_inner_hook(Some(strategy.hook(wrapped.clone())));
            let _ = program.run(&mut vm);
            vm.set_hook(None);
            inspect(&vm);
        }
    }
}

/// The paper's core promise, applied to the trickiest structure in the
/// suite: with masking in place, *no* injection point can leave a
/// red-black map structurally invalid.
#[test]
fn masked_rbmap_never_breaks_its_invariant() {
    let program = atomask_suite::apps::program_by_name("RBMap").unwrap();
    faulted_runs(&program, |vm| {
        for (id, obj) in vm.heap().iter() {
            if vm.registry().class(obj.class_id()).name == "RBMap" {
                assert!(
                    atomask_suite::apps::collections::rbmap::invariant_holds(vm, id),
                    "masked RBMap lost its red-black invariant"
                );
            }
        }
    });
}

/// Counter check: *without* masking, some injection point does corrupt the
/// structure (otherwise the previous test proves nothing).
#[test]
fn unmasked_rbmap_does_break_under_injection() {
    let program = atomask_suite::apps::program_by_name("RBMap").unwrap();
    let total = {
        let r = atomask_suite::Campaign::new(&program).max_points(1).run();
        r.total_points
    };
    let mut broken = 0usize;
    for ip in 1..=total {
        let mut vm = Vm::new(program.build_registry());
        let injector = Rc::new(RefCell::new(InjectionHook::with_injection_point(ip)));
        vm.set_hook(Some(injector));
        let _ = program.run(&mut vm);
        vm.set_hook(None);
        for (id, obj) in vm.heap().iter() {
            if vm.registry().class(obj.class_id()).name == "RBMap"
                && !atomask_suite::apps::collections::rbmap::invariant_holds(&vm, id)
            {
                broken += 1;
            }
        }
    }
    assert!(
        broken > 0,
        "expected at least one injection to corrupt the unmasked tree"
    );
}

/// Masked queues keep size == chain length under every injection point.
#[test]
fn masked_queue_sizes_stay_consistent() {
    let program = atomask_suite::apps::program_by_name("stdQ").unwrap();
    faulted_runs(&program, |vm| {
        for (id, obj) in vm.heap().iter() {
            if vm.registry().class(obj.class_id()).name != "StdQueue" {
                continue;
            }
            let size = vm.heap().field(id, "size").unwrap().as_int().unwrap();
            let mut n = 0;
            let mut cur = vm.heap().field(id, "head").unwrap();
            while let Value::Ref(node) = cur {
                n += 1;
                cur = vm.heap().field(node, "next").unwrap();
            }
            assert_eq!(size, n, "masked queue size diverged from its chain");
        }
    });
}

/// Masking preserves fault-free behaviour exactly: with wrappers of either
/// strategy installed but no injection, the driver produces identical
/// object graphs.
#[test]
fn masking_is_transparent_without_faults() {
    use atomask_suite::Snapshot;
    for (name, strategy) in ["LLMap", "adaptorChain", "Dynarray"]
        .into_iter()
        .flat_map(|name| STRATEGIES.map(|s| (name, s)))
    {
        let program = atomask_suite::apps::program_by_name(name).unwrap();
        let report = Pipeline::new(&program).max_points(1).run();

        let mut plain_vm = Vm::new(program.build_registry());
        program.run(&mut plain_vm).unwrap();

        let mut masked_vm = Vm::new(program.build_registry());
        masked_vm.set_hook(Some(strategy.hook(&report.mask_set)));
        program.run(&mut masked_vm).unwrap();

        // Compare the graphs of all like-named class instances, pairwise
        // in allocation order.
        let roots =
            |vm: &Vm| -> Vec<atomask_suite::ObjId> { vm.heap().iter().map(|(id, _)| id).collect() };
        let (a, b) = (roots(&plain_vm), roots(&masked_vm));
        assert_eq!(
            a.len(),
            b.len(),
            "{name} ({strategy:?}): object population differs"
        );
        for (&x, &y) in a.iter().zip(&b) {
            assert_eq!(
                Snapshot::of(plain_vm.heap(), x),
                Snapshot::of(masked_vm.heap(), y),
                "{name} ({strategy:?}): object graph diverged under transparent masking"
            );
        }
    }
}
