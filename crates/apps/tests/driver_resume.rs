//! Every suite driver resumes: a run replayed from any recorded boundary
//! goes live and ends exactly where the from-scratch run ends.
//!
//! The campaign-level equivalence suites pass whether a resumed point runs
//! from its checkpoint or quietly falls back to running from scratch. This
//! suite checks the resume itself, on the sixteen real drivers: no resume
//! mismatch, no driver returning before the switch, and the same result,
//! rooted object graph, call statistics, fuel and exception chain ids as a
//! run that never replayed.

use atomask_apps::all_apps;
use atomask_mor::{ExceptionTable, MethodId, MethodResult, Program, Vm, VmCheckpoint};
use atomask_objgraph::fingerprint_of_roots;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Checkpoint after every `STRIDE`-th recorded op: small enough that every
/// driver has at least `MIN_BOUNDARIES` resumable boundaries.
const STRIDE: usize = 3;
const MIN_BOUNDARIES: usize = 3;

/// What a finished run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: MethodResult,
    root_fingerprint: u64,
    calls: Vec<u64>,
    exceptions_seen: u64,
    declaration_violations: u64,
    fuel_spent: u64,
    next_chain: u64,
}

fn outcome(vm: &mut Vm, result: MethodResult) -> Outcome {
    // A fresh exception takes the next chain id: the counter's watermark.
    let probe = vm.exc_id(ExceptionTable::BUDGET_EXHAUSTED);
    let next_chain = vm.injected_exception(probe, MethodId::from_raw(0)).chain;
    let heap = vm.heap();
    let roots: Vec<_> = heap
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| heap.root_count(id) > 0)
        .collect();
    let stats = vm.stats();
    Outcome {
        result,
        root_fingerprint: fingerprint_of_roots(heap, &roots),
        calls: stats.calls.clone(),
        exceptions_seen: stats.exceptions_seen,
        declaration_violations: stats.declaration_violations,
        fuel_spent: vm.fuel_spent(),
        next_chain,
    }
}

#[test]
fn every_suite_driver_resumes_from_every_boundary() {
    for app in all_apps() {
        let program = app.program();
        let mut vm = Vm::from_shared_registry(Rc::new(program.build_registry()));
        let result = program.run(&mut vm);
        let scratch = outcome(&mut vm, result);

        vm.reset_for_run();
        // The checkpoints the recording run captured, keyed by the ops done.
        let mut boundaries: Vec<(usize, VmCheckpoint)> = Vec::new();
        let (result, ops) = program.record(&mut vm, &mut |vm, ops| {
            if ops % STRIDE == 0 {
                boundaries.push((ops, vm.checkpoint()));
            }
        });
        assert_eq!(outcome(&mut vm, result), scratch, "{}: recording", app.name);

        // A boundary after the last op has no live tail to switch into.
        boundaries.retain(|(switch, _)| *switch < ops.len());
        assert!(
            boundaries.len() >= MIN_BOUNDARIES,
            "{}: {} ops give only {} boundaries",
            app.name,
            ops.len(),
            boundaries.len()
        );
        for (switch, ckpt) in &boundaries {
            vm.reset_for_run();
            let result = catch_unwind(AssertUnwindSafe(|| {
                program.resume_from(&mut vm, &ops, *switch, ckpt)
            }))
            .unwrap_or_else(|_| panic!("{}: resume at op {switch} panicked", app.name))
            .unwrap_or_else(|m| {
                panic!("{}: resume at op {switch} never went live: {m:?}", app.name)
            });
            assert_eq!(
                outcome(&mut vm, result),
                scratch,
                "{}: resume at op {switch} diverged",
                app.name
            );
        }
    }
}
