//! Every suite driver resumes: a run replayed from any recorded boundary
//! goes live and ends exactly where the from-scratch run ends.
//!
//! The campaign-level equivalence suites pass whether a resumed point runs
//! from its checkpoint or quietly falls back to running from scratch. This
//! suite checks the resume itself, on the sixteen real drivers: no replay
//! mismatch, no replay left over when the driver returns, and the same
//! result, rooted object graph, call statistics, fuel and exception chain
//! ids as a run that never replayed.

use atomask_apps::all_apps;
use atomask_mor::{ExceptionTable, MethodResult, Program, Vm, VmCheckpoint};
use atomask_objgraph::fingerprint_of_roots;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Checkpoint after every `STRIDE`-th recorded op: small enough that every
/// driver has at least `MIN_BOUNDARIES` resumable boundaries.
const STRIDE: usize = 3;
const MIN_BOUNDARIES: usize = 3;

/// The checkpoints a recording run captured, keyed by the ops done.
type Boundaries = Rc<RefCell<Vec<(usize, Rc<VmCheckpoint>)>>>;

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

fn outcome(vm: &Vm, result: MethodResult) -> Outcome {
    let heap = vm.heap();
    let roots: Vec<_> = heap
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| heap.root_count(id) > 0)
        .collect();
    let stats = vm.stats();
    // A fresh exception takes the next chain id: the counter's watermark.
    let probe = vm.exc_id(ExceptionTable::BUDGET_EXHAUSTED);
    Outcome {
        result,
        root_fingerprint: fingerprint_of_roots(heap, &roots),
        calls: stats.calls.clone(),
        exceptions_seen: stats.exceptions_seen,
        declaration_violations: stats.declaration_violations,
        fuel_spent: vm.fuel_spent(),
        next_chain: atomask_mor::Exception::new(probe, "watermark").chain,
    }
}

#[test]
fn every_suite_driver_resumes_from_every_boundary() {
    for app in all_apps() {
        let program = app.program();
        let mut vm = Vm::from_shared_registry(Rc::new(program.build_registry()));
        let result = program.run(&mut vm);
        let scratch = outcome(&vm, result);

        vm.reset_for_run();
        let boundaries: Boundaries = Rc::default();
        vm.start_recording();
        {
            let boundaries = Rc::clone(&boundaries);
            vm.set_boundary_probe(Some(Box::new(move |vm, ops| {
                if ops % STRIDE == 0 {
                    boundaries
                        .borrow_mut()
                        .push((ops, Rc::new(vm.checkpoint())));
                }
            })));
        }
        let result = program.run(&mut vm);
        let ops = Rc::new(vm.finish_recording().expect("recording was active"));
        assert_eq!(outcome(&vm, result), scratch, "{}: recording", app.name);

        // A boundary after the last op has no live tail to switch into.
        let boundaries: Vec<_> = boundaries
            .take()
            .into_iter()
            .filter(|(switch, _)| *switch < ops.len())
            .collect();
        assert!(
            boundaries.len() >= MIN_BOUNDARIES,
            "{}: {} ops give only {} boundaries",
            app.name,
            ops.len(),
            boundaries.len()
        );
        for (switch, ckpt) in boundaries {
            vm.reset_for_run();
            vm.begin_replay(Rc::clone(&ops), switch, ckpt);
            let result = catch_unwind(AssertUnwindSafe(|| program.run(&mut vm)))
                .unwrap_or_else(|_| panic!("{}: resume at op {switch} panicked", app.name));
            assert!(
                !vm.replay_active(),
                "{}: resume at op {switch} never went live",
                app.name
            );
            assert_eq!(
                outcome(&vm, result),
                scratch,
                "{}: resume at op {switch} diverged",
                app.name
            );
        }
    }
}
