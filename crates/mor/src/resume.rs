//! Checkpoint-resume support: structural VM checkpoints plus a record /
//! replay log of the operations a driver issues.
//!
//! A detection sweep runs the same program once per injection point, and
//! every run re-executes the entire prefix before its target just to arrive
//! there. Three entry points on [`crate::Program`] remove that quadratic
//! prefix cost, and each one sets the session of the run's
//! [`crate::Driver`]:
//!
//! 1. **[`crate::Program::run`]** executes every op live: the reference
//!    run, and every run that does not resume.
//! 2. **[`crate::Program::record`]** executes normally while the driver
//!    logs every operation it issues — [`crate::Driver::construct`],
//!    [`crate::Driver::call`], [`crate::Driver::call_absorbed`] and
//!    [`crate::Driver::field`] — as an [`OpRecord`]: a validation
//!    [`OpKey`] and the operation's result. After each op it calls the
//!    caller's `at_boundary` with the VM quiescent, which may capture a
//!    [`VmCheckpoint`]: an O(live-objects) structural copy of the heap
//!    (cheap — `Rc`-shared values clone by refcount bump) plus call
//!    statistics, the call sequence number, fuel spent, and the exception
//!    chain-id watermark. The log is returned with the run's result.
//! 3. **[`crate::Program::resume_from`]** re-executes the driver, but each
//!    op before the *switch* op short-circuits: the handle validates the op
//!    against the log and returns the recorded result without touching the
//!    (empty) heap, so the driver retraces its recorded control flow at host
//!    speed. At the switch op the checkpoint is restored and execution goes
//!    live for the tail.
//!
//! Guest bodies never run during a replayed prefix, so no hook fires, no
//! fuel is charged, and no heap mutation happens — all of that state is
//! reinstated wholesale by [`crate::Vm::restore`]. The handle is the
//! driver's only way into the VM, so what the driver sees during replay is
//! exactly what it saw while recording, and a deterministic driver retraces
//! the recorded ops. The op keys guard that determinism: a driver whose
//! control flow parts from the recording, or that returns before the
//! switch, makes `resume_from` return a [`ResumeMismatch`], and the
//! campaign layer runs that point from scratch instead.

use crate::exception::Exception;
use crate::heap::HeapCheckpoint;
use crate::ids::ObjId;
use crate::value::Value;
use crate::vm::CallStats;

/// Identity of a top-level driver operation, used to validate replay
/// against the recording. Deliberately excludes argument *values* — the
/// drivers are deterministic, so op kind + receiver + name identify the
/// call site; the key exists to catch harness bugs, not adversarial
/// drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKey {
    /// [`crate::Driver::construct`] of the named class.
    Construct {
        /// Class name as passed by the driver.
        class: String,
    },
    /// [`crate::Driver::call`] or [`crate::Driver::call_absorbed`]; the
    /// recorded [`OpResult`] tells the two apart.
    Call {
        /// Receiver object.
        recv: ObjId,
        /// Method name as passed by the driver.
        method: String,
    },
    /// [`crate::Driver::field`].
    Field {
        /// Receiver object.
        recv: ObjId,
        /// Field name.
        field: String,
    },
}

/// Recorded result of a top-level operation, cloned back to the driver
/// during replay. Values share storage with the recording run (`Rc`), so a
/// clone is a refcount bump.
#[derive(Debug, Clone)]
pub enum OpResult {
    /// Result of a [`crate::Driver::construct`].
    Construct(Result<ObjId, Exception>),
    /// Result of a [`crate::Driver::call`].
    Method(Result<Value, Exception>),
    /// A [`crate::Driver::call_absorbed`], whose result the driver drops.
    Dropped,
    /// Result of a [`crate::Driver::field`].
    Field(Option<Value>),
}

/// One recorded top-level operation: its identity and its result.
#[derive(Debug, Clone)]
pub struct OpRecord {
    key: OpKey,
    result: OpResult,
}

impl OpRecord {
    pub(crate) fn new(key: OpKey, result: OpResult) -> Self {
        OpRecord { key, result }
    }

    /// The operation's identity key.
    pub fn key(&self) -> &OpKey {
        &self.key
    }

    /// The operation's recorded result.
    pub fn result(&self) -> &OpResult {
        &self.result
    }
}

/// A structural copy of everything a run can observe of the VM at a
/// quiescent top-level boundary: the heap (objects, reference counts,
/// roots, allocation stats), call statistics, the call sequence number,
/// fuel spent, and the exception chain-id watermark.
///
/// Captured by [`crate::Vm::checkpoint`], reinstated by
/// [`crate::Vm::restore`]. The copy is O(live objects); field values are
/// `Rc`-shared with the recording run, so per-value cost is a refcount
/// bump, not a deep copy.
#[derive(Debug, Clone)]
pub struct VmCheckpoint {
    pub(crate) heap: HeapCheckpoint,
    pub(crate) stats: CallStats,
    pub(crate) call_seq: u64,
    pub(crate) fuel_spent: u64,
    pub(crate) chain_next: u64,
}

impl VmCheckpoint {
    /// Number of live objects captured (the dominant size/cost factor).
    pub fn live_objects(&self) -> usize {
        self.heap.live()
    }

    /// Fuel the recording run had spent when this checkpoint was captured.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel_spent
    }
}

/// Why a resumed run parted from its recording before the switch op:
/// the [`Err`] of [`crate::Program::resume_from`]. Only a driver that is
/// not deterministic produces one; the run is then worth nothing, and the
/// caller runs the program from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeMismatch {
    /// Index of the recorded op the driver failed to retrace.
    pub op: usize,
    /// What the driver issued instead: an op with another key, or with
    /// the same key but a result of another kind (a call replayed against
    /// an absorbed one), or `None` if the driver returned.
    pub issued: Option<OpKey>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::exception::MethodResult;
    use crate::profile::Profile;
    use crate::program::{FnProgram, Program};
    use crate::registry::{Registry, RegistryBuilder};
    use crate::vm::Vm;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;

    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Counter", |c| {
            c.field("count", Value::Int(0));
            c.ctor(|ctx, this, args| {
                if let Some(Value::Int(start)) = args.first() {
                    ctx.set(this, "count", Value::Int(*start));
                }
                Ok(Value::Null)
            });
            c.method("increment", |ctx, this, _| {
                let v = ctx.get_int(this, "count");
                ctx.set(this, "count", Value::Int(v + 1));
                Ok(Value::Int(v + 1))
            });
            c.method("fail", |ctx, this, _| {
                let v = ctx.get_int(this, "count");
                ctx.set(this, "count", Value::Int(v + 100));
                Err(ctx.exception("RuntimeException", "boom"))
            });
            c.method("explode", |_, _, _| panic!("guest body panicked"));
        });
        rb.build()
    }

    fn program(
        drive: impl Fn(&mut Driver<'_>) -> MethodResult + Send + Sync + 'static,
    ) -> FnProgram {
        FnProgram::new("counter", registry, drive)
    }

    /// A driver whose control flow depends on call results, thrown
    /// exceptions, and a driver-level field read — everything a replayed
    /// prefix must reproduce.
    fn counter() -> FnProgram {
        program(|d| {
            let c = d.construct("Counter", &[Value::Int(3)])?;
            d.root(c);
            d.call(c, "increment", &[])?;
            d.call_absorbed(c, "fail", &[]);
            if d.field(c, "count") == Some(Value::Int(104)) {
                d.call(c, "increment", &[])?;
            }
            d.call_absorbed(c, "fail", &[]);
            d.call(c, "increment", &[])
        })
    }

    type Probe = (Vec<Value>, Vec<usize>, Vec<u64>, u64, u64, u64);

    fn state(vm: &Vm) -> Probe {
        let heap = vm.heap();
        let fields: Vec<Value> = heap
            .iter()
            .flat_map(|(_, o)| o.fields().iter().cloned())
            .collect();
        let roots = heap.iter().map(|(id, _)| heap.root_count(id)).collect();
        (
            fields,
            roots,
            vm.stats().calls.clone(),
            vm.stats().exceptions_seen,
            vm.fuel_spent(),
            vm.checkpoint().chain_next,
        )
    }

    /// Records `p` on a fresh VM, returning the VM, the op log and the
    /// checkpoint captured after the last op.
    fn recorded(p: &FnProgram) -> (Vm, Vec<OpRecord>, VmCheckpoint) {
        let mut vm = Vm::from_shared_registry(Rc::new(p.build_registry()));
        let (result, ops) = p.record(&mut vm, &mut |_, _| {});
        result.unwrap();
        let end = vm.checkpoint();
        (vm, ops, end)
    }

    #[test]
    fn resume_from_every_boundary_matches_from_scratch() {
        let p = counter();
        let mut vm = Vm::from_shared_registry(Rc::new(p.build_registry()));

        // Recording run, checkpointing at every op boundary.
        let mut ckpts: Vec<(usize, VmCheckpoint)> = Vec::new();
        let (result, ops) = p.record(&mut vm, &mut |vm, n| ckpts.push((n, vm.checkpoint())));
        let recorded = (result, state(&vm));
        assert!(!ops.is_empty());
        assert_eq!(ckpts.len(), ops.len());

        // From-scratch reference on the recycled VM.
        vm.reset_for_run();
        let scratch = (p.run(&mut vm), state(&vm));
        assert_eq!(scratch, recorded, "recording must not perturb the run");

        // Resume from every boundary except the one after the final op (a
        // full-log checkpoint has no tail to go live in; schedulers never
        // select one).
        for (switch, ckpt) in &ckpts {
            if *switch == ops.len() {
                continue;
            }
            vm.reset_for_run();
            let result = p
                .resume_from(&mut vm, &ops, *switch, ckpt)
                .unwrap_or_else(|m| panic!("switch {switch} never went live: {m:?}"));
            assert_eq!(
                (result, state(&vm)),
                scratch,
                "resume at op {switch} diverged"
            );
        }
    }

    #[test]
    fn driver_finishing_before_the_switch_is_a_mismatch() {
        let p = counter();
        let (mut vm, ops, end) = recorded(&p);
        vm.reset_for_run();
        assert_eq!(
            p.resume_from(&mut vm, &ops, ops.len(), &end),
            Err(ResumeMismatch {
                op: ops.len(),
                issued: None
            }),
            "the whole run replayed without going live"
        );
    }

    #[test]
    fn a_mismatched_key_is_a_resume_mismatch() {
        let (mut vm, ops, end) = recorded(&counter());
        // The recording starts with a construct; issuing a different class
        // name must trip the key validator.
        let nope = program(|d| {
            d.construct("Nope", &[])?;
            Ok(Value::Null)
        });
        vm.reset_for_run();
        assert_eq!(
            nope.resume_from(&mut vm, &ops, ops.len(), &end),
            Err(ResumeMismatch {
                op: 0,
                issued: Some(OpKey::Construct {
                    class: "Nope".to_owned()
                })
            })
        );
    }

    #[test]
    fn call_and_absorbed_call_do_not_replay_each_other() {
        let (mut vm, ops, end) = recorded(&counter());
        // Op 2 is `fail`, recorded as absorbed: the same key issued as a
        // plain call must not get the dropped result back.
        assert!(matches!(ops[2].result(), OpResult::Dropped));
        let called = program(|d| {
            let c = d.construct("Counter", &[Value::Int(3)])?;
            d.call(c, "increment", &[])?;
            d.call(c, "fail", &[])
        });
        vm.reset_for_run();
        let mismatch = called.resume_from(&mut vm, &ops, ops.len(), &end);
        assert_eq!(mismatch.map_err(|m| m.op), Err(2));
        // Op 1 is `increment`, recorded with its result: absorbing it
        // instead must trip the guard too.
        assert!(matches!(ops[1].result(), OpResult::Method(Ok(_))));
        let absorbed = program(|d| {
            let c = d.construct("Counter", &[Value::Int(3)])?;
            d.call_absorbed(c, "increment", &[]);
            Ok(Value::Null)
        });
        vm.reset_for_run();
        let mismatch = absorbed.resume_from(&mut vm, &ops, ops.len(), &end);
        assert_eq!(mismatch.map_err(|m| m.op), Err(1));
    }

    #[test]
    fn a_panic_in_the_live_tail_is_a_panic_not_a_mismatch() {
        let p = counter();
        let mut vm = Vm::from_shared_registry(Rc::new(p.build_registry()));
        let mut after_two = None;
        let (_, ops) = p.record(&mut vm, &mut |vm, n| {
            if n == 2 {
                after_two = Some(vm.checkpoint());
            }
        });
        // Retraces the first two recorded ops, then goes live into a guest
        // body that panics.
        let exploding = program(|d| {
            let c = d.construct("Counter", &[Value::Int(3)])?;
            d.root(c);
            d.call(c, "increment", &[])?;
            d.call(c, "explode", &[])
        });
        vm.reset_for_run();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            exploding.resume_from(&mut vm, &ops, 2, after_two.as_ref().unwrap())
        }))
        .expect_err("the guest panic propagates");
        assert!(payload.downcast_ref::<ResumeMismatch>().is_none());
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"guest body panicked"));
    }

    #[test]
    fn restore_accounts_fuel_against_the_current_budget() {
        let p = counter();
        let mut vm = Vm::from_shared_registry(Rc::new(p.build_registry()));
        vm.set_budget(crate::Budget::fuel(10_000));
        p.run(&mut vm).unwrap();
        let ckpt = vm.checkpoint();
        let spent = vm.fuel_spent();
        assert!(spent > 0);

        vm.reset_for_run();
        vm.set_budget(crate::Budget::fuel(40_000)); // a scaled retry budget
        vm.restore(&ckpt);
        assert_eq!(vm.fuel_spent(), spent);
        assert_eq!(vm.budget(), crate::Budget::fuel(40_000));
        assert!(!vm.fuel_exhausted());
    }
}
