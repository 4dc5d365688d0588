//! Checkpoint-resume support: structural VM checkpoints plus a record /
//! replay log of the operations a driver issues.
//!
//! A detection sweep runs the same program once per injection point, and
//! every run re-executes the entire prefix before its target just to arrive
//! there. The types in this module remove that quadratic prefix cost:
//!
//! 1. **Recording.** One observing run executes normally while its
//!    [`crate::Driver`] logs every operation the driver issues —
//!    [`crate::Driver::construct`], [`crate::Driver::call`],
//!    [`crate::Driver::call_absorbed`] and [`crate::Driver::field`] — as an
//!    [`OpRecord`]: a validation [`OpKey`] and the operation's result. A
//!    boundary probe runs after each completed op and may capture a
//!    [`VmCheckpoint`]: an O(live-objects) structural copy of the heap
//!    (cheap — `Rc`-shared values clone by refcount bump) plus call
//!    statistics, the call sequence number, fuel spent, and the exception
//!    chain-id watermark.
//! 2. **Replay.** A resumed run re-executes the driver, but each op
//!    short-circuits: the handle validates the op against the log and
//!    returns the recorded result without touching the (empty) heap, so the
//!    driver retraces its recorded control flow at host speed. At the
//!    *switch* op the checkpoint is restored and execution goes live for
//!    the tail.
//!
//! Guest bodies never run during a replayed prefix, so no hook fires, no
//! fuel is charged, and no heap mutation happens — all of that state is
//! reinstated wholesale by [`crate::Vm::restore`]. The handle is the
//! driver's only way into the VM, so what the driver sees during replay is
//! exactly what it saw while recording, and a deterministic driver retraces
//! the recorded ops. The op keys guard that determinism: a driver whose
//! control flow diverges from the recording panics with a message
//! containing [`REPLAY_MISMATCH`], and the campaign layer falls back to
//! from-scratch execution for that point.

use crate::exception::Exception;
use crate::heap::HeapCheckpoint;
use crate::ids::ObjId;
use crate::value::Value;
use crate::vm::{CallStats, Vm};
use std::rc::Rc;

/// Marker substring of the panic message raised when a replayed driver op
/// does not match the recording. Callers that drive replay (the
/// campaign layer) catch the unwind, look for this sentinel, and fall back
/// to from-scratch execution.
pub const REPLAY_MISMATCH: &str = "checkpoint replay mismatch";

/// A probe invoked after every completed top-level op while recording.
///
/// Receives the VM (quiescent: depth 0, no open frames or journal layers)
/// and the number of ops recorded so far; a typical probe captures a
/// [`VmCheckpoint`] whenever the sweep's point counter crosses a stride
/// threshold.
pub type BoundaryProbe = Box<dyn FnMut(&Vm, usize)>;

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

/// In-flight replay state: the shared op log, the cursor, the op index at
/// which to switch to live execution, and the checkpoint to restore there.
#[derive(Debug)]
pub(crate) struct ReplayState {
    pub(crate) ops: Rc<Vec<OpRecord>>,
    pub(crate) cursor: usize,
    pub(crate) switch: usize,
    pub(crate) checkpoint: Rc<VmCheckpoint>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::profile::Profile;
    use crate::registry::{Registry, RegistryBuilder};
    use std::cell::RefCell;

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
        });
        rb.build()
    }

    /// A driver whose control flow depends on call results, thrown
    /// exceptions, and a driver-level field read — everything a replayed
    /// prefix must reproduce.
    fn drive(vm: &mut Vm) {
        let d = &mut Driver::new(vm);
        let c = d.construct("Counter", &[Value::Int(3)]).unwrap();
        d.root(c);
        d.call(c, "increment", &[]).unwrap();
        d.call_absorbed(c, "fail", &[]);
        if d.field(c, "count") == Some(Value::Int(104)) {
            d.call(c, "increment", &[]).unwrap();
        }
        d.call_absorbed(c, "fail", &[]);
        d.call(c, "increment", &[]).unwrap();
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
            crate::exception::chain_watermark(),
        )
    }

    #[test]
    fn resume_from_every_boundary_matches_from_scratch() {
        let reg = Rc::new(registry());
        let mut vm = Vm::from_shared_registry(reg);

        // Recording run, checkpointing at every op boundary.
        type CkptLog = Rc<RefCell<Vec<(usize, Rc<VmCheckpoint>)>>>;
        let ckpts: CkptLog = Rc::default();
        vm.start_recording();
        {
            let ckpts = Rc::clone(&ckpts);
            vm.set_boundary_probe(Some(Box::new(move |vm, n| {
                ckpts.borrow_mut().push((n, Rc::new(vm.checkpoint())));
            })));
        }
        drive(&mut vm);
        let ops = Rc::new(vm.finish_recording().expect("recording was active"));
        let recorded = state(&vm);
        assert!(!ops.is_empty());
        assert_eq!(ckpts.borrow().len(), ops.len());

        // From-scratch reference on the recycled VM.
        vm.reset_for_run();
        drive(&mut vm);
        let scratch = state(&vm);
        assert_eq!(scratch, recorded, "recording must not perturb the run");

        // Resume from every boundary except the one after the final op (a
        // full-log checkpoint has no tail to go live in; schedulers never
        // select one).
        for (switch, ckpt) in ckpts.borrow().iter() {
            if *switch == ops.len() {
                continue;
            }
            vm.reset_for_run();
            vm.begin_replay(Rc::clone(&ops), *switch, Rc::clone(ckpt));
            drive(&mut vm);
            assert!(!vm.replay_active(), "switch {switch} reached live tail");
            assert_eq!(state(&vm), scratch, "resume at op {switch} diverged");
        }
    }

    #[test]
    fn driver_finishing_mid_replay_is_detectable() {
        let reg = Rc::new(registry());
        let mut vm = Vm::from_shared_registry(reg);
        vm.start_recording();
        drive(&mut vm);
        let ops = Rc::new(vm.finish_recording().unwrap());
        let full = Rc::new(vm.checkpoint());

        vm.reset_for_run();
        vm.begin_replay(Rc::clone(&ops), ops.len(), full);
        drive(&mut vm);
        assert!(
            vm.replay_active(),
            "the whole run replayed without going live"
        );
        vm.clear_replay();
        assert!(!vm.replay_active());
    }

    #[test]
    fn replay_mismatch_panics_with_the_sentinel() {
        let reg = Rc::new(registry());
        let mut vm = Vm::from_shared_registry(reg);
        vm.start_recording();
        drive(&mut vm);
        let ops = Rc::new(vm.finish_recording().unwrap());
        let ckpt = Rc::new(vm.checkpoint());

        // The recording starts with a construct; issuing a different class
        // name must trip the key validator.
        assert_replay_mismatch(&mut vm, &ops, ckpt, |d| {
            let _ = d.construct("Nope", &[]);
        });
    }

    /// Replays `ops` under `drive` and requires the determinism guard to
    /// trip: a panic carrying [`REPLAY_MISMATCH`] that disarms replay.
    fn assert_replay_mismatch(
        vm: &mut Vm,
        ops: &Rc<Vec<OpRecord>>,
        ckpt: Rc<VmCheckpoint>,
        drive: impl FnOnce(&mut Driver<'_>),
    ) {
        vm.reset_for_run();
        vm.begin_replay(Rc::clone(ops), ops.len(), ckpt);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&mut Driver::new(vm));
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(REPLAY_MISMATCH), "got: {msg}");
        assert!(!vm.replay_active(), "mismatch disarms replay");
    }

    #[test]
    fn call_and_absorbed_call_do_not_replay_each_other() {
        let reg = Rc::new(registry());
        let mut vm = Vm::from_shared_registry(reg);
        vm.start_recording();
        drive(&mut vm);
        let ops = Rc::new(vm.finish_recording().unwrap());
        let ckpt = Rc::new(vm.checkpoint());
        // Op 2 is `fail`, recorded as absorbed: the same key issued as a
        // plain call must not get the dropped result back.
        assert!(matches!(ops[2].result(), OpResult::Dropped));
        assert_replay_mismatch(&mut vm, &ops, Rc::clone(&ckpt), |d| {
            let c = d.construct("Counter", &[Value::Int(3)]).unwrap();
            d.call(c, "increment", &[]).unwrap();
            let _ = d.call(c, "fail", &[]);
        });
        // Op 1 is `increment`, recorded with its result: absorbing it
        // instead must trip the guard too.
        assert!(matches!(ops[1].result(), OpResult::Method(Ok(_))));
        assert_replay_mismatch(&mut vm, &ops, ckpt, |d| {
            let c = d.construct("Counter", &[Value::Int(3)]).unwrap();
            d.call_absorbed(c, "increment", &[]);
        });
    }

    #[test]
    fn restore_accounts_fuel_against_the_current_budget() {
        let reg = Rc::new(registry());
        let mut vm = Vm::from_shared_registry(reg);
        vm.set_budget(crate::Budget::fuel(10_000));
        drive(&mut vm);
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
