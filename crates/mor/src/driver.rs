//! The driver's handle on a VM: the top-level operations a [`Program`]
//! issues, and the one place where checkpoint-resume records and replays
//! them (see [`crate::resume`]).
//!
//! [`Program`]: crate::Program

use crate::exception::{Exception, MethodResult};
use crate::ids::ObjId;
use crate::resume::{OpKey, OpRecord, OpResult, REPLAY_MISMATCH};
use crate::value::Value;
use crate::vm::Vm;
use std::rc::Rc;

/// The handle through which a [`crate::Program`] drives the VM.
///
/// It exposes only the top-level operations a driver needs: construct
/// objects, root them, call methods and read fields. While a resumed run
/// replays its recorded prefix the heap is empty, and each operation
/// returns its recorded result instead of executing. The handle offers no
/// other way into the VM, so a driver cannot touch the heap behind
/// replay's back:
///
/// ```compile_fail
/// fn peek(d: &mut atomask_mor::Driver<'_>) { d.heap(); }
/// ```
/// ```compile_fail
/// fn poke(d: &mut atomask_mor::Driver<'_>) { d.heap_mut(); }
/// ```
/// ```compile_fail
/// fn look_up(d: &mut atomask_mor::Driver<'_>) { d.registry(); }
/// ```
#[derive(Debug)]
pub struct Driver<'vm> {
    vm: &'vm mut Vm,
}

impl<'vm> Driver<'vm> {
    pub(crate) fn new(vm: &'vm mut Vm) -> Self {
        Driver { vm }
    }

    /// Constructs an instance of `class_name` (see [`Vm::construct`]).
    ///
    /// # Errors
    ///
    /// Propagates any guest exception thrown (or injected) by the
    /// constructor.
    pub fn construct(&mut self, class_name: &str, args: &[Value]) -> Result<ObjId, Exception> {
        let key = || OpKey::Construct {
            class: class_name.to_owned(),
        };
        let live = |vm: &mut Vm| vm.construct(class_name, args);
        self.op(key, live, OpResult::Construct, |r| match r {
            OpResult::Construct(r) => Some(r.clone()),
            _ => None,
        })
    }

    /// Calls `method` on `recv` (see [`Vm::call`]).
    ///
    /// # Errors
    ///
    /// Propagates the guest exception if the callee throws (or an
    /// exception is injected).
    pub fn call(&mut self, recv: ObjId, method: &str, args: &[Value]) -> MethodResult {
        let key = || OpKey::Call {
            recv,
            method: method.to_owned(),
        };
        let live = |vm: &mut Vm| vm.call(recv, method, args);
        self.op(key, live, OpResult::Method, |r| match r {
            OpResult::Method(r) => Some(r.clone()),
            _ => None,
        })
    }

    /// [`Driver::call`] for a scripted step whose guest exceptions
    /// (expected failures and, during campaigns, injected ones) the driver
    /// absorbs before carrying on — the exception handling path the paper
    /// stresses. The result is dropped, and so is the recording's copy.
    pub fn call_absorbed(&mut self, recv: ObjId, method: &str, args: &[Value]) {
        let key = || OpKey::Call {
            recv,
            method: method.to_owned(),
        };
        let live = |vm: &mut Vm| drop(vm.call(recv, method, args));
        self.op(
            key,
            live,
            |()| OpResult::Dropped,
            |r| matches!(r, OpResult::Dropped).then_some(()),
        );
    }

    /// Reads a field without charging fuel: `None` if `id` is dead or has
    /// no such field.
    pub fn field(&mut self, id: ObjId, name: &str) -> Option<Value> {
        let key = || OpKey::Field {
            recv: id,
            field: name.to_owned(),
        };
        let live = |vm: &mut Vm| vm.heap().field(id, name);
        self.op(key, live, OpResult::Field, |r| match r {
            OpResult::Field(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// Adds a persistent root: the driver holds `id` across reclamation
    /// points. Not an op of its own: while the prefix replays, the
    /// checkpoint restored at the switch already holds the roots taken
    /// before it, and a root taken after the last replayed op is what
    /// switches the run to live.
    pub fn root(&mut self, id: ObjId) {
        if !self.replaying() {
            self.vm.root(id);
        }
    }

    /// One op: the recorded result while the prefix replays, otherwise
    /// `live`, logged through `record` when a recording is on. `replayed`
    /// reads a recorded result back; one of another kind is a mismatch,
    /// like a different key.
    fn op<T: Clone>(
        &mut self,
        key: impl Fn() -> OpKey,
        live: impl FnOnce(&mut Vm) -> T,
        record: impl FnOnce(T) -> OpResult,
        replayed: impl FnOnce(&OpResult) -> Option<T>,
    ) -> T {
        if self.replaying() {
            return self.next_recorded(key(), replayed);
        }
        let out = live(self.vm);
        if let Some(log) = &mut self.vm.op_log {
            log.push(OpRecord::new(key(), record(out.clone())));
            // The boundary probe sees the VM quiescent between two ops.
            let ops_done = log.len();
            if let Some(mut probe) = self.vm.boundary_probe.take() {
                probe(self.vm, ops_done);
                // A probe installed mid-probe would be a re-entrancy bug;
                // keep the original unless the probe replaced itself.
                if self.vm.boundary_probe.is_none() {
                    self.vm.boundary_probe = Some(probe);
                }
            }
        }
        out
    }

    /// `true` while a replay is armed and short of its switch op. Reaching
    /// the switch restores the paired checkpoint and disarms replay, so
    /// everything from there on runs live.
    fn replaying(&mut self) -> bool {
        let Some(rs) = &self.vm.replay else {
            return false;
        };
        if rs.cursor < rs.switch {
            return true;
        }
        let ckpt = Rc::clone(&rs.checkpoint);
        self.vm.replay = None;
        self.vm.restore(&ckpt);
        false
    }

    /// Validates `key` against the next recorded op and returns its
    /// result. Panics with [`REPLAY_MISMATCH`] in the message, after
    /// disarming replay, if the op does not match the recording.
    fn next_recorded<T>(&mut self, key: OpKey, replayed: impl FnOnce(&OpResult) -> Option<T>) -> T {
        let rs = self.vm.replay.as_mut().expect("replay is armed");
        let rec = &rs.ops[rs.cursor];
        if let Some(out) = (*rec.key() == key)
            .then(|| replayed(rec.result()))
            .flatten()
        {
            rs.cursor += 1;
            return out;
        }
        let msg = format!(
            "{REPLAY_MISMATCH}: op {} was recorded as {:?} -> {:?} but the driver issued {key:?}",
            rs.cursor,
            rec.key(),
            rec.result(),
        );
        self.vm.replay = None;
        panic!("{msg}");
    }
}
