//! The driver's handle on a VM: the top-level operations a [`Program`]
//! issues, and the one place where a run records or resumes them (see
//! [`crate::resume`]).
//!
//! [`Program`]: crate::Program

use crate::exception::{Exception, MethodResult};
use crate::ids::ObjId;
use crate::resume::{OpKey, OpRecord, OpResult, ResumeMismatch, VmCheckpoint};
use crate::value::Value;
use crate::vm::Vm;

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
pub struct Driver<'a> {
    vm: &'a mut Vm,
    session: Session<'a>,
}

/// What one run does with the ops its driver issues. Set when the run
/// starts ([`crate::Program::run`], [`crate::Program::record`],
/// [`crate::Program::resume_from`]) and gone with the [`Driver`] when the
/// run ends, by return or by unwind.
pub(crate) enum Session<'a> {
    /// Every op executes; nothing is logged.
    Live,
    /// Every op executes and is logged; `at_boundary` then sees the VM
    /// quiescent between two ops, with the count of ops logged so far.
    Recording {
        log: Vec<OpRecord>,
        at_boundary: &'a mut dyn FnMut(&Vm, usize),
    },
    /// Ops `cursor..switch` of `ops` still replay; reaching `switch`
    /// restores `checkpoint` and turns the session [`Session::Live`].
    Resuming {
        ops: &'a [OpRecord],
        cursor: usize,
        switch: usize,
        checkpoint: &'a VmCheckpoint,
    },
}

impl<'a> Driver<'a> {
    pub(crate) fn new(vm: &'a mut Vm, session: Session<'a>) -> Self {
        Driver { vm, session }
    }

    /// The op log of a recording session (empty for any other).
    pub(crate) fn into_log(self) -> Vec<OpRecord> {
        match self.session {
            Session::Recording { log, .. } => log,
            _ => Vec::new(),
        }
    }

    /// `Err` if a resuming session is still short of its switch op: the
    /// driver returned before the run went live.
    pub(crate) fn went_live(&self) -> Result<(), ResumeMismatch> {
        match self.session {
            Session::Resuming { cursor, .. } => Err(ResumeMismatch {
                op: cursor,
                issued: None,
            }),
            _ => Ok(()),
        }
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
        if self.replay_cursor().is_none() {
            self.vm.root(id);
        }
    }

    /// One op: the recorded result while the prefix replays, otherwise
    /// `live`, logged through `record` when the session records.
    /// `replayed` reads a recorded result back; one of another kind is a
    /// mismatch, like a different key. A mismatch unwinds with a
    /// [`ResumeMismatch`] payload, which [`crate::Program::resume_from`]
    /// turns into its `Err`.
    fn op<T: Clone>(
        &mut self,
        key: impl Fn() -> OpKey,
        live: impl FnOnce(&mut Vm) -> T,
        record: impl FnOnce(T) -> OpResult,
        replayed: impl FnOnce(&OpResult) -> Option<T>,
    ) -> T {
        if let Some((ops, cursor)) = self.replay_cursor() {
            let rec = &ops[*cursor];
            if let Some(out) = (*rec.key() == key())
                .then(|| replayed(rec.result()))
                .flatten()
            {
                *cursor += 1;
                return out;
            }
            std::panic::panic_any(ResumeMismatch {
                op: *cursor,
                issued: Some(key()),
            });
        }
        let out = live(self.vm);
        if let Session::Recording { log, at_boundary } = &mut self.session {
            log.push(OpRecord::new(key(), record(out.clone())));
            at_boundary(self.vm, log.len());
        }
        out
    }

    /// The recorded ops and the replay cursor while a resuming session is
    /// short of its switch op. Reaching the switch restores the checkpoint
    /// and turns the session live, so everything from there on executes.
    fn replay_cursor(&mut self) -> Option<(&'a [OpRecord], &mut usize)> {
        if let Session::Resuming {
            cursor,
            switch,
            checkpoint,
            ..
        } = self.session
        {
            if cursor == switch {
                self.session = Session::Live;
                self.vm.restore(checkpoint);
            }
        }
        match &mut self.session {
            Session::Resuming { ops, cursor, .. } => Some((*ops, cursor)),
            _ => None,
        }
    }
}
