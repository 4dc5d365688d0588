//! Guest programs: the unit the detection campaign instruments and re-runs.
//!
//! A [`Program`] bundles a registry factory with a driver. The detection
//! phase (steps 1–3 of the paper's Fig. 1) executes the driver once per
//! potential injection point on a **fresh VM each run**, so programs must be
//! deterministic given their construction parameters.

use crate::driver::{Driver, Session};
use crate::exception::MethodResult;
use crate::registry::Registry;
use crate::resume::{OpRecord, ResumeMismatch, VmCheckpoint};
use crate::vm::Vm;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A deterministic guest program.
///
/// Programs are `Sync` because a detection campaign shards its injection
/// points across worker threads, each of which calls
/// [`Program::build_registry`] to get a private single-threaded VM
/// universe. The *registry* and *VM* stay thread-local (method bodies are
/// `Rc`-shared closures); only the program value itself is shared.
pub trait Program: Sync {
    /// Program name, used in reports (e.g. `"LinkedList"`).
    fn name(&self) -> &str;

    /// Builds the program's registry (classes, methods, exceptions,
    /// profile). Called once per run.
    fn build_registry(&self) -> Registry;

    /// Drives the workload through `d`, the driver's only handle on the
    /// VM. Guest exceptions escaping to the top level (e.g. injected ones)
    /// are returned as `Err` — that is a normal campaign outcome, not a
    /// harness failure.
    fn drive(&self, d: &mut Driver<'_>) -> MethodResult;

    /// Runs the driver on `vm`: the entry point of harnesses and tests.
    fn run(&self, vm: &mut Vm) -> MethodResult {
        self.drive(&mut Driver::new(vm, Session::Live))
    }

    /// Runs the driver on `vm` and records the ops it issues (see
    /// [`crate::resume`]). Recording changes nothing observable about the
    /// run. `at_boundary` is called after every op with the VM quiescent
    /// and the count of ops recorded so far — the place to capture
    /// [`Vm::checkpoint`]s.
    fn record(
        &self,
        vm: &mut Vm,
        at_boundary: &mut dyn FnMut(&Vm, usize),
    ) -> (MethodResult, Vec<OpRecord>) {
        let mut d = Driver::new(
            vm,
            Session::Recording {
                log: Vec::new(),
                at_boundary,
            },
        );
        let result = self.drive(&mut d);
        (result, d.into_log())
    }

    /// Runs the driver on `vm` (freshly reset), replaying `ops[..switch]`
    /// from a recording of this program, then restoring `checkpoint` —
    /// captured at the boundary with `switch` ops recorded — and running
    /// the rest live.
    ///
    /// # Errors
    ///
    /// [`ResumeMismatch`] if the driver issues an op the recording does
    /// not hold there, or returns before reaching the switch. A panic of
    /// the run itself propagates as a panic.
    ///
    /// # Panics
    ///
    /// Panics if `switch` exceeds the length of `ops`.
    fn resume_from(
        &self,
        vm: &mut Vm,
        ops: &[OpRecord],
        switch: usize,
        checkpoint: &VmCheckpoint,
    ) -> Result<MethodResult, ResumeMismatch> {
        assert!(switch <= ops.len(), "resume switch beyond the op log");
        let mut d = Driver::new(
            vm,
            Session::Resuming {
                ops,
                cursor: 0,
                switch,
                checkpoint,
            },
        );
        // A mismatch unwinds out of the driver with a typed payload; the
        // session unwinds with it, and every other panic goes on up.
        let result = catch_unwind(AssertUnwindSafe(|| self.drive(&mut d))).map_err(|payload| {
            match payload.downcast::<ResumeMismatch>() {
                Ok(mismatch) => *mismatch,
                Err(other) => resume_unwind(other),
            }
        })?;
        d.went_live()?;
        Ok(result)
    }
}

/// A [`Program`] assembled from closures — convenient for tests and small
/// workloads.
///
/// ```
/// use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value, Program};
///
/// let p = FnProgram::new(
///     "trivial",
///     || {
///         let mut rb = RegistryBuilder::new(Profile::java());
///         rb.class("A", |c| {
///             c.method("m", |_, _, _| Ok(Value::Null));
///         });
///         rb.build()
///     },
///     |d| {
///         let a = d.construct("A", &[])?;
///         d.root(a);
///         d.call(a, "m", &[])
///     },
/// );
/// let mut vm = atomask_mor::Vm::new(p.build_registry());
/// assert!(p.run(&mut vm).is_ok());
/// ```
pub struct FnProgram {
    name: String,
    build: Box<dyn Fn() -> Registry + Send + Sync>,
    drive: Box<dyn Fn(&mut Driver<'_>) -> MethodResult + Send + Sync>,
}

impl FnProgram {
    /// Creates a program from a name, a registry factory and a driver.
    ///
    /// Both closures must be `Send + Sync` (see [`Program`]): campaign
    /// workers call them from their own threads. Closures capturing only
    /// owned data (or nothing) satisfy this automatically.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn() -> Registry + Send + Sync + 'static,
        drive: impl Fn(&mut Driver<'_>) -> MethodResult + Send + Sync + 'static,
    ) -> Self {
        FnProgram {
            name: name.into(),
            build: Box::new(build),
            drive: Box::new(drive),
        }
    }
}

impl Program for FnProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn build_registry(&self) -> Registry {
        (self.build)()
    }

    fn drive(&self, d: &mut Driver<'_>) -> MethodResult {
        (self.drive)(d)
    }
}

impl std::fmt::Debug for FnProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnProgram")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::registry::RegistryBuilder;
    use crate::value::Value;

    fn trivial() -> FnProgram {
        FnProgram::new(
            "trivial",
            || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.class("A", |c| {
                    c.field("x", Value::Int(0));
                    c.method("bump", |ctx, this, _| {
                        let v = ctx.get_int(this, "x");
                        ctx.set(this, "x", Value::Int(v + 1));
                        Ok(Value::Null)
                    });
                });
                rb.build()
            },
            |d| {
                let a = d.construct("A", &[])?;
                d.root(a);
                d.call(a, "bump", &[])?;
                d.call(a, "bump", &[])
            },
        )
    }

    #[test]
    fn fn_program_runs_deterministically() {
        let p = trivial();
        for _ in 0..3 {
            let mut vm = Vm::new(p.build_registry());
            p.run(&mut vm).unwrap();
            assert_eq!(vm.stats().total_calls(), 2);
        }
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(trivial().name(), "trivial");
        assert!(format!("{:?}", trivial()).contains("trivial"));
    }
}
