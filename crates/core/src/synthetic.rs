//! Synthetic benchmark programs (§6 of the paper).
//!
//! The paper first validates its tool on synthetic applications that
//! "contain the various combinations of (pure/conditional) failure
//! (non-)atomic methods that may be encountered in real applications".
//! [`validation_program`] is that benchmark with a machine-checkable
//! [`ground_truth`]; [`perf_registry`]/[`perf_vm`] build the parameterizable workload used
//! by the Fig. 5 overhead measurements.

use atomask_inject::Verdict;
use atomask_mor::{FnProgram, Profile, Registry, RegistryBuilder, Value, Vm};

/// The validation benchmark: one class exhibiting every combination the
/// classifier must distinguish.
///
/// Ground truth (see [`ground_truth`]):
///
/// | method | verdict | why |
/// |---|---|---|
/// | `Probe::readOnly` | atomic | no mutation at all |
/// | `Probe::mutateClean` | atomic | calls first, field writes last |
/// | `Probe::mutateDirty` | pure non-atomic | field write, then a callee that may throw |
/// | `Probe::restoreTooLate` | pure non-atomic | mutates and restores around a call |
/// | `Probe::delegate` | conditional | no own work before delegating to `mutateDirty` |
/// | `Probe::deepDelegate` | conditional | delegates to `delegate` |
/// | `Probe::helper` | atomic | leaf, mutates nothing |
pub fn validation_program() -> FnProgram {
    FnProgram::new("synthetic-validation", validation_registry, |d| {
        let p = d.construct("Probe", &[])?;
        d.root(p);
        d.call(p, "readOnly", &[])?;
        d.call(p, "mutateClean", &[Value::Int(7)])?;
        d.call(p, "mutateDirty", &[Value::Int(8)])?;
        d.call(p, "restoreTooLate", &[])?;
        d.call(p, "delegate", &[Value::Int(9)])?;
        d.call(p, "deepDelegate", &[Value::Int(10)])?;
        d.call(p, "readOnly", &[])
    })
}

/// The expected verdict for every method of [`validation_program`].
pub fn ground_truth() -> Vec<(&'static str, Verdict)> {
    use Verdict::*;
    vec![
        ("Probe::readOnly", FailureAtomic),
        ("Probe::mutateClean", FailureAtomic),
        ("Probe::mutateDirty", PureNonAtomic),
        ("Probe::restoreTooLate", PureNonAtomic),
        ("Probe::delegate", ConditionalNonAtomic),
        ("Probe::deepDelegate", ConditionalNonAtomic),
        ("Probe::helper", FailureAtomic),
    ]
}

fn validation_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    rb.class("Probe", |c| {
        c.field("state", Value::Int(0));
        c.field("aux", Value::Int(0));
        c.method("readOnly", |ctx, this, _| Ok(ctx.get(this, "state")));
        c.method("helper", |_, _, _| Ok(Value::Null));
        c.method("mutateClean", |ctx, this, args| {
            ctx.call(this, "helper", &[])?;
            ctx.set(this, "state", args[0].clone());
            Ok(Value::Null)
        });
        c.method("mutateDirty", |ctx, this, args| {
            ctx.set(this, "aux", args[0].clone());
            ctx.call(this, "helper", &[])?;
            ctx.set(this, "state", args[0].clone());
            Ok(Value::Null)
        });
        c.method("restoreTooLate", |ctx, this, _| {
            let old = ctx.get(this, "state");
            ctx.set(this, "state", Value::Int(-1));
            ctx.call(this, "helper", &[])?;
            ctx.set(this, "state", old);
            Ok(Value::Null)
        });
        c.method("delegate", |ctx, this, args| {
            ctx.call(this, "mutateDirty", args)
        });
        c.method("deepDelegate", |ctx, this, args| {
            ctx.call(this, "delegate", args)
        });
    });
    rb.build()
}

/// Bytes carried by one chunk of the Fig. 5 payload chain.
const CHUNK_BYTES: usize = 64;

/// Builds the Fig. 5 performance workload registry: a `Holder` whose
/// `payload` weighs `object_bytes`, with a `work` method whose body
/// performs a fixed amount of field traffic (the paper's ≈0.5 µs base
/// method).
///
/// The payload is a chain of fixed-size `Chunk` objects rather than one
/// big string: string storage is shared (`Rc<str>`), so copying a string
/// value is a refcount bump no matter its length, and a checkpoint's cost
/// scales with the number of *objects* it captures. The chain keeps
/// Fig. 5's object-size axis meaningful under that representation.
pub fn perf_registry(object_bytes: usize) -> Registry {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    rb.class("Chunk", |c| {
        c.field("data", Value::from(""));
        c.field("next", Value::Null);
    });
    rb.class("Holder", |c| {
        c.field("payload", Value::Null);
        c.field("a", Value::Int(0));
        c.field("b", Value::Int(0));
        c.ctor(move |ctx, this, _| {
            let mut head = Value::Null;
            for _ in 0..object_bytes.div_ceil(CHUNK_BYTES).max(1) {
                let chunk = ctx.alloc("Chunk");
                ctx.set(chunk, "data", Value::from("x".repeat(CHUNK_BYTES)));
                ctx.set(chunk, "next", head);
                head = Value::Ref(chunk);
            }
            ctx.set(this, "payload", head);
            Ok(Value::Null)
        });
        // The base method: a handful of reads/writes, no nested calls.
        c.method("work", |ctx, this, _| {
            let mut a = ctx.get_int(this, "a");
            let b = ctx.get_int(this, "b");
            for i in 0..8 {
                a = a.wrapping_mul(31).wrapping_add(b + i);
            }
            ctx.set(this, "a", Value::Int(a));
            ctx.set(this, "b", Value::Int(b + 1));
            Ok(Value::Int(a))
        });
        // Identical body under a second name, so masking can wrap a
        // controlled *fraction* of the calls.
        c.method("workWrapped", |ctx, this, _| {
            let mut a = ctx.get_int(this, "a");
            let b = ctx.get_int(this, "b");
            for i in 0..8 {
                a = a.wrapping_mul(31).wrapping_add(b + i);
            }
            ctx.set(this, "a", Value::Int(a));
            ctx.set(this, "b", Value::Int(b + 1));
            Ok(Value::Int(a))
        });
    });
    rb.build()
}

/// Creates a VM with a rooted `Holder` for the Fig. 5 workload.
pub fn perf_vm(object_bytes: usize) -> (Vm, atomask_mor::ObjId) {
    let mut vm = Vm::new(perf_registry(object_bytes));
    let h = vm.construct("Holder", &[]).expect("ctor cannot fail");
    vm.root(h);
    (vm, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::Program;

    #[test]
    fn validation_driver_is_clean() {
        let p = validation_program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }

    #[test]
    fn ground_truth_covers_every_probe_method() {
        let reg = validation_registry();
        let probe = reg.class_by_name("Probe").unwrap();
        assert_eq!(ground_truth().len(), probe.methods.len());
    }

    #[test]
    fn perf_holder_has_requested_weight() {
        let (vm, h) = perf_vm(4096);
        let size = atomask_objgraph::graph_size(vm.heap(), h);
        assert!(size.bytes >= 4096, "payload bytes {}", size.bytes);
    }

    #[test]
    fn perf_work_methods_mutate_deterministically() {
        let (mut vm, h) = perf_vm(16);
        let a1 = vm.call(h, "work", &[]).unwrap();
        let (mut vm2, h2) = perf_vm(16);
        let a2 = vm2.call(h2, "work", &[]).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(vm.heap().field(h, "b"), Some(Value::Int(1)));
    }
}
