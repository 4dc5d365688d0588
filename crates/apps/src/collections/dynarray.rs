//! The `Dynarray` application: a growable array.
//!
//! The managed runtime has no variable-length arrays, so storage is a chain
//! of `Slot` cells managed by capacity — the observable behaviour (indexed
//! access, amortized growth, shifting inserts/removes) matches a classic
//! `Dynarray`.

use crate::util::{int, rooted};
use atomask_mor::{
    Ctx, Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value,
};

use super::linked_list::INDEX_OOB;

fn register(rb: &mut RegistryBuilder) {
    rb.class("Slot", |c| {
        c.field("value", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("value", |ctx, this, _| Ok(ctx.get(this, "value")));
        c.method("setValue", |ctx, this, args| {
            ctx.set(this, "value", args[0].clone());
            Ok(Value::Null)
        });
        c.method("next", |ctx, this, _| Ok(ctx.get(this, "next")));
        c.method("setNext", |ctx, this, args| {
            ctx.set(this, "next", args[0].clone());
            Ok(Value::Null)
        });
    });
    rb.class("Dynarray", |c| {
        c.field("slots", Value::Null);
        c.field("size", int(0));
        c.field("capacity", int(0));
        c.ctor(|ctx, this, args| {
            let cap = args.first().and_then(Value::as_int).unwrap_or(4);
            ctx.call(this, "ensureCapacity", &[int(cap)])?;
            Ok(Value::Null)
        });
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
            .never_throws();
        c.method("capacity", |ctx, this, _| Ok(ctx.get(this, "capacity")));
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "size") == 0))
        });
        // Grows the slot chain. Vulnerable order: capacity is bumped before
        // the slots exist, one at a time.
        c.method("ensureCapacity", |ctx, this, args| {
            let want = args[0].as_int().unwrap_or(0);
            loop {
                let cap = ctx.get_int(this, "capacity");
                if cap >= want {
                    return Ok(Value::Null);
                }
                ctx.set(this, "capacity", int(cap + 1));
                let slot = ctx.new_object("Slot", &[])?;
                let slots = ctx.get(this, "slots");
                if slots.is_null() {
                    ctx.set(this, "slots", Value::Ref(slot));
                } else {
                    let last = last_slot(ctx, slots)?;
                    ctx.call_value(&last, "setNext", &[Value::Ref(slot)])?;
                }
            }
        });
        c.method("at", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            if i < 0 || i >= ctx.get_int(this, "size") {
                return Err(ctx.exception(INDEX_OOB, format!("index {i}")));
            }
            let slot = slot_at(ctx, this, i)?;
            ctx.call_value(&slot, "value", &[])
        })
        .throws(INDEX_OOB);
        c.method("setAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            if i < 0 || i >= ctx.get_int(this, "size") {
                return Err(ctx.exception(INDEX_OOB, format!("setAt {i}")));
            }
            let slot = slot_at(ctx, this, i)?;
            ctx.call_value(&slot, "setValue", &[args[1].clone()])
        })
        .throws(INDEX_OOB);
        // Vulnerable order: size is bumped before growth and the store.
        c.method("append", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size + 1));
            ctx.call(this, "ensureCapacity", &[int(size + 1)])?;
            let slot = slot_at(ctx, this, size)?;
            ctx.call_value(&slot, "setValue", &[args[0].clone()])
        });
        // Shifts elements right from the end — a long multi-step mutation.
        c.method("insertAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || i > size {
                return Err(ctx.exception(INDEX_OOB, format!("insertAt {i}")));
            }
            ctx.call(this, "append", &[Value::Null])?;
            let mut k = size;
            while k > i {
                let prev = ctx.call(this, "at", &[int(k - 1)])?;
                ctx.call(this, "setAt", &[int(k), prev])?;
                k -= 1;
            }
            ctx.call(this, "setAt", &[int(i), args[1].clone()])?;
            Ok(Value::Null)
        })
        .throws(INDEX_OOB);
        c.method("removeAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || i >= size {
                return Err(ctx.exception(INDEX_OOB, format!("removeAt {i}")));
            }
            let victim = ctx.call(this, "at", &[int(i)])?;
            let mut k = i;
            while k < size - 1 {
                let next = ctx.call(this, "at", &[int(k + 1)])?;
                ctx.call(this, "setAt", &[int(k), next])?;
                k += 1;
            }
            // Clear the vacated slot, then shrink.
            ctx.call(this, "setAt", &[int(size - 1), Value::Null])?;
            ctx.set(this, "size", int(size - 1));
            Ok(victim)
        })
        .throws(INDEX_OOB);
        c.method("indexOf", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            for i in 0..size {
                let v = ctx.call(this, "at", &[int(i)])?;
                if v == args[0] {
                    return Ok(int(i));
                }
            }
            Ok(int(-1))
        })
        .throws(INDEX_OOB);
        c.method("contains", |ctx, this, args| {
            let idx = ctx.call(this, "indexOf", args)?;
            Ok(Value::Bool(idx.as_int().unwrap_or(-1) >= 0))
        })
        .throws(INDEX_OOB);
        c.method("fill", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            for i in 0..size {
                ctx.call(this, "setAt", &[int(i), args[0].clone()])?;
            }
            Ok(Value::Null)
        })
        .throws(INDEX_OOB);
        c.method("clear", |ctx, this, _| {
            ctx.set(this, "size", int(0));
            Ok(Value::Null)
        });
        // Drops unused trailing slots. Vulnerable: capacity written before
        // the chain is actually cut.
        c.method("trimToSize", |ctx, this, _| {
            let size = ctx.get_int(this, "size");
            ctx.set(this, "capacity", int(size));
            if size == 0 {
                ctx.set(this, "slots", Value::Null);
                return Ok(Value::Null);
            }
            let slots = ctx.get(this, "slots");
            let last = nth_slot(ctx, slots, size - 1)?;
            ctx.call_value(&last, "setNext", &[Value::Null])?;
            Ok(Value::Null)
        });
    });
}

fn last_slot(ctx: &mut Ctx<'_>, first: Value) -> MethodResult {
    let mut cur = first;
    loop {
        let next = ctx.call_value(&cur, "next", &[])?;
        if next.is_null() {
            return Ok(cur);
        }
        cur = next;
    }
}

fn nth_slot(ctx: &mut Ctx<'_>, first: Value, n: i64) -> MethodResult {
    let mut cur = first;
    for _ in 0..n {
        cur = ctx.call_value(&cur, "next", &[])?;
    }
    Ok(cur)
}

fn slot_at(ctx: &mut Ctx<'_>, this: atomask_mor::ObjId, i: i64) -> MethodResult {
    let slots = ctx.get(this, "slots");
    nth_slot(ctx, slots, i)
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let arr = rooted(d, "Dynarray", &[int(2)])?;
    let a = arr.as_ref_id().expect("ref");
    for i in 0..6 {
        d.call(a, "append", &[int(i * 10)])?;
    }
    d.call_absorbed(a, "insertAt", &[int(2), int(99)]);
    d.call_absorbed(a, "removeAt", &[int(4)]);
    d.call_absorbed(a, "setAt", &[int(0), int(-1)]);
    d.call_absorbed(a, "trimToSize", &[]);
    for _ in 0..3 {
        for i in 0..6 {
            d.call_absorbed(a, "at", &[int(i)]);
        }
        d.call_absorbed(a, "contains", &[int(30)]);
        d.call_absorbed(a, "indexOf", &[int(99)]);
        d.call_absorbed(a, "size", &[]);
        d.call_absorbed(a, "capacity", &[]);
        d.call_absorbed(a, "isEmpty", &[]);
    }
    d.call_absorbed(a, "fill", &[int(7)]);
    // Error paths.
    d.call_absorbed(a, "at", &[int(50)]);
    d.call_absorbed(a, "removeAt", &[int(-3)]);
    d.call_absorbed(a, "clear", &[]);
    d.call_absorbed(a, "isEmpty", &[]);
    Ok(Value::Null)
}

/// The `Dynarray` program.
pub fn program() -> FnProgram {
    FnProgram::new("Dynarray", build_registry, driver)
}

/// Builds the program's registry.
pub fn build_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    register(&mut rb);
    rb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::{ObjId, Program, Vm};

    fn fresh() -> (Vm, ObjId) {
        let mut vm = Vm::new(build_registry());
        let a = vm.construct("Dynarray", &[int(2)]).unwrap();
        vm.root(a);
        (vm, a)
    }

    fn contents(vm: &mut Vm, a: ObjId) -> Vec<i64> {
        let size = vm.heap().field(a, "size").unwrap().as_int().unwrap();
        (0..size)
            .map(|i| vm.call(a, "at", &[int(i)]).unwrap().as_int().unwrap())
            .collect()
    }

    #[test]
    fn append_grows_capacity() {
        let (mut vm, a) = fresh();
        for i in 0..5 {
            vm.call(a, "append", &[int(i)]).unwrap();
        }
        assert_eq!(contents(&mut vm, a), vec![0, 1, 2, 3, 4]);
        let cap = vm.call(a, "capacity", &[]).unwrap().as_int().unwrap();
        assert!(cap >= 5);
    }

    #[test]
    fn insert_and_remove_shift() {
        let (mut vm, a) = fresh();
        for i in 0..4 {
            vm.call(a, "append", &[int(i)]).unwrap();
        }
        vm.call(a, "insertAt", &[int(1), int(9)]).unwrap();
        assert_eq!(contents(&mut vm, a), vec![0, 9, 1, 2, 3]);
        assert_eq!(vm.call(a, "removeAt", &[int(2)]).unwrap(), int(1));
        assert_eq!(contents(&mut vm, a), vec![0, 9, 2, 3]);
    }

    #[test]
    fn set_fill_trim() {
        let (mut vm, a) = fresh();
        for i in 0..3 {
            vm.call(a, "append", &[int(i)]).unwrap();
        }
        vm.call(a, "setAt", &[int(1), int(42)]).unwrap();
        assert_eq!(contents(&mut vm, a), vec![0, 42, 2]);
        vm.call(a, "fill", &[int(5)]).unwrap();
        assert_eq!(contents(&mut vm, a), vec![5, 5, 5]);
        vm.call(a, "trimToSize", &[]).unwrap();
        assert_eq!(vm.call(a, "capacity", &[]).unwrap(), int(3));
    }

    #[test]
    fn bounds_are_enforced() {
        let (mut vm, a) = fresh();
        vm.call(a, "append", &[int(1)]).unwrap();
        let err = vm.call(a, "at", &[int(5)]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), INDEX_OOB);
        assert!(vm.call(a, "insertAt", &[int(9), int(0)]).is_err());
        assert!(vm.call(a, "removeAt", &[int(-1)]).is_err());
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
