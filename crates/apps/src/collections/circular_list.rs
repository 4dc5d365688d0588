//! The `CircularList` application: a circular doubly-linked list in the
//! style of Doug Lea's `CircularList`/`CLCell`.

use crate::util::{int, rooted};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

use super::linked_list::{INDEX_OOB, NO_SUCH_ELEMENT};

fn register(rb: &mut RegistryBuilder) {
    rb.class("CLCell", |c| {
        c.field("value", Value::Null);
        c.field("next", Value::Null);
        c.field("prev", Value::Null);
        c.ctor(|ctx, this, args| {
            if let Some(v) = args.first() {
                ctx.set(this, "value", v.clone());
            }
            Ok(Value::Null)
        });
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
        c.method("prev", |ctx, this, _| Ok(ctx.get(this, "prev")));
        c.method("setPrev", |ctx, this, args| {
            ctx.set(this, "prev", args[0].clone());
            Ok(Value::Null)
        });
        // Makes the cell a singleton ring.
        c.method("selfLink", |ctx, this, _| {
            ctx.set(this, "next", Value::Ref(this));
            ctx.set(this, "prev", Value::Ref(this));
            Ok(Value::Null)
        });
        // Splices `cell` in right before `this` in the ring: four pointer
        // updates through accessor calls — non-atomic as written.
        c.method("spliceBefore", |ctx, this, args| {
            let cell = args[0].clone();
            let prev = ctx.call(this, "prev", &[])?;
            ctx.call_value(&cell, "setPrev", &[prev.clone()])?;
            ctx.call_value(&cell, "setNext", &[Value::Ref(this)])?;
            ctx.call_value(&prev, "setNext", &[cell.clone()])?;
            ctx.set(this, "prev", cell);
            Ok(Value::Null)
        });
        // Unlinks `this` from the ring.
        c.method("unlink", |ctx, this, _| {
            let prev = ctx.call(this, "prev", &[])?;
            let next = ctx.call(this, "next", &[])?;
            ctx.call_value(&prev, "setNext", &[next.clone()])?;
            ctx.call_value(&next, "setPrev", &[prev])?;
            Ok(Value::Null)
        });
    });
    rb.class("CircularList", |c| {
        c.field("list", Value::Null);
        c.field("size", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
            .never_throws();
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "size") == 0))
        });
        c.method("first", |ctx, this, _| {
            let head = ctx.get(this, "list");
            if head.is_null() {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "first on empty ring"));
            }
            ctx.call_value(&head, "value", &[])
        })
        .throws(NO_SUCH_ELEMENT);
        c.method("last", |ctx, this, _| {
            let head = ctx.get(this, "list");
            if head.is_null() {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "last on empty ring"));
            }
            let tail = ctx.call_value(&head, "prev", &[])?;
            ctx.call_value(&tail, "value", &[])
        })
        .throws(NO_SUCH_ELEMENT);
        c.method("at", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            if i < 0 || i >= ctx.get_int(this, "size") {
                return Err(ctx.exception(INDEX_OOB, format!("index {i}")));
            }
            let mut cur = ctx.get(this, "list");
            for _ in 0..i {
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            ctx.call_value(&cur, "value", &[])
        })
        .throws(INDEX_OOB);
        c.method("indexOf", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            let mut cur = ctx.get(this, "list");
            for i in 0..size {
                let v = ctx.call_value(&cur, "value", &[])?;
                if v == args[0] {
                    return Ok(int(i));
                }
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(int(-1))
        });
        c.method("contains", |ctx, this, args| {
            let idx = ctx.call(this, "indexOf", args)?;
            Ok(Value::Bool(idx.as_int().unwrap_or(-1) >= 0))
        });
        // Rotate the ring head forward: one call, then one write — atomic.
        c.method("rotate", |ctx, this, _| {
            let head = ctx.get(this, "list");
            if head.is_null() {
                return Ok(Value::Null);
            }
            let next = ctx.call_value(&head, "next", &[])?;
            ctx.set(this, "list", next);
            Ok(Value::Null)
        });
        // Vulnerable order: size updated before the ring is re-linked.
        c.method("insertFirst", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size + 1));
            let cell = ctx.new_object("CLCell", &[args[0].clone()])?;
            let head = ctx.get(this, "list");
            if head.is_null() {
                ctx.call(cell, "selfLink", &[])?;
            } else {
                ctx.call_value(&head, "spliceBefore", &[Value::Ref(cell)])?;
            }
            ctx.set(this, "list", Value::Ref(cell));
            Ok(Value::Null)
        });
        c.method("insertLast", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size + 1));
            let cell = ctx.new_object("CLCell", &[args[0].clone()])?;
            let head = ctx.get(this, "list");
            if head.is_null() {
                ctx.call(cell, "selfLink", &[])?;
                ctx.set(this, "list", Value::Ref(cell));
            } else {
                // Last = before head in the ring.
                ctx.call_value(&head, "spliceBefore", &[Value::Ref(cell)])?;
            }
            Ok(Value::Null)
        });
        c.method("removeFirst", |ctx, this, _| {
            let size = ctx.get_int(this, "size");
            if size == 0 {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "removeFirst on empty ring"));
            }
            ctx.set(this, "size", int(size - 1));
            let head = ctx.get(this, "list");
            let v = ctx.call_value(&head, "value", &[])?;
            if size == 1 {
                ctx.set(this, "list", Value::Null);
            } else {
                let next = ctx.call_value(&head, "next", &[])?;
                ctx.call_value(&head, "unlink", &[])?;
                ctx.set(this, "list", next);
            }
            Ok(v)
        })
        .throws(NO_SUCH_ELEMENT);
        c.method("removeLast", |ctx, this, _| {
            let size = ctx.get_int(this, "size");
            if size == 0 {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "removeLast on empty ring"));
            }
            ctx.set(this, "size", int(size - 1));
            let head = ctx.get(this, "list");
            if size == 1 {
                let v = ctx.call_value(&head, "value", &[])?;
                ctx.set(this, "list", Value::Null);
                return Ok(v);
            }
            let tail = ctx.call_value(&head, "prev", &[])?;
            let v = ctx.call_value(&tail, "value", &[])?;
            ctx.call_value(&tail, "unlink", &[])?;
            Ok(v)
        })
        .throws(NO_SUCH_ELEMENT);
        c.method("clear", |ctx, this, _| {
            // Break the ring so reference counting can reclaim it.
            let head = ctx.get(this, "list");
            if !head.is_null() {
                let tail = ctx.call_value(&head, "prev", &[])?;
                ctx.call_value(&tail, "setNext", &[Value::Null])?;
            }
            ctx.set(this, "list", Value::Null);
            ctx.set(this, "size", int(0));
            Ok(Value::Null)
        });
        c.method("checkInvariant", |ctx, this, _| {
            let size = ctx.get_int(this, "size");
            let head = ctx.get(this, "list");
            if head.is_null() {
                return Ok(Value::Bool(size == 0));
            }
            let mut cur = head.clone();
            for _ in 0..size {
                let next = ctx.call_value(&cur, "next", &[])?;
                let back = ctx.call_value(&next, "prev", &[])?;
                if back != cur {
                    return Ok(Value::Bool(false));
                }
                cur = next;
            }
            Ok(Value::Bool(cur == head))
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let ring = rooted(d, "CircularList", &[])?;
    let ring_id = ring.as_ref_id().expect("ref");
    for i in 0..5 {
        d.call(ring_id, "insertLast", &[int(i)])?;
    }
    for i in 0..2 {
        d.call(ring_id, "insertFirst", &[int(100 + i)])?;
    }
    d.call_absorbed(ring_id, "rotate", &[]);
    d.call_absorbed(ring_id, "removeFirst", &[]);
    d.call_absorbed(ring_id, "removeLast", &[]);
    for _ in 0..3 {
        for i in 0..5 {
            d.call_absorbed(ring_id, "at", &[int(i)]);
        }
        d.call_absorbed(ring_id, "first", &[]);
        d.call_absorbed(ring_id, "last", &[]);
        d.call_absorbed(ring_id, "contains", &[int(3)]);
        d.call_absorbed(ring_id, "indexOf", &[int(101)]);
        d.call_absorbed(ring_id, "size", &[]);
        d.call_absorbed(ring_id, "checkInvariant", &[]);
        d.call_absorbed(ring_id, "rotate", &[]);
    }
    // Error paths.
    d.call_absorbed(ring_id, "at", &[int(99)]);
    d.call_absorbed(ring_id, "clear", &[]);
    d.call_absorbed(ring_id, "first", &[]);
    d.call_absorbed(ring_id, "isEmpty", &[]);
    Ok(Value::Null)
}

/// The `CircularList` program.
pub fn program() -> FnProgram {
    FnProgram::new("CircularList", build_registry, driver)
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
        let r = vm.construct("CircularList", &[]).unwrap();
        vm.root(r);
        (vm, r)
    }

    fn contents(vm: &mut Vm, r: ObjId) -> Vec<i64> {
        let size = vm.heap().field(r, "size").unwrap().as_int().unwrap();
        (0..size)
            .map(|i| vm.call(r, "at", &[int(i)]).unwrap().as_int().unwrap())
            .collect()
    }

    #[test]
    fn inserts_keep_ring_order() {
        let (mut vm, r) = fresh();
        for i in 0..3 {
            vm.call(r, "insertLast", &[int(i)]).unwrap();
        }
        vm.call(r, "insertFirst", &[int(9)]).unwrap();
        assert_eq!(contents(&mut vm, r), vec![9, 0, 1, 2]);
        assert_eq!(vm.call(r, "last", &[]).unwrap(), int(2));
        assert_eq!(
            vm.call(r, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn rotate_moves_the_head() {
        let (mut vm, r) = fresh();
        for i in 0..3 {
            vm.call(r, "insertLast", &[int(i)]).unwrap();
        }
        vm.call(r, "rotate", &[]).unwrap();
        assert_eq!(contents(&mut vm, r), vec![1, 2, 0]);
    }

    #[test]
    fn removals_maintain_ring() {
        let (mut vm, r) = fresh();
        for i in 0..4 {
            vm.call(r, "insertLast", &[int(i)]).unwrap();
        }
        assert_eq!(vm.call(r, "removeFirst", &[]).unwrap(), int(0));
        assert_eq!(vm.call(r, "removeLast", &[]).unwrap(), int(3));
        assert_eq!(contents(&mut vm, r), vec![1, 2]);
        assert_eq!(
            vm.call(r, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(vm.call(r, "removeFirst", &[]).unwrap(), int(1));
        assert_eq!(vm.call(r, "removeLast", &[]).unwrap(), int(2));
        let err = vm.call(r, "removeFirst", &[]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), NO_SUCH_ELEMENT);
    }

    #[test]
    fn clear_breaks_the_cycle_for_reclamation() {
        let (mut vm, r) = fresh();
        for i in 0..4 {
            vm.call(r, "insertLast", &[int(i)]).unwrap();
        }
        let live = vm.heap().len();
        assert_eq!(live, 5);
        vm.call(r, "clear", &[]).unwrap();
        // `clear` breaks the next-chain, but the prev-pointers still form a
        // cycle: reference counting alone cannot reclaim the cells — the
        // paper's §5.1 limitation 4, which prescribes a garbage collector
        // for cyclic structures.
        assert_eq!(vm.heap_mut().reclaim(), 0);
        assert_eq!(vm.heap_mut().collect(), 4);
        assert_eq!(vm.heap().len(), 1, "cells collected after clear");
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
