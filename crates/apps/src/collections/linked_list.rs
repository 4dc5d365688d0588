//! The `LinkedList` application — including the paper's §6.1 case study.
//!
//! Two variants are provided:
//!
//! * [`program`] — the original list, written the way much real collection
//!   code is: size counters updated *before* the linking calls complete,
//!   values read through cell accessor methods after mutations have begun.
//!   Under exception injection a large number of its methods are pure
//!   failure non-atomic.
//! * [`fixed_program`] — the same public behaviour after the paper's
//!   "trivial modifications": statements reordered into compute-then-commit
//!   shape, temporaries introduced, and the cell accessors annotated as
//!   never throwing (§4.3's exception-free interface). Only `extend` — a
//!   loop of injectable self-calls after earlier iterations already
//!   mutated the list — remains pure failure non-atomic, mirroring the
//!   paper's 18 → 3 reduction (the annotations even rescue `reverse` and
//!   `removeLast`, whose only post-mutation calls are cell accessors).

use crate::util::{int, rooted};
use atomask_mor::{
    Ctx, Driver, FnProgram, MethodResult, ObjId, Profile, Registry, RegistryBuilder, Value, Vm,
};

/// Exception thrown by element accessors on empty lists / bad indices.
pub const NO_SUCH_ELEMENT: &str = "NoSuchElementException";
/// Exception thrown on out-of-range indices.
pub const INDEX_OOB: &str = "IndexOutOfBoundsException";

fn register_cell(rb: &mut RegistryBuilder, never_throws_accessors: bool) {
    rb.class("LLCell", |c| {
        c.field("value", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|ctx, this, args| {
            if let Some(v) = args.first() {
                ctx.set(this, "value", v.clone());
            }
            if let Some(n) = args.get(1) {
                ctx.set(this, "next", n.clone());
            }
            Ok(Value::Null)
        });
        let mut m = c.method("value", |ctx, this, _| Ok(ctx.get(this, "value")));
        if never_throws_accessors {
            m.never_throws();
        }
        let mut m = c.method("setValue", |ctx, this, args| {
            ctx.set(this, "value", args[0].clone());
            Ok(Value::Null)
        });
        if never_throws_accessors {
            m.never_throws();
        }
        let mut m = c.method("next", |ctx, this, _| Ok(ctx.get(this, "next")));
        if never_throws_accessors {
            m.never_throws();
        }
        let mut m = c.method("setNext", |ctx, this, args| {
            ctx.set(this, "next", args[0].clone());
            Ok(Value::Null)
        });
        if never_throws_accessors {
            m.never_throws();
        }
        // Splices `cell` in right after `this`: a multi-step mutation that
        // interleaves accessor calls — non-atomic as written.
        c.method("spliceAfter", |ctx, this, args| {
            let old_next = ctx.call(this, "next", &[])?;
            let cell = args[0].clone();
            ctx.call_value(&cell, "setNext", &[old_next])?;
            ctx.set(this, "next", cell);
            Ok(Value::Null)
        });
    });
}

/// Walks `steps` cells forward from `cell` using accessor calls.
fn walk(ctx: &mut Ctx<'_>, cell: Value, steps: i64) -> MethodResult {
    let mut cur = cell;
    for _ in 0..steps {
        cur = ctx.call_value(&cur, "next", &[])?;
        if cur.is_null() {
            return Ok(Value::Null);
        }
    }
    Ok(cur)
}

fn common_readers(c: &mut atomask_mor::ClassBuilder) {
    c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
        .never_throws();
    c.method("isEmpty", |ctx, this, _| {
        Ok(Value::Bool(ctx.get_int(this, "size") == 0))
    });
    c.method("first", |ctx, this, _| {
        let head = ctx.get(this, "head");
        if head.is_null() {
            return Err(ctx.exception(NO_SUCH_ELEMENT, "first on empty list"));
        }
        ctx.call_value(&head, "value", &[])
    })
    .throws(NO_SUCH_ELEMENT);
    c.method("last", |ctx, this, _| {
        let tail = ctx.get(this, "tail");
        if tail.is_null() {
            return Err(ctx.exception(NO_SUCH_ELEMENT, "last on empty list"));
        }
        ctx.call_value(&tail, "value", &[])
    })
    .throws(NO_SUCH_ELEMENT);
    c.method("at", |ctx, this, args| {
        let i = args[0].as_int().unwrap_or(-1);
        if i < 0 || i >= ctx.get_int(this, "size") {
            return Err(ctx.exception(INDEX_OOB, format!("index {i}")));
        }
        let head = ctx.get(this, "head");
        let cell = walk(ctx, head, i)?;
        ctx.call_value(&cell, "value", &[])
    })
    .throws(INDEX_OOB);
    c.method("indexOf", |ctx, this, args| {
        let mut cur = ctx.get(this, "head");
        let mut i = 0i64;
        while !cur.is_null() {
            let v = ctx.call_value(&cur, "value", &[])?;
            if v == args[0] {
                return Ok(Value::Int(i));
            }
            cur = ctx.call_value(&cur, "next", &[])?;
            i += 1;
        }
        Ok(Value::Int(-1))
    });
    c.method("contains", |ctx, this, args| {
        let idx = ctx.call(this, "indexOf", args)?;
        Ok(Value::Bool(idx.as_int().unwrap_or(-1) >= 0))
    });
    c.method("count", |ctx, this, args| {
        let mut cur = ctx.get(this, "head");
        let mut n = 0i64;
        while !cur.is_null() {
            let v = ctx.call_value(&cur, "value", &[])?;
            if v == args[0] {
                n += 1;
            }
            cur = ctx.call_value(&cur, "next", &[])?;
        }
        Ok(Value::Int(n))
    });
    c.method("checkInvariant", |ctx, this, _| {
        let mut cur = ctx.get(this, "head");
        let mut n = 0i64;
        while !cur.is_null() {
            n += 1;
            cur = ctx.call_value(&cur, "next", &[])?;
        }
        Ok(Value::Bool(n == ctx.get_int(this, "size")))
    });
    // Delegators: no own mutation before the delegate call — conditional
    // failure non-atomic at worst.
    c.method("push", |ctx, this, args| {
        ctx.call(this, "insertFirst", args)
    });
    c.method("pop", |ctx, this, _| ctx.call(this, "removeFirst", &[]))
        .throws(NO_SUCH_ELEMENT);
    c.method("enqueue", |ctx, this, args| {
        ctx.call(this, "insertLast", args)
    });
    c.method("dequeue", |ctx, this, _| ctx.call(this, "removeFirst", &[]))
        .throws(NO_SUCH_ELEMENT);
    c.method("clear", |ctx, this, _| {
        ctx.set(this, "head", Value::Null);
        ctx.set(this, "tail", Value::Null);
        ctx.set(this, "size", int(0));
        Ok(Value::Null)
    });
    // Hard-to-fix mutators, shared verbatim by both variants: these are the
    // methods the paper's case study could not fix with trivial edits.
    c.method("reverse", |ctx, this, _| {
        let mut prev = Value::Null;
        let mut cur = ctx.get(this, "head");
        ctx.set(this, "tail", cur.clone());
        while !cur.is_null() {
            let next = ctx.call_value(&cur, "next", &[])?;
            ctx.call_value(&cur, "setNext", &[prev.clone()])?;
            prev = cur;
            cur = next;
        }
        ctx.set(this, "head", prev);
        Ok(Value::Null)
    });
    c.method("extend", |ctx, this, args| {
        let mut cur = match &args[0] {
            Value::Ref(id) => ctx.get(*id, "head"),
            _ => Value::Null,
        };
        while !cur.is_null() {
            let v = ctx.call_value(&cur, "value", &[])?;
            ctx.call(this, "insertLast", &[v])?;
            cur = ctx.call_value(&cur, "next", &[])?;
        }
        Ok(Value::Null)
    });
    c.method("removeLast", |ctx, this, _| {
        let size = ctx.get_int(this, "size");
        if size == 0 {
            return Err(ctx.exception(NO_SUCH_ELEMENT, "removeLast on empty list"));
        }
        // Decrement early, walk with calls afterwards: non-atomic, and the
        // two-pointer walk resists a trivial reordering fix.
        ctx.set(this, "size", int(size - 1));
        if size == 1 {
            let tail = ctx.get(this, "tail");
            let v = ctx.call_value(&tail, "value", &[])?;
            ctx.set(this, "head", Value::Null);
            ctx.set(this, "tail", Value::Null);
            return Ok(v);
        }
        let head = ctx.get(this, "head");
        let before = walk(ctx, head, size - 2)?;
        let tail = ctx.call_value(&before, "next", &[])?;
        let v = ctx.call_value(&tail, "value", &[])?;
        ctx.call_value(&before, "setNext", &[Value::Null])?;
        ctx.set(this, "tail", before);
        Ok(v)
    })
    .throws(NO_SUCH_ELEMENT);
}

/// Registers the *original* (failure non-atomic) `LinkedList`.
fn register_buggy(rb: &mut RegistryBuilder) {
    register_cell(rb, false);
    rb.class("LinkedList", |c| {
        c.field("head", Value::Null);
        c.field("tail", Value::Null);
        c.field("size", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        common_readers(c);
        // Mutators in the vulnerable order: counters first, linking calls
        // afterwards.
        c.method("insertFirst", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size + 1));
            let head = ctx.get(this, "head");
            let cell = ctx.new_object("LLCell", &[args[0].clone(), head])?;
            ctx.set(this, "head", Value::Ref(cell));
            if ctx.get(this, "tail").is_null() {
                ctx.set(this, "tail", Value::Ref(cell));
            }
            Ok(Value::Null)
        });
        c.method("insertLast", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size + 1));
            let cell = ctx.new_object("LLCell", &[args[0].clone()])?;
            let tail = ctx.get(this, "tail");
            if tail.is_null() {
                ctx.set(this, "head", Value::Ref(cell));
            } else {
                ctx.call_value(&tail, "setNext", &[Value::Ref(cell)])?;
            }
            ctx.set(this, "tail", Value::Ref(cell));
            Ok(Value::Null)
        });
        c.method("removeFirst", |ctx, this, _| {
            let size = ctx.get_int(this, "size");
            if size == 0 {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "removeFirst on empty list"));
            }
            ctx.set(this, "size", int(size - 1));
            let head = ctx.get(this, "head");
            let v = ctx.call_value(&head, "value", &[])?;
            let next = ctx.call_value(&head, "next", &[])?;
            ctx.set(this, "head", next.clone());
            if next.is_null() {
                ctx.set(this, "tail", Value::Null);
            }
            Ok(v)
        })
        .throws(NO_SUCH_ELEMENT);
        c.method("insertAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || i > size {
                return Err(ctx.exception(INDEX_OOB, format!("insertAt {i}")));
            }
            if i == 0 {
                return ctx.call(this, "insertFirst", &[args[1].clone()]);
            }
            if i == size {
                return ctx.call(this, "insertLast", &[args[1].clone()]);
            }
            ctx.set(this, "size", int(size + 1));
            let head = ctx.get(this, "head");
            let before = walk(ctx, head, i - 1)?;
            let cell = ctx.new_object("LLCell", &[args[1].clone()])?;
            ctx.call_value(&before, "spliceAfter", &[Value::Ref(cell)])?;
            Ok(Value::Null)
        })
        .throws(INDEX_OOB);
        c.method("removeAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || i >= size {
                return Err(ctx.exception(INDEX_OOB, format!("removeAt {i}")));
            }
            if i == 0 {
                return ctx.call(this, "removeFirst", &[]);
            }
            ctx.set(this, "size", int(size - 1));
            let head = ctx.get(this, "head");
            let before = walk(ctx, head, i - 1)?;
            let victim = ctx.call_value(&before, "next", &[])?;
            let v = ctx.call_value(&victim, "value", &[])?;
            let after = ctx.call_value(&victim, "next", &[])?;
            ctx.call_value(&before, "setNext", &[after.clone()])?;
            if after.is_null() {
                ctx.set(this, "tail", before);
            }
            Ok(v)
        })
        .throws(INDEX_OOB);
        c.method("removeValue", |ctx, this, args| {
            let idx = ctx.call(this, "indexOf", &[args[0].clone()])?;
            let i = idx.as_int().unwrap_or(-1);
            if i < 0 {
                return Ok(Value::Bool(false));
            }
            ctx.call(this, "removeAt", &[int(i)])?;
            Ok(Value::Bool(true))
        })
        .throws(INDEX_OOB);
        c.method("swap", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let j = args[1].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || j < 0 || i >= size || j >= size {
                return Err(ctx.exception(INDEX_OOB, "swap"));
            }
            let head = ctx.get(this, "head");
            let a = walk(ctx, head.clone(), i)?;
            let va = ctx.call_value(&a, "value", &[])?;
            let b = walk(ctx, head, j)?;
            let vb = ctx.call_value(&b, "value", &[])?;
            // First write, then more calls: vulnerable order.
            ctx.call_value(&a, "setValue", &[vb])?;
            ctx.call_value(&b, "setValue", &[va])?;
            Ok(Value::Null)
        })
        .throws(INDEX_OOB);
    });
}

/// Registers the *fixed* `LinkedList` (§6.1 case study): same behaviour,
/// compute-then-commit statement order, `never_throws` cell accessors.
fn register_fixed(rb: &mut RegistryBuilder) {
    register_cell(rb, true);
    rb.class("LinkedList", |c| {
        c.field("head", Value::Null);
        c.field("tail", Value::Null);
        c.field("size", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        common_readers(c);
        c.method("insertFirst", |ctx, this, args| {
            // All calls first, field writes last: atomic.
            let head = ctx.get(this, "head");
            let cell = ctx.new_object("LLCell", &[args[0].clone(), head])?;
            let size = ctx.get_int(this, "size");
            ctx.set(this, "head", Value::Ref(cell));
            if ctx.get(this, "tail").is_null() {
                ctx.set(this, "tail", Value::Ref(cell));
            }
            ctx.set(this, "size", int(size + 1));
            Ok(Value::Null)
        });
        c.method("insertLast", |ctx, this, args| {
            let cell = ctx.new_object("LLCell", &[args[0].clone()])?;
            let size = ctx.get_int(this, "size");
            let tail = ctx.get(this, "tail");
            if tail.is_null() {
                ctx.set(this, "head", Value::Ref(cell));
            } else {
                // setNext is never_throws, and a fresh cell is not yet part
                // of the list graph: still atomic.
                ctx.call_value(&tail, "setNext", &[Value::Ref(cell)])?;
            }
            ctx.set(this, "tail", Value::Ref(cell));
            ctx.set(this, "size", int(size + 1));
            Ok(Value::Null)
        });
        c.method("removeFirst", |ctx, this, _| {
            let size = ctx.get_int(this, "size");
            if size == 0 {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "removeFirst on empty list"));
            }
            let head = ctx.get(this, "head");
            let v = ctx.call_value(&head, "value", &[])?;
            let next = ctx.call_value(&head, "next", &[])?;
            ctx.set(this, "head", next.clone());
            if next.is_null() {
                ctx.set(this, "tail", Value::Null);
            }
            ctx.set(this, "size", int(size - 1));
            Ok(v)
        })
        .throws(NO_SUCH_ELEMENT);
        c.method("insertAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || i > size {
                return Err(ctx.exception(INDEX_OOB, format!("insertAt {i}")));
            }
            if i == 0 {
                return ctx.call(this, "insertFirst", &[args[1].clone()]);
            }
            if i == size {
                return ctx.call(this, "insertLast", &[args[1].clone()]);
            }
            let head = ctx.get(this, "head");
            let before = walk(ctx, head, i - 1)?;
            let after = ctx.call_value(&before, "next", &[])?;
            let cell = ctx.new_object("LLCell", &[args[1].clone(), after])?;
            // Single commit: link the prepared cell, then bump the size
            // (setNext never throws).
            ctx.call_value(&before, "setNext", &[Value::Ref(cell)])?;
            ctx.set(this, "size", int(size + 1));
            Ok(Value::Null)
        })
        .throws(INDEX_OOB);
        c.method("removeAt", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || i >= size {
                return Err(ctx.exception(INDEX_OOB, format!("removeAt {i}")));
            }
            if i == 0 {
                return ctx.call(this, "removeFirst", &[]);
            }
            let head = ctx.get(this, "head");
            let before = walk(ctx, head, i - 1)?;
            let victim = ctx.call_value(&before, "next", &[])?;
            let v = ctx.call_value(&victim, "value", &[])?;
            let after = ctx.call_value(&victim, "next", &[])?;
            ctx.call_value(&before, "setNext", &[after.clone()])?;
            if after.is_null() {
                ctx.set(this, "tail", before);
            }
            ctx.set(this, "size", int(size - 1));
            Ok(v)
        })
        .throws(INDEX_OOB);
        c.method("removeValue", |ctx, this, args| {
            let idx = ctx.call(this, "indexOf", &[args[0].clone()])?;
            let i = idx.as_int().unwrap_or(-1);
            if i < 0 {
                return Ok(Value::Bool(false));
            }
            ctx.call(this, "removeAt", &[int(i)])?;
            Ok(Value::Bool(true))
        })
        .throws(INDEX_OOB);
        c.method("swap", |ctx, this, args| {
            let i = args[0].as_int().unwrap_or(-1);
            let j = args[1].as_int().unwrap_or(-1);
            let size = ctx.get_int(this, "size");
            if i < 0 || j < 0 || i >= size || j >= size {
                return Err(ctx.exception(INDEX_OOB, "swap"));
            }
            let head = ctx.get(this, "head");
            let a = walk(ctx, head.clone(), i)?;
            let va = ctx.call_value(&a, "value", &[])?;
            let b = walk(ctx, head, j)?;
            let vb = ctx.call_value(&b, "value", &[])?;
            // Both writes back-to-back through never-throwing setters.
            ctx.call_value(&a, "setValue", &[vb])?;
            ctx.call_value(&b, "setValue", &[va])?;
            Ok(Value::Null)
        })
        .throws(INDEX_OOB);
    });
}

/// The shared deterministic driver (the paper's test program `P`).
fn driver(d: &mut Driver<'_>) -> MethodResult {
    let list = rooted(d, "LinkedList", &[])?;
    let list_id = list.as_ref_id().expect("rooted returns a ref");
    for i in 0..6 {
        d.call(list_id, "insertLast", &[int(i)])?;
    }
    for i in 0..3 {
        d.call(list_id, "insertFirst", &[int(100 + i)])?;
    }
    d.call_absorbed(list_id, "insertAt", &[int(2), int(55)]);
    d.call_absorbed(list_id, "removeAt", &[int(3)]);
    d.call_absorbed(list_id, "removeValue", &[int(4)]);
    d.call_absorbed(list_id, "swap", &[int(0), int(5)]);
    d.call_absorbed(list_id, "removeFirst", &[]);
    d.call_absorbed(list_id, "removeLast", &[]);
    d.call_absorbed(list_id, "reverse", &[]);
    // Exception-handling paths of the original program.
    d.call_absorbed(list_id, "at", &[int(99)]);
    d.call_absorbed(list_id, "removeAt", &[int(-1)]);
    // Queue/stack aliases.
    d.call(list_id, "push", &[int(7)])?;
    d.call_absorbed(list_id, "pop", &[]);
    d.call(list_id, "enqueue", &[int(8)])?;
    d.call_absorbed(list_id, "dequeue", &[]);
    // A second list to extend from.
    let other = rooted(d, "LinkedList", &[])?;
    let other_id = other.as_ref_id().expect("ref");
    for i in 0..3 {
        d.call(other_id, "insertLast", &[int(200 + i)])?;
    }
    d.call(list_id, "extend", &[other])?;
    d.call_absorbed(list_id, "checkInvariant", &[]);
    d.call_absorbed(other_id, "clear", &[]);
    // Reads dominate the workload, as in real use.
    for _ in 0..4 {
        for i in 0..9 {
            d.call_absorbed(list_id, "at", &[int(i)]);
        }
        d.call_absorbed(list_id, "contains", &[int(4)]);
        d.call_absorbed(list_id, "indexOf", &[int(102)]);
        d.call_absorbed(list_id, "count", &[int(1)]);
        d.call_absorbed(list_id, "first", &[]);
        d.call_absorbed(list_id, "last", &[]);
        d.call_absorbed(list_id, "size", &[]);
        d.call_absorbed(list_id, "isEmpty", &[]);
        d.call_absorbed(list_id, "checkInvariant", &[]);
    }
    // Drain to empty and hit the empty-list error paths.
    while d.call(list_id, "removeFirst", &[]).is_ok() {
        if d.field(list_id, "size") == Some(int(0)) {
            break;
        }
    }
    d.call_absorbed(list_id, "first", &[]);
    Ok(Value::Null)
}

/// The original (failure non-atomic) `LinkedList` program.
pub fn program() -> FnProgram {
    FnProgram::new("LinkedList", build_registry, driver)
}

/// Builds the registry of the original program (exposed for tests and
/// benches that need method ids).
pub fn build_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    register_buggy(&mut rb);
    rb.build()
}

/// The §6.1 case-study variant after trivial fixes and exception-free
/// annotations.
pub fn fixed_program() -> FnProgram {
    FnProgram::new("LinkedList-fixed", fixed_registry, driver)
}

/// Builds the registry of the fixed program.
pub fn fixed_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    register_fixed(&mut rb);
    rb.build()
}

/// Functional helper for tests: drains the list into a Rust vector.
pub fn to_vec(vm: &mut Vm, list: ObjId) -> Vec<Value> {
    let mut out = Vec::new();
    let size = vm
        .heap()
        .field(list, "size")
        .and_then(|v| v.as_int())
        .unwrap_or(0);
    for i in 0..size {
        out.push(vm.call(list, "at", &[int(i)]).expect("index in range"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_inject::{classify, Campaign, MarkFilter, Verdict};
    use atomask_mor::Program;

    fn fresh(buggy: bool) -> (Vm, ObjId) {
        let reg = if buggy {
            build_registry()
        } else {
            fixed_registry()
        };
        let mut vm = Vm::new(reg);
        let l = vm.construct("LinkedList", &[]).unwrap();
        vm.root(l);
        (vm, l)
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| int(*v)).collect()
    }

    #[test]
    fn insert_and_at_both_variants() {
        for buggy in [true, false] {
            let (mut vm, l) = fresh(buggy);
            vm.call(l, "insertLast", &[int(1)]).unwrap();
            vm.call(l, "insertLast", &[int(2)]).unwrap();
            vm.call(l, "insertFirst", &[int(0)]).unwrap();
            assert_eq!(to_vec(&mut vm, l), ints(&[0, 1, 2]), "buggy={buggy}");
            assert_eq!(vm.call(l, "size", &[]).unwrap(), int(3));
        }
    }

    #[test]
    fn remove_operations() {
        for buggy in [true, false] {
            let (mut vm, l) = fresh(buggy);
            for i in 0..5 {
                vm.call(l, "insertLast", &[int(i)]).unwrap();
            }
            assert_eq!(vm.call(l, "removeFirst", &[]).unwrap(), int(0));
            assert_eq!(vm.call(l, "removeLast", &[]).unwrap(), int(4));
            assert_eq!(vm.call(l, "removeAt", &[int(1)]).unwrap(), int(2));
            assert_eq!(
                vm.call(l, "removeValue", &[int(3)]).unwrap(),
                Value::Bool(true)
            );
            assert_eq!(to_vec(&mut vm, l), ints(&[1]));
            assert_eq!(
                vm.call(l, "checkInvariant", &[]).unwrap(),
                Value::Bool(true)
            );
        }
    }

    #[test]
    fn reverse_and_extend() {
        for buggy in [true, false] {
            let (mut vm, l) = fresh(buggy);
            for i in 0..4 {
                vm.call(l, "insertLast", &[int(i)]).unwrap();
            }
            vm.call(l, "reverse", &[]).unwrap();
            assert_eq!(to_vec(&mut vm, l), ints(&[3, 2, 1, 0]));
            assert_eq!(vm.call(l, "last", &[]).unwrap(), int(0));
            let other = vm.construct("LinkedList", &[]).unwrap();
            vm.root(other);
            vm.call(other, "insertLast", &[int(9)]).unwrap();
            vm.call(l, "extend", &[Value::Ref(other)]).unwrap();
            assert_eq!(to_vec(&mut vm, l), ints(&[3, 2, 1, 0, 9]));
        }
    }

    #[test]
    fn error_paths_throw_declared_exceptions() {
        let (mut vm, l) = fresh(true);
        let err = vm.call(l, "removeFirst", &[]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), NO_SUCH_ELEMENT);
        let err = vm.call(l, "at", &[int(0)]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), INDEX_OOB);
    }

    #[test]
    fn swap_and_aliases() {
        for buggy in [true, false] {
            let (mut vm, l) = fresh(buggy);
            for i in 0..3 {
                vm.call(l, "enqueue", &[int(i)]).unwrap();
            }
            vm.call(l, "swap", &[int(0), int(2)]).unwrap();
            assert_eq!(to_vec(&mut vm, l), ints(&[2, 1, 0]));
            vm.call(l, "push", &[int(9)]).unwrap();
            assert_eq!(vm.call(l, "pop", &[]).unwrap(), int(9));
            assert_eq!(vm.call(l, "dequeue", &[]).unwrap(), int(2));
        }
    }

    #[test]
    fn driver_is_clean_without_injection() {
        for p in [program(), fixed_program()] {
            let mut vm = Vm::new(p.build_registry());
            p.run(&mut vm).unwrap();
        }
    }

    #[test]
    fn case_study_reduces_pure_nonatomic_methods() {
        let buggy = program();
        let result = Campaign::new(&buggy).max_points(600).run();
        let c = classify(&result, &MarkFilter::default());
        let buggy_pure = c.method_counts.pure_nonatomic;

        let fixed = fixed_program();
        let result = Campaign::new(&fixed).max_points(600).run();
        let cf = classify(&result, &MarkFilter::default());
        let fixed_pure = cf.method_counts.pure_nonatomic;

        assert!(
            buggy_pure >= 6,
            "original list should be riddled with pure non-atomic methods, got {buggy_pure}"
        );
        assert!(
            fixed_pure <= 4,
            "fixed list should have few pure non-atomic methods, got {fixed_pure}: {:?}",
            cf.pure_nonatomic()
                .iter()
                .map(|m| m.name.clone())
                .collect::<Vec<_>>()
        );
        assert!(fixed_pure < buggy_pure);
        // The fixed insertFirst specifically must now be atomic.
        assert_eq!(
            cf.method("LinkedList::insertFirst").unwrap().verdict,
            Some(Verdict::FailureAtomic)
        );
    }
}
