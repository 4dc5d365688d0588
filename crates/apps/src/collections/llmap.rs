//! The `LLMap` application: a linked-list map (association list) in the
//! style of Doug Lea's `LLMap`.

use crate::util::{int, rooted, s};
use atomask_mor::{
    Ctx, Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value,
};

/// Exception thrown by `firstKey` on an empty map.
pub const NO_SUCH_ELEMENT: &str = "NoSuchElementException";

fn register(rb: &mut RegistryBuilder) {
    rb.class("LLPair", |c| {
        c.field("key", Value::Null);
        c.field("value", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "key", args[0].clone());
            ctx.set(this, "value", args[1].clone());
            Ok(Value::Null)
        });
        c.method("key", |ctx, this, _| Ok(ctx.get(this, "key")));
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
    rb.class("LLMap", |c| {
        c.field("head", Value::Null);
        c.field("size", int(0));
        c.field("puts", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
            .never_throws();
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "size") == 0))
        });
        c.method("get", |ctx, this, args| {
            let pair = find_pair(ctx, this, &args[0])?;
            if pair.is_null() {
                return Ok(Value::Null);
            }
            ctx.call_value(&pair, "value", &[])
        });
        c.method("containsKey", |ctx, this, args| {
            let pair = find_pair(ctx, this, &args[0])?;
            Ok(Value::Bool(!pair.is_null()))
        });
        c.method("containsValue", |ctx, this, args| {
            let mut cur = ctx.get(this, "head");
            while !cur.is_null() {
                let v = ctx.call_value(&cur, "value", &[])?;
                if v == args[0] {
                    return Ok(Value::Bool(true));
                }
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Bool(false))
        });
        // Vulnerable order: statistics and size bumped before the new pair
        // is linked in.
        c.method("put", |ctx, this, args| {
            let puts = ctx.get_int(this, "puts");
            ctx.set(this, "puts", int(puts + 1));
            let pair = find_pair(ctx, this, &args[0])?;
            if !pair.is_null() {
                let old = ctx.call_value(&pair, "value", &[])?;
                ctx.call_value(&pair, "setValue", &[args[1].clone()])?;
                return Ok(old);
            }
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size + 1));
            let fresh = ctx.new_object("LLPair", &[args[0].clone(), args[1].clone()])?;
            let head = ctx.get(this, "head");
            ctx.call(fresh, "setNext", &[head])?;
            ctx.set(this, "head", Value::Ref(fresh));
            Ok(Value::Null)
        });
        c.method("remove", |ctx, this, args| {
            let head = ctx.get(this, "head");
            if head.is_null() {
                return Ok(Value::Null);
            }
            let hk = ctx.call_value(&head, "key", &[])?;
            let size = ctx.get_int(this, "size");
            if hk == args[0] {
                ctx.set(this, "size", int(size - 1));
                let v = ctx.call_value(&head, "value", &[])?;
                let next = ctx.call_value(&head, "next", &[])?;
                ctx.set(this, "head", next);
                return Ok(v);
            }
            let mut prev = head;
            loop {
                let cur = ctx.call_value(&prev, "next", &[])?;
                if cur.is_null() {
                    return Ok(Value::Null);
                }
                let k = ctx.call_value(&cur, "key", &[])?;
                if k == args[0] {
                    // Vulnerable: size decremented before the unlink.
                    ctx.set(this, "size", int(size - 1));
                    let v = ctx.call_value(&cur, "value", &[])?;
                    let next = ctx.call_value(&cur, "next", &[])?;
                    ctx.call_value(&prev, "setNext", &[next])?;
                    return Ok(v);
                }
                prev = cur;
            }
        });
        c.method("firstKey", |ctx, this, _| {
            let head = ctx.get(this, "head");
            if head.is_null() {
                return Err(ctx.exception(NO_SUCH_ELEMENT, "firstKey on empty map"));
            }
            ctx.call_value(&head, "key", &[])
        })
        .throws(NO_SUCH_ELEMENT);
        // Copies all pairs from `other` into `this`.
        c.method("putAll", |ctx, this, args| {
            let other = match &args[0] {
                Value::Ref(id) => *id,
                _ => return Ok(Value::Null),
            };
            let mut cur = ctx.get(other, "head");
            while !cur.is_null() {
                let k = ctx.call_value(&cur, "key", &[])?;
                let v = ctx.call_value(&cur, "value", &[])?;
                ctx.call(this, "put", &[k, v])?;
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Null)
        });
        c.method("clear", |ctx, this, _| {
            ctx.set(this, "head", Value::Null);
            ctx.set(this, "size", int(0));
            Ok(Value::Null)
        });
        c.method("checkInvariant", |ctx, this, _| {
            let mut n = 0i64;
            let mut cur = ctx.get(this, "head");
            while !cur.is_null() {
                n += 1;
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Bool(n == ctx.get_int(this, "size")))
        });
    });
}

fn find_pair(ctx: &mut Ctx<'_>, this: atomask_mor::ObjId, key: &Value) -> MethodResult {
    let mut cur = ctx.get(this, "head");
    while !cur.is_null() {
        let k = ctx.call_value(&cur, "key", &[])?;
        if &k == key {
            return Ok(cur);
        }
        cur = ctx.call_value(&cur, "next", &[])?;
    }
    Ok(Value::Null)
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let map = rooted(d, "LLMap", &[])?;
    let m = map.as_ref_id().expect("ref");
    for (k, v) in [("one", 1), ("two", 2), ("three", 3), ("four", 4)] {
        d.call(m, "put", &[s(k), int(v)])?;
    }
    d.call(m, "put", &[s("two"), int(22)])?;
    d.call_absorbed(m, "remove", &[s("three")]);
    d.call_absorbed(m, "remove", &[s("nope")]);
    let other = rooted(d, "LLMap", &[])?;
    let o = other.as_ref_id().expect("ref");
    d.call(o, "put", &[s("five"), int(5)])?;
    d.call(m, "putAll", &[other])?;
    for _ in 0..3 {
        for k in ["one", "two", "four", "five", "missing"] {
            d.call_absorbed(m, "get", &[s(k)]);
            d.call_absorbed(m, "containsKey", &[s(k)]);
        }
        d.call_absorbed(m, "containsValue", &[int(22)]);
        d.call_absorbed(m, "size", &[]);
        d.call_absorbed(m, "firstKey", &[]);
        d.call_absorbed(m, "checkInvariant", &[]);
    }
    d.call_absorbed(o, "clear", &[]);
    d.call_absorbed(o, "firstKey", &[]); // empty-map error path
    d.call_absorbed(m, "isEmpty", &[]);
    Ok(Value::Null)
}

/// The `LLMap` program.
pub fn program() -> FnProgram {
    FnProgram::new("LLMap", build_registry, driver)
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
        let m = vm.construct("LLMap", &[]).unwrap();
        vm.root(m);
        (vm, m)
    }

    #[test]
    fn put_get_update() {
        let (mut vm, m) = fresh();
        assert_eq!(vm.call(m, "put", &[s("a"), int(1)]).unwrap(), Value::Null);
        assert_eq!(vm.call(m, "get", &[s("a")]).unwrap(), int(1));
        assert_eq!(vm.call(m, "put", &[s("a"), int(2)]).unwrap(), int(1));
        assert_eq!(vm.call(m, "get", &[s("a")]).unwrap(), int(2));
        assert_eq!(vm.call(m, "size", &[]).unwrap(), int(1));
    }

    #[test]
    fn remove_head_and_middle() {
        let (mut vm, m) = fresh();
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            vm.call(m, "put", &[s(k), int(v)]).unwrap();
        }
        // "c" is at the head (put prepends).
        assert_eq!(vm.call(m, "remove", &[s("c")]).unwrap(), int(3));
        assert_eq!(vm.call(m, "remove", &[s("a")]).unwrap(), int(1));
        assert_eq!(vm.call(m, "remove", &[s("zz")]).unwrap(), Value::Null);
        assert_eq!(vm.call(m, "size", &[]).unwrap(), int(1));
        assert_eq!(
            vm.call(m, "containsKey", &[s("b")]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            vm.call(m, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn contains_value_and_put_all() {
        let (mut vm, m) = fresh();
        vm.call(m, "put", &[s("x"), int(7)]).unwrap();
        assert_eq!(
            vm.call(m, "containsValue", &[int(7)]).unwrap(),
            Value::Bool(true)
        );
        let o = vm.construct("LLMap", &[]).unwrap();
        vm.root(o);
        vm.call(o, "put", &[s("y"), int(8)]).unwrap();
        vm.call(m, "putAll", &[Value::Ref(o)]).unwrap();
        assert_eq!(vm.call(m, "get", &[s("y")]).unwrap(), int(8));
        assert_eq!(vm.call(m, "size", &[]).unwrap(), int(2));
    }

    #[test]
    fn first_key_errors_on_empty() {
        let (mut vm, m) = fresh();
        let err = vm.call(m, "firstKey", &[]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), NO_SUCH_ELEMENT);
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
