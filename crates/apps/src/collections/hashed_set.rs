//! The `HashedSet` application: a chained hash set sharing the bucket
//! design of [`super::hashed_map`], plus set-algebra operations.

use crate::util::{int, rooted};
use atomask_mor::{
    Ctx, Driver, FnProgram, MethodResult, ObjId, Profile, Registry, RegistryBuilder, Value,
};

fn hash_value(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Str(t) => t
            .bytes()
            .fold(7i64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as i64)),
        Value::Bool(b) => *b as i64,
        _ => 0,
    }
    .rem_euclid(i64::MAX)
}

fn bucket_at(ctx: &mut Ctx<'_>, this: ObjId, i: i64) -> MethodResult {
    let mut cur = ctx.get(this, "table");
    for _ in 0..i {
        cur = ctx.call_value(&cur, "next", &[])?;
    }
    Ok(cur)
}

fn register(rb: &mut RegistryBuilder) {
    rb.class("SEntry", |c| {
        c.field("element", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "element", args[0].clone());
            Ok(Value::Null)
        });
        c.method("element", |ctx, this, _| Ok(ctx.get(this, "element")));
        c.method("next", |ctx, this, _| Ok(ctx.get(this, "next")));
        c.method("setNext", |ctx, this, args| {
            ctx.set(this, "next", args[0].clone());
            Ok(Value::Null)
        });
    });
    rb.class("SBucket", |c| {
        c.field("chain", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("chain", |ctx, this, _| Ok(ctx.get(this, "chain")));
        c.method("setChain", |ctx, this, args| {
            ctx.set(this, "chain", args[0].clone());
            Ok(Value::Null)
        });
        c.method("next", |ctx, this, _| Ok(ctx.get(this, "next")));
        c.method("setNext", |ctx, this, args| {
            ctx.set(this, "next", args[0].clone());
            Ok(Value::Null)
        });
    });
    rb.class("HashedSet", |c| {
        c.field("table", Value::Null);
        c.field("buckets", int(0));
        c.field("count", int(0));
        c.field("threshold", int(0));
        c.ctor(|ctx, this, _| {
            ctx.call(this, "growTable", &[int(4)])?;
            Ok(Value::Null)
        });
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "count")))
            .never_throws();
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "count") == 0))
        });
        c.method("hashOf", |_, _, args| Ok(int(hash_value(&args[0]))))
            .never_throws();
        c.method("growTable", |ctx, this, args| {
            let n = args[0].as_int().unwrap_or(4);
            ctx.set(this, "buckets", int(n));
            ctx.set(this, "threshold", int(n * 2));
            let mut head = Value::Null;
            for _ in 0..n {
                let b = ctx.new_object("SBucket", &[])?;
                ctx.call(b, "setNext", &[head])?;
                head = Value::Ref(b);
            }
            ctx.set(this, "table", head);
            Ok(Value::Null)
        });
        c.method("bucketFor", |ctx, this, args| {
            let h = args[0].as_int().unwrap_or(0);
            let n = ctx.get_int(this, "buckets");
            bucket_at(ctx, this, h.rem_euclid(n.max(1)))
        });
        c.method("contains", |ctx, this, args| {
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h])?;
            let mut cur = ctx.call_value(&bucket, "chain", &[])?;
            while !cur.is_null() {
                let e = ctx.call_value(&cur, "element", &[])?;
                if e == args[0] {
                    return Ok(Value::Bool(true));
                }
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Bool(false))
        });
        // Returns true iff the element was inserted. Vulnerable: count
        // bumped before the entry is linked in.
        c.method("add", |ctx, this, args| {
            let present = ctx.call(this, "contains", &[args[0].clone()])?;
            if present == Value::Bool(true) {
                return Ok(Value::Bool(false));
            }
            let count = ctx.get_int(this, "count");
            ctx.set(this, "count", int(count + 1));
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h])?;
            let entry = ctx.new_object("SEntry", &[args[0].clone()])?;
            let chain = ctx.call_value(&bucket, "chain", &[])?;
            ctx.call(entry, "setNext", &[chain])?;
            ctx.call_value(&bucket, "setChain", &[Value::Ref(entry)])?;
            if count + 1 > ctx.get_int(this, "threshold") {
                ctx.call(this, "rehash", &[])?;
            }
            Ok(Value::Bool(true))
        });
        c.method("rehash", |ctx, this, _| {
            let buckets = ctx.get_int(this, "buckets");
            let mut elements = Vec::new();
            let mut bucket = ctx.get(this, "table");
            while !bucket.is_null() {
                let mut cur = ctx.call_value(&bucket, "chain", &[])?;
                while !cur.is_null() {
                    elements.push(ctx.call_value(&cur, "element", &[])?);
                    cur = ctx.call_value(&cur, "next", &[])?;
                }
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            ctx.set(this, "count", int(0));
            ctx.call(this, "growTable", &[int(buckets * 2)])?;
            for e in elements {
                ctx.call(this, "add", &[e])?;
            }
            Ok(Value::Null)
        });
        c.method("remove", |ctx, this, args| {
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h])?;
            let chain = ctx.call_value(&bucket, "chain", &[])?;
            if chain.is_null() {
                return Ok(Value::Bool(false));
            }
            let count = ctx.get_int(this, "count");
            let he = ctx.call_value(&chain, "element", &[])?;
            if he == args[0] {
                ctx.set(this, "count", int(count - 1));
                let next = ctx.call_value(&chain, "next", &[])?;
                ctx.call_value(&bucket, "setChain", &[next])?;
                return Ok(Value::Bool(true));
            }
            let mut prev = chain;
            loop {
                let cur = ctx.call_value(&prev, "next", &[])?;
                if cur.is_null() {
                    return Ok(Value::Bool(false));
                }
                let e = ctx.call_value(&cur, "element", &[])?;
                if e == args[0] {
                    ctx.set(this, "count", int(count - 1));
                    let next = ctx.call_value(&cur, "next", &[])?;
                    ctx.call_value(&prev, "setNext", &[next])?;
                    return Ok(Value::Bool(true));
                }
                prev = cur;
            }
        });
        // In-place union. Vulnerable in aggregate: adds land one by one.
        c.method("addAll", |ctx, this, args| {
            let other = match &args[0] {
                Value::Ref(id) => *id,
                _ => return Ok(Value::Null),
            };
            let mut bucket = ctx.get(other, "table");
            while !bucket.is_null() {
                let mut cur = ctx.call_value(&bucket, "chain", &[])?;
                while !cur.is_null() {
                    let e = ctx.call_value(&cur, "element", &[])?;
                    ctx.call(this, "add", &[e])?;
                    cur = ctx.call_value(&cur, "next", &[])?;
                }
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            Ok(Value::Null)
        });
        // Removes everything not present in `other`.
        c.method("retainAll", |ctx, this, args| {
            let other = args[0].clone();
            // Collect elements first (reads), then remove the strays.
            let mut mine = Vec::new();
            let mut bucket = ctx.get(this, "table");
            while !bucket.is_null() {
                let mut cur = ctx.call_value(&bucket, "chain", &[])?;
                while !cur.is_null() {
                    mine.push(ctx.call_value(&cur, "element", &[])?);
                    cur = ctx.call_value(&cur, "next", &[])?;
                }
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            for e in mine {
                let keep = ctx.call_value(&other, "contains", &[e.clone()])?;
                if keep == Value::Bool(false) {
                    ctx.call(this, "remove", &[e])?;
                }
            }
            Ok(Value::Null)
        });
        c.method("clear", |ctx, this, _| {
            let mut bucket = ctx.get(this, "table");
            while !bucket.is_null() {
                ctx.call_value(&bucket, "setChain", &[Value::Null])?;
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            ctx.set(this, "count", int(0));
            Ok(Value::Null)
        });
        c.method("checkInvariant", |ctx, this, _| {
            let mut n = 0i64;
            let mut bucket = ctx.get(this, "table");
            while !bucket.is_null() {
                let mut cur = ctx.call_value(&bucket, "chain", &[])?;
                while !cur.is_null() {
                    n += 1;
                    cur = ctx.call_value(&cur, "next", &[])?;
                }
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            Ok(Value::Bool(n == ctx.get_int(this, "count")))
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let set = rooted(d, "HashedSet", &[])?;
    let a = set.as_ref_id().expect("ref");
    for i in 0..9 {
        d.call(a, "add", &[int(i)])?;
    }
    d.call(a, "add", &[int(3)])?; // duplicate
    d.call_absorbed(a, "remove", &[int(5)]);
    d.call_absorbed(a, "remove", &[int(99)]);
    let other = rooted(d, "HashedSet", &[])?;
    let b = other.as_ref_id().expect("ref");
    for i in [1, 3, 5, 7, 11] {
        d.call(b, "add", &[int(i)])?;
    }
    d.call(a, "addAll", &[other.clone()])?;
    d.call(a, "retainAll", &[other])?;
    for _ in 0..2 {
        for i in [1, 3, 7, 42] {
            d.call_absorbed(a, "contains", &[int(i)]);
        }
        d.call_absorbed(a, "size", &[]);
        d.call_absorbed(a, "isEmpty", &[]);
        d.call_absorbed(a, "checkInvariant", &[]);
    }
    d.call_absorbed(b, "clear", &[]);
    d.call_absorbed(b, "isEmpty", &[]);
    Ok(Value::Null)
}

/// The `HashedSet` program.
pub fn program() -> FnProgram {
    FnProgram::new("HashedSet", build_registry, driver)
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
    use crate::util::s;
    use atomask_mor::{Program, Vm};

    fn fresh() -> (Vm, ObjId) {
        let mut vm = Vm::new(build_registry());
        let a = vm.construct("HashedSet", &[]).unwrap();
        vm.root(a);
        (vm, a)
    }

    #[test]
    fn add_is_idempotent() {
        let (mut vm, a) = fresh();
        assert_eq!(vm.call(a, "add", &[int(1)]).unwrap(), Value::Bool(true));
        assert_eq!(vm.call(a, "add", &[int(1)]).unwrap(), Value::Bool(false));
        assert_eq!(vm.call(a, "size", &[]).unwrap(), int(1));
        assert_eq!(
            vm.call(a, "contains", &[int(1)]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn rehash_preserves_membership() {
        let (mut vm, a) = fresh();
        for i in 0..25 {
            vm.call(a, "add", &[int(i)]).unwrap();
        }
        for i in 0..25 {
            assert_eq!(
                vm.call(a, "contains", &[int(i)]).unwrap(),
                Value::Bool(true),
                "element {i}"
            );
        }
        assert_eq!(vm.call(a, "size", &[]).unwrap(), int(25));
        assert_eq!(
            vm.call(a, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn union_and_intersection() {
        let (mut vm, a) = fresh();
        for i in [1, 2, 3] {
            vm.call(a, "add", &[int(i)]).unwrap();
        }
        let b = vm.construct("HashedSet", &[]).unwrap();
        vm.root(b);
        for i in [2, 3, 4] {
            vm.call(b, "add", &[int(i)]).unwrap();
        }
        vm.call(a, "addAll", &[Value::Ref(b)]).unwrap();
        assert_eq!(vm.call(a, "size", &[]).unwrap(), int(4));
        vm.call(a, "retainAll", &[Value::Ref(b)]).unwrap();
        assert_eq!(vm.call(a, "size", &[]).unwrap(), int(3));
        assert_eq!(
            vm.call(a, "contains", &[int(1)]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn remove_returns_membership() {
        let (mut vm, a) = fresh();
        vm.call(a, "add", &[s("x")]).unwrap();
        assert_eq!(vm.call(a, "remove", &[s("x")]).unwrap(), Value::Bool(true));
        assert_eq!(vm.call(a, "remove", &[s("x")]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
