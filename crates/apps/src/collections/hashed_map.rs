//! The `HashedMap` application: a chained hash table.
//!
//! Buckets live on the managed heap as a linked chain of `HBucket` objects
//! (the runtime has no arrays); each bucket holds a chain of `HEntry`
//! objects. `rehash` rebuilds the whole table — a long multi-step mutation
//! that is only triggered when the load factor is exceeded, i.e. rarely:
//! exactly the kind of infrequently-called failure non-atomic method the
//! paper says "would probably not have been discovered without the
//! automated exception injections".

use crate::util::{int, rooted, s};
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

fn register_entry_and_bucket(rb: &mut RegistryBuilder) {
    rb.class("HEntry", |c| {
        c.field("key", Value::Null);
        c.field("hash", int(0));
        c.field("value", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "key", args[0].clone());
            ctx.set(this, "hash", args[1].clone());
            ctx.set(this, "value", args[2].clone());
            Ok(Value::Null)
        });
        c.method("key", |ctx, this, _| Ok(ctx.get(this, "key")));
        c.method("hash", |ctx, this, _| Ok(ctx.get(this, "hash")));
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
    rb.class("HBucket", |c| {
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
}

/// Walks to the `i`-th bucket of the table chain.
fn bucket_at(ctx: &mut Ctx<'_>, this: ObjId, i: i64) -> MethodResult {
    let mut cur = ctx.get(this, "table");
    for _ in 0..i {
        cur = ctx.call_value(&cur, "next", &[])?;
    }
    Ok(cur)
}

fn register(rb: &mut RegistryBuilder) {
    register_entry_and_bucket(rb);
    rb.class("HashedMap", |c| {
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
        // Builds a fresh bucket chain of `n` buckets and installs it.
        // Vulnerable: bucket count written before the chain is complete.
        c.method("growTable", |ctx, this, args| {
            let n = args[0].as_int().unwrap_or(4);
            ctx.set(this, "buckets", int(n));
            ctx.set(this, "threshold", int(n * 2));
            let mut head = Value::Null;
            for _ in 0..n {
                let b = ctx.new_object("HBucket", &[])?;
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
        c.method("get", |ctx, this, args| {
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h])?;
            let mut cur = ctx.call_value(&bucket, "chain", &[])?;
            while !cur.is_null() {
                let k = ctx.call_value(&cur, "key", &[])?;
                if k == args[0] {
                    return ctx.call_value(&cur, "value", &[]);
                }
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Null)
        });
        c.method("containsKey", |ctx, this, args| {
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h])?;
            let mut cur = ctx.call_value(&bucket, "chain", &[])?;
            while !cur.is_null() {
                let k = ctx.call_value(&cur, "key", &[])?;
                if k == args[0] {
                    return Ok(Value::Bool(true));
                }
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Bool(false))
        });
        // Vulnerable: count bumped before the entry is linked; rehash runs
        // after the insert.
        c.method("put", |ctx, this, args| {
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h.clone()])?;
            let mut cur = ctx.call_value(&bucket, "chain", &[])?;
            while !cur.is_null() {
                let k = ctx.call_value(&cur, "key", &[])?;
                if k == args[0] {
                    let old = ctx.call_value(&cur, "value", &[])?;
                    ctx.call_value(&cur, "setValue", &[args[1].clone()])?;
                    return Ok(old);
                }
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            let count = ctx.get_int(this, "count");
            ctx.set(this, "count", int(count + 1));
            let entry = ctx.new_object("HEntry", &[args[0].clone(), h, args[1].clone()])?;
            let chain = ctx.call_value(&bucket, "chain", &[])?;
            ctx.call(entry, "setNext", &[chain])?;
            ctx.call_value(&bucket, "setChain", &[Value::Ref(entry)])?;
            if count + 1 > ctx.get_int(this, "threshold") {
                ctx.call(this, "rehash", &[])?;
            }
            Ok(Value::Null)
        });
        // Rebuilds the table with twice the buckets: collects all entries,
        // installs a fresh chain, reinserts one by one. Rarely called, and
        // thoroughly non-atomic.
        c.method("rehash", |ctx, this, _| {
            let buckets = ctx.get_int(this, "buckets");
            // Collect entries (reads only).
            let mut entries = Vec::new();
            let mut bucket = ctx.get(this, "table");
            while !bucket.is_null() {
                let mut cur = ctx.call_value(&bucket, "chain", &[])?;
                while !cur.is_null() {
                    let k = ctx.call_value(&cur, "key", &[])?;
                    let v = ctx.call_value(&cur, "value", &[])?;
                    entries.push((k, v));
                    cur = ctx.call_value(&cur, "next", &[])?;
                }
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            // Install the larger table, then reinsert.
            ctx.set(this, "count", int(0));
            ctx.call(this, "growTable", &[int(buckets * 2)])?;
            for (k, v) in entries {
                ctx.call(this, "put", &[k, v])?;
            }
            Ok(Value::Null)
        });
        c.method("remove", |ctx, this, args| {
            let h = ctx.call(this, "hashOf", &[args[0].clone()])?;
            let bucket = ctx.call(this, "bucketFor", &[h])?;
            let chain = ctx.call_value(&bucket, "chain", &[])?;
            if chain.is_null() {
                return Ok(Value::Null);
            }
            let count = ctx.get_int(this, "count");
            let hk = ctx.call_value(&chain, "key", &[])?;
            if hk == args[0] {
                ctx.set(this, "count", int(count - 1));
                let v = ctx.call_value(&chain, "value", &[])?;
                let next = ctx.call_value(&chain, "next", &[])?;
                ctx.call_value(&bucket, "setChain", &[next])?;
                return Ok(v);
            }
            let mut prev = chain;
            loop {
                let cur = ctx.call_value(&prev, "next", &[])?;
                if cur.is_null() {
                    return Ok(Value::Null);
                }
                let k = ctx.call_value(&cur, "key", &[])?;
                if k == args[0] {
                    ctx.set(this, "count", int(count - 1));
                    let v = ctx.call_value(&cur, "value", &[])?;
                    let next = ctx.call_value(&cur, "next", &[])?;
                    ctx.call_value(&prev, "setNext", &[next])?;
                    return Ok(v);
                }
                prev = cur;
            }
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
            let mut buckets = 0i64;
            while !bucket.is_null() {
                buckets += 1;
                let mut cur = ctx.call_value(&bucket, "chain", &[])?;
                while !cur.is_null() {
                    n += 1;
                    cur = ctx.call_value(&cur, "next", &[])?;
                }
                bucket = ctx.call_value(&bucket, "next", &[])?;
            }
            Ok(Value::Bool(
                n == ctx.get_int(this, "count") && buckets == ctx.get_int(this, "buckets"),
            ))
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let map = rooted(d, "HashedMap", &[])?;
    let m = map.as_ref_id().expect("ref");
    // Enough puts to cross the initial threshold and trigger a rehash.
    for (i, k) in [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota",
    ]
    .iter()
    .enumerate()
    {
        d.call(m, "put", &[s(k), int(i as i64)])?;
    }
    d.call(m, "put", &[s("beta"), int(200)])?;
    d.call_absorbed(m, "remove", &[s("gamma")]);
    d.call_absorbed(m, "remove", &[s("missing")]);
    for _ in 0..2 {
        for k in ["alpha", "beta", "delta", "missing"] {
            d.call_absorbed(m, "get", &[s(k)]);
            d.call_absorbed(m, "containsKey", &[s(k)]);
        }
        d.call_absorbed(m, "size", &[]);
        d.call_absorbed(m, "isEmpty", &[]);
        d.call_absorbed(m, "checkInvariant", &[]);
    }
    d.call_absorbed(m, "clear", &[]);
    d.call_absorbed(m, "isEmpty", &[]);
    Ok(Value::Null)
}

/// The `HashedMap` program.
pub fn program() -> FnProgram {
    FnProgram::new("HashedMap", build_registry, driver)
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
    use atomask_mor::{Program, Vm};

    fn fresh() -> (Vm, ObjId) {
        let mut vm = Vm::new(build_registry());
        let m = vm.construct("HashedMap", &[]).unwrap();
        vm.root(m);
        (vm, m)
    }

    #[test]
    fn put_get_update_remove() {
        let (mut vm, m) = fresh();
        assert_eq!(vm.call(m, "put", &[s("a"), int(1)]).unwrap(), Value::Null);
        assert_eq!(vm.call(m, "put", &[s("a"), int(2)]).unwrap(), int(1));
        assert_eq!(vm.call(m, "get", &[s("a")]).unwrap(), int(2));
        assert_eq!(vm.call(m, "remove", &[s("a")]).unwrap(), int(2));
        assert_eq!(vm.call(m, "get", &[s("a")]).unwrap(), Value::Null);
        assert_eq!(vm.call(m, "size", &[]).unwrap(), int(0));
    }

    #[test]
    fn rehash_preserves_entries() {
        let (mut vm, m) = fresh();
        let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            vm.call(m, "put", &[s(k), int(i as i64)]).unwrap();
        }
        // Threshold starts at 8, so several rehashes ran.
        let buckets = vm.heap().field(m, "buckets").unwrap().as_int().unwrap();
        assert!(buckets > 4, "table should have grown, buckets={buckets}");
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(vm.call(m, "get", &[s(k)]).unwrap(), int(i as i64), "{k}");
        }
        assert_eq!(vm.call(m, "size", &[]).unwrap(), int(20));
        assert_eq!(
            vm.call(m, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn int_and_bool_keys_hash() {
        let (mut vm, m) = fresh();
        vm.call(m, "put", &[int(-5), s("neg")]).unwrap();
        vm.call(m, "put", &[Value::Bool(true), s("yes")]).unwrap();
        assert_eq!(vm.call(m, "get", &[int(-5)]).unwrap(), s("neg"));
        assert_eq!(vm.call(m, "get", &[Value::Bool(true)]).unwrap(), s("yes"));
    }

    #[test]
    fn clear_empties_but_keeps_buckets() {
        let (mut vm, m) = fresh();
        vm.call(m, "put", &[s("a"), int(1)]).unwrap();
        vm.call(m, "clear", &[]).unwrap();
        assert_eq!(vm.call(m, "isEmpty", &[]).unwrap(), Value::Bool(true));
        assert_eq!(
            vm.call(m, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
