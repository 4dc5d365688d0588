//! The `RBMap` application: a red-black tree map with integer keys, in the
//! style of `java.util.TreeMap` (which is itself derived from the CLR
//! algorithms the Doug Lea collections use).
//!
//! The rebalancing machinery — `rotateLeft`, `rotateRight`,
//! `fixAfterInsertion`, `fixAfterDeletion` — consists of long chains of
//! pointer updates performed through node accessor methods, which makes it
//! a rich source of failure non-atomic methods under exception injection.

use super::rbcore::{
    delete_entry, fix_after_insertion, get_node, key_of, left_of, min_node, rb_invariant,
    register_node, right_of, BLACK,
};
use crate::util::{int, rooted};
use atomask_mor::{
    Driver, FnProgram, MethodResult, ObjId, Profile, Registry, RegistryBuilder, Value, Vm,
};

fn register(rb: &mut RegistryBuilder) {
    register_node(rb, "RBNode");
    rb.class("RBMap", |c| {
        c.field("root", Value::Null);
        c.field("size", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
            .never_throws();
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "size") == 0))
        });
        c.method("get", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            let node = get_node(ctx, this, k)?;
            if node.is_null() {
                return Ok(Value::Null);
            }
            ctx.call_value(&node, "value", &[])
        });
        c.method("containsKey", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            Ok(Value::Bool(!get_node(ctx, this, k)?.is_null()))
        });
        // Vulnerable order: size bumped before insertion and rebalancing.
        c.method("put", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            let root = ctx.get(this, "root");
            if root.is_null() {
                ctx.set(this, "size", int(1));
                let node = ctx.new_object("RBNode", &[args[0].clone(), args[1].clone()])?;
                ctx.call(node, "setColor", &[int(BLACK)])?;
                ctx.set(this, "root", Value::Ref(node));
                return Ok(Value::Null);
            }
            let mut t = root;
            loop {
                let tk = key_of(ctx, &t)?;
                if k == tk {
                    let old = ctx.call_value(&t, "value", &[])?;
                    ctx.call_value(&t, "setValue", &[args[1].clone()])?;
                    return Ok(old);
                }
                let next = if k < tk {
                    left_of(ctx, &t)?
                } else {
                    right_of(ctx, &t)?
                };
                if next.is_null() {
                    let size = ctx.get_int(this, "size");
                    ctx.set(this, "size", int(size + 1));
                    let node =
                        ctx.new_object("RBNode", &[args[0].clone(), args[1].clone(), t.clone()])?;
                    if k < tk {
                        ctx.call_value(&t, "setLeft", &[Value::Ref(node)])?;
                    } else {
                        ctx.call_value(&t, "setRight", &[Value::Ref(node)])?;
                    }
                    fix_after_insertion(ctx, this, Value::Ref(node))?;
                    return Ok(Value::Null);
                }
                t = next;
            }
        });
        c.method("remove", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            let node = get_node(ctx, this, k)?;
            if node.is_null() {
                return Ok(Value::Null);
            }
            let old = ctx.call_value(&node, "value", &[])?;
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size - 1));
            delete_entry(ctx, this, node)?;
            Ok(old)
        });
        c.method("firstKey", |ctx, this, _| {
            let root = ctx.get(this, "root");
            if root.is_null() {
                return Err(ctx.exception("NoSuchElementException", "firstKey on empty map"));
            }
            let node = min_node(ctx, root)?;
            ctx.call_value(&node, "key", &[])
        })
        .throws("NoSuchElementException");
        c.method("lastKey", |ctx, this, _| {
            let mut cur = ctx.get(this, "root");
            if cur.is_null() {
                return Err(ctx.exception("NoSuchElementException", "lastKey on empty map"));
            }
            loop {
                let r = right_of(ctx, &cur)?;
                if r.is_null() {
                    return ctx.call_value(&cur, "key", &[]);
                }
                cur = r;
            }
        })
        .throws("NoSuchElementException");
        c.method("clear", |ctx, this, _| {
            ctx.set(this, "root", Value::Null);
            ctx.set(this, "size", int(0));
            Ok(Value::Null)
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let map = rooted(d, "RBMap", &[])?;
    let m = map.as_ref_id().expect("ref");
    // Keys in an order that exercises every rebalancing case.
    for k in [50, 20, 70, 10, 30, 60, 90, 5, 25, 35, 80] {
        d.call(m, "put", &[int(k), int(k * 10)])?;
    }
    d.call(m, "put", &[int(30), int(999)])?; // update
    d.call_absorbed(m, "remove", &[int(20)]); // internal node
    d.call_absorbed(m, "remove", &[int(90)]); // near-leaf
    d.call_absorbed(m, "remove", &[int(123)]); // missing
    for _ in 0..2 {
        for k in [5, 25, 35, 50, 60, 123] {
            d.call_absorbed(m, "get", &[int(k)]);
            d.call_absorbed(m, "containsKey", &[int(k)]);
        }
        d.call_absorbed(m, "firstKey", &[]);
        d.call_absorbed(m, "lastKey", &[]);
        d.call_absorbed(m, "size", &[]);
        d.call_absorbed(m, "isEmpty", &[]);
    }
    d.call_absorbed(m, "clear", &[]);
    d.call_absorbed(m, "firstKey", &[]); // empty error path
    Ok(Value::Null)
}

/// The `RBMap` program.
pub fn program() -> FnProgram {
    FnProgram::new("RBMap", build_registry, driver)
}

/// Builds the program's registry.
pub fn build_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    register(&mut rb);
    rb.build()
}

/// Exposed for tests/benches: host-side red-black invariant check.
pub fn invariant_holds(vm: &Vm, map: ObjId) -> bool {
    rb_invariant(vm, map, "RBNode")
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::Program;
    use std::collections::BTreeMap;

    fn fresh() -> (Vm, ObjId) {
        let mut vm = Vm::new(build_registry());
        let m = vm.construct("RBMap", &[]).unwrap();
        vm.root(m);
        (vm, m)
    }

    #[test]
    fn put_get_update() {
        let (mut vm, m) = fresh();
        assert_eq!(vm.call(m, "put", &[int(5), int(50)]).unwrap(), Value::Null);
        assert_eq!(vm.call(m, "put", &[int(5), int(55)]).unwrap(), int(50));
        assert_eq!(vm.call(m, "get", &[int(5)]).unwrap(), int(55));
        assert_eq!(vm.call(m, "get", &[int(9)]).unwrap(), Value::Null);
    }

    #[test]
    fn matches_btreemap_model_under_mixed_ops() {
        let (mut vm, m) = fresh();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        // Deterministic pseudo-random op sequence.
        let mut x: i64 = 12345;
        for step in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33).rem_euclid(40);
            match step % 3 {
                0 | 1 => {
                    let expected = model.insert(k, step);
                    let got = vm.call(m, "put", &[int(k), int(step)]).unwrap();
                    assert_eq!(got, expected.map(int).unwrap_or(Value::Null), "put {k}");
                }
                _ => {
                    let expected = model.remove(&k);
                    let got = vm.call(m, "remove", &[int(k)]).unwrap();
                    assert_eq!(got, expected.map(int).unwrap_or(Value::Null), "remove {k}");
                }
            }
            assert!(
                invariant_holds(&vm, m),
                "RB invariant broken at step {step}"
            );
            assert_eq!(
                vm.call(m, "size", &[]).unwrap(),
                int(model.len() as i64),
                "size at step {step}"
            );
        }
        // Final content check.
        for (k, v) in &model {
            assert_eq!(vm.call(m, "get", &[int(*k)]).unwrap(), int(*v));
        }
        if let Some((k, _)) = model.iter().next() {
            assert_eq!(vm.call(m, "firstKey", &[]).unwrap(), int(*k));
        }
        if let Some((k, _)) = model.iter().next_back() {
            assert_eq!(vm.call(m, "lastKey", &[]).unwrap(), int(*k));
        }
    }

    #[test]
    fn first_and_last_key() {
        let (mut vm, m) = fresh();
        for k in [10, 5, 20, 1, 7] {
            vm.call(m, "put", &[int(k), int(0)]).unwrap();
        }
        assert_eq!(vm.call(m, "firstKey", &[]).unwrap(), int(1));
        assert_eq!(vm.call(m, "lastKey", &[]).unwrap(), int(20));
    }

    #[test]
    fn empty_map_errors() {
        let (mut vm, m) = fresh();
        assert!(vm.call(m, "firstKey", &[]).is_err());
        assert!(vm.call(m, "lastKey", &[]).is_err());
        assert_eq!(vm.call(m, "remove", &[int(1)]).unwrap(), Value::Null);
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
