//! The `RBTree` application: a red-black tree *set* over integer keys,
//! sharing the CLR machinery of the crate-private `rbcore` module but with its own node
//! class and set-flavoured API (`add`/`contains`/`remove`/`min`/`max`).

use super::rbcore::{
    delete_entry, fix_after_insertion, get_node, key_of, left_of, min_node, rb_invariant,
    register_node, right_of, BLACK,
};
use crate::util::{int, rooted};
use atomask_mor::{
    Driver, FnProgram, MethodResult, ObjId, Profile, Registry, RegistryBuilder, Value, Vm,
};

fn register(rb: &mut RegistryBuilder) {
    register_node(rb, "TNode");
    rb.class("RBTree", |c| {
        c.field("root", Value::Null);
        c.field("size", int(0));
        c.field("adds", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
            .never_throws();
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "size") == 0))
        });
        c.method("contains", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            Ok(Value::Bool(!get_node(ctx, this, k)?.is_null()))
        });
        // Returns true iff inserted. Vulnerable: statistics and size
        // updated before the node is linked and the tree rebalanced.
        c.method("add", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            let adds = ctx.get_int(this, "adds");
            ctx.set(this, "adds", int(adds + 1));
            let root = ctx.get(this, "root");
            if root.is_null() {
                ctx.set(this, "size", int(1));
                let node = ctx.new_object("TNode", &[args[0].clone()])?;
                ctx.call(node, "setColor", &[int(BLACK)])?;
                ctx.set(this, "root", Value::Ref(node));
                return Ok(Value::Bool(true));
            }
            let mut t = root;
            loop {
                let tk = key_of(ctx, &t)?;
                if k == tk {
                    return Ok(Value::Bool(false));
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
                        ctx.new_object("TNode", &[args[0].clone(), Value::Null, t.clone()])?;
                    if k < tk {
                        ctx.call_value(&t, "setLeft", &[Value::Ref(node)])?;
                    } else {
                        ctx.call_value(&t, "setRight", &[Value::Ref(node)])?;
                    }
                    fix_after_insertion(ctx, this, Value::Ref(node))?;
                    return Ok(Value::Bool(true));
                }
                t = next;
            }
        });
        c.method("remove", |ctx, this, args| {
            let k = args[0].as_int().unwrap_or(0);
            let node = get_node(ctx, this, k)?;
            if node.is_null() {
                return Ok(Value::Bool(false));
            }
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size - 1));
            delete_entry(ctx, this, node)?;
            Ok(Value::Bool(true))
        });
        c.method("min", |ctx, this, _| {
            let root = ctx.get(this, "root");
            if root.is_null() {
                return Err(ctx.exception("NoSuchElementException", "min of empty set"));
            }
            let node = min_node(ctx, root)?;
            ctx.call_value(&node, "key", &[])
        })
        .throws("NoSuchElementException");
        c.method("max", |ctx, this, _| {
            let mut cur = ctx.get(this, "root");
            if cur.is_null() {
                return Err(ctx.exception("NoSuchElementException", "max of empty set"));
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
        // Counts keys in [lo, hi] by descending recursively through
        // accessor calls — read-only.
        c.method("countRange", |ctx, this, args| {
            let lo = args[0].as_int().unwrap_or(i64::MIN);
            let hi = args[1].as_int().unwrap_or(i64::MAX);
            let root = ctx.get(this, "root");
            let mut stack = vec![root];
            let mut n = 0i64;
            while let Some(cur) = stack.pop() {
                if cur.is_null() {
                    continue;
                }
                let k = key_of(ctx, &cur)?;
                if k >= lo && k <= hi {
                    n += 1;
                }
                if k > lo {
                    stack.push(left_of(ctx, &cur)?);
                }
                if k < hi {
                    stack.push(right_of(ctx, &cur)?);
                }
            }
            Ok(int(n))
        });
        c.method("addAll", |ctx, this, args| {
            let other = match &args[0] {
                Value::Ref(id) => *id,
                _ => return Ok(Value::Null),
            };
            let mut stack = vec![ctx.get(other, "root")];
            while let Some(cur) = stack.pop() {
                if cur.is_null() {
                    continue;
                }
                let k = ctx.call_value(&cur, "key", &[])?;
                ctx.call(this, "add", &[k])?;
                stack.push(left_of(ctx, &cur)?);
                stack.push(right_of(ctx, &cur)?);
            }
            Ok(Value::Null)
        });
        c.method("clear", |ctx, this, _| {
            ctx.set(this, "root", Value::Null);
            ctx.set(this, "size", int(0));
            Ok(Value::Null)
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let tree = rooted(d, "RBTree", &[])?;
    let t = tree.as_ref_id().expect("ref");
    for k in [8, 3, 12, 1, 6, 10, 14, 4, 7, 13] {
        d.call(t, "add", &[int(k)])?;
    }
    d.call(t, "add", &[int(6)])?; // duplicate
    d.call_absorbed(t, "remove", &[int(3)]);
    d.call_absorbed(t, "remove", &[int(14)]);
    d.call_absorbed(t, "remove", &[int(99)]);
    let other = rooted(d, "RBTree", &[])?;
    let o = other.as_ref_id().expect("ref");
    for k in [2, 6, 20] {
        d.call(o, "add", &[int(k)])?;
    }
    d.call(t, "addAll", &[other])?;
    for _ in 0..2 {
        for k in [1, 4, 7, 20, 99] {
            d.call_absorbed(t, "contains", &[int(k)]);
        }
        d.call_absorbed(t, "min", &[]);
        d.call_absorbed(t, "max", &[]);
        d.call_absorbed(t, "countRange", &[int(4), int(12)]);
        d.call_absorbed(t, "size", &[]);
        d.call_absorbed(t, "isEmpty", &[]);
    }
    d.call_absorbed(o, "clear", &[]);
    d.call_absorbed(o, "min", &[]); // empty error path
    Ok(Value::Null)
}

/// The `RBTree` program.
pub fn program() -> FnProgram {
    FnProgram::new("RBTree", build_registry, driver)
}

/// Builds the program's registry.
pub fn build_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::java());
    register(&mut rb);
    rb.build()
}

/// Exposed for tests/benches: host-side red-black invariant check.
pub fn invariant_holds(vm: &Vm, tree: ObjId) -> bool {
    rb_invariant(vm, tree, "TNode")
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::Program;
    use std::collections::BTreeSet;

    fn fresh() -> (Vm, ObjId) {
        let mut vm = Vm::new(build_registry());
        let t = vm.construct("RBTree", &[]).unwrap();
        vm.root(t);
        (vm, t)
    }

    #[test]
    fn add_contains_remove() {
        let (mut vm, t) = fresh();
        assert_eq!(vm.call(t, "add", &[int(5)]).unwrap(), Value::Bool(true));
        assert_eq!(vm.call(t, "add", &[int(5)]).unwrap(), Value::Bool(false));
        assert_eq!(
            vm.call(t, "contains", &[int(5)]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(vm.call(t, "remove", &[int(5)]).unwrap(), Value::Bool(true));
        assert_eq!(vm.call(t, "remove", &[int(5)]).unwrap(), Value::Bool(false));
        assert_eq!(vm.call(t, "size", &[]).unwrap(), int(0));
    }

    #[test]
    fn matches_btreeset_model_under_mixed_ops() {
        let (mut vm, t) = fresh();
        let mut model: BTreeSet<i64> = BTreeSet::new();
        let mut x: i64 = 98765;
        for step in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33).rem_euclid(35);
            if step % 3 != 2 {
                let expected = model.insert(k);
                let got = vm.call(t, "add", &[int(k)]).unwrap();
                assert_eq!(got, Value::Bool(expected), "add {k} at step {step}");
            } else {
                let expected = model.remove(&k);
                let got = vm.call(t, "remove", &[int(k)]).unwrap();
                assert_eq!(got, Value::Bool(expected), "remove {k} at step {step}");
            }
            assert!(
                invariant_holds(&vm, t),
                "RB invariant broken at step {step}"
            );
        }
        assert_eq!(vm.call(t, "size", &[]).unwrap(), int(model.len() as i64));
        if let Some(min) = model.iter().next() {
            assert_eq!(vm.call(t, "min", &[]).unwrap(), int(*min));
            assert_eq!(
                vm.call(t, "max", &[]).unwrap(),
                int(*model.iter().next_back().unwrap())
            );
        }
    }

    #[test]
    fn count_range() {
        let (mut vm, t) = fresh();
        for k in 0..20 {
            vm.call(t, "add", &[int(k)]).unwrap();
        }
        assert_eq!(vm.call(t, "countRange", &[int(5), int(9)]).unwrap(), int(5));
        assert_eq!(
            vm.call(t, "countRange", &[int(-5), int(100)]).unwrap(),
            int(20)
        );
        assert_eq!(
            vm.call(t, "countRange", &[int(30), int(40)]).unwrap(),
            int(0)
        );
    }

    #[test]
    fn add_all_unions() {
        let (mut vm, t) = fresh();
        for k in [1, 2] {
            vm.call(t, "add", &[int(k)]).unwrap();
        }
        let o = vm.construct("RBTree", &[]).unwrap();
        vm.root(o);
        for k in [2, 3, 4] {
            vm.call(o, "add", &[int(k)]).unwrap();
        }
        vm.call(t, "addAll", &[Value::Ref(o)]).unwrap();
        assert_eq!(vm.call(t, "size", &[]).unwrap(), int(4));
        assert!(invariant_holds(&vm, t));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
