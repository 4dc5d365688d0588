//! The `LinkedBuffer` application: a chunked string buffer in the style of
//! Doug Lea's `LinkedBuffer`.

use crate::util::{int, rooted, s};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

fn register(rb: &mut RegistryBuilder) {
    rb.class("Chunk", |c| {
        c.field("data", Value::from(""));
        c.field("next", Value::Null);
        c.ctor(|ctx, this, args| {
            if let Some(v) = args.first() {
                ctx.set(this, "data", v.clone());
            }
            Ok(Value::Null)
        });
        c.method("data", |ctx, this, _| Ok(ctx.get(this, "data")));
        c.method("setData", |ctx, this, args| {
            ctx.set(this, "data", args[0].clone());
            Ok(Value::Null)
        });
        c.method("next", |ctx, this, _| Ok(ctx.get(this, "next")));
        c.method("setNext", |ctx, this, args| {
            ctx.set(this, "next", args[0].clone());
            Ok(Value::Null)
        });
        c.method("len", |ctx, this, _| {
            Ok(int(ctx.get_str(this, "data").len() as i64))
        });
    });
    rb.class("LinkedBuffer", |c| {
        c.field("head", Value::Null);
        c.field("tail", Value::Null);
        c.field("length", int(0));
        c.field("chunks", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        c.method("length", |ctx, this, _| Ok(ctx.get(this, "length")))
            .never_throws();
        c.method("chunkCount", |ctx, this, _| Ok(ctx.get(this, "chunks")));
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "length") == 0))
        });
        // Vulnerable order: counters first, linking after.
        c.method("append", |ctx, this, args| {
            let text = args[0].as_str().unwrap_or("").to_owned();
            let length = ctx.get_int(this, "length");
            ctx.set(this, "length", int(length + text.len() as i64));
            let chunks = ctx.get_int(this, "chunks");
            ctx.set(this, "chunks", int(chunks + 1));
            let chunk = ctx.new_object("Chunk", &[args[0].clone()])?;
            let tail = ctx.get(this, "tail");
            if tail.is_null() {
                ctx.set(this, "head", Value::Ref(chunk));
            } else {
                ctx.call_value(&tail, "setNext", &[Value::Ref(chunk)])?;
            }
            ctx.set(this, "tail", Value::Ref(chunk));
            Ok(Value::Null)
        });
        c.method("prepend", |ctx, this, args| {
            let text = args[0].as_str().unwrap_or("").to_owned();
            let length = ctx.get_int(this, "length");
            ctx.set(this, "length", int(length + text.len() as i64));
            let chunks = ctx.get_int(this, "chunks");
            ctx.set(this, "chunks", int(chunks + 1));
            let chunk = ctx.new_object("Chunk", &[args[0].clone()])?;
            let head = ctx.get(this, "head");
            ctx.call(chunk, "setNext", &[head.clone()])?;
            ctx.set(this, "head", Value::Ref(chunk));
            if head.is_null() {
                ctx.set(this, "tail", Value::Ref(chunk));
            }
            Ok(Value::Null)
        });
        // Read-only concatenation walk: atomic.
        c.method("toStr", |ctx, this, _| {
            let mut out = String::new();
            let mut cur = ctx.get(this, "head");
            while !cur.is_null() {
                let d = ctx.call_value(&cur, "data", &[])?;
                out.push_str(d.as_str().unwrap_or(""));
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::from(out))
        });
        c.method("firstChunk", |ctx, this, _| {
            let head = ctx.get(this, "head");
            if head.is_null() {
                return Ok(Value::from(""));
            }
            ctx.call_value(&head, "data", &[])
        });
        // Drops the first chunk. Vulnerable: counters updated before the
        // relink completes.
        c.method("dropFirst", |ctx, this, _| {
            let head = ctx.get(this, "head");
            if head.is_null() {
                return Ok(Value::Null);
            }
            let len = ctx.call_value(&head, "len", &[])?;
            let length = ctx.get_int(this, "length");
            ctx.set(this, "length", int(length - len.as_int().unwrap_or(0)));
            let chunks = ctx.get_int(this, "chunks");
            ctx.set(this, "chunks", int(chunks - 1));
            let next = ctx.call_value(&head, "next", &[])?;
            ctx.set(this, "head", next.clone());
            if next.is_null() {
                ctx.set(this, "tail", Value::Null);
            }
            ctx.call_value(&head, "data", &[])
        });
        // Merges small neighbouring chunks — a rarely-called maintenance
        // pass with many interleaved mutations.
        c.method("compact", |ctx, this, _| {
            let mut cur = ctx.get(this, "head");
            while !cur.is_null() {
                let next = ctx.call_value(&cur, "next", &[])?;
                if next.is_null() {
                    break;
                }
                let a = ctx.call_value(&cur, "data", &[])?;
                let b = ctx.call_value(&next, "data", &[])?;
                let (a, b) = (
                    a.as_str().unwrap_or("").to_owned(),
                    b.as_str().unwrap_or("").to_owned(),
                );
                if a.len() + b.len() <= 8 {
                    ctx.call_value(&cur, "setData", &[Value::from(format!("{a}{b}"))])?;
                    let after = ctx.call_value(&next, "next", &[])?;
                    ctx.call_value(&cur, "setNext", &[after.clone()])?;
                    if after.is_null() {
                        ctx.set(this, "tail", cur.clone());
                    }
                    let chunks = ctx.get_int(this, "chunks");
                    ctx.set(this, "chunks", int(chunks - 1));
                } else {
                    cur = next;
                }
            }
            Ok(Value::Null)
        });
        c.method("appendBuffer", |ctx, this, args| {
            let other = match &args[0] {
                Value::Ref(id) => *id,
                _ => return Ok(Value::Null),
            };
            let mut cur = ctx.get(other, "head");
            while !cur.is_null() {
                let d = ctx.call_value(&cur, "data", &[])?;
                ctx.call(this, "append", &[d])?;
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Null)
        });
        c.method("clear", |ctx, this, _| {
            ctx.set(this, "head", Value::Null);
            ctx.set(this, "tail", Value::Null);
            ctx.set(this, "length", int(0));
            ctx.set(this, "chunks", int(0));
            Ok(Value::Null)
        });
        c.method("checkInvariant", |ctx, this, _| {
            let mut total = 0i64;
            let mut n = 0i64;
            let mut cur = ctx.get(this, "head");
            while !cur.is_null() {
                let len = ctx.call_value(&cur, "len", &[])?;
                total += len.as_int().unwrap_or(0);
                n += 1;
                cur = ctx.call_value(&cur, "next", &[])?;
            }
            Ok(Value::Bool(
                total == ctx.get_int(this, "length") && n == ctx.get_int(this, "chunks"),
            ))
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let buf = rooted(d, "LinkedBuffer", &[])?;
    let b = buf.as_ref_id().expect("ref");
    for word in ["hello", " ", "world", "!", " ", "abc"] {
        d.call(b, "append", &[s(word)])?;
    }
    d.call(b, "prepend", &[s(">> ")])?;
    d.call_absorbed(b, "dropFirst", &[]);
    d.call_absorbed(b, "compact", &[]);
    let other = rooted(d, "LinkedBuffer", &[])?;
    let o = other.as_ref_id().expect("ref");
    d.call(o, "append", &[s("tail")])?;
    d.call(b, "appendBuffer", &[other])?;
    for _ in 0..3 {
        d.call_absorbed(b, "toStr", &[]);
        d.call_absorbed(b, "length", &[]);
        d.call_absorbed(b, "chunkCount", &[]);
        d.call_absorbed(b, "firstChunk", &[]);
        d.call_absorbed(b, "isEmpty", &[]);
        d.call_absorbed(b, "checkInvariant", &[]);
    }
    d.call_absorbed(o, "clear", &[]);
    d.call_absorbed(b, "dropFirst", &[]);
    Ok(Value::Null)
}

/// The `LinkedBuffer` program.
pub fn program() -> FnProgram {
    FnProgram::new("LinkedBuffer", build_registry, driver)
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
        let b = vm.construct("LinkedBuffer", &[]).unwrap();
        vm.root(b);
        (vm, b)
    }

    fn text(vm: &mut Vm, b: ObjId) -> String {
        vm.call(b, "toStr", &[])
            .unwrap()
            .as_str()
            .unwrap()
            .to_owned()
    }

    #[test]
    fn append_prepend_to_str() {
        let (mut vm, b) = fresh();
        vm.call(b, "append", &[s("bc")]).unwrap();
        vm.call(b, "append", &[s("d")]).unwrap();
        vm.call(b, "prepend", &[s("a")]).unwrap();
        assert_eq!(text(&mut vm, b), "abcd");
        assert_eq!(vm.call(b, "length", &[]).unwrap(), int(4));
        assert_eq!(vm.call(b, "chunkCount", &[]).unwrap(), int(3));
        assert_eq!(
            vm.call(b, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn drop_first_returns_chunk() {
        let (mut vm, b) = fresh();
        vm.call(b, "append", &[s("one")]).unwrap();
        vm.call(b, "append", &[s("two")]).unwrap();
        assert_eq!(vm.call(b, "dropFirst", &[]).unwrap(), s("one"));
        assert_eq!(text(&mut vm, b), "two");
        assert_eq!(vm.call(b, "length", &[]).unwrap(), int(3));
    }

    #[test]
    fn compact_merges_small_chunks() {
        let (mut vm, b) = fresh();
        for w in ["ab", "cd", "ef", "a-very-long-chunk", "gh"] {
            vm.call(b, "append", &[s(w)]).unwrap();
        }
        let before = text(&mut vm, b);
        vm.call(b, "compact", &[]).unwrap();
        assert_eq!(text(&mut vm, b), before, "compaction preserves content");
        let chunks = vm.call(b, "chunkCount", &[]).unwrap().as_int().unwrap();
        assert!(chunks < 5);
        assert_eq!(
            vm.call(b, "checkInvariant", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn append_buffer_copies_other() {
        let (mut vm, b) = fresh();
        vm.call(b, "append", &[s("x")]).unwrap();
        let o = vm.construct("LinkedBuffer", &[]).unwrap();
        vm.root(o);
        vm.call(o, "append", &[s("y")]).unwrap();
        vm.call(o, "append", &[s("z")]).unwrap();
        vm.call(b, "appendBuffer", &[Value::Ref(o)]).unwrap();
        assert_eq!(text(&mut vm, b), "xyz");
        assert_eq!(text(&mut vm, o), "yz", "source untouched");
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
