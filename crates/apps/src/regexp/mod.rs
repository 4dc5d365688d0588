//! The `RegExp` application: a regular-expression engine in the style of
//! Jakarta RegExp.
//!
//! * A recursive-descent `Parser` compiles a pattern string into an AST of
//!   node objects on the managed heap (`RxChar`, `RxAny`, `RxSeq`, `RxAlt`,
//!   `RxStar`, `RxOpt`, `RxEnd`). The parser keeps its cursor in a field,
//!   so its methods are genuinely failure non-atomic — but compilation runs
//!   once per pattern, so those methods are *rarely called*, matching the
//!   paper's observation that non-atomic methods receive proportionally
//!   fewer calls.
//! * Matching walks the AST with an explicit continuation chain (`RxCont`),
//!   giving full backtracking semantics. Matching methods are read-only
//!   (fuel is threaded as an argument), hence failure atomic.
//! * `CharOps` is registered as a **core** class: under the Java profile it
//!   cannot be instrumented, reproducing the §5.2 limitation that core
//!   classes (strings, boxed integers) receive neither injections nor
//!   wrappers.
//!
//! Supported syntax: literals, `.`, `*`, `?`, `|`, and `(...)` grouping.

use crate::util::{int, rooted, s};
use atomask_mor::{
    Ctx, Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value,
};

/// Exception thrown on malformed patterns.
pub const SYNTAX_ERROR: &str = "RESyntaxException";
/// Exception thrown when the backtracking budget is exhausted.
pub const OVERFLOW: &str = "REOverflowException";

/// Matches the continuation chain: empty chain accepts.
fn cont_match(ctx: &mut Ctx<'_>, input: &Value, pos: i64, cont: &Value, fuel: i64) -> MethodResult {
    if cont.is_null() {
        return Ok(Value::Bool(true));
    }
    let node = ctx.call_value(cont, "node", &[])?;
    let next = ctx.call_value(cont, "next", &[])?;
    ctx.call_value(
        &node,
        "matchAt",
        &[input.clone(), int(pos), next, int(fuel)],
    )
}

fn burn(ctx: &mut Ctx<'_>, fuel: i64) -> Result<i64, atomask_mor::Exception> {
    if fuel <= 0 {
        return Err(ctx.exception(OVERFLOW, "backtracking budget exhausted"));
    }
    Ok(fuel - 1)
}

fn register(rb: &mut RegistryBuilder) {
    // Core class (not instrumentable under the Java profile).
    rb.class("CharOps", |c| {
        c.core();
        c.field("dummy", Value::Null);
        c.method("charAt", |_, _, args| {
            let text = args[0].as_str().unwrap_or("");
            let i = args[1].as_int().unwrap_or(-1);
            match text.chars().nth(i.max(0) as usize) {
                Some(ch) if i >= 0 => Ok(Value::from(&*ch.encode_utf8(&mut [0u8; 4]))),
                _ => Ok(Value::Null),
            }
        });
        c.method("len", |_, _, args| {
            Ok(int(
                args[0].as_str().map(|t| t.chars().count()).unwrap_or(0) as i64,
            ))
        });
    });
    rb.class("RxCont", |c| {
        c.field("node", Value::Null);
        c.field("next", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "node", args[0].clone());
            ctx.set(this, "next", args[1].clone());
            Ok(Value::Null)
        });
        c.method("node", |ctx, this, _| Ok(ctx.get(this, "node")));
        c.method("next", |ctx, this, _| Ok(ctx.get(this, "next")));
    });
    rb.class("RxChar", |c| {
        c.field("ch", Value::from(""));
        c.field("ops", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "ch", args[0].clone());
            ctx.set(this, "ops", args[1].clone());
            Ok(Value::Null)
        });
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let ops = ctx.get(this, "ops");
            let got = ctx.call_value(&ops, "charAt", &[args[0].clone(), args[1].clone()])?;
            let want = ctx.get(this, "ch");
            if got.is_null() || got != want {
                return Ok(Value::Bool(false));
            }
            let pos = args[1].as_int().unwrap_or(0);
            cont_match(ctx, &args[0], pos + 1, &args[2], fuel)
        })
        .throws(OVERFLOW);
    });
    rb.class("RxAny", |c| {
        c.field("ops", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "ops", args[0].clone());
            Ok(Value::Null)
        });
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let ops = ctx.get(this, "ops");
            let got = ctx.call_value(&ops, "charAt", &[args[0].clone(), args[1].clone()])?;
            if got.is_null() {
                return Ok(Value::Bool(false));
            }
            let pos = args[1].as_int().unwrap_or(0);
            cont_match(ctx, &args[0], pos + 1, &args[2], fuel)
        })
        .throws(OVERFLOW);
    });
    rb.class("RxSeq", |c| {
        c.field("first", Value::Null);
        c.field("second", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "first", args[0].clone());
            ctx.set(this, "second", args[1].clone());
            Ok(Value::Null)
        });
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let first = ctx.get(this, "first");
            let second = ctx.get(this, "second");
            let cont = ctx.new_object("RxCont", &[second, args[2].clone()])?;
            ctx.call_value(
                &first,
                "matchAt",
                &[
                    args[0].clone(),
                    args[1].clone(),
                    Value::Ref(cont),
                    int(fuel),
                ],
            )
        })
        .throws(OVERFLOW);
    });
    rb.class("RxAlt", |c| {
        c.field("left", Value::Null);
        c.field("right", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "left", args[0].clone());
            ctx.set(this, "right", args[1].clone());
            Ok(Value::Null)
        });
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let left = ctx.get(this, "left");
            let hit = ctx.call_value(
                &left,
                "matchAt",
                &[args[0].clone(), args[1].clone(), args[2].clone(), int(fuel)],
            )?;
            if hit == Value::Bool(true) {
                return Ok(hit);
            }
            let right = ctx.get(this, "right");
            ctx.call_value(
                &right,
                "matchAt",
                &[args[0].clone(), args[1].clone(), args[2].clone(), int(fuel)],
            )
        })
        .throws(OVERFLOW);
    });
    rb.class("RxStar", |c| {
        c.field("inner", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "inner", args[0].clone());
            Ok(Value::Null)
        });
        // Greedy with backtracking: try one more repetition, else the
        // continuation.
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let inner = ctx.get(this, "inner");
            let again = ctx.new_object("RxCont", &[Value::Ref(this), args[2].clone()])?;
            let hit = ctx.call_value(
                &inner,
                "matchAt",
                &[
                    args[0].clone(),
                    args[1].clone(),
                    Value::Ref(again),
                    int(fuel),
                ],
            )?;
            if hit == Value::Bool(true) {
                return Ok(hit);
            }
            let pos = args[1].as_int().unwrap_or(0);
            cont_match(ctx, &args[0], pos, &args[2], fuel)
        })
        .throws(OVERFLOW);
    });
    rb.class("RxOpt", |c| {
        c.field("inner", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "inner", args[0].clone());
            Ok(Value::Null)
        });
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let inner = ctx.get(this, "inner");
            let hit = ctx.call_value(
                &inner,
                "matchAt",
                &[args[0].clone(), args[1].clone(), args[2].clone(), int(fuel)],
            )?;
            if hit == Value::Bool(true) {
                return Ok(hit);
            }
            let pos = args[1].as_int().unwrap_or(0);
            cont_match(ctx, &args[0], pos, &args[2], fuel)
        })
        .throws(OVERFLOW);
    });
    rb.class("RxEmpty", |c| {
        c.field("dummy", Value::Null);
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let pos = args[1].as_int().unwrap_or(0);
            let _ = this;
            cont_match(ctx, &args[0], pos, &args[2], fuel)
        })
        .throws(OVERFLOW);
    });
    rb.class("RxEnd", |c| {
        c.field("ops", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "ops", args[0].clone());
            Ok(Value::Null)
        });
        c.method("matchAt", |ctx, this, args| {
            let fuel = burn(ctx, args[3].as_int().unwrap_or(0))?;
            let ops = ctx.get(this, "ops");
            let len = ctx.call_value(&ops, "len", &[args[0].clone()])?;
            if args[1] != len {
                return Ok(Value::Bool(false));
            }
            let pos = args[1].as_int().unwrap_or(0);
            cont_match(ctx, &args[0], pos, &args[2], fuel)
        })
        .throws(OVERFLOW);
    });

    // The recursive-descent pattern parser: its cursor lives in a field,
    // so a mid-parse exception leaves the parser visibly dirty.
    rb.class("Parser", |c| {
        c.field("pattern", Value::from(""));
        c.field("pos", int(0));
        c.field("ops", Value::Null);
        c.ctor(|ctx, this, args| {
            ctx.set(this, "pattern", args[0].clone());
            ctx.set(this, "ops", args[1].clone());
            Ok(Value::Null)
        });
        c.method("peek", |ctx, this, _| {
            let pattern = ctx.get(this, "pattern");
            let pos = ctx.get(this, "pos");
            let ops = ctx.get(this, "ops");
            ctx.call_value(&ops, "charAt", &[pattern, pos])
        });
        c.method("advance", |ctx, this, _| {
            let pos = ctx.get_int(this, "pos");
            ctx.set(this, "pos", int(pos + 1));
            Ok(Value::Null)
        });
        c.method("parseAlt", |ctx, this, _| {
            let mut node = ctx.call(this, "parseSeq", &[])?;
            loop {
                let ch = ctx.call(this, "peek", &[])?;
                if ch != s("|") {
                    return Ok(node);
                }
                ctx.call(this, "advance", &[])?;
                let right = ctx.call(this, "parseSeq", &[])?;
                let alt = ctx.new_object("RxAlt", &[node, right])?;
                node = Value::Ref(alt);
            }
        })
        .throws(SYNTAX_ERROR);
        c.method("parseSeq", |ctx, this, _| {
            let mut node: Option<Value> = None;
            loop {
                let ch = ctx.call(this, "peek", &[])?;
                let stop = ch.is_null() || ch == s("|") || ch == s(")");
                if stop {
                    return match node {
                        Some(n) => Ok(n),
                        None => Ok(Value::Ref(ctx.alloc("RxEmpty"))),
                    };
                }
                let atom = ctx.call(this, "parseAtom", &[])?;
                node = Some(match node {
                    None => atom,
                    Some(prev) => {
                        let seq = ctx.new_object("RxSeq", &[prev, atom])?;
                        Value::Ref(seq)
                    }
                });
            }
        })
        .throws(SYNTAX_ERROR);
        c.method("parseAtom", |ctx, this, _| {
            let ch = ctx.call(this, "peek", &[])?;
            if ch.is_null() {
                return Err(ctx.exception(SYNTAX_ERROR, "unexpected end of pattern"));
            }
            let ops = ctx.get(this, "ops");
            let base = if ch == s("(") {
                ctx.call(this, "advance", &[])?;
                let inner = ctx.call(this, "parseAlt", &[])?;
                let close = ctx.call(this, "peek", &[])?;
                if close != s(")") {
                    return Err(ctx.exception(SYNTAX_ERROR, "expected `)`"));
                }
                ctx.call(this, "advance", &[])?;
                inner
            } else if ch == s(".") {
                ctx.call(this, "advance", &[])?;
                Value::Ref(ctx.new_object("RxAny", &[ops.clone()])?)
            } else if ch == s("*") || ch == s("?") || ch == s(")") || ch == s("|") {
                return Err(ctx.exception(SYNTAX_ERROR, "misplaced operator"));
            } else {
                ctx.call(this, "advance", &[])?;
                Value::Ref(ctx.new_object("RxChar", &[ch, ops.clone()])?)
            };
            // Postfix operators.
            let post = ctx.call(this, "peek", &[])?;
            if post == s("*") {
                ctx.call(this, "advance", &[])?;
                return Ok(Value::Ref(ctx.new_object("RxStar", &[base])?));
            }
            if post == s("?") {
                ctx.call(this, "advance", &[])?;
                return Ok(Value::Ref(ctx.new_object("RxOpt", &[base])?));
            }
            Ok(base)
        })
        .throws(SYNTAX_ERROR);
    });

    rb.class("RegExp", |c| {
        c.field("root", Value::Null);
        c.field("ops", Value::Null);
        c.field("budget", int(20_000));
        c.field("compiled", Value::Bool(false));
        c.ctor(|ctx, this, args| {
            let ops = Value::Ref(ctx.alloc("CharOps"));
            ctx.set(this, "ops", ops.clone());
            let parser = ctx.new_object("Parser", &[args[0].clone(), ops])?;
            let root = ctx.call(parser, "parseAlt", &[])?;
            let rest = ctx.call(parser, "peek", &[])?;
            if !rest.is_null() {
                return Err(ctx.exception(SYNTAX_ERROR, "trailing characters in pattern"));
            }
            ctx.set(this, "root", root);
            ctx.set(this, "compiled", Value::Bool(true));
            Ok(Value::Null)
        })
        .throws(SYNTAX_ERROR);
        // Anchored full match.
        c.method("matches", |ctx, this, args| {
            let root = ctx.get(this, "root");
            let ops = ctx.get(this, "ops");
            let budget = ctx.get(this, "budget");
            let end = ctx.new_object("RxEnd", &[ops])?;
            let cont = ctx.new_object("RxCont", &[Value::Ref(end), Value::Null])?;
            ctx.call_value(
                &root,
                "matchAt",
                &[args[0].clone(), int(0), Value::Ref(cont), budget],
            )
        })
        .throws(OVERFLOW);
        // First match position, or -1.
        c.method("search", |ctx, this, args| {
            let root = ctx.get(this, "root");
            let ops = ctx.get(this, "ops");
            let budget = ctx.get(this, "budget");
            let len = ctx.call_value(&ops, "len", &[args[0].clone()])?;
            let len = len.as_int().unwrap_or(0);
            for start in 0..=len {
                let hit = ctx.call_value(
                    &root,
                    "matchAt",
                    &[args[0].clone(), int(start), Value::Null, budget.clone()],
                )?;
                if hit == Value::Bool(true) {
                    return Ok(int(start));
                }
            }
            Ok(int(-1))
        })
        .throws(OVERFLOW);
        c.method("setBudget", |ctx, this, args| {
            ctx.set(this, "budget", args[0].clone());
            Ok(Value::Null)
        });
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    // Compile a handful of patterns.
    let ab_star = rooted(d, "RegExp", &[s("a(b|c)*d?")])?;
    let re1 = ab_star.as_ref_id().expect("ref");
    for input in ["ad", "abcbd", "a", "abx", ""] {
        d.call_absorbed(re1, "matches", &[s(input)]);
    }
    let any = rooted(d, "RegExp", &[s("x.z")])?;
    let re2 = any.as_ref_id().expect("ref");
    for input in ["xyz", "xz", "xaz"] {
        d.call_absorbed(re2, "matches", &[s(input)]);
        d.call_absorbed(re2, "search", &[s(input)]);
    }
    d.call_absorbed(re2, "search", &[s("prefix-xqz-suffix")]);
    // Malformed patterns exercise the parser's error paths.
    if let Ok(id) = d.construct("RegExp", &[s("a(b")]) {
        d.root(id);
    }
    if let Ok(id) = d.construct("RegExp", &[s("*oops")]) {
        d.root(id);
    }
    // A tight budget exercises the overflow path.
    let tight = rooted(d, "RegExp", &[s("(a*)*b")])?;
    let re3 = tight.as_ref_id().expect("ref");
    d.call(re3, "setBudget", &[int(50)])?;
    d.call_absorbed(re3, "matches", &[s("aaaaaaaaaaaaaaaa")]);
    Ok(Value::Null)
}

/// The `RegExp` program.
pub fn program() -> FnProgram {
    FnProgram::new("RegExp", build_registry, driver)
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
    use atomask_mor::Program;
    use atomask_mor::{ObjId, Vm};

    fn compile(vm: &mut Vm, pattern: &str) -> ObjId {
        let re = vm.construct("RegExp", &[s(pattern)]).unwrap();
        vm.root(re);
        re
    }

    fn matches(vm: &mut Vm, re: ObjId, input: &str) -> bool {
        vm.call(re, "matches", &[s(input)])
            .unwrap()
            .as_bool()
            .unwrap()
    }

    #[test]
    fn literals_and_any() {
        let mut vm = Vm::new(build_registry());
        let re = compile(&mut vm, "a.c");
        assert!(matches(&mut vm, re, "abc"));
        assert!(matches(&mut vm, re, "axc"));
        assert!(!matches(&mut vm, re, "ac"));
        assert!(!matches(&mut vm, re, "abcd"));
    }

    #[test]
    fn star_backtracks() {
        let mut vm = Vm::new(build_registry());
        let re = compile(&mut vm, "a*a");
        assert!(matches(&mut vm, re, "a"));
        assert!(matches(&mut vm, re, "aaaa"));
        assert!(!matches(&mut vm, re, ""));
        assert!(!matches(&mut vm, re, "ab"));
    }

    #[test]
    fn alternation_and_groups() {
        let mut vm = Vm::new(build_registry());
        let re = compile(&mut vm, "(ab|cd)*e");
        assert!(matches(&mut vm, re, "e"));
        assert!(matches(&mut vm, re, "abe"));
        assert!(matches(&mut vm, re, "abcdabe"));
        assert!(!matches(&mut vm, re, "abce"));
    }

    #[test]
    fn optional() {
        let mut vm = Vm::new(build_registry());
        let re = compile(&mut vm, "colou?r");
        assert!(matches(&mut vm, re, "color"));
        assert!(matches(&mut vm, re, "colour"));
        assert!(!matches(&mut vm, re, "colouur"));
    }

    #[test]
    fn search_finds_first_position() {
        let mut vm = Vm::new(build_registry());
        let re = compile(&mut vm, "na");
        let hit = vm.call(re, "search", &[s("banana")]).unwrap();
        assert_eq!(hit, int(2));
        let miss = vm.call(re, "search", &[s("zzz")]).unwrap();
        assert_eq!(miss, int(-1));
    }

    #[test]
    fn syntax_errors_are_reported() {
        let mut vm = Vm::new(build_registry());
        for bad in ["a(b", "*x", "a|*", "(", ")"] {
            let err = vm.construct("RegExp", &[s(bad)]).unwrap_err();
            assert_eq!(
                vm.registry().exceptions().name(err.ty),
                SYNTAX_ERROR,
                "pattern {bad:?}"
            );
        }
    }

    #[test]
    fn budget_overflow_throws() {
        let mut vm = Vm::new(build_registry());
        let re = compile(&mut vm, "(a*)*b");
        vm.call(re, "setBudget", &[int(30)]).unwrap();
        let err = vm.call(re, "matches", &[s("aaaaaaaaaa")]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), OVERFLOW);
    }

    #[test]
    fn char_ops_is_core() {
        let vm = Vm::new(build_registry());
        let ops = vm.registry().class_by_name("CharOps").unwrap();
        assert!(ops.is_core);
        let char_at = ops.methods[ops.method_slot("charAt").unwrap()].gid;
        assert!(!vm.registry().instrumentable(char_at));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
