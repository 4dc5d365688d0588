//! The `xml2xml1` application: XML-to-XML transformation — parse a
//! document, rewrite it (tag renaming + attribute stripping), and
//! serialize the result.

use super::xml::register_xml;
use crate::util::{int, rooted, s};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

fn register(rb: &mut RegistryBuilder) {
    register_xml(rb);
    rb.class("Transformer", |c| {
        c.field("fromTag", Value::from(""));
        c.field("toTag", Value::from(""));
        c.field("stripAttrs", Value::Bool(false));
        c.field("nodesRewritten", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "fromTag", args[0].clone());
            ctx.set(this, "toTag", args[1].clone());
            if let Some(strip) = args.get(2) {
                ctx.set(this, "stripAttrs", strip.clone());
            }
            Ok(Value::Null)
        });
        // Builds a *fresh* transformed tree through return values — failure
        // atomic by construction (transformer state untouched during the
        // recursion; the counter is committed by `transformDoc` at the end).
        c.method("transform", |ctx, this, args| {
            let elem = match &args[0] {
                Value::Ref(id) => *id,
                _ => return Ok(Value::Null),
            };
            let from = ctx.get_str(this, "fromTag");
            let to = ctx.get_str(this, "toTag");
            let strip = ctx.get_bool(this, "stripAttrs");
            let tag = ctx.get_str(elem, "tag");
            let fresh = ctx.alloc("XmlElem");
            ctx.set(fresh, "tag", s(if tag == from { &to } else { &tag }));
            let text = ctx.get(elem, "text");
            ctx.set(fresh, "text", text);
            if !strip {
                // Copy the attribute chain into fresh nodes.
                let mut src = ctx.get(elem, "firstAttr");
                let mut last: Option<atomask_mor::ObjId> = None;
                while let Value::Ref(a) = src {
                    let copy = ctx.alloc("XmlAttr");
                    let name = ctx.get(a, "name");
                    ctx.set(copy, "name", name);
                    let value = ctx.get(a, "value");
                    ctx.set(copy, "value", value);
                    match last {
                        None => ctx.set(fresh, "firstAttr", Value::Ref(copy)),
                        Some(prev) => ctx.set(prev, "next", Value::Ref(copy)),
                    }
                    last = Some(copy);
                    src = ctx.get(a, "next");
                }
            }
            let mut child = ctx.get(elem, "firstChild");
            let mut last_child: Option<atomask_mor::ObjId> = None;
            while let Value::Ref(cid) = child {
                let sub = ctx.call(this, "transform", &[Value::Ref(cid)])?;
                let sub_id = sub.as_ref_id().expect("transform returns element");
                match last_child {
                    None => ctx.set(fresh, "firstChild", sub),
                    Some(prev) => ctx.set(prev, "nextSibling", sub),
                }
                last_child = Some(sub_id);
                child = ctx.get(cid, "nextSibling");
            }
            Ok(Value::Ref(fresh))
        });
        // Counts the rewritten nodes of a fresh tree (read-only walk).
        c.method("countNodes", |ctx, this, args| {
            let mut n = 0i64;
            let mut stack = vec![args[0].clone()];
            while let Some(v) = stack.pop() {
                if let Value::Ref(id) = v {
                    n += 1;
                    stack.push(ctx.get(id, "firstChild"));
                    stack.push(ctx.get(id, "nextSibling"));
                }
            }
            let _ = this;
            Ok(int(n))
        });
        // Commit-last wrapper around the recursion.
        c.method("transformDoc", |ctx, this, args| {
            let out = ctx.call(this, "transform", &[args[0].clone()])?;
            let n = ctx.call(this, "countNodes", &[out.clone()])?;
            let total = ctx.get_int(this, "nodesRewritten");
            ctx.set(this, "nodesRewritten", int(total + n.as_int().unwrap_or(0)));
            Ok(out)
        });
        c.method("nodesRewritten", |ctx, this, _| {
            Ok(ctx.get(this, "nodesRewritten"))
        });
    });
    rb.class("Xml2Xml", |c| {
        c.field("parser", Value::Null);
        c.field("transformer", Value::Null);
        c.field("writer", Value::Null);
        c.field("docs", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "parser", args[0].clone());
            ctx.set(this, "transformer", args[1].clone());
            ctx.set(this, "writer", args[2].clone());
            Ok(Value::Null)
        });
        c.method("processDoc", |ctx, this, args| {
            let parser = ctx.get(this, "parser");
            ctx.call_value(&parser, "setInput", &[args[0].clone()])?;
            let root = ctx.call_value(&parser, "parseDocument", &[])?;
            let transformer = ctx.get(this, "transformer");
            let rewritten = ctx.call_value(&transformer, "transformDoc", &[root])?;
            let writer = ctx.get(this, "writer");
            let out = ctx.call_value(&writer, "writeDoc", &[rewritten])?;
            let docs = ctx.get_int(this, "docs");
            ctx.set(this, "docs", int(docs + 1));
            Ok(out)
        })
        .throws("XmlError");
        c.method("docs", |ctx, this, _| Ok(ctx.get(this, "docs")));
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let parser = rooted(d, "XmlParser", &[s("")])?;
    let transformer = rooted(
        d,
        "Transformer",
        &[s("item"), s("entry"), Value::Bool(false)],
    )?;
    let writer = rooted(d, "XmlWriter", &[])?;
    let app = rooted(d, "Xml2Xml", &[parser, transformer.clone(), writer])?;
    let app_id = app.as_ref_id().expect("ref");

    for doc in [
        r#"<list><item id="1">one</item><item id="2">two</item></list>"#,
        r#"<item><item/></item>"#,
        r#"<empty/>"#,
    ] {
        d.call(app_id, "processDoc", &[s(doc)])?;
    }
    d.call_absorbed(app_id, "processDoc", &[s("<bad<")]);
    let t = transformer.as_ref_id().expect("ref");
    for _ in 0..2 {
        d.call_absorbed(app_id, "docs", &[]);
        d.call_absorbed(t, "nodesRewritten", &[]);
    }
    Ok(Value::Null)
}

/// The `xml2xml1` program.
pub fn program() -> FnProgram {
    FnProgram::new("xml2xml1", build_registry, driver)
}

/// Builds the program's registry.
pub fn build_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    register(&mut rb);
    rb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::{Program, Vm};

    fn app(vm: &mut Vm, strip: bool) -> atomask_mor::ObjId {
        let parser = vm.construct("XmlParser", &[s("")]).unwrap();
        vm.root(parser);
        let transformer = vm
            .construct("Transformer", &[s("item"), s("entry"), Value::Bool(strip)])
            .unwrap();
        vm.root(transformer);
        let writer = vm.construct("XmlWriter", &[]).unwrap();
        vm.root(writer);
        let a = vm
            .construct(
                "Xml2Xml",
                &[
                    Value::Ref(parser),
                    Value::Ref(transformer),
                    Value::Ref(writer),
                ],
            )
            .unwrap();
        vm.root(a);
        a
    }

    #[test]
    fn renames_tags_recursively() {
        let mut vm = Vm::new(build_registry());
        let a = app(&mut vm, false);
        let out = vm
            .call(
                a,
                "processDoc",
                &[s(r#"<list><item id="1"><item/></item></list>"#)],
            )
            .unwrap();
        assert_eq!(
            out.as_str().unwrap(),
            r#"<list><entry id="1"><entry/></entry></list>"#
        );
    }

    #[test]
    fn strips_attributes_when_asked() {
        let mut vm = Vm::new(build_registry());
        let a = app(&mut vm, true);
        let out = vm
            .call(a, "processDoc", &[s(r#"<item id="1" k="v">t</item>"#)])
            .unwrap();
        assert_eq!(out.as_str().unwrap(), "<entry>t</entry>");
    }

    #[test]
    fn parse_failure_leaves_counters_clean() {
        let mut vm = Vm::new(build_registry());
        let a = app(&mut vm, false);
        assert!(vm.call(a, "processDoc", &[s("<nope")]).is_err());
        assert_eq!(vm.call(a, "docs", &[]).unwrap(), int(0));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
