//! The `xml2Cviasc1` / `xml2Cviasc2` applications: *self-configuring*
//! component chains.
//!
//! An XML configuration document describes a pipeline
//! (`<chain><doubler/><offset delta="3"/>...</chain>`); a `ChainBuilder`
//! instantiates the corresponding adaptors at runtime and wires them with
//! channels — the "via sc" (self-configuring channels) part of the paper's
//! application names. Variant 1 builds a linear chain; variant 2 builds a
//! teed topology with two sinks and adds a validation pass.
//!
//! The builder's `build` method instantiates components while committing
//! the partially built chain into its own fields — a genuinely hard to fix
//! failure non-atomic method that runs exactly once per configuration:
//! the paper singles out the `xml2Cviasc` applications as the ones whose
//! pure failure non-atomic methods "are called very rarely, and would
//! probably not have been discovered without the automated exception
//! injections".

use super::component::{register_adaptors, register_channel, register_sink};
use super::xml::register_xml;
use crate::util::{int, rooted, s};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

/// Exception thrown on unknown component kinds in the configuration.
pub const CONFIG_ERROR: &str = "ConfigError";

fn register(rb: &mut RegistryBuilder) {
    register_xml(rb);
    register_channel(rb);
    register_sink(rb);
    register_adaptors(rb);
    rb.exception(CONFIG_ERROR);
    rb.class("ChainBuilder", |c| {
        c.field("head", Value::Null); // Channel into the chain front
        c.field("sinkChannel", Value::Null); // Channel feeding the sink
        c.field("sink", Value::Null);
        c.field("sink2", Value::Null); // variant 2 only
        c.field("components", int(0));
        c.ctor(|_, _, _| Ok(Value::Null));
        // Builds the chain described by the `<chain>` element, back to
        // front. The component counter and the partial head are committed
        // as it goes: a failure mid-build leaves a half-configured builder.
        c.method("build", |ctx, this, args| {
            let chain_elem = match &args[0] {
                Value::Ref(id) => *id,
                _ => return Err(ctx.exception(CONFIG_ERROR, "missing <chain> element")),
            };
            let sink = ctx.new_object("Sink", &[])?;
            ctx.set(this, "sink", Value::Ref(sink));
            let mut downstream = {
                let ch = ctx.new_object("Channel", &[Value::Ref(sink)])?;
                ctx.set(this, "sinkChannel", Value::Ref(ch));
                Value::Ref(ch)
            };
            // Collect child component specs (front..back), then wire from
            // the back.
            let mut specs = Vec::new();
            let mut child = ctx.get(chain_elem, "firstChild");
            while let Value::Ref(cid) = child {
                specs.push(cid);
                child = ctx.get(cid, "nextSibling");
            }
            for &cid in specs.iter().rev() {
                let kind = ctx.get_str(cid, "tag");
                let comp = match &*kind {
                    "doubler" => ctx.new_object("Doubler", &[downstream.clone()])?,
                    "offset" => {
                        let delta = ctx
                            .call(cid, "attr", &[s("delta")])?
                            .as_str()
                            .and_then(|d| d.parse::<i64>().ok())
                            .unwrap_or(0);
                        ctx.new_object("Offset", &[downstream.clone(), int(delta)])?
                    }
                    "clamp" => {
                        let comp = ctx.new_object("Clamp", &[downstream.clone()])?;
                        let lo = ctx
                            .call(cid, "attr", &[s("lo")])?
                            .as_str()
                            .and_then(|d| d.parse::<i64>().ok())
                            .unwrap_or(i64::MIN);
                        let hi = ctx
                            .call(cid, "attr", &[s("hi")])?
                            .as_str()
                            .and_then(|d| d.parse::<i64>().ok())
                            .unwrap_or(i64::MAX);
                        ctx.call(comp, "reconfigure", &[int(lo), int(hi)])?;
                        comp
                    }
                    other => {
                        return Err(ctx
                            .exception(CONFIG_ERROR, format!("unknown component kind `{other}`")))
                    }
                };
                // Commit progress eagerly (the planted vulnerability).
                let n = ctx.get_int(this, "components");
                ctx.set(this, "components", int(n + 1));
                let ch = ctx.new_object("Channel", &[Value::Ref(comp)])?;
                downstream = Value::Ref(ch);
                ctx.set(this, "head", downstream.clone());
            }
            ctx.set(this, "head", downstream);
            Ok(Value::Null)
        })
        .throws(CONFIG_ERROR)
        .throws("XmlError");
        // Variant 2: duplicate the chain output into a second sink via a
        // Tee in front of the primary sink.
        c.method("teeOutput", |ctx, this, _| {
            let sink2 = ctx.new_object("Sink", &[])?;
            ctx.set(this, "sink2", Value::Ref(sink2));
            let sink = ctx.get(this, "sink");
            let ch1 = ctx.new_object("Channel", &[sink])?;
            let ch2 = ctx.new_object("Channel", &[Value::Ref(sink2)])?;
            let tee = ctx.new_object("Tee", &[Value::Ref(ch1), Value::Ref(ch2)])?;
            // Rebind the channel feeding the sink so the tee sits between
            // the last adaptor and the two sinks.
            let sink_channel = ctx.get(this, "sinkChannel");
            if sink_channel.is_null() {
                return Err(ctx.exception(CONFIG_ERROR, "teeOutput before build"));
            }
            ctx.call_value(&sink_channel, "rebind", &[Value::Ref(tee)])?;
            let n = ctx.get_int(this, "components");
            ctx.set(this, "components", int(n + 1));
            Ok(Value::Null)
        })
        .throws(CONFIG_ERROR);
        c.method("push", |ctx, this, args| {
            let head = ctx.get(this, "head");
            if head.is_null() {
                return Err(ctx.exception(CONFIG_ERROR, "push before build"));
            }
            ctx.call_value(&head, "send", &[args[0].clone()])
        })
        .throws(CONFIG_ERROR);
        c.method("components", |ctx, this, _| Ok(ctx.get(this, "components")));
        // Read-only sanity pass over the wiring.
        c.method("validate", |ctx, this, _| {
            let built = ctx.get_int(this, "components");
            let head = ctx.get(this, "head");
            Ok(Value::Bool(built >= 0 && !head.is_null()))
        });
    });
    rb.class("Xml2Csc", |c| {
        c.field("parser", Value::Null);
        c.field("builder", Value::Null);
        c.field("pushed", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "parser", args[0].clone());
            ctx.set(this, "builder", args[1].clone());
            Ok(Value::Null)
        });
        c.method("configure", |ctx, this, args| {
            let parser = ctx.get(this, "parser");
            ctx.call_value(&parser, "setInput", &[args[0].clone()])?;
            let root = ctx.call_value(&parser, "parseDocument", &[])?;
            let builder = ctx.get(this, "builder");
            ctx.call_value(&builder, "build", &[root])
        })
        .throws("XmlError")
        .throws(CONFIG_ERROR);
        c.method("process", |ctx, this, args| {
            let builder = ctx.get(this, "builder");
            ctx.call_value(&builder, "push", &[args[0].clone()])?;
            let n = ctx.get_int(this, "pushed");
            ctx.set(this, "pushed", int(n + 1));
            Ok(Value::Null)
        })
        .throws(CONFIG_ERROR);
        c.method("processBatch", |ctx, this, args| {
            let from = args[0].as_int().unwrap_or(0);
            let to = args[1].as_int().unwrap_or(0);
            for v in from..to {
                ctx.call(this, "process", &[int(v)])?;
            }
            Ok(Value::Null)
        })
        .throws(CONFIG_ERROR);
        c.method("pushed", |ctx, this, _| Ok(ctx.get(this, "pushed")));
    });
}

const CONFIG_V1: &str = r#"<chain><offset delta="5"/><doubler/><clamp lo="0" hi="60"/></chain>"#;
const CONFIG_V2: &str = r#"<chain><doubler/><offset delta="-1"/></chain>"#;

fn driver_v1(d: &mut Driver<'_>) -> MethodResult {
    let parser = rooted(d, "XmlParser", &[s("")])?;
    let builder = rooted(d, "ChainBuilder", &[])?;
    let b = builder.as_ref_id().expect("ref");
    let app = rooted(d, "Xml2Csc", &[parser, builder])?;
    let a = app.as_ref_id().expect("ref");
    d.call(a, "configure", &[s(CONFIG_V1)])?;
    d.call_absorbed(b, "validate", &[]);
    d.call(a, "processBatch", &[int(0), int(15)])?;
    for v in [40, -9] {
        d.call_absorbed(a, "process", &[int(v)]);
    }
    // Bad configurations exercise the builder's error paths.
    d.call_absorbed(a, "configure", &[s("<chain><warp/></chain>")]);
    d.call_absorbed(a, "configure", &[s("<chain><doubler")]);
    for _ in 0..2 {
        d.call_absorbed(b, "components", &[]);
        d.call_absorbed(a, "pushed", &[]);
        let sink = d.field(b, "sink").unwrap_or(Value::Null);
        if let Some(sid) = sink.as_ref_id() {
            d.call_absorbed(sid, "received", &[]);
            d.call_absorbed(sid, "sum", &[]);
        }
    }
    Ok(Value::Null)
}

fn driver_v2(d: &mut Driver<'_>) -> MethodResult {
    let parser = rooted(d, "XmlParser", &[s("")])?;
    let builder = rooted(d, "ChainBuilder", &[])?;
    let b = builder.as_ref_id().expect("ref");
    let app = rooted(d, "Xml2Csc", &[parser, builder])?;
    let a = app.as_ref_id().expect("ref");
    d.call(a, "configure", &[s(CONFIG_V2)])?;
    d.call(b, "teeOutput", &[])?;
    d.call_absorbed(b, "validate", &[]);
    d.call(a, "processBatch", &[int(0), int(10)])?;
    for _ in 0..2 {
        d.call_absorbed(b, "components", &[]);
        d.call_absorbed(a, "pushed", &[]);
        for field in ["sink", "sink2"] {
            let sink = d.field(b, field).unwrap_or(Value::Null);
            if let Some(sid) = sink.as_ref_id() {
                d.call_absorbed(sid, "received", &[]);
                d.call_absorbed(sid, "sum", &[]);
                d.call_absorbed(sid, "last", &[]);
            }
        }
    }
    Ok(Value::Null)
}

/// The `xml2Cviasc1` program (linear chain).
pub fn program_v1() -> FnProgram {
    FnProgram::new("xml2Cviasc1", build_registry, driver_v1)
}

/// The `xml2Cviasc2` program (teed topology + validation pass).
pub fn program_v2() -> FnProgram {
    FnProgram::new("xml2Cviasc2", build_registry, driver_v2)
}

/// Builds the shared registry of both variants.
pub fn build_registry() -> Registry {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    register(&mut rb);
    rb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::{Program, Vm};

    fn configured(config: &str) -> (Vm, atomask_mor::ObjId, atomask_mor::ObjId) {
        let mut vm = Vm::new(build_registry());
        let parser = vm.construct("XmlParser", &[s("")]).unwrap();
        vm.root(parser);
        let builder = vm.construct("ChainBuilder", &[]).unwrap();
        vm.root(builder);
        let app = vm
            .construct("Xml2Csc", &[Value::Ref(parser), Value::Ref(builder)])
            .unwrap();
        vm.root(app);
        vm.call(app, "configure", &[s(config)]).unwrap();
        (vm, app, builder)
    }

    #[test]
    fn chain_is_built_from_xml_and_transforms() {
        let (mut vm, app, builder) = configured(CONFIG_V1);
        assert_eq!(vm.call(builder, "components", &[]).unwrap(), int(3));
        // Pipeline order is document order: offset(+5) → doubler → clamp.
        vm.call(app, "process", &[int(10)]).unwrap();
        let sink = vm
            .heap()
            .field(builder, "sink")
            .unwrap()
            .as_ref_id()
            .unwrap();
        assert_eq!(vm.call(sink, "last", &[]).unwrap(), int(30));
        // Clamp cap at 60.
        vm.call(app, "process", &[int(100)]).unwrap();
        assert_eq!(vm.call(sink, "last", &[]).unwrap(), int(60));
    }

    #[test]
    fn unknown_component_kind_fails_midway() {
        let mut vm = Vm::new(build_registry());
        let parser = vm.construct("XmlParser", &[s("")]).unwrap();
        vm.root(parser);
        let builder = vm.construct("ChainBuilder", &[]).unwrap();
        vm.root(builder);
        let app = vm
            .construct("Xml2Csc", &[Value::Ref(parser), Value::Ref(builder)])
            .unwrap();
        vm.root(app);
        // The bogus component comes *after* a valid one (built back to
        // front, so the doubler is already committed when <warp/> fails).
        let err = vm
            .call(app, "configure", &[s("<chain><warp/><doubler/></chain>")])
            .unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), CONFIG_ERROR);
        // The planted non-atomicity: the builder is left half-configured.
        assert_eq!(vm.call(builder, "components", &[]).unwrap(), int(1));
    }

    #[test]
    fn tee_duplicates_to_both_sinks() {
        let (mut vm, app, builder) = configured(CONFIG_V2);
        vm.call(builder, "teeOutput", &[]).unwrap();
        vm.call(app, "process", &[int(5)]).unwrap();
        // doubler → offset(-1): 5*2 - 1 = 9 into both sinks.
        for field in ["sink", "sink2"] {
            let sink = vm
                .heap()
                .field(builder, field)
                .unwrap()
                .as_ref_id()
                .unwrap();
            assert_eq!(vm.call(sink, "last", &[]).unwrap(), int(9), "{field}");
        }
    }

    #[test]
    fn drivers_are_clean() {
        for p in [program_v1(), program_v2()] {
            let mut vm = Vm::new(p.build_registry());
            p.run(&mut vm).unwrap();
        }
    }
}
