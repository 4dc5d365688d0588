//! The `adaptorChain` application: a Self\*-style chain of value adaptors
//! fed by a source component.

use super::component::{register_adaptors, register_channel, register_sink};
use crate::util::{int, rooted};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

fn register(rb: &mut RegistryBuilder) {
    register_channel(rb);
    register_sink(rb);
    register_adaptors(rb);
    rb.class("Source", |c| {
        c.field("out", Value::Null);
        c.field("produced", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "out", args[0].clone());
            Ok(Value::Null)
        });
        // Commit-last: forward first, count after.
        c.method("emit", |ctx, this, args| {
            let out = ctx.get(this, "out");
            ctx.call_value(&out, "send", &[args[0].clone()])?;
            let n = ctx.get_int(this, "produced");
            ctx.set(this, "produced", int(n + 1));
            Ok(Value::Null)
        });
        // Batch emission: inherently non-atomic on mid-batch failure, but
        // driven rarely (once per burst).
        c.method("emitRange", |ctx, this, args| {
            let from = args[0].as_int().unwrap_or(0);
            let to = args[1].as_int().unwrap_or(0);
            for v in from..to {
                ctx.call(this, "emit", &[int(v)])?;
            }
            Ok(Value::Null)
        });
        c.method("produced", |ctx, this, _| Ok(ctx.get(this, "produced")));
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    // sink <- clamp <- doubler <- offset <- source
    let sink = rooted(d, "Sink", &[])?;
    let ch_sink = rooted(d, "Channel", &[sink.clone()])?;
    let clamp = rooted(d, "Clamp", &[ch_sink])?;
    let clamp_id = clamp.as_ref_id().expect("ref");
    d.call(clamp_id, "reconfigure", &[int(0), int(40)])?;
    let ch_clamp = rooted(d, "Channel", &[clamp])?;
    let doubler = rooted(d, "Doubler", &[ch_clamp])?;
    let ch_doubler = rooted(d, "Channel", &[doubler.clone()])?;
    let offset = rooted(d, "Offset", &[ch_doubler, int(5)])?;
    let ch_offset = rooted(d, "Channel", &[offset.clone()])?;
    let source = rooted(d, "Source", &[ch_offset])?;
    let source_id = source.as_ref_id().expect("ref");

    d.call(source_id, "emitRange", &[int(0), int(12)])?;
    for i in [100, -7, 3] {
        d.call_absorbed(source_id, "emit", &[int(i)]);
    }
    // A bad reconfiguration exercises the error path, then it is repaired.
    d.call_absorbed(clamp_id, "reconfigure", &[int(50), int(10)]);
    d.call_absorbed(clamp_id, "reconfigure", &[int(0), int(100)]);
    d.call(source_id, "emitRange", &[int(12), int(18)])?;

    let sink_id = sink.as_ref_id().expect("ref");
    for _ in 0..3 {
        d.call_absorbed(sink_id, "received", &[]);
        d.call_absorbed(sink_id, "sum", &[]);
        d.call_absorbed(sink_id, "last", &[]);
        d.call_absorbed(source_id, "produced", &[]);
        d.call_absorbed(clamp_id, "processed", &[]);
        d.call_absorbed(clamp_id, "clamped", &[]);
        let dbl = doubler.as_ref_id().expect("ref");
        d.call_absorbed(dbl, "processed", &[]);
        let o = offset.as_ref_id().expect("ref");
        d.call_absorbed(o, "processed", &[]);
    }
    d.call_absorbed(sink_id, "reset", &[]);
    Ok(Value::Null)
}

/// The `adaptorChain` program.
pub fn program() -> FnProgram {
    FnProgram::new("adaptorChain", build_registry, driver)
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

    #[test]
    fn chain_transforms_values_in_order() {
        let mut vm = Vm::new(build_registry());
        let sink = vm.construct("Sink", &[]).unwrap();
        vm.root(sink);
        let ch_sink = vm.construct("Channel", &[Value::Ref(sink)]).unwrap();
        vm.root(ch_sink);
        let doubler = vm.construct("Doubler", &[Value::Ref(ch_sink)]).unwrap();
        vm.root(doubler);
        let ch_d = vm.construct("Channel", &[Value::Ref(doubler)]).unwrap();
        vm.root(ch_d);
        let source = vm.construct("Source", &[Value::Ref(ch_d)]).unwrap();
        vm.root(source);
        vm.call(source, "emit", &[int(21)]).unwrap();
        assert_eq!(vm.call(sink, "last", &[]).unwrap(), int(42));
        assert_eq!(vm.call(source, "produced", &[]).unwrap(), int(1));
    }

    #[test]
    fn emit_range_counts_all() {
        let mut vm = Vm::new(build_registry());
        let sink = vm.construct("Sink", &[]).unwrap();
        vm.root(sink);
        let ch = vm.construct("Channel", &[Value::Ref(sink)]).unwrap();
        vm.root(ch);
        let source = vm.construct("Source", &[Value::Ref(ch)]).unwrap();
        vm.root(source);
        vm.call(source, "emitRange", &[int(0), int(5)]).unwrap();
        assert_eq!(vm.call(source, "produced", &[]).unwrap(), int(5));
        assert_eq!(vm.call(sink, "sum", &[]).unwrap(), int(10));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
