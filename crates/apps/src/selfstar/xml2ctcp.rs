//! The `xml2Ctcp` application: XML documents parsed, serialized compactly
//! and pushed over the simulated TCP transport.

use super::transport::{register_transport, CONN_ERROR};
use super::xml::register_xml;
use crate::util::{int, rooted, s};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

fn register(rb: &mut RegistryBuilder) {
    register_xml(rb);
    register_transport(rb);
    rb.class("XmlTcpPump", |c| {
        c.field("parser", Value::Null);
        c.field("writer", Value::Null);
        c.field("conn", Value::Null);
        c.field("docs", int(0));
        c.field("failures", int(0));
        c.field("reconnects", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "parser", args[0].clone());
            ctx.set(this, "writer", args[1].clone());
            ctx.set(this, "conn", args[2].clone());
            Ok(Value::Null)
        });
        // Parse → serialize → send, then commit the counter: conditional
        // failure non-atomic at worst.
        c.method("processDoc", |ctx, this, args| {
            let parser = ctx.get(this, "parser");
            ctx.call_value(&parser, "setInput", &[args[0].clone()])?;
            let root = ctx.call_value(&parser, "parseDocument", &[])?;
            let writer = ctx.get(this, "writer");
            let compact = ctx.call_value(&writer, "writeDoc", &[root])?;
            let conn = ctx.get(this, "conn");
            ctx.call_value(&conn, "send", &[compact])?;
            let docs = ctx.get_int(this, "docs");
            ctx.set(this, "docs", int(docs + 1));
            Ok(Value::Null)
        })
        .throws("XmlError")
        .throws(CONN_ERROR);
        // The sloppy error-recovery path (runs only after a send failure):
        // the failure counter is bumped *before* the reconnect call chain —
        // pure failure non-atomic, and rarely called, exactly the profile
        // the paper reports for the xml2C applications.
        c.method("recover", |ctx, this, _| {
            let failures = ctx.get_int(this, "failures");
            ctx.set(this, "failures", int(failures + 1));
            let conn = ctx.get(this, "conn");
            ctx.call_value(&conn, "close", &[])?;
            ctx.call_value(&conn, "connect", &[])?;
            let reconnects = ctx.get_int(this, "reconnects");
            ctx.set(this, "reconnects", int(reconnects + 1));
            Ok(Value::Null)
        })
        .throws(CONN_ERROR);
        c.method("docs", |ctx, this, _| Ok(ctx.get(this, "docs")));
        c.method("failures", |ctx, this, _| Ok(ctx.get(this, "failures")));
    });
}

const DOCS: [&str; 3] = [
    r#"<order id="17"><item sku="a1" qty="2"/><item sku="b9" qty="1"/></order>"#,
    r#"<ping seq="1"/>"#,
    r#"<report><line>alpha</line><line>beta</line></report>"#,
];

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let parser = rooted(d, "XmlParser", &[s("")])?;
    let writer = rooted(d, "XmlWriter", &[])?;
    let conn = rooted(d, "TcpConn", &[])?;
    let conn_id = conn.as_ref_id().expect("ref");
    let pump = rooted(d, "XmlTcpPump", &[parser, writer, conn])?;
    let pump_id = pump.as_ref_id().expect("ref");

    d.call(conn_id, "connect", &[])?;
    for doc in DOCS {
        d.call(pump_id, "processDoc", &[s(doc)])?;
    }
    // Malformed document: parse failure handled by the operator (driver).
    d.call_absorbed(pump_id, "processDoc", &[s("<broken")]);
    // Connection drop mid-stream → failed send → recovery path.
    d.call(conn_id, "close", &[])?;
    d.call_absorbed(pump_id, "processDoc", &[s(DOCS[1])]);
    d.call_absorbed(pump_id, "recover", &[]);
    d.call(pump_id, "processDoc", &[s(DOCS[1])])?;
    for _ in 0..2 {
        d.call_absorbed(pump_id, "docs", &[]);
        d.call_absorbed(pump_id, "failures", &[]);
        d.call_absorbed(conn_id, "sent", &[]);
        d.call_absorbed(conn_id, "bytes", &[]);
        d.call_absorbed(conn_id, "isOpen", &[]);
    }
    d.call(conn_id, "drainAck", &[])?;
    Ok(Value::Null)
}

/// The `xml2Ctcp` program.
pub fn program() -> FnProgram {
    FnProgram::new("xml2Ctcp", build_registry, driver)
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
    fn pump_sends_compact_documents() {
        let mut vm = Vm::new(build_registry());
        let parser = vm.construct("XmlParser", &[s("")]).unwrap();
        vm.root(parser);
        let writer = vm.construct("XmlWriter", &[]).unwrap();
        vm.root(writer);
        let conn = vm.construct("TcpConn", &[]).unwrap();
        vm.root(conn);
        let pump = vm
            .construct(
                "XmlTcpPump",
                &[Value::Ref(parser), Value::Ref(writer), Value::Ref(conn)],
            )
            .unwrap();
        vm.root(pump);
        vm.call(conn, "connect", &[]).unwrap();
        vm.call(pump, "processDoc", &[s("<a><b/></a>")]).unwrap();
        assert_eq!(vm.call(pump, "docs", &[]).unwrap(), int(1));
        let wire = vm.call(conn, "wire", &[]).unwrap();
        assert!(wire.as_str().unwrap().contains("<a><b/></a>"));
    }

    #[test]
    fn send_failure_leaves_doc_count_unchanged() {
        let mut vm = Vm::new(build_registry());
        let parser = vm.construct("XmlParser", &[s("")]).unwrap();
        vm.root(parser);
        let writer = vm.construct("XmlWriter", &[]).unwrap();
        vm.root(writer);
        let conn = vm.construct("TcpConn", &[]).unwrap();
        vm.root(conn);
        let pump = vm
            .construct(
                "XmlTcpPump",
                &[Value::Ref(parser), Value::Ref(writer), Value::Ref(conn)],
            )
            .unwrap();
        vm.root(pump);
        // Connection never opened: send fails after parse+serialize.
        let err = vm.call(pump, "processDoc", &[s("<a/>")]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), CONN_ERROR);
        assert_eq!(vm.call(pump, "docs", &[]).unwrap(), int(0));
        // Recovery reopens and the pump proceeds.
        vm.call(pump, "recover", &[]).unwrap();
        vm.call(pump, "processDoc", &[s("<a/>")]).unwrap();
        assert_eq!(vm.call(pump, "docs", &[]).unwrap(), int(1));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
