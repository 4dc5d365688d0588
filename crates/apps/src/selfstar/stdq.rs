//! The `stdQ` application: a bounded queue component between a producer
//! and a defensively written consumer.
//!
//! Queue internals are written in the inline C++ style — node fields are
//! manipulated directly rather than through accessor methods — so the core
//! operations contain no injectable calls after their first mutation and
//! are failure atomic by construction.

use crate::util::{int, rooted};
use atomask_mor::{Driver, FnProgram, MethodResult, Profile, Registry, RegistryBuilder, Value};

/// Exception thrown by `enqueue` on a full queue.
pub const QUEUE_FULL: &str = "QueueFullError";
/// Exception thrown by `dequeue`/`peek` on an empty queue.
pub const QUEUE_EMPTY: &str = "QueueEmptyError";

fn register(rb: &mut RegistryBuilder) {
    rb.class("QNode", |c| {
        c.field("value", Value::Null);
        c.field("next", Value::Null);
    });
    rb.class("StdQueue", |c| {
        c.field("head", Value::Null);
        c.field("tail", Value::Null);
        c.field("size", int(0));
        c.field("capacity", int(16));
        c.ctor(|ctx, this, args| {
            if let Some(cap) = args.first() {
                ctx.set(this, "capacity", cap.clone());
            }
            Ok(Value::Null)
        });
        c.method("size", |ctx, this, _| Ok(ctx.get(this, "size")))
            .never_throws();
        c.method("capacity", |ctx, this, _| Ok(ctx.get(this, "capacity")))
            .never_throws();
        c.method("isEmpty", |ctx, this, _| {
            Ok(Value::Bool(ctx.get_int(this, "size") == 0))
        });
        c.method("enqueue", |ctx, this, args| {
            let size = ctx.get_int(this, "size");
            if size >= ctx.get_int(this, "capacity") {
                return Err(ctx.exception(QUEUE_FULL, "queue at capacity"));
            }
            let node = ctx.alloc("QNode");
            ctx.set(node, "value", args[0].clone());
            let tail = ctx.get(this, "tail");
            if let Value::Ref(t) = tail {
                ctx.set(t, "next", Value::Ref(node));
            } else {
                ctx.set(this, "head", Value::Ref(node));
            }
            ctx.set(this, "tail", Value::Ref(node));
            ctx.set(this, "size", int(size + 1));
            Ok(Value::Null)
        })
        .throws(QUEUE_FULL);
        c.method("dequeue", |ctx, this, _| {
            let head = ctx.get(this, "head");
            let Value::Ref(h) = head else {
                return Err(ctx.exception(QUEUE_EMPTY, "dequeue on empty queue"));
            };
            let v = ctx.get(h, "value");
            let next = ctx.get(h, "next");
            ctx.set(this, "head", next.clone());
            if next.is_null() {
                ctx.set(this, "tail", Value::Null);
            }
            let size = ctx.get_int(this, "size");
            ctx.set(this, "size", int(size - 1));
            Ok(v)
        })
        .throws(QUEUE_EMPTY);
        c.method("peek", |ctx, this, _| {
            let head = ctx.get(this, "head");
            let Value::Ref(h) = head else {
                return Err(ctx.exception(QUEUE_EMPTY, "peek on empty queue"));
            };
            Ok(ctx.get(h, "value"))
        })
        .throws(QUEUE_EMPTY);
        c.method("clear", |ctx, this, _| {
            ctx.set(this, "head", Value::Null);
            ctx.set(this, "tail", Value::Null);
            ctx.set(this, "size", int(0));
            Ok(Value::Null)
        });
    });
    rb.class("Producer", |c| {
        c.field("queue", Value::Null);
        c.field("produced", int(0));
        c.field("rejected", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "queue", args[0].clone());
            Ok(Value::Null)
        });
        // Fills the queue with `n` values starting at `base`. A mid-batch
        // failure leaves earlier items enqueued — the batch itself is the
        // non-atomic unit, as in real producer code.
        c.method("produceBatch", |ctx, this, args| {
            let base = args[0].as_int().unwrap_or(0);
            let n = args[1].as_int().unwrap_or(0);
            let queue = ctx.get(this, "queue");
            let mut accepted = 0i64;
            let mut rejected = 0i64;
            for i in 0..n {
                match ctx.call_value(&queue, "enqueue", &[int(base + i)]) {
                    Ok(_) => accepted += 1,
                    // catch (QueueFullError): drop the item and go on; any
                    // other exception type keeps propagating.
                    Err(e) if ctx.is(&e, QUEUE_FULL) => rejected += 1,
                    Err(e) => return Err(e),
                }
            }
            let produced = ctx.get_int(this, "produced");
            ctx.set(this, "produced", int(produced + accepted));
            let r = ctx.get_int(this, "rejected");
            ctx.set(this, "rejected", int(r + rejected));
            Ok(int(accepted))
        })
        .throws(QUEUE_FULL);
        c.method("produced", |ctx, this, _| Ok(ctx.get(this, "produced")));
        c.method("rejected", |ctx, this, _| Ok(ctx.get(this, "rejected")));
    });
    rb.class("Consumer", |c| {
        c.field("queue", Value::Null);
        c.field("consumed", int(0));
        c.field("total", int(0));
        c.ctor(|ctx, this, args| {
            ctx.set(this, "queue", args[0].clone());
            Ok(Value::Null)
        });
        // Defensive drain: catches the empty-queue exception to terminate,
        // commits its statistics only after the loop.
        c.method("drainAll", |ctx, this, _| {
            let queue = ctx.get(this, "queue");
            let mut taken = 0i64;
            let mut sum = 0i64;
            loop {
                match ctx.call_value(&queue, "dequeue", &[]) {
                    Ok(v) => {
                        taken += 1;
                        sum += v.as_int().unwrap_or(0);
                    }
                    // catch (QueueEmptyError): the queue is drained.
                    Err(e) if ctx.is(&e, QUEUE_EMPTY) => break,
                    Err(e) => return Err(e),
                }
            }
            let consumed = ctx.get_int(this, "consumed");
            ctx.set(this, "consumed", int(consumed + taken));
            let total = ctx.get_int(this, "total");
            ctx.set(this, "total", int(total + sum));
            Ok(int(taken))
        });
        c.method("consumed", |ctx, this, _| Ok(ctx.get(this, "consumed")));
        c.method("total", |ctx, this, _| Ok(ctx.get(this, "total")));
    });
}

fn driver(d: &mut Driver<'_>) -> MethodResult {
    let queue = rooted(d, "StdQueue", &[int(8)])?;
    let q = queue.as_ref_id().expect("ref");
    let producer = rooted(d, "Producer", &[queue.clone()])?;
    let p = producer.as_ref_id().expect("ref");
    let consumer = rooted(d, "Consumer", &[queue])?;
    let c = consumer.as_ref_id().expect("ref");

    for round in 0..3 {
        d.call(p, "produceBatch", &[int(round * 10), int(6)])?;
        d.call_absorbed(q, "peek", &[]);
        d.call_absorbed(q, "size", &[]);
        d.call(c, "drainAll", &[])?;
    }
    // Overflow round: 12 items into a capacity-8 queue.
    d.call(p, "produceBatch", &[int(100), int(12)])?;
    d.call_absorbed(p, "rejected", &[]);
    d.call(c, "drainAll", &[])?;
    // Empty-queue error paths.
    d.call_absorbed(q, "dequeue", &[]);
    d.call_absorbed(q, "peek", &[]);
    for _ in 0..2 {
        d.call_absorbed(p, "produced", &[]);
        d.call_absorbed(c, "consumed", &[]);
        d.call_absorbed(c, "total", &[]);
        d.call_absorbed(q, "isEmpty", &[]);
        d.call_absorbed(q, "capacity", &[]);
    }
    d.call_absorbed(q, "clear", &[]);
    Ok(Value::Null)
}

/// The `stdQ` program.
pub fn program() -> FnProgram {
    FnProgram::new("stdQ", build_registry, driver)
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
    use atomask_mor::{ObjId, Program, Vm};

    fn fresh(cap: i64) -> (Vm, ObjId) {
        let mut vm = Vm::new(build_registry());
        let q = vm.construct("StdQueue", &[int(cap)]).unwrap();
        vm.root(q);
        (vm, q)
    }

    #[test]
    fn fifo_order() {
        let (mut vm, q) = fresh(8);
        for i in 0..4 {
            vm.call(q, "enqueue", &[int(i)]).unwrap();
        }
        for i in 0..4 {
            assert_eq!(vm.call(q, "dequeue", &[]).unwrap(), int(i));
        }
        assert!(vm.call(q, "dequeue", &[]).is_err());
    }

    #[test]
    fn capacity_is_enforced_atomically() {
        let (mut vm, q) = fresh(2);
        vm.call(q, "enqueue", &[int(1)]).unwrap();
        vm.call(q, "enqueue", &[int(2)]).unwrap();
        let before = atomask_objgraph::Snapshot::of(vm.heap(), q);
        let err = vm.call(q, "enqueue", &[int(3)]).unwrap_err();
        assert_eq!(vm.registry().exceptions().name(err.ty), QUEUE_FULL);
        assert_eq!(atomask_objgraph::Snapshot::of(vm.heap(), q), before);
    }

    #[test]
    fn producer_consumer_round_trip() {
        let mut vm = Vm::new(build_registry());
        let q = vm.construct("StdQueue", &[int(4)]).unwrap();
        vm.root(q);
        let p = vm.construct("Producer", &[Value::Ref(q)]).unwrap();
        vm.root(p);
        let c = vm.construct("Consumer", &[Value::Ref(q)]).unwrap();
        vm.root(c);
        // 6 items into a 4-slot queue: 4 accepted, 2 rejected.
        let accepted = vm.call(p, "produceBatch", &[int(0), int(6)]).unwrap();
        assert_eq!(accepted, int(4));
        assert_eq!(vm.call(p, "rejected", &[]).unwrap(), int(2));
        let taken = vm.call(c, "drainAll", &[]).unwrap();
        assert_eq!(taken, int(4));
        assert_eq!(vm.call(c, "total", &[]).unwrap(), int(1 + 2 + 3));
        assert_eq!(vm.call(q, "isEmpty", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn driver_is_clean() {
        let p = program();
        let mut vm = Vm::new(p.build_registry());
        p.run(&mut vm).unwrap();
    }
}
