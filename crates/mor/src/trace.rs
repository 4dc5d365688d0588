//! Structured execution tracing — the flight recorder of single-point
//! replay.
//!
//! The VM, heap and the wrappers woven around calls emit [`TraceEvent`]
//! records through an optional [`TraceSink`] installed with
//! [`crate::Vm::set_tracer`]. When no sink is installed the emission sites
//! compile down to a branch on `None` — events are never even constructed —
//! so tracing costs nothing when disabled. Campaign sweeps never install
//! one; only a replay of one injection point does. The bundled
//! [`RingBufferSink`] keeps the last `capacity` events in a bounded ring:
//! old events fall off the front, and the sink reports how many were
//! emitted versus dropped.
//!
//! The event vocabulary covers the whole story of one injector run: call
//! enter/exit, exception throw/propagate/deliver, heap allocation and
//! write, journal (undo-log) push/commit/abort with per-write undo
//! records, injection firing, budget charges and exhaustion, and the
//! masking wrappers' checkpoint/restore. A recorded trace is the substrate
//! deterministic single-point replay pretty-prints (see the `inject`
//! crate's replay support and `report repro`).

use crate::hook::CallKind;
use crate::ids::{ClassId, ExcId, MethodId, ObjId};
use crate::registry::Registry;
use std::collections::VecDeque;

/// One structured trace record.
///
/// Events carry ids, not names: they are cheap to construct and a
/// [`Registry`] renders them human-readable via [`TraceEvent::render`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A call was dispatched (after fuel accounting, before the hooks).
    CallEnter {
        /// The invoked method.
        method: MethodId,
        /// Method or constructor.
        kind: CallKind,
        /// Nesting depth at the time of the call (0 = driver level).
        depth: usize,
        /// Global dynamic call sequence number (1-based).
        seq: u64,
    },
    /// A dispatched call finished (hooks included).
    CallExit {
        /// The invoked method.
        method: MethodId,
        /// Sequence number matching the [`TraceEvent::CallEnter`].
        seq: u64,
        /// `true` iff the call ended with a propagating exception.
        threw: bool,
    },
    /// An injection wrapper threw at its injection point (Listing 1).
    InjectionFire {
        /// The method whose wrapper threw.
        method: MethodId,
        /// The injected exception type.
        exc: ExcId,
        /// The global `Point` counter value that fired.
        point: u64,
    },
    /// Application code created a fresh exception.
    ExcThrow {
        /// The exception type.
        exc: ExcId,
        /// Its propagation-chain id.
        chain: u64,
    },
    /// An exception propagated out of a nested call.
    ExcPropagate {
        /// The method the exception escaped from.
        method: MethodId,
        /// The exception type.
        exc: ExcId,
        /// Its propagation-chain id.
        chain: u64,
        /// Nesting depth of the call it escaped (1 = escaping to a
        /// driver-level call's body).
        depth: usize,
    },
    /// An exception escaped a driver-level call — delivered to the driver.
    ExcDeliver {
        /// The exception type.
        exc: ExcId,
        /// Its propagation-chain id.
        chain: u64,
    },
    /// A heap object was allocated.
    HeapAlloc {
        /// The fresh object.
        obj: ObjId,
        /// Its class.
        class: ClassId,
    },
    /// A heap field was written.
    HeapWrite {
        /// The written object.
        obj: ObjId,
        /// Its class (so renderers can resolve the field name).
        class: ClassId,
        /// The written field's schema slot.
        slot: usize,
    },
    /// A journaled write was rolled back during an abort.
    UndoWrite {
        /// The restored object.
        obj: ObjId,
        /// Its class.
        class: ClassId,
        /// The restored field's schema slot.
        slot: usize,
    },
    /// A write-journal layer was opened.
    JournalPush {
        /// Open-layer depth after the push.
        depth: usize,
    },
    /// The innermost journal layer was committed (effects kept).
    JournalCommit {
        /// Open-layer depth before the pop.
        depth: usize,
    },
    /// The innermost journal layer was aborted (writes rolled back).
    JournalAbort {
        /// Open-layer depth before the pop.
        depth: usize,
        /// Number of writes undone.
        undone: usize,
    },
    /// A guest heap operation was charged against the fuel budget.
    BudgetCharge {
        /// Cumulative fuel spent after the charge.
        spent: u64,
    },
    /// The fuel budget ran out; the distinguished `BudgetExhausted` guest
    /// exception is about to be delivered.
    BudgetExhausted {
        /// Fuel spent when the budget was exhausted.
        spent: u64,
    },
    /// A masking wrapper captured a checkpoint of the receiver's graph.
    MaskCheckpoint {
        /// The wrapped method.
        method: MethodId,
    },
    /// A masking wrapper rolled its receiver back after an exception.
    MaskRestore {
        /// The wrapped method.
        method: MethodId,
    },
}

impl TraceEvent {
    /// Renders the event as one human-readable line, resolving ids through
    /// `registry` (method, class, field and exception names).
    pub fn render(&self, registry: &Registry) -> String {
        let exc_name = |e: &ExcId| registry.exceptions().name(*e).to_owned();
        let cell = |class: &ClassId, slot: &usize| {
            let class = registry.class(*class);
            match class.fields.get(*slot) {
                Some(f) => format!("{}.{}", class.name, f.name),
                None => format!("{}.slot{}", class.name, slot),
            }
        };
        match self {
            TraceEvent::CallEnter {
                method,
                kind,
                depth,
                seq,
            } => {
                let what = match kind {
                    CallKind::Method => "call",
                    CallKind::Ctor => "ctor",
                };
                format!(
                    "{what}    {}{} seq={seq}",
                    "  ".repeat(*depth),
                    registry.method_display(*method)
                )
            }
            TraceEvent::CallExit { method, seq, threw } => format!(
                "ret     {} seq={seq}{}",
                registry.method_display(*method),
                if *threw { " threw" } else { "" }
            ),
            TraceEvent::InjectionFire { method, exc, point } => format!(
                "inject  {} into {} at point {point}",
                exc_name(exc),
                registry.method_display(*method)
            ),
            TraceEvent::ExcThrow { exc, chain } => {
                format!("throw   {} chain={chain}", exc_name(exc))
            }
            TraceEvent::ExcPropagate {
                method,
                exc,
                chain,
                depth,
            } => format!(
                "prop    {} chain={chain} out of {} depth={depth}",
                exc_name(exc),
                registry.method_display(*method)
            ),
            TraceEvent::ExcDeliver { exc, chain } => {
                format!("deliver {} chain={chain} to driver", exc_name(exc))
            }
            TraceEvent::HeapAlloc { obj, class } => {
                format!("alloc   {obj} {}", registry.class(*class).name)
            }
            TraceEvent::HeapWrite { obj, class, slot } => {
                format!("write   {obj} {}", cell(class, slot))
            }
            TraceEvent::UndoWrite { obj, class, slot } => {
                format!("undo    {obj} {}", cell(class, slot))
            }
            TraceEvent::JournalPush { depth } => format!("jpush   depth={depth}"),
            TraceEvent::JournalCommit { depth } => format!("jcommit depth={depth}"),
            TraceEvent::JournalAbort { depth, undone } => {
                format!("jabort  depth={depth} undone={undone}")
            }
            TraceEvent::BudgetCharge { spent } => format!("charge  spent={spent}"),
            TraceEvent::BudgetExhausted { spent } => format!("exhaust spent={spent}"),
            TraceEvent::MaskCheckpoint { method } => {
                format!("mask-cp {}", registry.method_display(*method))
            }
            TraceEvent::MaskRestore { method } => {
                format!("mask-rb {}", registry.method_display(*method))
            }
        }
    }
}

/// A consumer of [`TraceEvent`]s.
///
/// Implementations must not re-enter the VM: `record` is called from
/// inside dispatch and heap operations. `Debug` is required so traced
/// components ([`crate::Heap`]) stay debuggable.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);
}

/// A bounded ring-buffer [`TraceSink`]: keeps the most recent `capacity`
/// events, dropping the oldest. Memory use is fixed by `capacity`, so a
/// long replay cannot grow the recorder without bound.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    emitted: u64,
}

impl RingBufferSink {
    /// A sink retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBufferSink {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(1024)),
            emitted: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events that fell off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.emitted - self.ring.len() as u64
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` iff nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Iterates over the retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.ring.iter().cloned()
    }

    /// Consumes the sink, returning the retained events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.ring.into()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        self.emitted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::registry::RegistryBuilder;
    use crate::value::Value;
    use crate::vm::Vm;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn registry_builder() -> RegistryBuilder {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("T", |c| {
            c.field("x", Value::Int(0));
            c.method("bump", |ctx, this, _| {
                let x = ctx.get_int(this, "x");
                ctx.set(this, "x", Value::Int(x + 1));
                Ok(Value::Null)
            });
            c.method("fail", |ctx, _, _| {
                Err(ctx.exception("RuntimeException", "boom"))
            });
            c.method("outer", |ctx, this, _| {
                ctx.call(this, "bump", &[])?;
                ctx.call(this, "fail", &[])
            });
        });
        rb
    }

    fn traced_vm() -> (Vm, Rc<RefCell<RingBufferSink>>) {
        let mut vm = Vm::new(registry_builder().build());
        let sink = Rc::new(RefCell::new(RingBufferSink::new(4096)));
        vm.set_tracer(Some(sink.clone()));
        (vm, sink)
    }

    #[test]
    fn ring_buffer_bounds_retention_but_counts_everything() {
        let mut sink = RingBufferSink::new(3);
        for i in 0..10 {
            sink.record(TraceEvent::BudgetCharge { spent: i });
        }
        assert_eq!(sink.emitted(), 10);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 7);
        let spent: Vec<u64> = sink
            .events()
            .map(|e| match e {
                TraceEvent::BudgetCharge { spent } => spent,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(spent, vec![7, 8, 9], "oldest events fall off the front");
    }

    #[test]
    fn vm_emits_call_heap_and_exception_events() {
        let (mut vm, sink) = traced_vm();
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        let err = vm.call(t, "outer", &[]).unwrap_err();
        assert_eq!(err.message, "boom");
        let sink = sink.borrow();
        let events: Vec<TraceEvent> = sink.events().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::HeapAlloc { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::HeapWrite { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ExcThrow { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ExcPropagate { depth: 1, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ExcDeliver { .. })));
        // Three dispatches, each with an enter and an exit.
        let enters = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CallEnter { .. }))
            .count();
        let exits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CallExit { .. }))
            .count();
        assert_eq!(enters, 3);
        assert_eq!(exits, 3);
    }

    #[test]
    fn untraced_vm_emits_nothing_and_behaves_identically() {
        let (mut traced, sink) = traced_vm();
        let mut plain = Vm::new(registry_builder().build());
        let a = traced.construct("T", &[]).unwrap();
        traced.root(a);
        let b = plain.construct("T", &[]).unwrap();
        plain.root(b);
        let ra = traced.call(a, "bump", &[]).unwrap();
        let rb = plain.call(b, "bump", &[]).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(traced.fuel_spent(), plain.fuel_spent(), "tracing is free");
        assert!(sink.borrow().emitted() > 0);
    }

    #[test]
    fn events_are_deterministic_across_identical_runs() {
        let run = || {
            let (mut vm, sink) = traced_vm();
            let t = vm.construct("T", &[]).unwrap();
            vm.root(t);
            let _ = vm.call(t, "outer", &[]);
            vm.set_tracer(None);
            Rc::try_unwrap(sink).unwrap().into_inner().into_events()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn render_resolves_names() {
        let (mut vm, sink) = traced_vm();
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        vm.call(t, "bump", &[]).unwrap();
        let registry = vm.registry().clone();
        let rendered: Vec<String> = sink
            .borrow()
            .events()
            .map(|e| e.render(&registry))
            .collect();
        assert!(rendered.iter().any(|l| l.contains("T::bump")));
        assert!(rendered.iter().any(|l| l.contains("T.x")));
    }

    #[test]
    fn budget_exhaustion_is_traced() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("S", |c| {
            c.field("n", Value::Int(0));
            c.method("noop", |_, _, _| Ok(Value::Null));
            c.method("spin", |ctx, this, _| loop {
                ctx.call(this, "noop", &[])?;
            });
        });
        let mut vm = Vm::new(rb.build());
        let sink = Rc::new(RefCell::new(RingBufferSink::new(64)));
        vm.set_tracer(Some(sink.clone()));
        let s = vm.construct("S", &[]).unwrap();
        vm.root(s);
        vm.set_budget(crate::Budget::fuel(200));
        let _ = vm.call(s, "spin", &[]).unwrap_err();
        assert!(sink
            .borrow()
            .events()
            .any(|e| matches!(e, TraceEvent::BudgetExhausted { .. })));
    }
}
