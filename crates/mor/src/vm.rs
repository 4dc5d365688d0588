//! The virtual machine: call dispatch, frame roots, statistics.

use crate::budget::{Budget, FuelMeter};
use crate::class::MethodBody;
use crate::ctx::Ctx;
use crate::exception::{Exception, ExceptionTable, MethodResult};
use crate::heap::Heap;
use crate::hook::{CallHook, CallKind, CallSite, HookGuard};
use crate::ids::{ExcId, MethodId, ObjId};
use crate::registry::Registry;
use crate::resume::{BoundaryProbe, OpRecord, ReplayState, VmCheckpoint};
use crate::trace::{TraceEvent, TraceSink};
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-run dynamic call statistics.
///
/// `calls[m]` counts dynamic dispatches of method `m`; the paper weights its
/// method classifications by exactly these counts (Figs. 2b/3b).
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    /// Dynamic call count per [`MethodId`] index.
    pub calls: Vec<u64>,
    /// Number of guest exceptions that escaped a method whose signature did
    /// not declare them, under a profile that enforces declarations (Java).
    pub declaration_violations: u64,
    /// Total guest exceptions that propagated out of some call.
    pub exceptions_seen: u64,
}

impl CallStats {
    fn new(methods: usize) -> Self {
        CallStats {
            calls: vec![0; methods],
            declaration_violations: 0,
            exceptions_seen: 0,
        }
    }

    /// Total dynamic calls across all methods.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// The managed-runtime virtual machine.
///
/// Owns the [`Heap`], shares the immutable [`Registry`], and dispatches all
/// guest calls through up to two nested [`CallHook`]s: the outer hook (the
/// injection wrapper of Listing 1) and, inside it, the inner hook (the
/// atomicity wrapper of Listing 2 when a corrected program is verified).
///
/// The VM is single-threaded by design: the paper (§4.4) explicitly leaves
/// concurrent programs out of scope.
pub struct Vm {
    registry: Rc<Registry>,
    heap: Heap,
    hook: Option<Rc<RefCell<dyn CallHook>>>,
    /// Woven inside `hook`: its `before` runs after the outer one and its
    /// `after` before the outer one (see [`Vm::set_inner_hook`]).
    inner_hook: Option<Rc<RefCell<dyn CallHook>>>,
    /// Frame-local root sets: everything a method body can name stays
    /// rooted while its frame is live, so deferred reclamation can never
    /// free an object the body still holds an id to. Stored as one flat
    /// arena (`frame_roots`) with per-frame start offsets (`frame_starts`)
    /// so pushing and popping a frame never allocates.
    frame_roots: Vec<ObjId>,
    frame_starts: Vec<usize>,
    stats: CallStats,
    call_seq: u64,
    depth: usize,
    fuel: FuelMeter,
    tracer: Option<Rc<RefCell<dyn TraceSink>>>,
    /// Recording mode: the log of completed driver ops, if active.
    pub(crate) op_log: Option<Vec<OpRecord>>,
    /// Invoked after each recorded driver op (checkpoint capture).
    pub(crate) boundary_probe: Option<BoundaryProbe>,
    /// Replay mode: [`crate::Driver`] short-circuits ops from a recorded
    /// log until the switch index, then restores the paired checkpoint.
    pub(crate) replay: Option<ReplayState>,
    /// Preinterned id of the distinguished `BudgetExhausted` exception;
    /// cached so dispatch can exempt it from declaration-violation
    /// accounting without a name lookup per propagation step.
    budget_exc: ExcId,
}

impl Vm {
    /// Creates a VM over a freshly built registry.
    pub fn new(registry: Registry) -> Self {
        Vm::from_shared_registry(Rc::new(registry))
    }

    /// Creates a VM over an already-shared registry (campaigns reuse one
    /// registry across many VMs instead of rebuilding it per run).
    pub fn from_shared_registry(registry: Rc<Registry>) -> Self {
        // Exception chain ids restart per VM: they only need to be unique
        // within one VM's lifetime, and restarting keeps run records (and
        // campaign journals) deterministic regardless of process history.
        crate::exception::reset_chains();
        let methods = registry.method_count();
        let budget_exc = registry
            .exceptions()
            .lookup(ExceptionTable::BUDGET_EXHAUSTED)
            .expect("BudgetExhausted is preinterned by ExceptionTable::new");
        Vm {
            heap: Heap::new(registry.clone()),
            registry,
            hook: None,
            inner_hook: None,
            frame_roots: Vec::new(),
            frame_starts: Vec::new(),
            stats: CallStats::new(methods),
            call_seq: 0,
            depth: 0,
            fuel: FuelMeter::new(Budget::unlimited()),
            tracer: None,
            op_log: None,
            boundary_probe: None,
            replay: None,
            budget_exc,
        }
    }

    /// Installs (or removes) the flight recorder. The sink is shared with
    /// the heap, so heap write/undo/journal events and VM call/exception
    /// events interleave in one stream. With no sink installed every
    /// emission site is a branch on `None` — events are never constructed.
    ///
    /// Sinks must not re-enter the VM (the sink cell is borrowed while
    /// recording).
    pub fn set_tracer(&mut self, tracer: Option<Rc<RefCell<dyn TraceSink>>>) {
        self.heap.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Records one event on the installed sink, if any. Public so hooks in
    /// other crates (injection, masking) can add their own span events.
    pub fn trace(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(event);
        }
    }

    /// Emission helper: the closure only runs when a sink is installed.
    #[inline]
    fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(make());
        }
    }

    /// Installs a fresh fuel [`Budget`], resetting any fuel already spent.
    pub fn set_budget(&mut self, budget: Budget) {
        self.fuel = FuelMeter::new(budget);
    }

    /// Re-initializes the VM for a fresh run **without** rebuilding its
    /// universe. The heap is epoch-reset (storage capacity retained, ids
    /// restart at 1), exception chain ids restart, call statistics /
    /// frames / depth / call sequence are zeroed, both hooks and the tracer
    /// are detached, and the fuel meter is replaced with an unlimited budget —
    /// exactly the state [`Vm::from_shared_registry`] constructs, so a
    /// recycled VM's run records are bit-identical to a fresh VM's.
    ///
    /// Campaign sweeps call this between injection attempts instead of
    /// building a VM per attempt; it is also safe after a panicking run
    /// unwound through the VM (all guest state is discarded wholesale).
    pub fn reset_for_run(&mut self) {
        crate::exception::reset_chains();
        self.heap.epoch_reset();
        self.set_tracer(None);
        self.set_hook(None);
        self.frame_roots.clear();
        self.frame_starts.clear();
        self.depth = 0;
        self.call_seq = 0;
        self.stats.calls.iter_mut().for_each(|c| *c = 0);
        self.stats.declaration_violations = 0;
        self.stats.exceptions_seen = 0;
        self.fuel = FuelMeter::new(Budget::unlimited());
        self.op_log = None;
        self.boundary_probe = None;
        self.replay = None;
    }

    /// The budget currently in force.
    pub fn budget(&self) -> Budget {
        self.fuel.budget()
    }

    /// Fuel spent so far under the current budget.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel.spent()
    }

    /// `true` iff the current budget has been exhausted — the campaign
    /// layer uses this (not string-matching on exceptions) to classify a
    /// run as diverged.
    pub fn fuel_exhausted(&self) -> bool {
        self.fuel.exhausted()
    }

    /// The registry describing the guest program.
    pub fn registry(&self) -> &Rc<Registry> {
        &self.registry
    }

    /// Read access to the heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the heap (checkpoint restore, hooks and tests).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Installs (or removes) the call hook — the equivalent of weaving
    /// wrappers into the program. Either way the inner slot is emptied, so
    /// `set_hook(None)` releases the VM's clones of both hooks and a
    /// caller can take sole ownership of its hook state back.
    pub fn set_hook(&mut self, hook: Option<Rc<RefCell<dyn CallHook>>>) {
        self.hook = hook;
        self.inner_hook = None;
    }

    /// Installs (or removes) a second hook woven **inside** the one
    /// [`Vm::set_hook`] installed — the corrected-program validation
    /// setup, with the injection wrapper outside the atomicity wrapper.
    /// Per call: outer `before`, inner `before`, body, inner `after`,
    /// outer `after`. If the inner `before` throws, the body and the inner
    /// `after` are skipped and the outer `after` sees the exception; if
    /// the outer `before` throws, neither inner half runs — exactly like
    /// nested `try` blocks. Call after [`Vm::set_hook`], which empties
    /// this slot.
    pub fn set_inner_hook(&mut self, hook: Option<Rc<RefCell<dyn CallHook>>>) {
        self.inner_hook = hook;
    }

    /// Dynamic call statistics collected so far.
    pub fn stats(&self) -> &CallStats {
        &self.stats
    }

    /// Resets call statistics (heap state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CallStats::new(self.registry.method_count());
    }

    /// Takes the statistics out of the VM, leaving zeroed counters — lets
    /// a campaign keep a finished run's counts without cloning the vector.
    pub fn take_stats(&mut self) -> CallStats {
        std::mem::replace(
            &mut self.stats,
            CallStats::new(self.registry.method_count()),
        )
    }

    /// Adds a persistent root (drivers root the objects they hold across
    /// reclamation points).
    pub fn root(&mut self, id: ObjId) {
        self.heap.root(id);
    }

    /// Removes a persistent root.
    pub fn unroot(&mut self, id: ObjId) {
        self.heap.unroot(id);
    }

    /// Looks up an interned exception type.
    ///
    /// # Panics
    ///
    /// Panics if the name was never registered — exception names must be
    /// declared via [`crate::RegistryBuilder::exception`] or a
    /// `throws(..)` clause.
    pub fn exc_id(&self, name: &str) -> crate::ids::ExcId {
        self.registry.exceptions().lookup(name).unwrap_or_else(|| {
            panic!("unknown exception type `{name}` (register it at build time)")
        })
    }

    /// Constructs an instance of `class_name`: allocates it and dispatches
    /// its constructor (if any) through the interposable call boundary, so
    /// constructors receive injections and wrappers like any method.
    ///
    /// # Errors
    ///
    /// Propagates any guest exception thrown (or injected) by the
    /// constructor; the partially constructed object is left to the garbage
    /// collector, as in Java.
    ///
    /// # Panics
    ///
    /// Panics if `class_name` is not registered (host error).
    pub fn construct(&mut self, class_name: &str, args: &[Value]) -> Result<ObjId, Exception> {
        let (id, ctor) = self.alloc(class_name);
        if let Some(gid) = ctor {
            self.dispatch(gid, id, args, CallKind::Ctor)?;
        }
        Ok(id)
    }

    /// Allocates an instance without running its constructor (raw
    /// allocation, used by constructors building their own parts).
    ///
    /// # Panics
    ///
    /// Panics if `class_name` is not registered (host error).
    pub fn alloc_raw(&mut self, class_name: &str) -> ObjId {
        self.alloc(class_name).0
    }

    /// Allocates an instance, returning it with its constructor's id.
    fn alloc(&mut self, class_name: &str) -> (ObjId, Option<MethodId>) {
        let class = self
            .registry
            .class_by_name(class_name)
            .unwrap_or_else(|| panic!("unknown class `{class_name}`"))
            .clone();
        self.charge_heap_op();
        let id = self.heap.alloc(&class);
        self.root_in_frame(id);
        (id, class.ctor().map(|c| c.gid))
    }

    /// Calls `method` on `recv` through the interposable boundary.
    ///
    /// # Errors
    ///
    /// Propagates the guest exception if the callee throws (or an exception
    /// is injected).
    ///
    /// # Panics
    ///
    /// Panics if `recv` is dead or its class has no such method (host
    /// errors — guest-level null dereference is [`Ctx::call_value`]).
    pub fn call(&mut self, recv: ObjId, method: &str, args: &[Value]) -> MethodResult {
        let obj = self
            .heap
            .get(recv)
            .unwrap_or_else(|| panic!("call on dead object {recv}"));
        let class = self.registry.class(obj.class_id());
        let slot = class
            .method_slot(method)
            .unwrap_or_else(|| panic!("class `{}` has no method `{method}`", class.name));
        let gid = class.methods[slot].gid;
        self.dispatch(gid, recv, args, CallKind::Method)
    }

    /// Current call nesting depth (0 outside any guest call).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Begins recording the ops the program's [`crate::Driver`] issues
    /// (see [`crate::resume`]). Recording changes nothing observable about the
    /// run: ops execute live and their keys/results are logged on the side.
    pub fn start_recording(&mut self) {
        self.op_log = Some(Vec::new());
    }

    /// Ends recording, returning the op log (also detaches the boundary
    /// probe). `None` if no recording was in progress.
    pub fn finish_recording(&mut self) -> Option<Vec<OpRecord>> {
        self.boundary_probe = None;
        self.op_log.take()
    }

    /// Installs (or removes) the boundary probe invoked after each
    /// recorded driver op. The probe sees the VM quiescent (depth 0, no
    /// open frames or journal layers) and the count of ops recorded so far
    /// — the natural place to capture strided [`VmCheckpoint`]s.
    pub fn set_boundary_probe(&mut self, probe: Option<BoundaryProbe>) {
        self.boundary_probe = probe;
    }

    /// Captures a structural checkpoint of everything a run can observe of
    /// this VM: heap, call statistics, call sequence, fuel spent, and the
    /// exception chain-id watermark.
    ///
    /// # Panics
    ///
    /// Panics unless the VM is quiescent: depth 0, no live frames, and no
    /// open heap journal layer. (The interpreter's call stack is host
    /// stack, so checkpoints are only well-defined at top-level call
    /// boundaries — which is exactly where the boundary probe runs.)
    pub fn checkpoint(&self) -> VmCheckpoint {
        assert_eq!(self.depth, 0, "checkpoint inside a guest call");
        assert!(self.frame_starts.is_empty(), "checkpoint with live frames");
        assert_eq!(
            self.heap.journal_depth(),
            0,
            "checkpoint with an open journal layer"
        );
        VmCheckpoint {
            heap: self.heap.checkpoint(),
            stats: self.stats.clone(),
            call_seq: self.call_seq,
            fuel_spent: self.fuel.spent(),
            chain_next: crate::exception::chain_watermark(),
        }
    }

    /// Reinstates a [`VmCheckpoint`] wholesale. The heap contents, call
    /// statistics, call sequence, and chain watermark come back exactly as
    /// captured; fuel comes back as *spent* against whatever budget is
    /// currently in force (so resumed retry attempts under scaled budgets
    /// account the prefix correctly). The heap mutation epoch is bumped,
    /// invalidating any memoized fingerprints. Storage is reused where
    /// possible — restore is allocation-light on a recycled VM.
    ///
    /// # Panics
    ///
    /// Panics if called inside a guest call.
    pub fn restore(&mut self, ckpt: &VmCheckpoint) {
        assert_eq!(self.depth, 0, "restore inside a guest call");
        assert!(self.frame_starts.is_empty(), "restore with live frames");
        self.heap.restore_checkpoint(&ckpt.heap);
        self.stats.calls.clone_from(&ckpt.stats.calls);
        self.stats.declaration_violations = ckpt.stats.declaration_violations;
        self.stats.exceptions_seen = ckpt.stats.exceptions_seen;
        self.call_seq = ckpt.call_seq;
        self.fuel.preload_spent(ckpt.fuel_spent);
        crate::exception::set_chain_watermark(ckpt.chain_next);
    }

    /// Arms replay: driver ops `0..switch` short-circuit to their
    /// recorded results, then `checkpoint` is restored and execution goes
    /// live. Must be installed before the driver starts (on a freshly
    /// reset VM) and is mutually exclusive with recording.
    ///
    /// # Panics
    ///
    /// Panics if `switch` exceeds the log length or a recording is active.
    pub fn begin_replay(
        &mut self,
        ops: Rc<Vec<OpRecord>>,
        switch: usize,
        checkpoint: Rc<VmCheckpoint>,
    ) {
        assert!(switch <= ops.len(), "replay switch beyond the op log");
        assert!(self.op_log.is_none(), "replay while recording");
        self.replay = Some(ReplayState {
            ops,
            cursor: 0,
            switch,
            checkpoint,
        });
    }

    /// `true` while a replay is armed and has not yet reached its switch
    /// point. A driver that *finishes* with replay still active means the
    /// recorded log did not match this execution — callers must discard
    /// the run and fall back to from-scratch execution.
    pub fn replay_active(&self) -> bool {
        self.replay.is_some()
    }

    /// Disarms any in-flight replay (fallback path cleanup).
    pub fn clear_replay(&mut self) {
        self.replay = None;
    }

    /// Roots `id` in the innermost live frame; no-op at driver level, where
    /// the driver is responsible for explicit [`Vm::root`]s.
    pub(crate) fn root_in_frame(&mut self, id: ObjId) {
        if !self.frame_starts.is_empty() {
            self.frame_roots.push(id);
            self.heap.root(id);
        }
    }

    /// Charges one guest heap operation against the budget. Overdrafting
    /// never aborts mid-body (bodies cannot observe exhaustion between two
    /// field writes); exhaustion surfaces as `BudgetExhausted` at the next
    /// dispatched call. A program that keeps touching the heap after that
    /// exception was *delivered*, though, is cut off by a panic — the
    /// campaign layer catches it and classifies the run as diverged.
    pub(crate) fn charge_heap_op(&mut self) {
        if self.fuel.reported() {
            panic!(
                "fuel budget exhausted after {} steps: guest heap activity continued past BudgetExhausted (run diverged)",
                self.fuel.spent()
            );
        }
        self.fuel.charge_heap_op();
        self.emit(|| TraceEvent::BudgetCharge {
            spent: self.fuel.spent(),
        });
    }

    fn dispatch(
        &mut self,
        mid: MethodId,
        recv: ObjId,
        args: &[Value],
        kind: CallKind,
    ) -> MethodResult {
        // The fuel check sits at the dispatch boundary: a run that diverges
        // (e.g. retrying a synthetically failed call forever) is cut off the
        // next time it calls anything. The first abort is a *guest*
        // exception, so atomicity wrappers up the stack still roll their
        // state back; if the program swallows it and keeps calling, the
        // escalation to a panic below is the only thing that can still end
        // the run (the campaign layer catches it as a divergence).
        if !self.fuel.charge_call() {
            if self.fuel.reported() {
                panic!(
                    "fuel budget exhausted after {} steps: guest calls continued past BudgetExhausted (run diverged)",
                    self.fuel.spent()
                );
            }
            self.fuel.mark_reported();
            self.emit(|| TraceEvent::BudgetExhausted {
                spent: self.fuel.spent(),
            });
            return Err(Exception::new(
                self.budget_exc,
                format!("fuel budget exhausted after {} steps", self.fuel.spent()),
            ));
        }
        let body = body_clone(&self.registry.method(mid).body);
        self.stats.calls[mid.index()] += 1;
        self.call_seq += 1;
        let site = CallSite {
            method: mid,
            class: self.registry.method_class(mid),
            recv,
            ref_args: args.iter().filter_map(Value::as_ref_id).collect(),
            depth: self.depth,
            kind,
            seq: self.call_seq,
        };
        self.emit(|| TraceEvent::CallEnter {
            method: mid,
            kind,
            depth: site.depth,
            seq: site.seq,
        });

        // New frame: receiver and reference arguments stay rooted for the
        // duration of the call.
        self.frame_starts.push(self.frame_roots.len());
        self.frame_roots.push(recv);
        self.heap.root(recv);
        for &a in &site.ref_args {
            self.heap.root(a);
            self.frame_roots.push(a);
        }

        // Outer, then inner `before`; each guard stays on this stack frame
        // until its own `after`. A `before` that throws ends the descent:
        // only the hooks outside it get an `after`, and see the exception.
        let (outer, inner) = (self.hook.clone(), self.inner_hook.clone());
        let mut entered: [Option<HookGuard>; 2] = [None, None];
        let mut result = None;
        for (slot, hook) in [&outer, &inner].into_iter().enumerate() {
            if let Some(h) = hook {
                match h.borrow_mut().before(self, &site) {
                    Ok(g) => entered[slot] = Some(g),
                    Err(e) => {
                        result = Some(Err(e));
                        break;
                    }
                }
            }
        }
        let mut result = result.unwrap_or_else(|| {
            self.depth += 1;
            let outcome = {
                let mut ctx = Ctx::new(self);
                body(&mut ctx, recv, args)
            };
            self.depth -= 1;
            outcome
        });

        // Pop the frame before `after` runs: once the callee returned or
        // threw, its locals are dead, so rollback cleanup inside `after`
        // may reclaim objects the failed callee allocated. The wrapper
        // itself still holds `this` and the by-reference arguments
        // (Listings 1 and 2 both reference them after the call), so their
        // entries — the first `1 + ref_args` roots of the frame, pushed
        // above — are left counted until the hooks are done.
        let start = self.frame_starts.pop().expect("frame pushed above");
        let held = start + 1 + site.ref_args.len();
        for id in self.frame_roots.drain(held..) {
            self.heap.unroot(id);
        }
        self.frame_roots.truncate(start);

        let [outer_guard, inner_guard] = entered;
        if let (Some(h), Some(g)) = (&inner, inner_guard) {
            result = h.borrow_mut().after(self, &site, g, result);
        }
        if let (Some(h), Some(g)) = (&outer, outer_guard) {
            result = h.borrow_mut().after(self, &site, g, result);
        }
        self.heap.unroot(recv);
        for &a in &site.ref_args {
            self.heap.unroot(a);
        }

        self.emit(|| TraceEvent::CallExit {
            method: mid,
            seq: site.seq,
            threw: result.is_err(),
        });
        match &result {
            Ok(v) => {
                // Returned references become nameable by the caller.
                if let Some(id) = v.as_ref_id() {
                    self.root_in_frame(id);
                }
            }
            Err(e) => {
                self.emit(|| {
                    if site.depth > 0 {
                        TraceEvent::ExcPropagate {
                            method: mid,
                            exc: e.ty,
                            chain: e.chain,
                            depth: site.depth,
                        }
                    } else {
                        TraceEvent::ExcDeliver {
                            exc: e.ty,
                            chain: e.chain,
                        }
                    }
                });
                self.stats.exceptions_seen += 1;
                if self.registry.profile().enforce_declared
                    && !e.injected
                    && e.ty != self.budget_exc
                    && !self.registry.method(mid).declared.contains(&e.ty)
                    && !self.registry.runtime_exceptions().contains(&e.ty)
                {
                    self.stats.declaration_violations += 1;
                }
            }
        }
        result
    }
}

fn body_clone(body: &MethodBody) -> MethodBody {
    Rc::clone(body)
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("live_objects", &self.heap.len())
            .field("depth", &self.depth)
            .field("calls", &self.stats.total_calls())
            .field("hooked", &self.hook.is_some())
            .field("inner_hooked", &self.inner_hook.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::registry::RegistryBuilder;

    fn counter_registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Counter", |c| {
            c.field("count", Value::Int(0));
            c.ctor(|ctx, this, args| {
                if let Some(Value::Int(start)) = args.first() {
                    ctx.set(this, "count", Value::Int(*start));
                }
                Ok(Value::Null)
            });
            c.method("increment", |ctx, this, _| {
                let v = ctx.get_int(this, "count");
                ctx.set(this, "count", Value::Int(v + 1));
                Ok(Value::Int(v + 1))
            });
            c.method("fail", |ctx, this, _| {
                let v = ctx.get_int(this, "count");
                ctx.set(this, "count", Value::Int(v + 100)); // non-atomic!
                Err(ctx.exception("RuntimeException", "boom"))
            });
        });
        rb.build()
    }

    #[test]
    fn construct_runs_ctor() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[Value::Int(5)]).unwrap();
        vm.root(c);
        assert_eq!(vm.heap().field(c, "count"), Some(Value::Int(5)));
    }

    #[test]
    fn call_dispatches_and_returns() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        assert_eq!(vm.call(c, "increment", &[]).unwrap(), Value::Int(1));
        assert_eq!(vm.call(c, "increment", &[]).unwrap(), Value::Int(2));
        // ctor + two increments: constructor calls are dispatched too.
        assert_eq!(vm.stats().calls.iter().sum::<u64>(), 3);
    }

    #[test]
    fn exceptions_propagate_with_partial_state() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        let err = vm.call(c, "fail", &[]).unwrap_err();
        assert!(!err.injected);
        assert_eq!(err.message, "boom");
        // The failed method left the object modified — the very problem the
        // paper is about.
        assert_eq!(vm.heap().field(c, "count"), Some(Value::Int(100)));
        assert_eq!(vm.stats().exceptions_seen, 1);
    }

    #[test]
    fn declared_violations_counted_under_java() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.exception("Undeclared");
        rb.class("A", |c| {
            c.method("m", |ctx, _, _| Err(ctx.exception("Undeclared", "x")));
        });
        let mut vm = Vm::new(rb.build());
        let a = vm.construct("A", &[]).unwrap();
        vm.root(a);
        let _ = vm.call(a, "m", &[]);
        assert_eq!(vm.stats().declaration_violations, 1);
    }

    #[test]
    fn declared_violations_ignored_under_cpp() {
        let mut rb = RegistryBuilder::new(Profile::cpp());
        rb.exception("Undeclared");
        rb.class("A", |c| {
            c.method("m", |ctx, _, _| Err(ctx.exception("Undeclared", "x")));
        });
        let mut vm = Vm::new(rb.build());
        let a = vm.construct("A", &[]).unwrap();
        vm.root(a);
        let _ = vm.call(a, "m", &[]);
        assert_eq!(vm.stats().declaration_violations, 0);
    }

    #[test]
    fn frame_roots_protect_working_objects_from_reclaim() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Builder", |c| {
            c.field("out", Value::Null);
            c.method("build", |ctx, this, _| {
                // A temporary that is unreachable from any field for a
                // while; reclaim during the frame must not free it.
                let tmp = ctx.alloc("Builder");
                ctx.vm().heap_mut().reclaim();
                assert!(ctx.vm().heap().is_live(tmp), "frame root lost");
                ctx.set(this, "out", Value::Ref(tmp));
                Ok(Value::Null)
            });
        });
        let mut vm = Vm::new(rb.build());
        let b = vm.construct("Builder", &[]).unwrap();
        vm.root(b);
        vm.call(b, "build", &[]).unwrap();
        assert!(vm.heap().field(b, "out").unwrap().as_ref_id().is_some());
    }

    #[test]
    fn returned_refs_stay_rooted_in_caller_frame() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Factory", |c| {
            c.field("dummy", Value::Null);
            c.method("make", |ctx, _, _| Ok(Value::Ref(ctx.alloc("Factory"))));
            c.method("use_make", |ctx, this, _| {
                let v = ctx.call(this, "make", &[])?;
                let id = v.as_ref_id().unwrap();
                ctx.vm().heap_mut().reclaim();
                assert!(ctx.vm().heap().is_live(id), "returned ref reclaimed");
                Ok(Value::Null)
            });
        });
        let mut vm = Vm::new(rb.build());
        let f = vm.construct("Factory", &[]).unwrap();
        vm.root(f);
        vm.call(f, "use_make", &[]).unwrap();
    }

    #[test]
    fn depth_is_zero_outside_calls() {
        let mut vm = Vm::new(counter_registry());
        assert_eq!(vm.depth(), 0);
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        vm.call(c, "increment", &[]).unwrap();
        assert_eq!(vm.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown class")]
    fn construct_unknown_class_panics() {
        let mut vm = Vm::new(counter_registry());
        let _ = vm.construct("Nope", &[]);
    }

    #[test]
    #[should_panic(expected = "has no method")]
    fn unknown_method_panics() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        let _ = vm.call(c, "nope", &[]);
    }

    #[test]
    fn exc_id_resolves_registered_names() {
        let vm = Vm::new(counter_registry());
        let id = vm.exc_id("RuntimeException");
        assert_eq!(vm.registry().exceptions().name(id), "RuntimeException");
    }

    fn spin_registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Spin", |c| {
            c.field("n", Value::Int(0));
            c.method("noop", |_, _, _| Ok(Value::Null));
            c.method("spin", |ctx, this, _| loop {
                ctx.call(this, "noop", &[])?;
            });
        });
        rb.build()
    }

    #[test]
    fn budget_cuts_off_diverging_run() {
        let mut vm = Vm::new(spin_registry());
        let s = vm.construct("Spin", &[]).unwrap();
        vm.root(s);
        vm.set_budget(crate::Budget::fuel(1_000));
        let err = vm.call(s, "spin", &[]).unwrap_err();
        assert_eq!(
            vm.registry().exceptions().name(err.ty),
            crate::ExceptionTable::BUDGET_EXHAUSTED
        );
        assert!(!err.injected);
        assert!(vm.fuel_exhausted());
        // Exhaustion is a distinguished condition, not an undeclared
        // application exception.
        assert_eq!(vm.stats().declaration_violations, 0);
    }

    #[test]
    fn default_budget_is_unlimited_but_metered() {
        let mut vm = Vm::new(counter_registry());
        assert_eq!(vm.budget(), crate::Budget::unlimited());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        vm.call(c, "increment", &[]).unwrap();
        assert!(!vm.fuel_exhausted());
        // Fuel is still metered under an unlimited budget, so campaigns can
        // report consumption: ctor alloc + dispatches + field ops all count.
        assert!(vm.fuel_spent() >= 2);
    }

    #[test]
    fn heap_ops_charge_the_same_pool_as_calls() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        let before = vm.fuel_spent();
        vm.call(c, "increment", &[]).unwrap(); // one call + a get + a set
        assert!(vm.fuel_spent() >= before + 3);
    }

    #[test]
    fn set_budget_resets_spent_fuel() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        assert!(vm.fuel_spent() > 0);
        vm.set_budget(crate::Budget::fuel(50));
        assert_eq!(vm.fuel_spent(), 0);
        vm.call(c, "increment", &[]).unwrap();
        assert!(!vm.fuel_exhausted());
    }

    #[test]
    fn take_stats_leaves_zeroed_counters() {
        let mut vm = Vm::new(counter_registry());
        let c = vm.construct("Counter", &[]).unwrap();
        vm.root(c);
        vm.call(c, "increment", &[]).unwrap();
        let taken = vm.take_stats();
        assert_eq!(taken.total_calls(), 2);
        assert_eq!(vm.stats().total_calls(), 0);
        assert_eq!(vm.stats().calls.len(), taken.calls.len());
    }

    #[test]
    fn reset_for_run_matches_a_fresh_vm() {
        let shared = Rc::new(counter_registry());
        // Dirty a VM thoroughly: objects, stats, fuel, an open journal.
        let mut recycled = Vm::from_shared_registry(shared.clone());
        let c = recycled.construct("Counter", &[Value::Int(9)]).unwrap();
        recycled.root(c);
        recycled.call(c, "increment", &[]).unwrap();
        let _ = recycled.call(c, "fail", &[]);
        recycled.heap_mut().push_journal();
        recycled.set_budget(crate::Budget::fuel(10));

        recycled.reset_for_run();
        let mut fresh = Vm::from_shared_registry(shared);

        // Both universes now replay the same program identically: same
        // object ids, same exception chain ids, same stats and fuel.
        for vm in [&mut recycled, &mut fresh] {
            let c = vm.construct("Counter", &[]).unwrap();
            vm.root(c);
            vm.call(c, "increment", &[]).unwrap();
            let _ = vm.call(c, "fail", &[]);
        }
        assert_eq!(recycled.heap().len(), fresh.heap().len());
        let rc: Vec<_> = recycled.heap().iter().map(|(id, _)| id).collect();
        let fc: Vec<_> = fresh.heap().iter().map(|(id, _)| id).collect();
        assert_eq!(rc, fc, "object ids restart identically");
        assert_eq!(recycled.stats().calls, fresh.stats().calls);
        assert_eq!(
            recycled.stats().exceptions_seen,
            fresh.stats().exceptions_seen
        );
        assert_eq!(recycled.fuel_spent(), fresh.fuel_spent());
        assert_eq!(recycled.budget(), fresh.budget());
        assert_eq!(recycled.heap().journal_depth(), 0);
    }

    #[test]
    fn shared_registry_vms_are_equivalent() {
        let shared = Rc::new(counter_registry());
        let mut a = Vm::from_shared_registry(shared.clone());
        let mut b = Vm::from_shared_registry(shared);
        let ca = a.construct("Counter", &[]).unwrap();
        let cb = b.construct("Counter", &[]).unwrap();
        a.root(ca);
        b.root(cb);
        assert_eq!(
            a.call(ca, "increment", &[]).unwrap(),
            b.call(cb, "increment", &[]).unwrap()
        );
    }

    /// A hook that logs its before/after events under a label and can
    /// throw from `before`.
    struct Logger {
        label: &'static str,
        log: Rc<RefCell<Vec<String>>>,
        throw_on_before: bool,
    }

    impl CallHook for Logger {
        fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
            self.log.borrow_mut().push(format!("{}:before", self.label));
            if self.throw_on_before {
                let ty = vm.registry().runtime_exceptions()[0];
                return Err(Exception::injected(ty, site.method));
            }
            Ok(Some(Box::new(self.label)))
        }

        fn after(
            &mut self,
            _vm: &mut Vm,
            _site: &CallSite,
            guard: HookGuard,
            outcome: MethodResult,
        ) -> MethodResult {
            let label = guard
                .and_then(|g| g.downcast::<&'static str>().ok())
                .map(|b| *b);
            assert_eq!(label, Some(self.label), "guards must return to their hook");
            self.log
                .borrow_mut()
                .push(format!("{}:after:{}", self.label, outcome.is_ok()));
            outcome
        }
    }

    /// A VM over one class whose method `m` logs its body run into the
    /// returned log, with `outer` and `inner` [`Logger`]s installed.
    fn nested_vm(outer_throws: bool, inner_throws: bool) -> (Vm, ObjId, Rc<RefCell<Vec<String>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let body_log = log.clone();
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("A", |c| {
            c.method("m", move |_, _, _| {
                body_log.borrow_mut().push("body".to_owned());
                Ok(Value::Int(1))
            });
        });
        let mut vm = Vm::new(rb.build());
        let a = vm.alloc_raw("A");
        vm.root(a);
        let logger = |label, throw_on_before| -> Rc<RefCell<dyn CallHook>> {
            Rc::new(RefCell::new(Logger {
                label,
                log: log.clone(),
                throw_on_before,
            }))
        };
        vm.set_hook(Some(logger("outer", outer_throws)));
        vm.set_inner_hook(Some(logger("inner", inner_throws)));
        (vm, a, log)
    }

    #[test]
    fn nested_hooks_run_outer_before_first_and_outer_after_last() {
        let (mut vm, a, log) = nested_vm(false, false);
        assert_eq!(vm.call(a, "m", &[]).unwrap(), Value::Int(1));
        assert_eq!(
            log.borrow().as_slice(),
            &[
                "outer:before",
                "inner:before",
                "body",
                "inner:after:true",
                "outer:after:true"
            ]
        );
    }

    #[test]
    fn inner_before_throw_unwinds_through_outer_after() {
        let (mut vm, a, log) = nested_vm(false, true);
        let err = vm.call(a, "m", &[]).unwrap_err();
        assert!(err.injected);
        // The inner wrapper threw at its injection point: the body and the
        // inner after never ran, the outer after saw the exception.
        assert_eq!(
            log.borrow().as_slice(),
            &["outer:before", "inner:before", "outer:after:false"]
        );
    }

    #[test]
    fn outer_before_throw_skips_the_inner_hook() {
        let (mut vm, a, log) = nested_vm(true, false);
        let err = vm.call(a, "m", &[]).unwrap_err();
        assert!(err.injected);
        assert_eq!(log.borrow().as_slice(), &["outer:before"]);
    }

    #[test]
    fn set_hook_none_releases_both_slots() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let outer = Rc::new(RefCell::new(Logger {
            label: "outer",
            log: log.clone(),
            throw_on_before: false,
        }));
        let inner = Rc::new(RefCell::new(Logger {
            label: "inner",
            log,
            throw_on_before: false,
        }));
        let mut vm = Vm::new(counter_registry());
        vm.set_hook(Some(outer.clone()));
        vm.set_inner_hook(Some(inner.clone()));
        assert_eq!((Rc::strong_count(&outer), Rc::strong_count(&inner)), (2, 2));
        vm.set_hook(None);
        assert_eq!((Rc::strong_count(&outer), Rc::strong_count(&inner)), (1, 1));
        assert!(Rc::try_unwrap(outer).is_ok() && Rc::try_unwrap(inner).is_ok());
    }
}
