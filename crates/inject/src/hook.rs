//! Listing 1 — the injection wrapper — as a [`CallHook`].

use crate::marks::Mark;
use crate::replay::Divergence;
use atomask_mor::{
    CallHook, CallSite, ExcId, Exception, HookGuard, MethodId, MethodResult, ObjId, TraceEvent, Vm,
};
use atomask_objgraph::{graph_fingerprint, FingerprintCache, Snapshot};

/// How the injection wrapper captures the pre-call state it compares
/// against when an exception propagates (Listing 1 line 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CaptureMode {
    /// Deep-copy the receiver's (and by-reference arguments') object
    /// graph before **every** wrapped call — the paper's literal
    /// `objgraph_before = deep_copy(this)`, `O(graph)` per call even
    /// though most calls complete normally and never compare.
    Eager,
    /// Open a heap write-journal layer before the call and reconstruct
    /// the before-graph from the undo log only when an exception actually
    /// unwinds through the wrapper — `O(writes)` bookkeeping per call,
    /// snapshots only on the propagation path (the paper's §6.2
    /// copy-on-write optimization applied to detection).
    #[default]
    Lazy,
}

/// Capture-cost counters of one injector run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Canonical-trace captures performed ([`Snapshot`] traversals).
    pub snapshots: u64,
    /// Total approximate bytes of those snapshots.
    pub capture_bytes: u64,
}

/// Lazy capture guard: a zero-sized marker (boxing it does not allocate).
/// The before-state lives in the heap's undo log, not in the guard.
struct LazyGuard;

/// The per-run state of the exception injector program.
///
/// Reproduces Listing 1 of the paper:
///
/// * a global counter `Point`, incremented once per throwable exception
///   type at every wrapped call;
/// * a preset threshold `InjectionPoint`; when the counter reaches it the
///   wrapper throws the corresponding exception instead of calling the
///   method;
/// * a pre-call deep copy (here: canonical [`Snapshot`]) of the receiver's
///   object graph plus all by-reference arguments;
/// * on exception propagation, an after-copy, a comparison, and a
///   `mark(m, atomic|nonatomic, InjectionPoint)` record before rethrowing.
///
/// One hook instance corresponds to one run of the injector program; the
/// campaign creates a fresh hook (and VM) per injection point. The hook is
/// `Clone` so the campaign can salvage its state even if something still
/// shares the `Rc` after a run.
#[derive(Debug, Clone)]
pub struct InjectionHook {
    point: u64,
    injection_point: Option<u64>,
    observe: bool,
    capture: CaptureMode,
    stats: CaptureStats,
    injected: Option<(MethodId, ExcId)>,
    marks: Vec<Mark>,
    minimize: bool,
    divergence: Option<Divergence>,
    /// Whether the fast-forward gate may replace the per-type counting
    /// loop with arithmetic. The gate reads the monotone counter: below
    /// the target, a call advances it by its whole exception-type count in
    /// one step; in the window that holds the target, the firing type is
    /// picked by offset and the counter set to the target; past it, calls
    /// advance arithmetically again and can never fire twice. Bit-identical
    /// to the loop (`tests/fastforward_equivalence.rs`).
    fast_forward: bool,
    /// Memoized per-object structural hashes for the fingerprint fast
    /// path, persisted across the wrappers of one propagation cascade
    /// (the heap does not mutate while an exception unwinds; the cache
    /// empties itself once the heap's mutation epoch moves).
    fp_cache: FingerprintCache,
}

impl InjectionHook {
    fn base(injection_point: Option<u64>, observe: bool) -> Self {
        InjectionHook {
            point: 0,
            injection_point,
            observe,
            capture: CaptureMode::Eager,
            stats: CaptureStats::default(),
            injected: None,
            marks: Vec::new(),
            minimize: false,
            divergence: None,
            fast_forward: true,
            fp_cache: FingerprintCache::new(),
        }
    }

    /// A counting-only hook: never injects, never snapshots. Used for the
    /// initial run that sizes the campaign (`InjectionPoint` sweeps
    /// `1..=points()`) and doubles as the *original program* run whose call
    /// statistics weight Figs. 2b/3b.
    pub fn counting() -> Self {
        Self::base(None, false)
    }

    /// A full injector-run hook that throws at the `injection_point`-th
    /// potential point (1-based) and performs atomicity checks with eager
    /// capture. Use [`InjectionHook::capture`] to switch capture modes.
    pub fn with_injection_point(injection_point: u64) -> Self {
        Self::base(Some(injection_point), true)
    }

    /// An observation-only hook: snapshots and marks, but never injects.
    /// Used when validating a corrected program against the exceptions the
    /// application itself throws.
    pub fn observing() -> Self {
        Self::base(None, true)
    }

    /// Selects how pre-call state is captured (builder style; default for
    /// the direct constructors is [`CaptureMode::Eager`], the paper's
    /// literal wrapper).
    pub fn capture(mut self, mode: CaptureMode) -> Self {
        self.capture = mode;
        self
    }

    /// Enables the divergence minimizer (builder style): when the first
    /// non-atomic mark is recorded under [`CaptureMode::Lazy`], the
    /// surviving write set is reduced to a 1-minimal explanation while the
    /// undo-log layer is still open. Replay turns this on; campaigns leave
    /// it off (the probes cost extra graph traversals per non-atomic
    /// point).
    pub fn minimize_divergence(mut self, on: bool) -> Self {
        self.minimize = on;
        self
    }

    /// Enables or disables the fast-forward gate (builder style; default
    /// **on** — the gate is observationally identical to the per-type
    /// loop). Replay and the divergence minimizer turn it off so the
    /// debugging path stays on the literal Listing 1 reference execution:
    /// a sweep/replay disagreement then directly indicts the gate.
    pub fn fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Pre-loads the injector state a checkpoint-resumed run starts from
    /// (builder style): the point counter, the marks the prefix recorded
    /// (application-thrown exceptions can mark before the target point),
    /// and the prefix's capture counters. Resume plans only select
    /// checkpoints strictly *before* the target point, so the restored
    /// counter is below the target and the window holding it fires
    /// exactly as it would have in a from-scratch run.
    pub fn resume_prefix(mut self, point: u64, marks: Vec<Mark>, stats: CaptureStats) -> Self {
        debug_assert!(
            self.injection_point.is_none_or(|ip| point < ip),
            "resume checkpoints must precede the injection point"
        );
        self.point = point;
        self.marks = marks;
        self.stats = stats;
        self
    }

    /// Takes the minimized divergence out of the hook, if one was
    /// recorded.
    pub fn take_divergence(&mut self) -> Option<Divergence> {
        self.divergence.take()
    }

    /// Capture-cost counters accumulated so far this run.
    pub fn capture_stats(&self) -> CaptureStats {
        self.stats
    }

    /// Total potential injection points seen so far (the final value after
    /// a counting run is the campaign size `N`).
    pub fn points(&self) -> u64 {
        self.point
    }

    /// What was injected in this run, if the threshold was reached.
    pub fn injected(&self) -> Option<(MethodId, ExcId)> {
        self.injected
    }

    /// The marks recorded this run, in wrapper-execution order
    /// (callee→caller along the propagation path).
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Consumes the hook, returning its marks.
    pub fn into_marks(self) -> Vec<Mark> {
        self.marks
    }

    /// Listing 1's `mark(m, atomic|nonatomic, InjectionPoint)`.
    fn push_mark(&mut self, site: &CallSite, exc: &Exception, before: &Snapshot, after: &Snapshot) {
        self.marks.push(match before.first_difference(after) {
            None => Mark::atomic(site.method, exc.chain),
            Some(diff) => Mark::nonatomic(site.method, exc.chain, diff),
        });
    }

    /// Listing 1 lines 10-14 under lazy capture: compare the layer-open
    /// state against the live heap, mark, and fold the layer.
    ///
    /// One as-of view of the layer ([`atomask_mor::AsOfHeap`]) serves
    /// every stage. The comparison is staged from cheapest to most
    /// detailed; each stage only runs when the previous one could not
    /// already decide:
    ///
    /// 1. **Revert check, O(written cells)** — if every written cell reads
    ///    its layer-open value bit-for-bit, the graphs are provably equal:
    ///    mark atomic without touching the graph at all.
    /// 2. **Fingerprint compare** — 64-bit structural hashes of both
    ///    views, memoized per object through [`FingerprintCache`], which
    ///    skips the objects the layer touched and drops itself when the
    ///    heap's mutation epoch moves. Equal hashes mark atomic; since the
    ///    fingerprint is a pure function of the canonical trace, *unequal*
    ///    hashes prove the traces differ.
    /// 3. **Full structural diff** — only on fingerprint mismatch, to
    ///    produce the `first_difference` detail for the non-atomic mark
    ///    (and the snapshot the minimizer probes against).
    ///
    /// When the divergence minimizer is enabled (replay), stages 1-2 are
    /// skipped: the minimizer needs the full before-snapshot and probes
    /// the heap (which would thrash the cache), and replay deliberately
    /// stays on the reference path.
    fn lazy_compare(&mut self, vm: &mut Vm, site: &CallSite, exc: &Exception) {
        let roots = snapshot_roots(site);
        let heap = vm.heap();
        let view = heap
            .asof_innermost()
            .expect("lazy capture layer is open in after()");
        // Stage 2 walks the live heap first: that fills the cache, which
        // the walk of the view then reuses for every untouched object.
        if !self.minimize
            && (view.reverted()
                || graph_fingerprint(heap, &roots, &mut self.fp_cache)
                    == graph_fingerprint(&view, &roots, &mut self.fp_cache))
        {
            self.marks.push(Mark::atomic(site.method, exc.chain));
            vm.heap_mut().commit_journal();
            return;
        }
        // Stage 3: trace the before-graph through the view and the
        // after-graph from the live heap, compare, mark, fold.
        let before = Snapshot::of_source(&view, &roots);
        let after = Snapshot::of_roots(heap, &roots);
        self.stats.snapshots += 2;
        self.stats.capture_bytes += before.approx_bytes() + after.approx_bytes();
        self.push_mark(site, exc, &before, &after);
        // The undo log is still open here — the only moment the
        // surviving write set is cheaply enumerable — so the minimizer
        // (replay only) runs on the *first* non-atomic mark, the
        // innermost wrapper on the propagation path.
        if self.minimize && self.divergence.is_none() {
            if let Some(mark) = self.marks.last() {
                if !mark.atomic {
                    let diff = mark.diff.clone().unwrap_or_default();
                    // The minimizer probes the heap, so the layer's cells
                    // are copied out of the view first.
                    let cells = view
                        .cells()
                        .into_iter()
                        .map(|(obj, slot, open_value)| (obj, slot, open_value.clone()))
                        .collect();
                    self.divergence = Some(crate::replay::minimize_divergence(
                        vm, site, exc.chain, diff, &before, &roots, cells,
                    ));
                }
            }
        }
        vm.heap_mut().commit_journal();
    }
}

fn snapshot_roots(site: &CallSite) -> Vec<ObjId> {
    let mut roots = Vec::with_capacity(1 + site.ref_args.len());
    roots.push(site.recv);
    roots.extend_from_slice(&site.ref_args);
    roots
}

impl CallHook for InjectionHook {
    fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
        let registry = vm.registry().clone();
        if !registry.instrumentable(site.method) {
            // No wrapper woven (Java core class): invisible to detection.
            return Ok(None);
        }
        // Listing 1 lines 2-5: one potential injection point per exception
        // type of the wrapped method.
        let excs = registry.injectable_exceptions(site.method);
        let n = excs.len() as u64;
        if self.fast_forward {
            // Counter-gated counting: outside the window holding the
            // target the counter advances by the whole per-method type
            // count in one step — identical final value, no iteration.
            match self.injection_point {
                Some(ip) if self.point < ip && self.point + n >= ip => {
                    // The target lands inside this call's window. The
                    // (ip − point)-th type of this method is exactly the
                    // one the per-type loop would have selected.
                    let exc = excs[(ip - self.point - 1) as usize];
                    self.point = ip;
                    self.injected = Some((site.method, exc));
                    vm.trace(TraceEvent::InjectionFire {
                        method: site.method,
                        exc,
                        point: self.point,
                    });
                    return Err(Exception::injected(exc, site.method));
                }
                _ => self.point += n,
            }
        } else {
            for &exc in excs {
                self.point += 1;
                if Some(self.point) == self.injection_point {
                    self.injected = Some((site.method, exc));
                    vm.trace(TraceEvent::InjectionFire {
                        method: site.method,
                        exc,
                        point: self.point,
                    });
                    return Err(Exception::injected(exc, site.method));
                }
            }
        }
        if !self.observe {
            return Ok(None);
        }
        match self.capture {
            CaptureMode::Eager => {
                // Listing 1 line 6: objgraph_before = deep_copy(this) —
                // including by-reference arguments.
                let before = Snapshot::of_roots(vm.heap(), &snapshot_roots(site));
                self.stats.snapshots += 1;
                self.stats.capture_bytes += before.approx_bytes();
                Ok(Some(Box::new(before)))
            }
            CaptureMode::Lazy => {
                // Defer the copy: record writes instead. The layer is
                // closed (committed) in `after` on both outcomes, so the
                // heap's net state is untouched either way. This O(1)
                // watermark is kept even below the target: if the eventual
                // injection (or an application exception) unwinds through
                // this frame, its wrapper needs the undo context.
                vm.heap_mut().push_journal();
                Ok(Some(Box::new(LazyGuard)))
            }
        }
    }

    fn after(
        &mut self,
        vm: &mut Vm,
        site: &CallSite,
        guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult {
        let Some(guard) = guard else {
            return outcome;
        };
        // The guard is either the eager before-snapshot or the zero-sized
        // lazy marker.
        match guard.downcast::<Snapshot>() {
            Ok(before) => match &outcome {
                Ok(_) => {}
                Err(exc) => {
                    let after = Snapshot::of_roots(vm.heap(), &snapshot_roots(site));
                    self.stats.snapshots += 1;
                    self.stats.capture_bytes += after.approx_bytes();
                    self.push_mark(site, exc, &before, &after);
                }
            },
            Err(guard) => {
                let _lazy = guard
                    .downcast::<LazyGuard>()
                    .expect("injection guard is a snapshot or a lazy marker");
                match &outcome {
                    Ok(_) => {
                        // The call completed: nobody will ever compare
                        // against its before-state. Fold the layer into
                        // the enclosing one (O(1) watermark pop) — no
                        // snapshot was ever taken.
                        vm.heap_mut().commit_journal();
                    }
                    Err(exc) => self.lazy_compare(vm, site, exc),
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::{Profile, Registry, RegistryBuilder, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// `outer` increments `a`, calls `inner`, then increments `b`.
    /// `inner` is a no-op. Injecting into `inner` makes `outer` non-atomic.
    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("T", |c| {
            c.field("a", Value::Int(0));
            c.field("b", Value::Int(0));
            c.method("outer", |ctx, this, _| {
                let a = ctx.get_int(this, "a");
                ctx.set(this, "a", Value::Int(a + 1));
                ctx.call(this, "inner", &[])?;
                let b = ctx.get_int(this, "b");
                ctx.set(this, "b", Value::Int(b + 1));
                Ok(Value::Null)
            });
            c.method("inner", |_, _, _| Ok(Value::Null));
        });
        rb.build()
    }

    fn run_with_point(ip: u64) -> (Vm, Rc<RefCell<InjectionHook>>, MethodResult) {
        let mut vm = Vm::new(registry());
        let hook = Rc::new(RefCell::new(InjectionHook::with_injection_point(ip)));
        vm.set_hook(Some(hook.clone()));
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        let r = vm.call(t, "outer", &[]);
        (vm, hook, r)
    }

    #[test]
    fn counting_run_counts_points() {
        let mut vm = Vm::new(registry());
        let hook = Rc::new(RefCell::new(InjectionHook::counting()));
        vm.set_hook(Some(hook.clone()));
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        vm.call(t, "outer", &[]).unwrap();
        // outer (2 runtime exceptions) + inner (2): 4 potential points.
        assert_eq!(hook.borrow().points(), 4);
        assert!(hook.borrow().injected().is_none());
        assert!(hook.borrow().marks().is_empty());
    }

    #[test]
    fn injection_into_outer_aborts_before_any_mutation() {
        // Points 1-2 belong to outer's own wrapper: thrown before the body
        // runs, so nothing is marked (the driver catches at top level).
        let (vm, hook, r) = run_with_point(1);
        let err = r.unwrap_err();
        assert!(err.injected);
        assert!(hook.borrow().marks().is_empty());
        let t = vm.heap().iter().next().unwrap().0;
        assert_eq!(vm.heap().field(t, "a"), Some(Value::Int(0)));
    }

    #[test]
    fn injection_into_inner_marks_outer_nonatomic() {
        // Points 3-4 are inner's: outer already incremented `a`, so the
        // exception propagating through outer's wrapper finds the graph
        // changed.
        let (_, hook, r) = run_with_point(3);
        assert!(r.unwrap_err().injected);
        let hook = hook.borrow();
        assert_eq!(hook.marks().len(), 1);
        let mark = &hook.marks()[0];
        assert!(!mark.atomic);
        assert!(mark.diff.is_some());
    }

    #[test]
    fn injected_record_names_target_and_exception() {
        let (vm, hook, _) = run_with_point(4);
        let (target, exc) = hook.borrow().injected().unwrap();
        assert_eq!(vm.registry().method_display(target), "T::inner");
        assert_eq!(
            vm.registry().exceptions().name(exc),
            "OutOfMemoryError",
            "second runtime exception of inner"
        );
    }

    #[test]
    fn threshold_beyond_points_injects_nothing() {
        let (_, hook, r) = run_with_point(99);
        assert!(r.is_ok());
        assert!(hook.borrow().injected().is_none());
    }

    #[test]
    fn lazy_capture_matches_eager_marks_with_fewer_snapshots() {
        let run = |ip: u64, mode: CaptureMode| {
            let mut vm = Vm::new(registry());
            let hook = Rc::new(RefCell::new(
                InjectionHook::with_injection_point(ip).capture(mode),
            ));
            vm.set_hook(Some(hook.clone()));
            let t = vm.construct("T", &[]).unwrap();
            vm.root(t);
            let _ = vm.call(t, "outer", &[]);
            vm.set_hook(None);
            assert_eq!(
                vm.heap().journal_depth(),
                0,
                "every capture layer was closed"
            );
            let hook = Rc::try_unwrap(hook).unwrap().into_inner();
            (hook.capture_stats(), hook.into_marks())
        };
        // Point 3 injects into inner: the exception unwinds through
        // outer's wrapper, so both modes compare — and must agree.
        let (eager_stats, eager_marks) = run(3, CaptureMode::Eager);
        let (lazy_stats, lazy_marks) = run(3, CaptureMode::Lazy);
        assert_eq!(
            lazy_marks, eager_marks,
            "identical marks, chain ids included"
        );
        assert!(
            lazy_stats.snapshots <= eager_stats.snapshots,
            "lazy {lazy_stats:?} vs eager {eager_stats:?}"
        );
        // Point 99 never fires: the run completes and nothing unwinds.
        // Eager still paid one before-copy per observed call; lazy paid
        // for no snapshots at all.
        let (eager_ok, _) = run(99, CaptureMode::Eager);
        let (lazy_ok, _) = run(99, CaptureMode::Lazy);
        assert_eq!(eager_ok.snapshots, 2, "one before-copy per observed call");
        assert_eq!(lazy_ok.snapshots, 0, "no exception, no capture at all");
    }

    #[test]
    fn lazy_capture_closes_its_layer_on_success_too() {
        let mut vm = Vm::new(registry());
        let hook = Rc::new(RefCell::new(
            InjectionHook::observing().capture(CaptureMode::Lazy),
        ));
        vm.set_hook(Some(hook.clone()));
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        vm.call(t, "outer", &[]).unwrap();
        assert_eq!(vm.heap().journal_depth(), 0);
        assert_eq!(
            hook.borrow().capture_stats().snapshots,
            0,
            "no exception propagated, so nothing was ever traced"
        );
    }

    #[test]
    fn application_thrown_exceptions_are_also_checked() {
        // A method that throws on its own (no injection) still gets
        // atomicity-checked by every wrapper the exception propagates
        // through.
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.exception("AppError");
        rb.class("T", |c| {
            c.field("a", Value::Int(0));
            c.method("outer", |ctx, this, _| {
                let a = ctx.get_int(this, "a");
                ctx.set(this, "a", Value::Int(a + 1));
                ctx.call(this, "thrower", &[])
            });
            c.method("thrower", |ctx, _, _| {
                Err(ctx.exception("AppError", "app-level"))
            });
        });
        let mut vm = Vm::new(rb.build());
        let hook = Rc::new(RefCell::new(InjectionHook::observing()));
        vm.set_hook(Some(hook.clone()));
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        let err = vm.call(t, "outer", &[]).unwrap_err();
        assert!(!err.injected);
        let hook = hook.borrow();
        // thrower marked atomic (it changed nothing), outer non-atomic.
        assert_eq!(hook.marks().len(), 2);
        assert!(hook.marks()[0].atomic);
        assert!(!hook.marks()[1].atomic);
    }
}
