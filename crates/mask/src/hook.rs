//! Listing 2 — the atomicity wrapper — as a [`CallHook`].

use atomask_mor::{CallHook, CallSite, Exception, HookGuard, MethodId, MethodResult, ObjId, Vm};
use atomask_objgraph::Checkpoint;
use std::collections::HashSet;
use std::sync::Arc;

/// The methods an atomicity wrapper wraps: a dense membership table
/// indexed by [`MethodId`] (ids are dense per registry), so the per-call
/// "is this method wrapped?" test is one bounds-checked load instead of a
/// hash lookup. Clones share the table, so a verification campaign builds
/// it once and every attempt's hook shares it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WrapSet(Arc<[bool]>);

impl WrapSet {
    /// `true` iff `method` is wrapped.
    #[inline]
    pub fn contains(&self, method: MethodId) -> bool {
        self.0.get(method.index()).copied().unwrap_or(false)
    }
}

impl FromIterator<MethodId> for WrapSet {
    fn from_iter<I: IntoIterator<Item = MethodId>>(methods: I) -> Self {
        let mut table = Vec::new();
        for m in methods {
            if table.len() <= m.index() {
                table.resize(m.index() + 1, false);
            }
            table[m.index()] = true;
        }
        WrapSet(table.into())
    }
}

impl From<HashSet<MethodId>> for WrapSet {
    fn from(methods: HashSet<MethodId>) -> Self {
        methods.into_iter().collect()
    }
}

impl From<&HashSet<MethodId>> for WrapSet {
    fn from(methods: &HashSet<MethodId>) -> Self {
        methods.iter().copied().collect()
    }
}

/// Counters describing masking activity, used by the Fig. 5 overhead
/// analysis and by reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaskStats {
    /// Checkpoints taken (wrapped calls entered).
    pub checkpoints: u64,
    /// Rollbacks performed (wrapped calls that threw).
    pub restores: u64,
    /// Total bytes checkpointed.
    pub bytes_checkpointed: u64,
    /// Objects reclaimed by rollback cleanup.
    pub reclaimed: u64,
}

/// The atomicity wrapper: checkpoints wrapped calls and rolls back on
/// exception (Listing 2 of the paper).
///
/// The wrap set is normally [`crate::Policy::mask_set`] applied to a
/// detection-phase classification.
#[derive(Debug)]
pub struct MaskingHook {
    wrapped: WrapSet,
    stats: MaskStats,
}

impl MaskingHook {
    /// Creates a hook wrapping exactly `wrapped` (a `HashSet<MethodId>`
    /// or a shared [`WrapSet`]).
    pub fn new(wrapped: impl Into<WrapSet>) -> Self {
        MaskingHook {
            wrapped: wrapped.into(),
            stats: MaskStats::default(),
        }
    }

    /// Creates a hook from any iterator of method ids.
    pub fn wrapping(methods: impl IntoIterator<Item = MethodId>) -> Self {
        Self::new(methods.into_iter().collect::<WrapSet>())
    }

    /// The methods this hook wraps.
    pub fn wrapped(&self) -> &WrapSet {
        &self.wrapped
    }

    /// Masking activity counters.
    pub fn stats(&self) -> MaskStats {
        self.stats
    }
}

fn checkpoint_roots(site: &CallSite) -> Vec<ObjId> {
    let mut roots = Vec::with_capacity(1 + site.ref_args.len());
    roots.push(site.recv);
    roots.extend_from_slice(&site.ref_args);
    roots
}

impl CallHook for MaskingHook {
    fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
        if !self.wrapped.contains(site.method) || !vm.registry().instrumentable(site.method) {
            return Ok(None);
        }
        // Listing 2 line 2: objgraph = deep_copy(this).
        let cp = Checkpoint::capture(vm.heap(), &checkpoint_roots(site));
        vm.trace(atomask_mor::TraceEvent::MaskCheckpoint {
            method: site.method,
        });
        self.stats.checkpoints += 1;
        self.stats.bytes_checkpointed += cp.byte_size() as u64;
        Ok(Some(Box::new(cp)))
    }

    fn after(
        &mut self,
        vm: &mut Vm,
        site: &CallSite,
        guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult {
        if outcome.is_err() {
            if let Some(guard) = guard {
                let cp = guard
                    .downcast::<Checkpoint>()
                    .expect("masking guard is a checkpoint");
                // Listing 2 line 6: replace(this, objgraph); then rethrow.
                cp.restore(vm.heap_mut());
                vm.trace(atomask_mor::TraceEvent::MaskRestore {
                    method: site.method,
                });
                self.stats.restores += 1;
                // §5.1: objects implicitly discarded by the rollback are
                // cleaned up via reference counting.
                self.stats.reclaimed += vm.heap_mut().reclaim() as u64;
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

    /// `push` allocates a node, links it in, bumps `len`, *then* calls the
    /// failing `notify` — classic non-atomic ordering.
    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.exception("NotifyError");
        rb.class("Stack", |c| {
            c.field("head", Value::Null);
            c.field("len", Value::Int(0));
            c.method("push", |ctx, this, args| {
                let node = ctx.new_object("Node", &[])?;
                ctx.set(node, "value", args[0].clone());
                let head = ctx.get(this, "head");
                ctx.set(node, "next", head);
                ctx.set(this, "head", Value::Ref(node));
                let len = ctx.get_int(this, "len");
                ctx.set(this, "len", Value::Int(len + 1));
                ctx.call(this, "notify", &[])?;
                Ok(Value::Null)
            });
            c.method("notify", |ctx, this, _| {
                if ctx.get_int(this, "len") >= 2 {
                    Err(ctx.exception("NotifyError", "listener rejected"))
                } else {
                    Ok(Value::Null)
                }
            });
        });
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Null);
        });
        rb.build()
    }

    fn push_gid(reg: &Registry) -> MethodId {
        reg.class_by_name("Stack")
            .unwrap()
            .methods
            .iter()
            .find(|m| m.name == "push")
            .unwrap()
            .gid
    }

    #[test]
    fn unmasked_failure_corrupts_the_stack() {
        let mut vm = atomask_mor::Vm::new(registry());
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let err = vm.call(s, "push", &[Value::Int(2)]).unwrap_err();
        assert_eq!(err.message, "listener rejected");
        // The failed push left the element half-inserted.
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(2)));
    }

    #[test]
    fn masked_failure_rolls_back() {
        let reg = registry();
        let push = push_gid(&reg);
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(MaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let err = vm.call(s, "push", &[Value::Int(2)]).unwrap_err();
        // The exception still propagates (masking preserves the error)...
        assert_eq!(err.message, "listener rejected");
        // ...but the stack is exactly as before the failed call.
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(1)));
        let head = vm.heap().field(s, "head").unwrap().as_ref_id().unwrap();
        assert_eq!(vm.heap().field(head, "value"), Some(Value::Int(1)));
        let stats = hook.borrow().stats();
        assert_eq!(stats.checkpoints, 2);
        assert_eq!(stats.restores, 1);
        assert!(stats.bytes_checkpointed > 0);
    }

    #[test]
    fn rollback_garbage_is_reclaimed() {
        let reg = registry();
        let push = push_gid(&reg);
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(MaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let live_before = vm.heap().len();
        let _ = vm.call(s, "push", &[Value::Int(2)]).unwrap_err();
        // The node allocated by the failed push was rolled out of the graph
        // and reclaimed by reference counting.
        assert_eq!(vm.heap().len(), live_before);
        assert!(hook.borrow().stats().reclaimed >= 1);
    }

    #[test]
    fn successful_calls_pay_checkpoint_but_change_nothing() {
        let reg = registry();
        let push = push_gid(&reg);
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(MaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(1)));
        let stats = hook.borrow().stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.restores, 0);
    }

    #[test]
    fn unwrapped_methods_are_untouched() {
        let reg = registry();
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(MaskingHook::wrapping([])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        assert_eq!(hook.borrow().stats().checkpoints, 0);
    }
}
