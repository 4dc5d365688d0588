//! The undo-log atomicity wrapper — the copy-on-write style optimization
//! the paper's §6.2 suggests for very large objects.
//!
//! The deep-copy wrapper ([`crate::MaskingHook`]) pays
//! O(|object graph|) on **every** wrapped call, even successful ones. The
//! undo-log wrapper instead opens a heap write-journal around the call and
//! pays O(#writes actually performed): nothing up front, a reverse replay
//! on failure. For large objects with small mutation footprints this is
//! dramatically cheaper (the undo-log ablation of `report fig5`), at the
//! price of intercepting every field write.
//!
//! Semantics: rollback restores *every* heap write made below the wrapped
//! call, which is a superset of Listing 2's receiver-graph restoration —
//! the corrected program is failure atomic a fortiori. Do not mix undo-log
//! and deep-copy wrappers in one VM: a deep-copy restore bypasses the
//! journal.

use crate::hook::WrapSet;
use atomask_mor::{CallHook, CallSite, Exception, HookGuard, MethodId, MethodResult, Vm};

/// Counters describing undo-log masking activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndoStats {
    /// Journal layers opened (wrapped calls entered).
    pub journals: u64,
    /// Rollbacks performed (wrapped calls that threw).
    pub rollbacks: u64,
    /// Individual field writes undone across all rollbacks.
    pub writes_undone: u64,
    /// Objects reclaimed by rollback cleanup.
    pub reclaimed: u64,
}

/// The undo-log atomicity wrapper: journals wrapped calls and replays the
/// journal backwards on exception.
#[derive(Debug)]
pub struct UndoMaskingHook {
    wrapped: WrapSet,
    stats: UndoStats,
}

impl UndoMaskingHook {
    /// Creates a hook wrapping exactly `wrapped` (a `HashSet<MethodId>`
    /// or a shared [`WrapSet`]).
    pub fn new(wrapped: impl Into<WrapSet>) -> Self {
        UndoMaskingHook {
            wrapped: wrapped.into(),
            stats: UndoStats::default(),
        }
    }

    /// Creates a hook from any iterator of method ids.
    pub fn wrapping(methods: impl IntoIterator<Item = MethodId>) -> Self {
        Self::new(methods.into_iter().collect::<WrapSet>())
    }

    /// Masking activity counters.
    pub fn stats(&self) -> UndoStats {
        self.stats
    }
}

/// Marker guard: the journal layer itself lives in the heap.
struct JournalOpen;

impl CallHook for UndoMaskingHook {
    fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
        if !self.wrapped.contains(site.method) || !vm.registry().instrumentable(site.method) {
            return Ok(None);
        }
        vm.heap_mut().push_journal();
        self.stats.journals += 1;
        Ok(Some(Box::new(JournalOpen)))
    }

    fn after(
        &mut self,
        vm: &mut Vm,
        site: &CallSite,
        guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult {
        if guard.is_some() {
            if outcome.is_ok() {
                vm.heap_mut().commit_journal();
            } else {
                self.stats.writes_undone += vm.heap_mut().abort_journal() as u64;
                vm.trace(atomask_mor::TraceEvent::MaskRestore {
                    method: site.method,
                });
                self.stats.rollbacks += 1;
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

    /// Same planted bug as the deep-copy hook tests: `push` half-inserts,
    /// then `notify` rejects.
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
            // A wrapped method calling another wrapped method, to exercise
            // journal nesting.
            c.method("pushTwice", |ctx, this, args| {
                ctx.call(this, "push", &[args[0].clone()])?;
                ctx.call(this, "push", &[args[1].clone()])?;
                Ok(Value::Null)
            });
        });
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Null);
        });
        rb.build()
    }

    fn gid(reg: &Registry, name: &str) -> MethodId {
        let stack = reg.class_by_name("Stack").unwrap();
        stack.methods[stack.method_slot(name).unwrap()].gid
    }

    #[test]
    fn undo_rollback_restores_state() {
        let reg = registry();
        let push = gid(&reg, "push");
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(UndoMaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let err = vm.call(s, "push", &[Value::Int(2)]).unwrap_err();
        assert_eq!(err.message, "listener rejected");
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(1)));
        let head = vm.heap().field(s, "head").unwrap().as_ref_id().unwrap();
        assert_eq!(vm.heap().field(head, "value"), Some(Value::Int(1)));
        let stats = hook.borrow().stats();
        assert_eq!(stats.journals, 2);
        assert_eq!(stats.rollbacks, 1);
        assert!(stats.writes_undone >= 3, "node links + len: {stats:?}");
        assert!(stats.reclaimed >= 1, "the failed push's node is garbage");
        assert_eq!(vm.heap().journal_depth(), 0, "no leaked journal layers");
    }

    #[test]
    fn nested_wrapped_calls_roll_back_cleanly() {
        let reg = registry();
        let push = gid(&reg, "push");
        let push_twice = gid(&reg, "pushTwice");
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(UndoMaskingHook::wrapping([push, push_twice])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        // First push (inside pushTwice) succeeds; second trips notify.
        // Both layers unwind: the stack must be exactly empty again.
        let err = vm
            .call(s, "pushTwice", &[Value::Int(1), Value::Int(2)])
            .unwrap_err();
        assert_eq!(err.message, "listener rejected");
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(0)));
        assert!(vm.heap().field(s, "head").unwrap().is_null());
        assert_eq!(vm.heap().journal_depth(), 0);
        assert_eq!(hook.borrow().stats().rollbacks, 2, "inner and outer");
    }

    #[test]
    fn successful_calls_pay_no_rollback() {
        let reg = registry();
        let push = gid(&reg, "push");
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(UndoMaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let stats = hook.borrow().stats();
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.writes_undone, 0);
        assert_eq!(vm.heap().journal_depth(), 0);
    }
}
