//! The call-interposition point — the runtime's equivalent of the paper's
//! *Code Weaver*.
//!
//! Every method and constructor call dispatched by the [`crate::Vm`] passes
//! through the installed [`CallHook`]s (at most two, nested — see
//! [`crate::Vm::set_inner_hook`]): `before` runs ahead of the
//! body and may replace the call with a thrown exception (Listing 1's
//! injection points), `after` observes the outcome and may act on it
//! (Listing 1's atomicity check, Listing 2's rollback) before it propagates
//! to the caller.

use crate::exception::{Exception, MethodResult};
use crate::ids::{ClassId, MethodId, ObjId};
use crate::vm::Vm;
use std::any::Any;

/// Whether a call site is a plain method call or a constructor invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// A regular method call.
    Method,
    /// A constructor invocation (`new`).
    Ctor,
}

/// Description of one dynamic call, handed to the hook.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The invoked method.
    pub method: MethodId,
    /// The receiver's class.
    pub class: ClassId,
    /// The receiver object.
    pub recv: ObjId,
    /// Objects passed by reference as arguments. Listing 1 deep-copies
    /// "all arguments that are passed in as non-constant references" along
    /// with the receiver; these are those arguments.
    pub ref_args: Vec<ObjId>,
    /// Call nesting depth at the time of the call (0 = driver-level call).
    pub depth: usize,
    /// Method or constructor.
    pub kind: CallKind,
    /// Global dynamic call sequence number (1-based).
    pub seq: u64,
}

/// Opaque state carried from [`CallHook::before`] to [`CallHook::after`]
/// for one call (e.g. the pre-call object-graph snapshot or checkpoint).
pub type HookGuard = Option<Box<dyn Any>>;

/// A wrapper woven around every dispatched call.
///
/// Implementations must not re-enter the VM dispatcher from inside `before`
/// or `after` (they may freely *read* the heap and registry, which is all
/// the paper's wrappers need).
pub trait CallHook {
    /// Runs before the method body.
    ///
    /// # Errors
    ///
    /// Returning `Err(e)` aborts the call: the body never runs and `e`
    /// propagates to the caller — this is how injection wrappers throw at
    /// their injection points.
    fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception>;

    /// Runs after the method body returned or threw; receives the guard
    /// produced by `before` and the body's outcome, and returns the outcome
    /// to propagate (usually unchanged).
    fn after(
        &mut self,
        vm: &mut Vm,
        site: &CallSite,
        guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::registry::RegistryBuilder;
    use crate::value::Value;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A hook that records the call sites it sees, in order.
    struct Recorder {
        log: Vec<(String, usize, CallKind)>,
    }

    impl CallHook for Recorder {
        fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
            self.log.push((
                vm.registry().method_display(site.method),
                site.depth,
                site.kind,
            ));
            Ok(None)
        }

        fn after(
            &mut self,
            _vm: &mut Vm,
            _site: &CallSite,
            _guard: HookGuard,
            outcome: MethodResult,
        ) -> MethodResult {
            outcome
        }
    }

    #[test]
    fn hook_sees_nested_calls_with_depths() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("A", |c| {
            c.method("outer", |ctx, this, _| ctx.call(this, "inner", &[]));
            c.method("inner", |_, _, _| Ok(Value::Int(1)));
        });
        let mut vm = Vm::new(rb.build());
        let recorder = Rc::new(RefCell::new(Recorder { log: Vec::new() }));
        vm.set_hook(Some(recorder.clone()));
        let a = vm.construct("A", &[]).unwrap();
        vm.root(a);
        assert_eq!(vm.call(a, "outer", &[]).unwrap(), Value::Int(1));
        let log = &recorder.borrow().log;
        assert_eq!(
            log.as_slice(),
            &[
                ("A::outer".to_owned(), 0, CallKind::Method),
                ("A::inner".to_owned(), 1, CallKind::Method),
            ]
        );
    }

    /// A hook whose `before` throws on the first call.
    struct ThrowFirst {
        armed: bool,
    }

    impl CallHook for ThrowFirst {
        fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
            if self.armed {
                self.armed = false;
                let ty = vm.registry().runtime_exceptions()[0];
                return Err(vm.injected_exception(ty, site.method));
            }
            Ok(None)
        }

        fn after(
            &mut self,
            _vm: &mut Vm,
            _site: &CallSite,
            _guard: HookGuard,
            outcome: MethodResult,
        ) -> MethodResult {
            outcome
        }
    }

    #[test]
    fn before_error_skips_body_and_propagates() {
        let ran = Rc::new(RefCell::new(false));
        let ran2 = ran.clone();
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("A", |c| {
            c.method("m", move |_, _, _| {
                *ran2.borrow_mut() = true;
                Ok(Value::Null)
            });
        });
        let mut vm = Vm::new(rb.build());
        vm.set_hook(Some(Rc::new(RefCell::new(ThrowFirst { armed: true }))));
        let a = vm.construct("A", &[]).unwrap();
        vm.root(a);
        let err = vm.call(a, "m", &[]).unwrap_err();
        assert!(err.injected);
        assert!(!*ran.borrow(), "body must not run when before() throws");
        // Hook disarmed: second call succeeds.
        assert!(vm.call(a, "m", &[]).is_ok());
        assert!(*ran.borrow());
    }
}
