//! The execution context handed to guest method bodies.
//!
//! All state access in application code goes through [`Ctx`], which is what
//! makes every field read/write and every nested call visible to the
//! runtime — the property the paper obtains from instrumenting a managed
//! language.
//!
//! Host-level misuse (wrong field name, dead object, type confusion on the
//! typed getters) **panics** with a descriptive message: these are bugs in
//! the embedded application code, not guest-level error conditions. Guest
//! error conditions are [`crate::Exception`]s returned as `Err`.

use crate::exception::{Exception, ExceptionTable, MethodResult};
use crate::ids::{ExcId, ObjId};
use crate::trace::TraceEvent;
use crate::value::Value;
use crate::vm::Vm;

/// Handle through which method bodies read and mutate guest state.
///
/// Every operation charges fuel and roots what the body can name in the
/// current frame. The handle offers no way around that to the VM beneath
/// it, so a body cannot skip either:
///
/// ```compile_fail
/// fn escape(ctx: &mut atomask_mor::Ctx<'_>) { ctx.vm(); }
/// ```
#[derive(Debug)]
pub struct Ctx<'vm> {
    vm: &'vm mut Vm,
}

impl<'vm> Ctx<'vm> {
    pub(crate) fn new(vm: &'vm mut Vm) -> Self {
        Ctx { vm }
    }

    /// Reads a field.
    ///
    /// Reference values read this way are rooted in the current frame, so
    /// they remain valid for the rest of the enclosing method body.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is dead or has no field `name`.
    pub fn get(&mut self, obj: ObjId, name: &str) -> Value {
        self.vm.charge_heap_op();
        let v = self
            .vm
            .heap()
            .field(obj, name)
            .unwrap_or_else(|| panic!("get: no field `{name}` on live object {obj}"));
        if let Some(id) = v.as_ref_id() {
            self.vm.root_in_frame(id);
        }
        v
    }

    /// Reads an integer field.
    ///
    /// # Panics
    ///
    /// Panics if the field is missing or not an [`Value::Int`].
    pub fn get_int(&mut self, obj: ObjId, name: &str) -> i64 {
        self.get(obj, name)
            .as_int()
            .unwrap_or_else(|| panic!("field `{name}` of {obj} is not an Int"))
    }

    /// Reads a boolean field.
    ///
    /// # Panics
    ///
    /// Panics if the field is missing or not a [`Value::Bool`].
    pub fn get_bool(&mut self, obj: ObjId, name: &str) -> bool {
        self.get(obj, name)
            .as_bool()
            .unwrap_or_else(|| panic!("field `{name}` of {obj} is not a Bool"))
    }

    /// Reads a string field. The returned handle shares the field's
    /// storage (strings are immutable basic data), so reading is free of
    /// deep copies.
    ///
    /// # Panics
    ///
    /// Panics if the field is missing or not a [`Value::Str`].
    pub fn get_str(&mut self, obj: ObjId, name: &str) -> std::rc::Rc<str> {
        match self.get(obj, name) {
            Value::Str(s) => s,
            _ => panic!("field `{name}` of {obj} is not a Str"),
        }
    }

    /// Reads a reference field: `Some(id)` for a reference, `None` for
    /// null.
    ///
    /// # Panics
    ///
    /// Panics if the field is missing or holds a non-reference, non-null
    /// value.
    pub fn get_ref(&mut self, obj: ObjId, name: &str) -> Option<ObjId> {
        match self.get(obj, name) {
            Value::Ref(id) => Some(id),
            Value::Null => None,
            other => panic!("field `{name}` of {obj} is not a reference (got {other})"),
        }
    }

    /// Writes a field.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is dead or has no field `name`.
    pub fn set(&mut self, obj: ObjId, name: &str, value: Value) {
        self.vm.charge_heap_op();
        self.vm
            .heap_mut()
            .set_field(obj, name, value)
            .unwrap_or_else(|e| panic!("set `{name}` on {obj}: {e}"));
    }

    /// Calls a method on a known-live receiver.
    ///
    /// # Errors
    ///
    /// Propagates the callee's guest exception.
    pub fn call(&mut self, recv: ObjId, method: &str, args: &[Value]) -> MethodResult {
        self.vm.call(recv, method, args)
    }

    /// Calls a method on a `Value` receiver, throwing the guest
    /// `NullPointerException` when the receiver is null (Java semantics).
    ///
    /// # Errors
    ///
    /// `NullPointerException` on a null receiver, or the callee's guest
    /// exception.
    ///
    /// # Panics
    ///
    /// Panics if the receiver value is a non-reference basic value.
    pub fn call_value(&mut self, recv: &Value, method: &str, args: &[Value]) -> MethodResult {
        match recv {
            Value::Ref(id) => self.vm.call(*id, method, args),
            Value::Null => Err(self.npe(method)),
            other => panic!("call_value: receiver {other} is not an object"),
        }
    }

    /// Constructs an instance of `class_name` (dispatching its constructor
    /// through the interposable boundary).
    ///
    /// # Errors
    ///
    /// Propagates guest exceptions thrown or injected in the constructor.
    pub fn new_object(&mut self, class_name: &str, args: &[Value]) -> Result<ObjId, Exception> {
        self.vm.construct(class_name, args)
    }

    /// Allocates an instance without running its constructor.
    pub fn alloc(&mut self, class_name: &str) -> ObjId {
        self.vm.alloc_raw(class_name)
    }

    /// Builds a guest exception of a registered type. Bodies throw with
    /// `return Err(ctx.exception("IOError", "disk on fire"))`.
    ///
    /// # Panics
    ///
    /// Panics if the exception type was never registered.
    pub fn exception(&mut self, ty: &str, message: impl Into<String>) -> Exception {
        let id = self.vm.exc_id(ty);
        self.throw(id, message.into())
    }

    /// Builds the guest `NullPointerException`.
    pub fn npe(&mut self, what: &str) -> Exception {
        let id = self.vm.exc_id(ExceptionTable::NULL_POINTER);
        self.throw(id, format!("null receiver in `{what}`"))
    }

    fn throw(&mut self, ty: ExcId, message: String) -> Exception {
        let e = self.vm.exception(ty, message, None);
        self.vm.trace(TraceEvent::ExcThrow {
            exc: e.ty,
            chain: e.chain,
        });
        e
    }

    /// `true` iff `e` is of the registered type `ty` — the one way a body
    /// tests a caught exception's type, as a handler does:
    /// `Err(e) if ctx.is(&e, "QueueFullError") => ...`.
    ///
    /// # Panics
    ///
    /// Panics if the exception type was never registered.
    pub fn is(&self, e: &Exception, ty: &str) -> bool {
        e.ty == self.vm.exc_id(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::registry::RegistryBuilder;

    impl Ctx<'_> {
        /// The underlying VM, for this crate's own frame-rooting tests.
        pub(crate) fn vm(&mut self) -> &mut Vm {
            self.vm
        }
    }

    fn vm() -> Vm {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.exception("AppError");
        rb.class("Box", |c| {
            c.field("item", Value::Null);
            c.field("label", Value::from(""));
            c.field("count", Value::Int(0));
            c.field("open", Value::Bool(false));
            c.method("poke", |_, _, _| Ok(Value::Int(7)));
            c.method("fetch", |ctx, this, _| {
                let item = ctx.get(this, "item");
                ctx.call_value(&item, "poke", &[])
            });
            c.method("throwing", |ctx, _, _| {
                Err(ctx.exception("AppError", "thrown by body"))
            });
        });
        Vm::new(rb.build())
    }

    fn with_body(test: impl Fn(&mut Ctx<'_>, ObjId) -> MethodResult + 'static) -> (Vm, ObjId) {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("T", |c| {
            c.field("item", Value::Null);
            c.method("run", move |ctx, this, _| test(ctx, this));
        });
        let mut vm = Vm::new(rb.build());
        let t = vm.construct("T", &[]).unwrap();
        vm.root(t);
        (vm, t)
    }

    #[test]
    fn defaults_follow_schema() {
        let mut v = vm();
        let b = v.construct("Box", &[]).unwrap();
        v.root(b);
        assert_eq!(v.heap().field(b, "count"), Some(Value::Int(0)));
        assert_eq!(v.heap().field(b, "open"), Some(Value::Bool(false)));
        assert_eq!(v.heap().field(b, "label"), Some(Value::from("")));
    }

    #[test]
    fn call_value_null_receiver_throws_npe() {
        let mut v = vm();
        let b = v.construct("Box", &[]).unwrap();
        v.root(b);
        let err = v.call(b, "fetch", &[]).unwrap_err();
        assert_eq!(
            v.registry().exceptions().name(err.ty),
            ExceptionTable::NULL_POINTER
        );
        assert!(!err.injected);
    }

    #[test]
    fn call_value_dispatches_on_ref() {
        let mut v = vm();
        let outer = v.construct("Box", &[]).unwrap();
        v.root(outer);
        let inner = v.construct("Box", &[]).unwrap();
        v.root(inner);
        v.heap_mut()
            .set_field(outer, "item", Value::Ref(inner))
            .unwrap();
        assert_eq!(v.call(outer, "fetch", &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn exception_builder_uses_registered_type() {
        let mut v = vm();
        let b = v.construct("Box", &[]).unwrap();
        v.root(b);
        let err = v.call(b, "throwing", &[]).unwrap_err();
        assert_eq!(v.registry().exceptions().name(err.ty), "AppError");
        assert_eq!(err.message, "thrown by body");
    }

    #[test]
    fn get_and_set_round_trip_through_body() {
        let (mut vm, t) = with_body(|ctx, this| {
            ctx.set(this, "item", Value::Str("hello".into()));
            assert_eq!(&*ctx.get_str(this, "item"), "hello");
            ctx.set(this, "item", Value::Int(3));
            assert_eq!(ctx.get_int(this, "item"), 3);
            ctx.set(this, "item", Value::Bool(true));
            assert!(ctx.get_bool(this, "item"));
            Ok(Value::Null)
        });
        vm.call(t, "run", &[]).unwrap();
    }

    #[test]
    fn get_ref_distinguishes_null() {
        let (mut vm, t) = with_body(|ctx, this| {
            assert_eq!(ctx.get_ref(this, "item"), None);
            let fresh = ctx.alloc("T");
            ctx.set(this, "item", Value::Ref(fresh));
            assert_eq!(ctx.get_ref(this, "item"), Some(fresh));
            Ok(Value::Null)
        });
        vm.call(t, "run", &[]).unwrap();
    }

    #[test]
    fn nested_new_object_runs_through_dispatcher() {
        let (mut vm, t) = with_body(|ctx, this| {
            let child = ctx.new_object("T", &[])?;
            ctx.set(this, "item", Value::Ref(child));
            Ok(Value::Null)
        });
        vm.call(t, "run", &[]).unwrap();
        assert_eq!(vm.heap().len(), 2);
    }
}
