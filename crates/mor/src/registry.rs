//! The registry: all classes, methods and exception types of a guest
//! program, plus the language profile.
//!
//! A [`Registry`] is immutable once built; the [`crate::Vm`] shares it via
//! `Rc`, and the detection/masking phases index their per-method tables by
//! the dense [`MethodId`]s it assigns.

use crate::class::{ClassBuilder, ClassDef, MethodDef};
use crate::exception::ExceptionTable;
use crate::fx::FxHashMap;
use crate::ids::{ClassId, ExcId, MethodId};
use crate::profile::Profile;

/// An immutable program description: classes, methods, exception types and
/// the language profile.
#[derive(Debug)]
pub struct Registry {
    classes: Vec<ClassDef>,
    by_name: FxHashMap<String, ClassId>,
    exceptions: ExceptionTable,
    profile: Profile,
    runtime_exc: Vec<ExcId>,
    /// gid -> (class, method slot)
    methods: Vec<(ClassId, usize)>,
    /// gid -> precomputed injectable exception set (Listing 1's
    /// `E_1 .. E_n`). Built once at `build()` time so the sweep hot path
    /// never allocates or dedupes per call.
    injectable: Vec<Vec<ExcId>>,
}

impl Registry {
    /// The language profile this registry was built for.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The interned exception types.
    pub fn exceptions(&self) -> &ExceptionTable {
        &self.exceptions
    }

    /// The profile's generic runtime exceptions, interned.
    pub fn runtime_exceptions(&self) -> &[ExcId] {
        &self.runtime_exc
    }

    /// Looks up a class by name. Small registries (every evaluation app)
    /// are scanned directly — cheaper than hashing the name.
    pub fn class_by_name(&self, name: &str) -> Option<&ClassDef> {
        if self.classes.len() <= 8 {
            return self.classes.iter().find(|c| c.name == name);
        }
        self.by_name
            .get(name)
            .map(|id| &self.classes[id.0 as usize])
    }

    /// Returns a class by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Iterates over all classes in id order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.iter()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods (constructors included) across all classes.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Returns a method definition by global id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub fn method(&self, id: MethodId) -> &MethodDef {
        let (cid, slot) = self.methods[id.index()];
        &self.classes[cid.0 as usize].methods[slot]
    }

    /// Returns the class a method belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry.
    pub fn method_class(&self, id: MethodId) -> ClassId {
        self.methods[id.index()].0
    }

    /// Renders a method as `Class::method` for reports.
    pub fn method_display(&self, id: MethodId) -> String {
        let (cid, slot) = self.methods[id.index()];
        let class = &self.classes[cid.0 as usize];
        format!("{}::{}", class.name, class.methods[slot].name)
    }

    /// Iterates over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> {
        (0..self.methods.len() as u32).map(MethodId)
    }

    /// The exception types an injection wrapper for `id` must consider —
    /// the `E_1 .. E_n` of Listing 1: declared exceptions followed by the
    /// profile's generic runtime exceptions.
    ///
    /// Returns an empty set (no injection points) when
    ///
    /// * the method is annotated [`MethodDef::never_throws`] (paper §4.3), or
    /// * the class is core and the profile cannot instrument core classes
    ///   (paper §5.2 limitation).
    ///
    /// The set is precomputed per method at build time and borrowed here,
    /// so the injection wrapper's hot path neither allocates nor dedupes —
    /// counting a pre-target call's points is `injectable_exceptions(id).len()`.
    pub fn injectable_exceptions(&self, id: MethodId) -> &[ExcId] {
        &self.injectable[id.index()]
    }

    /// Whether calls to `id` are instrumentable at all (wrappers can be
    /// woven around them).
    pub fn instrumentable(&self, id: MethodId) -> bool {
        let (cid, _) = self.methods[id.index()];
        self.profile.instrument_core || !self.classes[cid.0 as usize].is_core
    }
}

/// Builder for a [`Registry`].
///
/// ```
/// use atomask_mor::{Profile, RegistryBuilder, Value};
/// let mut rb = RegistryBuilder::new(Profile::cpp());
/// rb.class("Pair", |c| {
///     c.field("first", Value::Null);
///     c.field("second", Value::Null);
/// });
/// let reg = rb.build();
/// assert_eq!(reg.class_count(), 1);
/// ```
#[derive(Debug)]
pub struct RegistryBuilder {
    classes: Vec<ClassDef>,
    by_name: FxHashMap<String, ClassId>,
    exceptions: ExceptionTable,
    profile: Profile,
}

impl RegistryBuilder {
    /// Creates a builder for the given language profile. The profile's
    /// runtime exceptions are interned immediately.
    pub fn new(profile: Profile) -> Self {
        let mut exceptions = ExceptionTable::new();
        for name in &profile.runtime_exceptions {
            exceptions.intern(name);
        }
        RegistryBuilder {
            classes: Vec::new(),
            by_name: FxHashMap::default(),
            exceptions,
            profile,
        }
    }

    /// Interns an exception type ahead of time (declared exceptions named in
    /// `throws(..)` clauses are interned automatically at build).
    pub fn exception(&mut self, name: &str) -> ExcId {
        self.exceptions.intern(name)
    }

    /// Defines a class. The closure receives a [`ClassBuilder`] to declare
    /// fields, methods and the constructor.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name was already defined.
    pub fn class(&mut self, name: &str, define: impl FnOnce(&mut ClassBuilder)) -> ClassId {
        assert!(!self.by_name.contains_key(name), "duplicate class `{name}`");
        let mut builder = ClassBuilder::new(name);
        define(&mut builder);
        let id = ClassId(self.classes.len() as u32);
        let mut def = builder.def;
        def.id = id;
        self.by_name.insert(name.to_owned(), id);
        self.classes.push(def);
        id
    }

    /// Finalizes the registry: assigns dense method ids and resolves
    /// declared exception names.
    pub fn build(mut self) -> Registry {
        let mut methods = Vec::new();
        for class in &mut self.classes {
            for (slot, method) in class.methods.iter_mut().enumerate() {
                method.gid = MethodId(methods.len() as u32);
                methods.push((class.id, slot));
                let names = std::mem::take(&mut method.declared_names);
                for name in names {
                    let id = self.exceptions.intern(&name);
                    if !method.declared.contains(&id) {
                        method.declared.push(id);
                    }
                }
            }
        }
        let runtime_exc: Vec<ExcId> = self
            .profile
            .runtime_exceptions
            .iter()
            .map(|n| self.exceptions.intern(n))
            .collect();
        // Precompute each method's injectable exception set (declared
        // first, then the profile's runtime exceptions, deduped), so the
        // per-call lookup is a slice borrow.
        let injectable: Vec<Vec<ExcId>> = methods
            .iter()
            .map(|&(cid, slot)| {
                let class = &self.classes[cid.0 as usize];
                let method = &class.methods[slot];
                if method.never_throws || (class.is_core && !self.profile.instrument_core) {
                    return Vec::new();
                }
                let mut out = method.declared.clone();
                for &e in &runtime_exc {
                    if !out.contains(&e) {
                        out.push(e);
                    }
                }
                out
            })
            .collect();
        Registry {
            classes: self.classes,
            by_name: self.by_name,
            exceptions: self.exceptions,
            profile: self.profile,
            runtime_exc,
            methods,
            injectable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("A", |c| {
            c.field("x", Value::Int(0));
            c.ctor(|_, _, _| Ok(Value::Null));
            c.method("m", |_, _, _| Ok(Value::Null)).throws("IOError");
            c.method("quiet", |_, _, _| Ok(Value::Null)).never_throws();
        });
        rb.class("Str", |c| {
            c.core();
            c.method("len", |_, _, _| Ok(Value::Int(0)));
        });
        rb.build()
    }

    #[test]
    fn build_assigns_dense_method_ids() {
        let reg = sample();
        assert_eq!(reg.method_count(), 4);
        let ids: Vec<u32> = reg.method_ids().map(MethodId::into_raw).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        for id in reg.method_ids() {
            assert_eq!(reg.method(id).gid, id);
        }
    }

    #[test]
    fn declared_exceptions_resolved() {
        let reg = sample();
        let a = reg.class_by_name("A").unwrap();
        let m = &a.methods[a.method_slot("m").unwrap()];
        let io = reg.exceptions().lookup("IOError").unwrap();
        assert_eq!(m.declared, vec![io]);
    }

    #[test]
    fn injectable_set_is_declared_plus_runtime() {
        let reg = sample();
        let a = reg.class_by_name("A").unwrap();
        let m = a.methods[a.method_slot("m").unwrap()].gid;
        let set = reg.injectable_exceptions(m);
        // IOError + RuntimeException + OutOfMemoryError
        assert_eq!(set.len(), 3);
        let io = reg.exceptions().lookup("IOError").unwrap();
        assert_eq!(set[0], io, "declared exceptions come first (Listing 1)");
    }

    #[test]
    fn never_throws_suppresses_injection_points() {
        let reg = sample();
        let a = reg.class_by_name("A").unwrap();
        let quiet = a.methods[a.method_slot("quiet").unwrap()].gid;
        assert!(reg.injectable_exceptions(quiet).is_empty());
    }

    #[test]
    fn java_core_classes_not_instrumentable() {
        let reg = sample();
        let s = reg.class_by_name("Str").unwrap();
        let len = s.methods[s.method_slot("len").unwrap()].gid;
        assert!(!reg.instrumentable(len));
        assert!(reg.injectable_exceptions(len).is_empty());
    }

    #[test]
    fn cpp_core_classes_are_instrumentable() {
        let mut rb = RegistryBuilder::new(Profile::cpp());
        rb.class("Str", |c| {
            c.core();
            c.method("len", |_, _, _| Ok(Value::Int(0)));
        });
        let reg = rb.build();
        let s = reg.class_by_name("Str").unwrap();
        let len = s.methods[0].gid;
        assert!(reg.instrumentable(len));
        assert_eq!(reg.injectable_exceptions(len).len(), 3);
        let _ = s;
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_panics() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("A", |_| {});
        rb.class("A", |_| {});
    }

    #[test]
    fn method_display_renders_qualified_name() {
        let reg = sample();
        let a = reg.class_by_name("A").unwrap();
        let m = a.methods[a.method_slot("m").unwrap()].gid;
        assert_eq!(reg.method_display(m), "A::m");
    }
}
