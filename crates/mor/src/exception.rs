//! Guest-level exceptions.
//!
//! Rust has no exceptions, so the runtime models them the idiomatic way: as
//! the `Err` arm of [`MethodResult`], propagated callee→caller by the call
//! dispatcher. Application code "catches" an exception by matching on the
//! `Result` returned from [`crate::Ctx::call`] and "rethrows" by returning
//! the `Err` — exactly the propagation structure the paper's wrappers
//! (Listings 1 and 2) interpose on.
//!
//! Only the [`crate::Vm`] creates exceptions: guest bodies through
//! [`crate::Ctx::exception`] and [`crate::Ctx::npe`], injection wrappers
//! through [`crate::Vm::injected_exception`], and the fuel check when a
//! [`crate::Budget`] runs out. Each creation takes the next propagation
//! chain id from the VM's own counter, which the VM restarts with every
//! run and carries through its checkpoints; a guest body tests a caught
//! exception's type with [`crate::Ctx::is`].

use crate::ids::{ExcId, MethodId};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Result of a guest method call: a return value or a propagating exception.
pub type MethodResult = Result<Value, Exception>;

/// A guest exception in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Exception {
    /// Interned exception type.
    pub ty: ExcId,
    /// Human-readable message.
    pub message: String,
    /// `true` iff this exception was synthesized by the fault injector
    /// rather than thrown by application code.
    pub injected: bool,
    /// The method whose injection wrapper synthesized the exception, if
    /// injected. Used by the policy layer (§4.3 of the paper) to discount
    /// injections into methods annotated as exception-free.
    pub injected_into: Option<MethodId>,
    /// Propagation-chain identity: every *created* exception gets a fresh
    /// id; rethrowing (cloning/returning the same value) preserves it. The
    /// classifier uses this to find the first method marked non-atomic
    /// *per propagation chain* (Def. 3's pure/conditional rule), even when
    /// a single program run sees several independent exceptions. The
    /// [`crate::Vm`] that creates the exception hands the id out from its
    /// own counter, which restarts at 1 with every run, so identical runs
    /// produce identical records whatever other VMs exist.
    pub chain: u64,
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.injected {
            write!(f, "[injected {}] {}", self.ty, self.message)
        } else {
            write!(f, "[{}] {}", self.ty, self.message)
        }
    }
}

impl std::error::Error for Exception {}

/// Interning table for exception type names.
///
/// A handful of universal types are always present (see
/// [`ExceptionTable::new`]); profiles and applications register more.
#[derive(Debug, Clone, Default)]
pub struct ExceptionTable {
    names: Vec<String>,
    by_name: HashMap<String, ExcId>,
}

impl ExceptionTable {
    /// Name of the always-present null-dereference exception.
    pub const NULL_POINTER: &'static str = "NullPointerException";

    /// Name of the always-present fuel-exhaustion exception thrown by the
    /// VM when a [`crate::Budget`] runs out (never injected, never part of
    /// a profile's runtime-exception set).
    pub const BUDGET_EXHAUSTED: &'static str = "BudgetExhausted";

    /// Creates a table pre-populated with the universal exception types.
    pub fn new() -> Self {
        let mut t = ExceptionTable::default();
        t.intern(Self::NULL_POINTER);
        t.intern(Self::BUDGET_EXHAUSTED);
        t
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub fn intern(&mut self, name: &str) -> ExcId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = ExcId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<ExcId> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn name(&self, id: ExcId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned exception types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` iff no types are interned (never the case for tables
    /// created with [`ExceptionTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ExcId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ExcId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = ExceptionTable::new();
        let a = t.intern("IOError");
        let b = t.intern("IOError");
        assert_eq!(a, b);
        assert_eq!(t.name(a), "IOError");
        assert_eq!(t.lookup("IOError"), Some(a));
        assert_eq!(t.lookup("Nope"), None);
    }

    #[test]
    fn universal_types_are_preinterned() {
        let t = ExceptionTable::new();
        assert!(t.lookup(ExceptionTable::NULL_POINTER).is_some());
        assert!(t.lookup(ExceptionTable::BUDGET_EXHAUSTED).is_some());
        assert!(!t.is_empty());
    }

    #[test]
    fn display_marks_injected() {
        let mut t = ExceptionTable::new();
        let io = t.intern("IOError");
        let mut e = Exception {
            ty: io,
            message: "disk on fire".to_owned(),
            injected: false,
            injected_into: None,
            chain: 1,
        };
        assert!(!e.to_string().contains("injected"));
        e.injected = true;
        e.injected_into = Some(MethodId::from_raw(0));
        assert!(e.to_string().contains("injected"));
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = ExceptionTable::new();
        t.intern("A");
        t.intern("B");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(
            names,
            vec![
                ExceptionTable::NULL_POINTER,
                ExceptionTable::BUDGET_EXHAUSTED,
                "A",
                "B"
            ]
        );
    }
}
