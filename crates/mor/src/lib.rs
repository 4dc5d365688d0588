//! # atomask-mor — a managed object runtime
//!
//! This crate is the *substrate* of the `atomask` workspace: a small,
//! deterministic, single-threaded object runtime that plays the role the
//! C++/Java language runtimes played in the DSN 2003 paper *"Automatic
//! Detection and Masking of Non-Atomic Exception Handling"* (Fetzer,
//! Högstedt, Felber).
//!
//! The paper's techniques need exactly two capabilities from the language
//! runtime:
//!
//! 1. an **inspectable object graph** — objects with named fields whose
//!    values are basic data or references, with sharing visible (Def. 1 of
//!    the paper), and
//! 2. an **interposable call boundary** — a place where generated wrappers
//!    (injection wrappers during detection, atomicity wrappers during
//!    masking) can be woven around every method and constructor call.
//!
//! Rust offers neither for native code, so this crate provides both:
//!
//! * [`Heap`] stores objects (class + ordered named fields) under
//!   never-reused [`ObjId`]s, maintains reference counts, and supports both
//!   acyclic reclamation and a mark–sweep cycle collector (the paper's
//!   §5.1 notes that rollback cleanup uses reference counting, with a GC
//!   for cyclic structures).
//! * [`Vm`] dispatches every method and constructor call through a single
//!   [`CallHook`] interposition point — the moral equivalent of the paper's
//!   *Code Weaver* (AspectC++ source weaving in C++, BCEL load-time
//!   bytecode instrumentation in Java).
//! * [`Exception`] values propagate callee→caller as the `Err` arm of
//!   [`MethodResult`], reproducing the only exception semantics the paper
//!   relies on: propagation, catch-and-rethrow, and *declared* vs.
//!   *runtime* (undeclared) exception types.
//! * [`Profile`] captures the per-language differences the paper reports:
//!   Java enforces declared exceptions and cannot instrument core classes;
//!   C++ does not enforce declarations, so the injector must consider a
//!   wider set of runtime exception types.
//!
//! Application code (the evaluation workloads in `atomask-apps`) is written
//! as Rust functions that perform **all** state access through [`Ctx`], so
//! the runtime sees every field read/write and every call. A [`Program`]'s
//! driver reaches the VM only through a [`Driver`], whose top-level ops are
//! what checkpoint-resume records and replays.
//!
//! ## Example
//!
//! ```
//! use atomask_mor::{Profile, RegistryBuilder, Value, Vm};
//!
//! let mut rb = RegistryBuilder::new(Profile::java());
//! rb.class("Counter", |c| {
//!     c.field("count", Value::Int(0));
//!     c.method("increment", |ctx, this, _args| {
//!         let v = ctx.get_int(this, "count");
//!         ctx.set(this, "count", Value::Int(v + 1));
//!         Ok(Value::Null)
//!     });
//! });
//! let registry = rb.build();
//! let mut vm = Vm::new(registry);
//! let c = vm.construct("Counter", &[])?;
//! vm.call(c, "increment", &[])?;
//! assert_eq!(vm.heap().field(c, "count"), Some(Value::Int(1)));
//! # Ok::<(), atomask_mor::Exception>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod class;
mod ctx;
mod driver;
mod error;
mod exception;
mod fx;
mod heap;
mod hook;
mod ids;
mod profile;
mod program;
mod registry;
pub mod resume;
mod trace;
mod value;
mod vm;

pub use budget::Budget;
pub use class::{ClassBuilder, ClassDef, FieldDef, MethodCfg, MethodDef, CTOR_NAME};
pub use ctx::Ctx;
pub use driver::Driver;
pub use error::MorError;
pub use exception::{Exception, ExceptionTable, MethodResult};
pub use fx::FxHashSet;
pub use heap::{AsOfHeap, Heap, HeapCheckpoint, HeapStats, Object};
pub use hook::{CallHook, CallKind, CallSite, HookGuard};
pub use ids::{ClassId, ExcId, MethodId, ObjId};
pub use profile::{Lang, Profile};
pub use program::{FnProgram, Program};
pub use registry::{Registry, RegistryBuilder};
pub use resume::{BoundaryProbe, OpKey, OpRecord, OpResult, VmCheckpoint, REPLAY_MISMATCH};
pub use trace::{RingBufferSink, TraceEvent, TraceSink};
pub use value::Value;
pub use vm::{CallStats, Vm};
