//! # atomask-inject — the detection phase
//!
//! Implements steps 1–3 of the paper's Fig. 1: transform the program into
//! an *exception injector program*, run it once per potential injection
//! point, and classify every method as **failure atomic**, **conditional
//! failure non-atomic** or **pure failure non-atomic**.
//!
//! * [`InjectionHook`] is Listing 1 as a [`atomask_mor::CallHook`]: one
//!   potential injection point per throwable exception type of the called
//!   method, driven by the global `Point` counter against the preset
//!   `InjectionPoint` threshold; a pre-call object-graph snapshot of the
//!   receiver and by-reference arguments; and an atomicity check plus mark
//!   whenever an exception propagates through the wrapper.
//! * [`Campaign`] runs a [`atomask_mor::Program`] once without injection
//!   (counting potential points and recording baseline call statistics),
//!   then once per injection point on a fresh VM.
//! * [`classify`] implements the paper's classification rules, including
//!   the §4.3 *pure vs. conditional* distinction (a method is pure iff in
//!   some run it is the **first** method marked non-atomic) and the
//!   exception-free discounting used by the policy layer.
//!
//! ```
//! use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};
//! use atomask_inject::{classify, Campaign, MarkFilter, Verdict};
//!
//! let program = FnProgram::new(
//!     "demo",
//!     || {
//!         let mut rb = RegistryBuilder::new(Profile::java());
//!         rb.class("Acc", |c| {
//!             c.field("sum", Value::Int(0));
//!             c.field("count", Value::Int(0));
//!             c.method("add", |ctx, this, args| {
//!                 let v = args[0].as_int().unwrap_or(0);
//!                 let sum = ctx.get_int(this, "sum");
//!                 ctx.set(this, "sum", Value::Int(sum + v));
//!                 // An exception injected into `touch` below leaves `sum`
//!                 // updated but `count` not: add is failure non-atomic.
//!                 ctx.call(this, "touch", &[])?;
//!                 let n = ctx.get_int(this, "count");
//!                 ctx.set(this, "count", Value::Int(n + 1));
//!                 Ok(Value::Null)
//!             });
//!             c.method("touch", |_ctx, _this, _args| Ok(Value::Null));
//!         });
//!         rb.build()
//!     },
//!     |d| {
//!         let a = d.construct("Acc", &[])?;
//!         d.root(a);
//!         d.call(a, "add", &[Value::Int(5)])
//!     },
//! );
//!
//! let result = Campaign::new(&program).run();
//! let classification = classify(&result, &MarkFilter::default());
//! let add = classification
//!     .methods
//!     .iter()
//!     .find(|m| m.name == "Acc::add")
//!     .unwrap();
//! assert_eq!(add.verdict, Some(Verdict::PureNonAtomic));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod classify;
mod hook;
mod journal;
mod marks;
mod replay;
mod suggest;

pub use campaign::{
    silent_diagnostics, stderr_diagnostics, Campaign, CampaignConfig, CampaignResult,
    CheckpointStride, DiagnosticsFn, RetryPolicy, RunHealth, RunOutcome, RunResult, TraceMode,
};
pub use classify::{
    classify, ClassRollup, ClassVerdictCounts, Classification, MarkFilter, MethodClassification,
    Verdict, VerdictCounts,
};
pub use hook::{CaptureMode, CaptureStats, InjectionHook};
pub use journal::{CampaignJournal, JournalParseError};
pub use marks::Mark;
pub use replay::{Divergence, ReplayReport, SurvivingWrite};
pub use suggest::suggest_exception_free;
