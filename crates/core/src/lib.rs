//! # atomask — automatic detection and masking of non-atomic exception handling
//!
//! A Rust reproduction of *"Automatic Detection and Masking of Non-Atomic
//! Exception Handling"* (Fetzer, Högstedt, Felber — DSN 2003).
//!
//! A method is **failure atomic** if, whenever it returns with an
//! exception, the receiver's object graph is unchanged; otherwise a failed
//! call can leave the object inconsistent and sabotage later recovery. This
//! crate bundles the full tool chain of the paper:
//!
//! 1. **Detection** ([`atomask_inject`]): every method and constructor call
//!    is routed through an injection wrapper (Listing 1 of the paper) that
//!    throws each of the method's possible exception types at a controlled
//!    global injection point; the campaign runs the program once per
//!    potential point, and the classifier labels each method *failure
//!    atomic*, *conditional failure non-atomic* or *pure failure
//!    non-atomic*.
//! 2. **Masking** ([`atomask_mask`]): the non-atomic methods selected by a
//!    wrapping [`Policy`] get atomicity wrappers (Listing 2) that
//!    checkpoint the receiver's object graph and roll back on exception.
//! 3. **Verification**: the corrected program is re-campaigned with the
//!    injection wrappers *outside* the atomicity wrappers, demonstrating
//!    that it is failure atomic.
//!
//! The [`Pipeline`] type runs all of it in one call:
//!
//! ```
//! use atomask::{Pipeline, Policy};
//!
//! let program = atomask::apps::program_by_name("stdQ").unwrap();
//! let report = Pipeline::new(&program).max_points(200).run();
//! assert_eq!(report.verified.method_counts.pure_nonatomic, 0);
//! assert_eq!(report.verified.method_counts.conditional, 0);
//! ```
//!
//! The sixteen evaluation applications of the paper's Table 1 live in
//! [`apps`] (re-exported from `atomask-apps`); [`report`] renders every
//! table and figure of the paper's evaluation section; [`overhead`]
//! measures the Fig. 5 masking-overhead surface; [`synthetic`] contains
//! the ground-truth validation benchmarks of §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod overhead;
mod pipeline;
pub mod report;
pub mod synthetic;

pub use pipeline::{Pipeline, PipelineReport};

pub use atomask_inject::{
    classify, silent_diagnostics, stderr_diagnostics, suggest_exception_free, Campaign,
    CampaignConfig, CampaignJournal, CampaignResult, CaptureMode, CaptureStats, CheckpointStride,
    Classification, DiagnosticsFn, Divergence, InjectionHook, Mark, MarkFilter,
    MethodClassification, ReplayReport, RetryPolicy, RunHealth, RunOutcome, RunResult,
    SurvivingWrite, TraceMode, Verdict, VerdictCounts,
};
pub use atomask_mask::{
    verify_masked, verify_masked_configured, MaskStats, MaskStrategy, MaskingHook, Policy,
    UndoMaskingHook, UndoStats, WrapSet,
};
pub use atomask_mor::{
    AsOfHeap, Budget, CallHook, CallKind, CallSite, ClassBuilder, ClassId, Ctx, Driver, ExcId,
    Exception, FnProgram, Heap, Lang, MethodId, MethodResult, MorError, ObjId, Profile, Program,
    Registry, RegistryBuilder, RingBufferSink, TraceEvent, TraceSink, Value, Vm,
};
pub use atomask_objgraph::{
    fingerprint_of_roots, graph_fingerprint, graph_size, Checkpoint, FingerprintCache, GraphSize,
    GraphSource, Snapshot,
};

/// The evaluation applications (re-export of `atomask-apps`).
pub mod apps {
    pub use atomask_apps::*;
}
