//! # atomask-mask — the masking phase
//!
//! Implements steps 4–5 of the paper's Fig. 1 plus the §4.3 policy layer:
//!
//! * [`MaskingHook`] is Listing 2 as a [`atomask_mor::CallHook`]: for every
//!   method on the failure non-atomic list it checkpoints the receiver's
//!   object graph (plus by-reference arguments) before the call and, if the
//!   call returns with an exception, restores the checkpoint before
//!   rethrowing — "checkpoint, execute, and roll back on exception".
//!   Rollback garbage is reclaimed with the heap's reference counting.
//! * [`Policy`] decides **which** non-atomic methods to wrap (§4.3 "To Wrap
//!   or Not To Wrap"): intended non-atomicity can be excluded, methods can
//!   be annotated exception-free (with reclassification), and conditional
//!   failure non-atomic methods are skipped by default because wrapping
//!   their callees already makes them atomic (Def. 3).
//! * [`verify_masked`] re-runs the full detection campaign against the
//!   corrected program `P_C`, with the injection wrappers woven *outside*
//!   the atomicity wrappers, proving that masking produced a failure atomic
//!   program.
//!
//! ```
//! use atomask_inject::{classify, Campaign, MarkFilter};
//! use atomask_mask::{verify_masked, Policy};
//! use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};
//!
//! let program = FnProgram::new(
//!     "demo",
//!     || {
//!         let mut rb = RegistryBuilder::new(Profile::java());
//!         rb.class("Acc", |c| {
//!             c.field("sum", Value::Int(0));
//!             c.method("add", |ctx, this, args| {
//!                 let v = args[0].as_int().unwrap_or(0);
//!                 let sum = ctx.get_int(this, "sum");
//!                 ctx.set(this, "sum", Value::Int(sum + v));
//!                 ctx.call(this, "touch", &[]) // may fail after mutation
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
//! // Detect, decide what to wrap, and verify the corrected program.
//! let detection = Campaign::new(&program).run();
//! let classification = classify(&detection, &MarkFilter::default());
//! assert_eq!(classification.method_counts.pure_nonatomic, 1);
//! let policy = Policy::default();
//! let mask_set = policy.mask_set(&classification);
//! let corrected = verify_masked(&program, &mask_set, &policy.mark_filter());
//! assert_eq!(corrected.method_counts.pure_nonatomic, 0);
//! assert_eq!(corrected.method_counts.conditional, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hook;
mod policy;
mod undo;
mod verify;

pub use hook::{MaskStats, MaskingHook, WrapSet};
pub use policy::Policy;
pub use undo::{UndoMaskingHook, UndoStats};
pub use verify::{verify_masked, verify_masked_configured, verify_masked_with, MaskStrategy};
