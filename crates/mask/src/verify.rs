//! Verification of corrected programs.
//!
//! After the masking phase produces the corrected program `P_C`, the paper's
//! workflow implicitly validates it: the benchmark applications were used
//! "to make sure that our system correctly detects failure non-atomic
//! methods during the detection phase, and effectively masks them during
//! the masking phase" (§6). This module makes that validation a first-class
//! operation: re-run the entire detection campaign with the atomicity
//! wrappers woven *inside* the injection wrappers and reclassify.

use crate::hook::{MaskingHook, WrapSet};
use crate::undo::UndoMaskingHook;
use atomask_inject::{classify, Campaign, CampaignConfig, Classification, MarkFilter};
use atomask_mor::{CallHook, MethodId, Program};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Which atomicity-wrapper implementation to weave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskStrategy {
    /// Listing 2 as written: eager deep copy of the receiver's object
    /// graph, restored on exception.
    #[default]
    DeepCopy,
    /// The §6.2 optimization: journal the writes actually performed and
    /// replay them backwards on exception.
    UndoLog,
}

impl MaskStrategy {
    /// A fresh atomicity-wrapper hook of this strategy around `wrapped`,
    /// as [`atomask_inject::Campaign::with_inner_hook`] factories produce
    /// one per run. Pass a shared [`WrapSet`] to build the table once.
    pub fn hook(self, wrapped: impl Into<WrapSet>) -> Rc<RefCell<dyn CallHook>> {
        match self {
            MaskStrategy::DeepCopy => Rc::new(RefCell::new(MaskingHook::new(wrapped))),
            MaskStrategy::UndoLog => Rc::new(RefCell::new(UndoMaskingHook::new(wrapped))),
        }
    }
}

/// Runs the detection campaign against the corrected program (original
/// program + atomicity wrappers for `mask_set`) and returns the resulting
/// classification.
///
/// If masking is sound, the returned classification reports **zero** pure
/// and zero conditional failure non-atomic methods (up to the methods
/// discounted by `filter`).
pub fn verify_masked(
    program: &dyn Program,
    mask_set: &HashSet<MethodId>,
    filter: &MarkFilter,
) -> Classification {
    verify_masked_with(program, mask_set, filter, MaskStrategy::DeepCopy)
}

/// [`verify_masked`] with an explicit wrapper [`MaskStrategy`].
pub fn verify_masked_with(
    program: &dyn Program,
    mask_set: &HashSet<MethodId>,
    filter: &MarkFilter,
    strategy: MaskStrategy,
) -> Classification {
    verify_masked_configured(
        program,
        mask_set,
        filter,
        strategy,
        CampaignConfig::default(),
        None,
    )
}

/// [`verify_masked_with`] under an explicit [`CampaignConfig`] (fuel
/// budget, retry policy, failure cap) and an optional injection-point cap.
///
/// The resulting [`Classification::health`] reports how much of the
/// verification sweep was diverged, panicked, or skipped — a verification
/// whose unhealthy share is non-zero is a *partial* verification.
pub fn verify_masked_configured(
    program: &dyn Program,
    mask_set: &HashSet<MethodId>,
    filter: &MarkFilter,
    strategy: MaskStrategy,
    config: CampaignConfig,
    cap: Option<u64>,
) -> Classification {
    let wrapped = WrapSet::from(mask_set);
    let mut campaign = Campaign::new(program)
        .with_inner_hook(move |_registry| strategy.hook(wrapped.clone()))
        .config(config);
    if let Some(cap) = cap {
        campaign = campaign.max_points(cap);
    }
    classify(&campaign.run(), filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};

    /// A deliberately messy program: two pure non-atomic methods at
    /// different depths and one conditional.
    fn messy() -> FnProgram {
        FnProgram::new(
            "messy",
            || {
                let mut rb = RegistryBuilder::new(Profile::cpp());
                rb.class("Log", |c| {
                    c.field("entries", Value::Int(0));
                    c.method("append", |ctx, this, _| {
                        let n = ctx.get_int(this, "entries");
                        ctx.set(this, "entries", Value::Int(n + 1));
                        ctx.call(this, "flush", &[])?;
                        Ok(Value::Null)
                    });
                    c.method("flush", |_, _, _| Ok(Value::Null));
                });
                rb.class("Journal", |c| {
                    c.field("log", Value::Null);
                    c.field("seq", Value::Int(0));
                    c.ctor(|ctx, this, args| {
                        ctx.set(this, "log", args[0].clone());
                        Ok(Value::Null)
                    });
                    c.method("record", |ctx, this, _| {
                        let s = ctx.get_int(this, "seq");
                        ctx.set(this, "seq", Value::Int(s + 1));
                        let log = ctx.get(this, "log");
                        ctx.call_value(&log, "append", &[])?;
                        ctx.set(this, "seq", Value::Int(s));
                        Ok(Value::Null)
                    });
                    c.method("report", |ctx, this, _| {
                        // No own mutations: conditional at worst.
                        ctx.call(this, "record", &[])
                    });
                });
                rb.build()
            },
            |d| {
                let log = d.construct("Log", &[])?;
                d.root(log);
                let j = d.construct("Journal", &[Value::Ref(log)])?;
                d.root(j);
                d.call(j, "report", &[])
            },
        )
    }

    #[test]
    fn corrected_program_is_failure_atomic() {
        let p = messy();
        let detection = Campaign::new(&p).run();
        let policy = Policy::default();
        let c = classify(&detection, &policy.mark_filter());
        assert!(
            c.method_counts.pure_nonatomic >= 2,
            "append and record are pure non-atomic, got {:?}",
            c.method_counts
        );
        let mask_set = policy.mask_set(&c);
        let verified = verify_masked(&p, &mask_set, &policy.mark_filter());
        assert_eq!(verified.method_counts.pure_nonatomic, 0, "{verified:#?}");
        assert_eq!(verified.method_counts.conditional, 0, "{verified:#?}");
        assert_eq!(
            verified.method_counts.total(),
            c.method_counts.total(),
            "same methods observed"
        );
    }

    #[test]
    fn undo_log_strategy_also_verifies() {
        let p = messy();
        let detection = Campaign::new(&p).run();
        let policy = Policy::default();
        let c = classify(&detection, &policy.mark_filter());
        let mask_set = policy.mask_set(&c);
        let verified =
            verify_masked_with(&p, &mask_set, &policy.mark_filter(), MaskStrategy::UndoLog);
        assert_eq!(verified.method_counts.pure_nonatomic, 0, "{verified:#?}");
        assert_eq!(verified.method_counts.conditional, 0, "{verified:#?}");
    }

    #[test]
    fn masking_nothing_changes_nothing() {
        let p = messy();
        let detection = Campaign::new(&p).run();
        let c = classify(&detection, &MarkFilter::default());
        let verified = verify_masked(&p, &HashSet::new(), &MarkFilter::default());
        assert_eq!(
            verified.method_counts.pure_nonatomic,
            c.method_counts.pure_nonatomic
        );
        assert_eq!(
            verified.method_counts.conditional,
            c.method_counts.conditional
        );
    }

    #[test]
    fn partial_masking_leaves_unwrapped_pure_methods_nonatomic() {
        let p = messy();
        let detection = Campaign::new(&p).run();
        let policy = Policy::default();
        let c = classify(&detection, &policy.mark_filter());
        // Wrap only Journal::record, leaving Log::append exposed.
        let record = c.method("Journal::record").unwrap().method;
        let set: HashSet<MethodId> = [record].into_iter().collect();
        let verified = verify_masked(&p, &set, &policy.mark_filter());
        assert_eq!(
            verified.method("Log::append").unwrap().verdict,
            Some(atomask_inject::Verdict::PureNonAtomic)
        );
        assert_eq!(
            verified.method("Journal::record").unwrap().verdict,
            Some(atomask_inject::Verdict::FailureAtomic)
        );
    }
}
