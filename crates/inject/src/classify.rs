//! Classification of methods and classes from campaign results.
//!
//! Implements the rules of §4.1 and §4.3:
//!
//! * a method is **failure atomic** iff it is *never* marked non-atomic;
//! * a failure non-atomic method is **pure** iff there exists a run in
//!   which it is the *first* method marked non-atomic (exceptions propagate
//!   callee→caller, so any non-atomic callee would have been marked
//!   earlier);
//! * all other failure non-atomic methods are **conditional**;
//! * a class is pure failure non-atomic iff it contains at least one pure
//!   failure non-atomic method, conditional iff it is non-atomic but not
//!   pure, and failure atomic otherwise (Fig. 4's roll-up);
//! * runs whose injection targeted a method the programmer has annotated as
//!   *exception-free* are discounted before classification ([`MarkFilter`],
//!   §4.3's web-interface reclassification).

use crate::campaign::{CampaignResult, RunHealth};
use atomask_mor::MethodId;
use std::collections::HashSet;

/// A method's failure-atomicity verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Never marked non-atomic.
    FailureAtomic,
    /// Non-atomic, but never first in a propagation chain: would be atomic
    /// if all callees were (Def. 3).
    ConditionalNonAtomic,
    /// Non-atomic on its own account.
    PureNonAtomic,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::FailureAtomic => write!(f, "atomic"),
            Verdict::ConditionalNonAtomic => write!(f, "conditional"),
            Verdict::PureNonAtomic => write!(f, "pure non-atomic"),
        }
    }
}

/// Discounts applied before classification (§4.3).
#[derive(Debug, Clone, Default)]
pub struct MarkFilter {
    /// Methods the programmer asserts can never throw: runs that injected
    /// into them are discarded, and methods classified non-atomic *solely*
    /// because of those runs revert to failure atomic.
    pub exception_free: HashSet<MethodId>,
}

impl MarkFilter {
    /// A filter that discounts injections into `methods`.
    pub fn exception_free(methods: impl IntoIterator<Item = MethodId>) -> Self {
        MarkFilter {
            exception_free: methods.into_iter().collect(),
        }
    }
}

/// Classification details for one method.
#[derive(Debug, Clone)]
pub struct MethodClassification {
    /// The method.
    pub method: MethodId,
    /// `Class::method` display name.
    pub name: String,
    /// Verdict; `None` when the method was neither called in the baseline
    /// run nor observed under exception (not "defined and used").
    pub verdict: Option<Verdict>,
    /// Baseline dynamic call count (the Figs. 2b/3b weight).
    pub calls: u64,
    /// Number of atomic marks across the campaign (post-filter).
    pub atomic_marks: u64,
    /// Number of non-atomic marks across the campaign (post-filter).
    pub nonatomic_marks: u64,
    /// An example object-graph difference, for the programmer's report.
    pub sample_diff: Option<String>,
}

/// Counts of methods (or calls) per verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Failure atomic.
    pub atomic: u64,
    /// Conditional failure non-atomic.
    pub conditional: u64,
    /// Pure failure non-atomic.
    pub pure_nonatomic: u64,
}

impl VerdictCounts {
    /// Sum of all three buckets.
    pub fn total(&self) -> u64 {
        self.atomic + self.conditional + self.pure_nonatomic
    }

    /// Percentage of a bucket (0 when empty).
    pub fn pct(&self, bucket: Verdict) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let n = match bucket {
            Verdict::FailureAtomic => self.atomic,
            Verdict::ConditionalNonAtomic => self.conditional,
            Verdict::PureNonAtomic => self.pure_nonatomic,
        };
        n as f64 * 100.0 / total as f64
    }

    fn bump(&mut self, verdict: Verdict, by: u64) {
        match verdict {
            Verdict::FailureAtomic => self.atomic += by,
            Verdict::ConditionalNonAtomic => self.conditional += by,
            Verdict::PureNonAtomic => self.pure_nonatomic += by,
        }
    }
}

/// Per-class roll-up (Fig. 4).
#[derive(Debug, Clone)]
pub struct ClassRollup {
    /// Class name.
    pub class: String,
    /// Class verdict per the Fig. 4 rule.
    pub verdict: Verdict,
}

/// Counts of classes per verdict (Fig. 4's series).
pub type ClassVerdictCounts = VerdictCounts;

/// Full classification of a campaign.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Program name.
    pub program: String,
    /// Per-method details, one entry per registry method.
    pub methods: Vec<MethodClassification>,
    /// Counts over methods *defined and used* (Figs. 2a/3a).
    pub method_counts: VerdictCounts,
    /// Counts over baseline *calls*, weighted by call frequency
    /// (Figs. 2b/3b).
    pub call_counts: VerdictCounts,
    /// Per-class roll-ups, classes with at least one used method only.
    pub classes: Vec<ClassRollup>,
    /// Counts over classes (Fig. 4).
    pub class_counts: ClassVerdictCounts,
    /// Run-health of the underlying campaign. Unhealthy (diverged,
    /// panicked, skipped) runs contribute no marks to the verdicts above;
    /// this field reports how much of the sweep they were.
    pub health: RunHealth,
}

impl Classification {
    /// The classification entry of a method, by display name.
    pub fn method(&self, name: &str) -> Option<&MethodClassification> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Display names of all pure failure non-atomic methods.
    pub fn pure_nonatomic(&self) -> Vec<&MethodClassification> {
        self.methods
            .iter()
            .filter(|m| m.verdict == Some(Verdict::PureNonAtomic))
            .collect()
    }

    /// Method ids of every failure non-atomic method (pure and
    /// conditional) — the masking phase's input list.
    pub fn nonatomic_methods(&self) -> Vec<MethodId> {
        self.methods
            .iter()
            .filter(|m| {
                matches!(
                    m.verdict,
                    Some(Verdict::PureNonAtomic) | Some(Verdict::ConditionalNonAtomic)
                )
            })
            .map(|m| m.method)
            .collect()
    }
}

/// Classifies a campaign's methods and classes, after applying `filter`.
pub fn classify(result: &CampaignResult, filter: &MarkFilter) -> Classification {
    let registry = &result.registry;
    let n = registry.method_count();
    let mut atomic_marks = vec![0u64; n];
    let mut nonatomic_marks = vec![0u64; n];
    let mut sample_diff: Vec<Option<String>> = vec![None; n];
    let mut pure: HashSet<MethodId> = HashSet::new();

    for run in &result.runs {
        if !run.is_healthy() {
            // A diverged, panicked, or skipped run yields no trustworthy
            // before/after comparison: contribute no marks, but stay
            // visible through `Classification::health`.
            continue;
        }
        if let Some((target, _)) = run.injected {
            if filter.exception_free.contains(&target) {
                // The programmer ruled this exception out: discount the
                // whole run (§4.3).
                continue;
            }
        }
        // Exceptions propagate callee->caller, so within each propagation
        // chain the *first* non-atomic mark identifies a pure failure
        // non-atomic method (Def. 3). A run may see several independent
        // chains (application-thrown exceptions the driver absorbs plus
        // the injected one), tracked by the exception's chain id.
        let mut chains_with_nonatomic: HashSet<u64> = HashSet::new();
        for mark in &run.marks {
            let idx = mark.method.index();
            if mark.atomic {
                atomic_marks[idx] += 1;
            } else {
                nonatomic_marks[idx] += 1;
                if sample_diff[idx].is_none() {
                    sample_diff[idx] = mark.diff.clone();
                }
                if chains_with_nonatomic.insert(mark.chain) {
                    pure.insert(mark.method);
                }
            }
        }
    }

    let mut methods = Vec::with_capacity(n);
    let mut method_counts = VerdictCounts::default();
    let mut call_counts = VerdictCounts::default();
    for mid in registry.method_ids() {
        let idx = mid.index();
        let calls = result.baseline_calls.get(idx).copied().unwrap_or(0);
        let observed = atomic_marks[idx] + nonatomic_marks[idx] > 0;
        let used = calls > 0 || observed;
        let verdict = if !used {
            None
        } else if nonatomic_marks[idx] == 0 {
            Some(Verdict::FailureAtomic)
        } else if pure.contains(&mid) {
            Some(Verdict::PureNonAtomic)
        } else {
            Some(Verdict::ConditionalNonAtomic)
        };
        if let Some(v) = verdict {
            method_counts.bump(v, 1);
            call_counts.bump(v, calls);
        }
        methods.push(MethodClassification {
            method: mid,
            name: registry.method_display(mid),
            verdict,
            calls,
            atomic_marks: atomic_marks[idx],
            nonatomic_marks: nonatomic_marks[idx],
            sample_diff: sample_diff[idx].take(),
        });
    }

    // Fig. 4 roll-up.
    let mut classes = Vec::new();
    let mut class_counts = ClassVerdictCounts::default();
    for class in registry.classes() {
        let mut any_used = false;
        let mut any_nonatomic = false;
        let mut any_pure = false;
        for m in &class.methods {
            let mc = &methods[m.gid.index()];
            match mc.verdict {
                None => {}
                Some(Verdict::FailureAtomic) => any_used = true,
                Some(Verdict::ConditionalNonAtomic) => {
                    any_used = true;
                    any_nonatomic = true;
                }
                Some(Verdict::PureNonAtomic) => {
                    any_used = true;
                    any_nonatomic = true;
                    any_pure = true;
                }
            }
        }
        if !any_used {
            continue;
        }
        let verdict = if any_pure {
            Verdict::PureNonAtomic
        } else if any_nonatomic {
            Verdict::ConditionalNonAtomic
        } else {
            Verdict::FailureAtomic
        };
        class_counts.bump(verdict, 1);
        classes.push(ClassRollup {
            class: class.name.clone(),
            verdict,
        });
    }

    Classification {
        program: result.program.clone(),
        methods,
        method_counts,
        call_counts,
        classes,
        class_counts,
        health: result.health(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};

    /// Three-layer program:
    /// * `Leaf::work`   — atomic (mutates nothing).
    /// * `Mid::step`    — pure non-atomic (mutates, then calls leaf).
    /// * `Top::go`      — conditional (clean itself, but calls `Mid::step`).
    fn layered() -> FnProgram {
        FnProgram::new(
            "layered",
            || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.class("Leaf", |c| {
                    c.field("dummy", Value::Int(0));
                    c.method("work", |_, _, _| Ok(Value::Null));
                });
                rb.class("Mid", |c| {
                    c.field("state", Value::Int(0));
                    c.method("step", |ctx, this, args| {
                        let s = ctx.get_int(this, "state");
                        ctx.set(this, "state", Value::Int(s + 1));
                        ctx.call_value(&args[0], "work", &[])?;
                        ctx.set(this, "state", Value::Int(s));
                        Ok(Value::Null)
                    });
                });
                rb.class("Top", |c| {
                    c.method("go", |ctx, _, args| {
                        ctx.call_value(&args[0], "step", &args[1..])
                    });
                });
                rb.build()
            },
            |d| {
                let leaf = d.construct("Leaf", &[])?;
                d.root(leaf);
                let mid = d.construct("Mid", &[])?;
                d.root(mid);
                let top = d.construct("Top", &[])?;
                d.root(top);
                d.call(top, "go", &[Value::Ref(mid), Value::Ref(leaf)])
            },
        )
    }

    fn classified() -> Classification {
        let p = layered();
        let result = Campaign::new(&p).run();
        classify(&result, &MarkFilter::default())
    }

    #[test]
    fn verdicts_match_the_planted_structure() {
        let c = classified();
        assert_eq!(
            c.method("Leaf::work").unwrap().verdict,
            Some(Verdict::FailureAtomic)
        );
        assert_eq!(
            c.method("Mid::step").unwrap().verdict,
            Some(Verdict::PureNonAtomic)
        );
        assert_eq!(
            c.method("Top::go").unwrap().verdict,
            Some(Verdict::ConditionalNonAtomic)
        );
    }

    #[test]
    fn counts_cover_used_methods_only() {
        let c = classified();
        assert_eq!(c.method_counts.total(), 3);
        assert_eq!(c.method_counts.pure_nonatomic, 1);
        assert_eq!(c.method_counts.conditional, 1);
        assert_eq!(c.method_counts.atomic, 1);
        // One baseline call each.
        assert_eq!(c.call_counts.total(), 3);
    }

    #[test]
    fn class_rollup_follows_fig4_rule() {
        let c = classified();
        let by_name = |n: &str| c.classes.iter().find(|r| r.class == n).unwrap();
        assert_eq!(by_name("Leaf").verdict, Verdict::FailureAtomic);
        assert_eq!(by_name("Mid").verdict, Verdict::PureNonAtomic);
        assert_eq!(by_name("Top").verdict, Verdict::ConditionalNonAtomic);
        assert_eq!(c.class_counts.total(), 3);
    }

    #[test]
    fn nonatomic_method_list_feeds_masking() {
        let c = classified();
        let names: Vec<String> = c
            .nonatomic_methods()
            .iter()
            .map(|m| c.methods[m.index()].name.clone())
            .collect();
        assert!(names.contains(&"Mid::step".to_owned()));
        assert!(names.contains(&"Top::go".to_owned()));
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn exception_free_annotation_reclassifies() {
        let p = layered();
        let result = Campaign::new(&p).run();
        // Assert Leaf::work never throws: every run that injected into it
        // is discounted; Mid::step's only source of non-atomicity vanishes.
        let leaf_work = result
            .registry
            .class_by_name("Leaf")
            .unwrap()
            .methods
            .iter()
            .find(|m| m.name == "work")
            .unwrap()
            .gid;
        let c = classify(&result, &MarkFilter::exception_free([leaf_work]));
        assert_eq!(
            c.method("Mid::step").unwrap().verdict,
            Some(Verdict::FailureAtomic)
        );
        assert_eq!(
            c.method("Top::go").unwrap().verdict,
            Some(Verdict::FailureAtomic)
        );
        assert_eq!(c.method_counts.pure_nonatomic, 0);
    }

    #[test]
    fn pct_is_well_defined() {
        let c = classified();
        let sum = c.method_counts.pct(Verdict::FailureAtomic)
            + c.method_counts.pct(Verdict::ConditionalNonAtomic)
            + c.method_counts.pct(Verdict::PureNonAtomic);
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(VerdictCounts::default().pct(Verdict::FailureAtomic), 0.0);
    }

    #[test]
    fn sample_diff_reported_for_nonatomic() {
        let c = classified();
        assert!(c.method("Mid::step").unwrap().sample_diff.is_some());
        assert!(c.method("Leaf::work").unwrap().sample_diff.is_none());
    }
}
