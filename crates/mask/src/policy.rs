//! The §4.3 policy layer: "To Wrap or Not To Wrap".
//!
//! The paper enumerates four reasons not to wrap a failure non-atomic
//! method; the policy implements all of them:
//!
//! 1. **Intended non-atomicity** — the programmer excludes the method
//!    ([`Policy::exclude`]); wrapping would change intended semantics.
//! 2. **Manual fix preferred** — the programmer rewrites the method and
//!    re-runs detection; supported by simply re-running the campaign on the
//!    fixed program (see the LinkedList case study in `atomask-apps`).
//! 3. **Exception-free methods** — the programmer asserts a method can
//!    never throw ([`Policy::exception_free`]); methods classified
//!    non-atomic solely because of injections into it are reclassified.
//! 4. **Conditional methods** — by Def. 3, a conditional failure non-atomic
//!    method becomes atomic once all its callees are wrapped, so wrapping
//!    it is unnecessary overhead ([`Policy::skip_conditional`], on by
//!    default).

use atomask_inject::{Classification, MarkFilter, Verdict};
use atomask_mor::MethodId;
use std::collections::HashSet;

/// A wrapping policy (the paper's "easy-to-use web interface", as an API).
#[derive(Debug, Clone)]
pub struct Policy {
    /// Methods whose non-atomicity is intended: never wrapped.
    pub exclude: HashSet<MethodId>,
    /// Methods the programmer asserts never throw: injections into them are
    /// discounted during (re)classification.
    pub exception_free: HashSet<MethodId>,
    /// Skip conditional failure non-atomic methods (Def. 3 optimization).
    /// Defaults to `true`.
    pub skip_conditional: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            exclude: HashSet::new(),
            exception_free: HashSet::new(),
            skip_conditional: true,
        }
    }
}

impl Policy {
    /// A policy that wraps every non-atomic method (including conditional
    /// ones) — the conservative baseline.
    pub fn wrap_everything() -> Self {
        Policy {
            exclude: HashSet::new(),
            exception_free: HashSet::new(),
            skip_conditional: false,
        }
    }

    /// Marks `method` as intentionally non-atomic (never wrap).
    pub fn excluding(mut self, method: MethodId) -> Self {
        self.exclude.insert(method);
        self
    }

    /// Asserts that `method` never throws.
    pub fn with_exception_free(mut self, method: MethodId) -> Self {
        self.exception_free.insert(method);
        self
    }

    /// The mark filter to use when (re)classifying under this policy.
    pub fn mark_filter(&self) -> MarkFilter {
        MarkFilter {
            exception_free: self.exception_free.clone(),
        }
    }

    /// Computes the set of methods to wrap with atomicity wrappers, given a
    /// classification (which should have been produced with
    /// [`Policy::mark_filter`] for consistency).
    pub fn mask_set(&self, classification: &Classification) -> HashSet<MethodId> {
        classification
            .methods
            .iter()
            .filter(|m| match m.verdict {
                Some(Verdict::PureNonAtomic) => true,
                Some(Verdict::ConditionalNonAtomic) => !self.skip_conditional,
                _ => false,
            })
            .map(|m| m.method)
            .filter(|m| !self.exclude.contains(m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_inject::{classify, Campaign};
    use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};

    /// Same layered structure as the classifier tests: Leaf::work atomic,
    /// Mid::step pure, Top::go conditional.
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

    fn classification(policy: &Policy) -> Classification {
        let p = layered();
        let result = Campaign::new(&p).run();
        classify(&result, &policy.mark_filter())
    }

    fn gid(c: &Classification, name: &str) -> MethodId {
        c.method(name).unwrap().method
    }

    #[test]
    fn default_policy_wraps_pure_only() {
        let policy = Policy::default();
        let c = classification(&policy);
        let set = policy.mask_set(&c);
        assert_eq!(set.len(), 1);
        assert!(set.contains(&gid(&c, "Mid::step")));
    }

    #[test]
    fn wrap_everything_includes_conditional() {
        let policy = Policy::wrap_everything();
        let c = classification(&policy);
        let set = policy.mask_set(&c);
        assert_eq!(set.len(), 2);
        assert!(set.contains(&gid(&c, "Top::go")));
    }

    #[test]
    fn exclusions_are_respected() {
        let base = Policy::default();
        let c = classification(&base);
        let policy = base.excluding(gid(&c, "Mid::step"));
        assert!(policy.mask_set(&c).is_empty());
    }

    #[test]
    fn exception_free_empties_the_mask_set() {
        let base = Policy::default();
        let c0 = classification(&base);
        let policy = base.with_exception_free(gid(&c0, "Leaf::work"));
        let c = classification(&policy);
        assert!(policy.mask_set(&c).is_empty());
        assert_eq!(c.method_counts.pure_nonatomic, 0);
    }
}
