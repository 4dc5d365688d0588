//! Deterministic single-point replay and the divergence minimizer.
//!
//! A campaign journal records *that* injection point `n` left the graph
//! changed; this module answers *why*. [`crate::Campaign::replay`] re-runs
//! exactly one injection point on a fresh VM with the flight recorder
//! installed and returns a [`ReplayReport`]: the full event trace, the run
//! record, and — for non-atomic points — a [`Divergence`] naming the
//! minimal set of surviving heap writes that explains the before/after
//! graph difference.
//!
//! The minimizer is a delta-debugging-style reduction over the write set
//! the injection wrapper's undo log recorded: starting from every cell
//! whose value still differs from its layer-open value, it bisects while a
//! half alone reproduces the graph diff, then greedily drops single writes
//! until the set is 1-minimal. Each probe flips the non-kept cells back to
//! their layer-open values, re-traces the graph, and restores — `O(kept
//! cells)` heap pokes per probe, no VM re-execution.

use atomask_mor::{CallSite, ClassId, MethodId, ObjId, Registry, TraceEvent, Value, Vm};
use atomask_objgraph::Snapshot;
use std::collections::HashSet;
use std::rc::Rc;

/// One heap cell whose value at exception-propagation time still differed
/// from its value when the wrapped call began — a *surviving write*.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivingWrite {
    /// The written object.
    pub obj: ObjId,
    /// Its class.
    pub class: ClassId,
    /// The written field's schema slot.
    pub slot: usize,
    /// The field's name (resolved at capture time so reports need no
    /// registry).
    pub field: String,
    /// The cell's value when the wrapped call began.
    pub before: Value,
    /// The cell's value when the exception propagated.
    pub after: Value,
}

/// Why a non-atomic mark was non-atomic: the graph diff reduced to a
/// minimal explanatory write set.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The method whose wrapper recorded the non-atomic mark.
    pub method: MethodId,
    /// Propagation chain of the triggering exception.
    pub chain: u64,
    /// The first canonical-trace difference (same text as the mark's
    /// `diff`).
    pub first_diff: String,
    /// Total surviving writes at propagation time.
    pub total_surviving: usize,
    /// A 1-minimal subset of the surviving writes that alone still
    /// reproduces a graph difference (empty only if nothing survived).
    pub minimal: Vec<SurvivingWrite>,
}

impl Divergence {
    /// Renders the divergence as human-readable lines.
    pub fn render(&self, registry: &Registry) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "non-atomic: {} (chain {}), {} surviving write(s), minimal explanation {}:\n",
            registry.method_display(self.method),
            self.chain,
            self.total_surviving,
            self.minimal.len(),
        ));
        for w in &self.minimal {
            out.push_str(&format!(
                "  {} {}.{}: {} -> {}\n",
                w.obj,
                registry.class(w.class).name,
                w.field,
                w.before,
                w.after
            ));
        }
        out.push_str(&format!("  first diff: {}\n", self.first_diff));
        out
    }
}

/// The artifact of one [`crate::Campaign::replay`]: the run's record, its
/// full event trace, and the minimized divergence (non-atomic points
/// only).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The replayed run, exactly as a campaign would record it (same
    /// outcome, marks, fuel and capture statistics).
    pub run: crate::RunResult,
    /// The recorded events, oldest first (bounded by the replay ring; see
    /// [`ReplayReport::trace_dropped`]).
    pub trace: Vec<TraceEvent>,
    /// Total events the run emitted.
    pub trace_emitted: u64,
    /// Events that fell off the front of the replay ring (0 unless the
    /// run emitted more than the ring holds).
    pub trace_dropped: u64,
    /// The registry the replay ran against, for rendering ids.
    pub registry: Rc<Registry>,
    /// The minimized write-set explanation, when the run's last mark was
    /// non-atomic.
    pub divergence: Option<Divergence>,
}

/// Minimizes the surviving write set of a non-atomic mark. Called by the
/// injection wrapper while its undo-log layer is still open: `before` is
/// the reconstructed layer-open snapshot, `roots` the wrapped call's
/// receiver and by-reference arguments, and `cells` the layer's written
/// cells with their layer-open values ([`atomask_mor::AsOfHeap::cells`]).
pub(crate) fn minimize_divergence(
    vm: &mut Vm,
    site: &CallSite,
    chain: u64,
    first_diff: String,
    before: &Snapshot,
    roots: &[ObjId],
    cells: Vec<(ObjId, usize, Value)>,
) -> Divergence {
    let registry = vm.registry().clone();
    let surviving: Vec<SurvivingWrite> = cells
        .into_iter()
        .filter_map(|(obj, slot, open_value)| {
            let current = vm.heap().field_by_slot(obj, slot)?;
            if current == open_value {
                return None;
            }
            let class = vm.heap().get(obj)?.class_id();
            let field = registry
                .class(class)
                .fields
                .get(slot)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| format!("slot{slot}"));
            Some(SurvivingWrite {
                obj,
                class,
                slot,
                field,
                before: open_value,
                after: current,
            })
        })
        .collect();

    let heap = vm.heap_mut();
    // Probe predicate: does keeping exactly `kept` (reverting every other
    // surviving cell to its layer-open value) still change the graph?
    let mut diff_present = |kept: &[usize]| -> bool {
        let kept_set: HashSet<usize> = kept.iter().copied().collect();
        for (i, w) in surviving.iter().enumerate() {
            if !kept_set.contains(&i) {
                heap.probe_set_slot(w.obj, w.slot, w.before.clone());
            }
        }
        let probe = Snapshot::of_roots(heap, roots);
        for (i, w) in surviving.iter().enumerate() {
            if !kept_set.contains(&i) {
                heap.probe_set_slot(w.obj, w.slot, w.after.clone());
            }
        }
        before.first_difference(&probe).is_some()
    };

    let mut current: Vec<usize> = (0..surviving.len()).collect();
    // Bisection: narrow to one half while a half alone reproduces the
    // diff.
    while current.len() > 1 {
        let mid = current.len() / 2;
        let left = current[..mid].to_vec();
        let right = current[mid..].to_vec();
        if diff_present(&left) {
            current = left;
        } else if diff_present(&right) {
            current = right;
        } else {
            break;
        }
    }
    // Greedy 1-minimal pass: drop single writes while the rest still
    // diverges.
    let mut i = 0;
    while current.len() > 1 && i < current.len() {
        let mut cand = current.clone();
        cand.remove(i);
        if diff_present(&cand) {
            current = cand;
        } else {
            i += 1;
        }
    }

    Divergence {
        method: site.method,
        chain,
        first_diff,
        total_surviving: surviving.len(),
        minimal: current.into_iter().map(|i| surviving[i].clone()).collect(),
    }
}
