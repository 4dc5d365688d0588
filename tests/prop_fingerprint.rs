//! Property tests of the incremental graph fingerprints and the as-of
//! view they walk: on randomized heaps with randomized nested journal
//! layers that allocate, initialize and link objects, the view of the
//! innermost layer must reproduce the eager before-snapshot, its cells and
//! revert check must agree with the writes performed (the revert check
//! sound and complete with layer-born objects around), the fingerprint
//! comparison the injection wrapper performs on its exception path must
//! reach the same verdict as the full structural diff ([`Snapshot`]
//! equality), and a cache filled before writes must be indistinguishable
//! from a cold recomputation after them.

use atomask_suite::{
    fingerprint_of_roots, graph_fingerprint, FingerprintCache, ObjId, Profile, RegistryBuilder,
    Snapshot, Value, Vm,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Field slots of `Node`, in schema order.
const FIELDS: [&str; 3] = ["left", "right", "tag"];

/// Construction ops for heaps of `Node {left, right, tag}` (indices are
/// taken modulo the live node count).
#[derive(Debug, Clone)]
enum Op {
    Alloc(i64),
    LinkLeft(usize, usize),
    LinkRight(usize, usize),
    CutLeft(usize),
    Retag(usize, i64),
    /// Retag with a float chosen to stress bit-exact comparison
    /// (`-0.0` vs `0.0`, `NaN`).
    RetagFloat(usize, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..8).prop_map(Op::Alloc),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::LinkLeft(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::LinkRight(a, b)),
        any::<usize>().prop_map(Op::CutLeft),
        (any::<usize>(), 0i64..8).prop_map(|(a, t)| Op::Retag(a, t)),
        (any::<usize>(), 0u8..4).prop_map(|(a, f)| Op::RetagFloat(a, f)),
    ]
}

fn node_vm() -> Vm {
    let mut rb = RegistryBuilder::new(Profile::java());
    rb.class("Node", |c| {
        c.field("left", Value::Null);
        c.field("right", Value::Null);
        c.field("tag", Value::Int(0));
    });
    Vm::new(rb.build())
}

/// Writes `value` into `obj.field`, logging `(obj, slot, old value)`.
fn write(vm: &mut Vm, log: &mut Vec<(ObjId, usize, Value)>, obj: ObjId, slot: usize, value: Value) {
    let old = vm.heap().field_by_slot(obj, slot).expect("live node");
    vm.heap_mut().set_field(obj, FIELDS[slot], value).unwrap();
    log.push((obj, slot, old));
}

/// Applies `ops`, returning every field write as `(object, slot, value it
/// replaced)` in write order.
fn apply(vm: &mut Vm, nodes: &mut Vec<ObjId>, ops: &[Op]) -> Vec<(ObjId, usize, Value)> {
    const FLOATS: [f64; 4] = [0.0, -0.0, 1.5, f64::NAN];
    let mut log = Vec::new();
    for op in ops {
        let pick = |i: &usize| nodes[i % nodes.len()];
        match op {
            Op::Alloc(tag) => {
                let id = vm.alloc_raw("Node");
                vm.root(id);
                write(vm, &mut log, id, 2, Value::Int(*tag));
                nodes.push(id);
            }
            Op::LinkLeft(a, b) if !nodes.is_empty() => {
                let (x, y) = (pick(a), pick(b));
                write(vm, &mut log, x, 0, Value::Ref(y));
            }
            Op::LinkRight(a, b) if !nodes.is_empty() => {
                let (x, y) = (pick(a), pick(b));
                write(vm, &mut log, x, 1, Value::Ref(y));
            }
            Op::CutLeft(a) if !nodes.is_empty() => write(vm, &mut log, pick(a), 0, Value::Null),
            Op::Retag(a, t) if !nodes.is_empty() => write(vm, &mut log, pick(a), 2, Value::Int(*t)),
            Op::RetagFloat(a, f) if !nodes.is_empty() => {
                let v = Value::Float(FLOATS[*f as usize % FLOATS.len()]);
                write(vm, &mut log, pick(a), 2, v)
            }
            _ => {}
        }
    }
    log
}

/// One node born under a layer: its tag, the pre-existing node it is
/// linked with (index modulo the pre-existing count), and whether the link
/// into that node is taken back out before the layer ends.
type Birth = (i64, usize, bool);

fn birth_strategy() -> impl Strategy<Value = Birth> {
    (0i64..8, any::<usize>(), any::<bool>())
}

/// Allocates one node per birth and initializes it — tag, and `left`
/// pointing at its pre-existing host (one of the first `pre` nodes) — then
/// links it into the host's `right` slot and, when asked, writes the
/// host's old `right` back. Returns the writes as [`apply`] does.
fn give_birth(
    vm: &mut Vm,
    nodes: &mut Vec<ObjId>,
    pre: usize,
    births: &[Birth],
) -> Vec<(ObjId, usize, Value)> {
    let mut log = Vec::new();
    for &(tag, host, unlink) in births {
        let host = nodes[host % pre];
        let id = vm.alloc_raw("Node");
        vm.root(id);
        write(vm, &mut log, id, 2, Value::Int(tag));
        write(vm, &mut log, id, 0, Value::Ref(host));
        let old = vm.heap().field_by_slot(host, 1).expect("live node");
        write(vm, &mut log, host, 1, Value::Ref(id));
        if unlink {
            write(vm, &mut log, host, 1, old);
        }
        nodes.push(id);
    }
    log
}

/// `true` iff every field of every node in `ids` reads bit-for-bit what
/// `fields` recorded for it.
fn unchanged(vm: &Vm, ids: &[ObjId], fields: &[Vec<Value>]) -> bool {
    ids.iter().zip(fields).all(|(&id, open)| {
        let live = vm.heap().get(id).expect("pre-existing node").fields();
        live.iter().zip(open).all(|(a, b)| a.bit_eq(b))
    })
}

/// Collapses a write log to its first write per cell, in first-write
/// order — the oracle for `AsOfHeap::cells`.
fn first_writes(log: &[(ObjId, usize, Value)]) -> Vec<(ObjId, usize, Value)> {
    let mut seen = HashSet::new();
    log.iter()
        .filter(|(obj, slot, _)| seen.insert((*obj, *slot)))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wrapper's exception path over nested layers. An enclosing layer
    /// takes `outer` writes; the observed layer opens (the eager
    /// before-snapshots are taken there), takes `writes` and `born` nodes,
    /// one inner layer committed into it and one aborted (each with its own
    /// writes and born nodes), then `tail` writes. `restore` then writes
    /// cells back to their layer-open values: 0 none, 1 every cell, 2 only
    /// the cells of pre-existing nodes (born nodes keep their writes).
    ///
    /// The revert check must be **sound** — `reverted()` implies the eager
    /// layer-open snapshot of every pre-existing node equals its
    /// after-snapshot — and **complete** — when no pre-existing cell
    /// changed, `reverted()` holds, whatever the born nodes hold. The as-of
    /// view of the observed layer must reproduce the eager before-snapshot
    /// and fingerprint exactly; its cells must be exactly the cells first
    /// written under the layer, born nodes' cells included (the aborted
    /// layer's writes were rolled back and are not among them); and the
    /// fingerprints, with the cache filled from the after-state, agree
    /// **iff** the full structural diff finds the graphs equal.
    #[test]
    fn fingerprint_verdict_matches_structural_diff(
        build in prop::collection::vec(op_strategy(), 1..30),
        outer in prop::collection::vec(op_strategy(), 0..8),
        writes in prop::collection::vec(op_strategy(), 0..12),
        born in prop::collection::vec(birth_strategy(), 0..4),
        committed in prop::collection::vec(op_strategy(), 0..8),
        committed_born in prop::collection::vec(birth_strategy(), 0..3),
        aborted in prop::collection::vec(op_strategy(), 0..8),
        aborted_born in prop::collection::vec(birth_strategy(), 0..3),
        tail in prop::collection::vec(op_strategy(), 0..8),
        restore in 0u8..3,
    ) {
        let mut vm = node_vm();
        let mut nodes = Vec::new();
        apply(&mut vm, &mut nodes, &build);
        prop_assume!(!nodes.is_empty());
        let root = nodes[0];

        vm.heap_mut().push_journal(); // enclosing layer
        apply(&mut vm, &mut nodes, &outer);
        let before_snapshot = Snapshot::of(vm.heap(), root);
        let before_cold_fp = fingerprint_of_roots(vm.heap(), &[root]);

        let pre: Vec<ObjId> = nodes.clone();
        let open_fields: Vec<Vec<Value>> = pre
            .iter()
            .map(|&id| vm.heap().get(id).expect("live node").fields().to_vec())
            .collect();
        let open_all = Snapshot::of_roots(vm.heap(), &pre);

        vm.heap_mut().push_journal(); // the observed layer
        let mut log = apply(&mut vm, &mut nodes, &writes);
        log.extend(give_birth(&mut vm, &mut nodes, pre.len(), &born));
        vm.heap_mut().push_journal();
        log.extend(apply(&mut vm, &mut nodes, &committed));
        log.extend(give_birth(&mut vm, &mut nodes, pre.len(), &committed_born));
        vm.heap_mut().commit_journal();
        vm.heap_mut().push_journal();
        apply(&mut vm, &mut nodes, &aborted);
        give_birth(&mut vm, &mut nodes, pre.len(), &aborted_born);
        vm.heap_mut().abort_journal();
        log.extend(apply(&mut vm, &mut nodes, &tail));
        let expected_cells = first_writes(&log);
        let pre_set: HashSet<ObjId> = pre.iter().copied().collect();
        if restore > 0 {
            for (obj, slot, open_value) in expected_cells.iter().rev() {
                if restore == 1 || pre_set.contains(obj) {
                    vm.heap_mut()
                        .set_field(*obj, FIELDS[*slot], open_value.clone())
                        .unwrap();
                }
            }
        }

        // The hook's stage-2 sequence: the after-walk fills the cache from
        // the live heap, the before-walk over the view reuses it.
        let mut cache = FingerprintCache::new();
        let after_fp = graph_fingerprint(vm.heap(), &[root], &mut cache);
        let view = vm.heap().asof_innermost().expect("journal layer is open");
        let reconstructed_before_fp = graph_fingerprint(&view, &[root], &mut cache);

        // The revert check, against the eager layer-open state of every
        // pre-existing node.
        if view.reverted() {
            prop_assert!(
                Snapshot::of_roots(vm.heap(), &pre) == open_all,
                "unsound: a reverted layer left a pre-existing graph changed"
            );
        }
        if unchanged(&vm, &pre, &open_fields) {
            prop_assert!(
                view.reverted(),
                "incomplete: no pre-existing cell changed, yet not reverted"
            );
        }
        if restore > 0 {
            prop_assert!(view.reverted(), "every pre-existing cell was written back");
        }

        // The before-reconstruction is exact, not merely verdict-equal.
        prop_assert_eq!(reconstructed_before_fp, before_cold_fp);
        prop_assert_eq!(Snapshot::of_source(&view, &[root]), before_snapshot.clone());

        // One entry per cell first written under the layer, first-write
        // order, holding the cell's layer-open value (bit-exact: NaN).
        let cells = view.cells();
        prop_assert_eq!(cells.len(), expected_cells.len());
        for (&(obj, slot, open_value), (eobj, eslot, evalue)) in cells.iter().zip(&expected_cells) {
            prop_assert!(
                obj == *eobj && slot == *eslot && open_value.bit_eq(evalue),
                "cell {:?} != expected {:?}",
                (obj, slot, open_value),
                (eobj, eslot, evalue)
            );
        }

        let after_snapshot = Snapshot::of(vm.heap(), root);
        let structurally_equal = before_snapshot == after_snapshot;
        if view.reverted() {
            prop_assert!(structurally_equal, "a reverted layer left the graph changed");
        }

        // Verdict equivalence against the full structural diff.
        let fingerprints_equal = reconstructed_before_fp == after_fp;
        prop_assert_eq!(
            fingerprints_equal,
            structurally_equal,
            "fingerprint verdict diverged from Snapshot::first_difference: {:?}",
            before_snapshot.first_difference(&after_snapshot)
        );

        vm.heap_mut().abort_journal();
        vm.heap_mut().abort_journal();
    }

    /// A cache filled before the writes and reused after them equals a
    /// cold walk, for the live heap and for the as-of view: the writes move
    /// the heap's mutation epoch, so the cache drops its stale entries.
    #[test]
    fn stale_cache_equals_cold_recomputation(
        build in prop::collection::vec(op_strategy(), 1..30),
        writes in prop::collection::vec(op_strategy(), 0..20),
    ) {
        let mut vm = node_vm();
        let mut nodes = Vec::new();
        apply(&mut vm, &mut nodes, &build);
        prop_assume!(!nodes.is_empty());
        let root = nodes[0];
        let mut cache = FingerprintCache::new();
        let before = graph_fingerprint(vm.heap(), &[root], &mut cache);

        vm.heap_mut().push_journal();
        apply(&mut vm, &mut nodes, &writes);
        let warm = graph_fingerprint(vm.heap(), &[root], &mut cache);
        let cold = fingerprint_of_roots(vm.heap(), &[root]);
        prop_assert_eq!(warm, cold);
        let view = vm.heap().asof_innermost().expect("journal layer is open");
        prop_assert_eq!(graph_fingerprint(&view, &[root], &mut cache), before);
        vm.heap_mut().commit_journal();
    }
}
