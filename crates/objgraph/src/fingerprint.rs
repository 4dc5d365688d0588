//! Incremental 64-bit structural fingerprints of object graphs.
//!
//! A fingerprint is a pure function of the graph's **canonical trace**
//! (see [`crate::Snapshot`]): the walk visits objects in exactly the same
//! depth-first, slot-ordered, visit-indexed order the trace does, so
//!
//! * equal canonical traces always produce equal fingerprints, and
//! * unequal fingerprints therefore *prove* the traces differ.
//!
//! Equal fingerprints do not prove trace equality (64-bit hashes collide
//! with probability ~2⁻⁶⁴), which is why callers that need `first_difference`
//! detail fall back to a full [`crate::Snapshot`] comparison on mismatch —
//! the fast path only ever short-circuits the *equal* verdict.
//!
//! The expensive part of a walk is [`GraphSource::node`], which clones a
//! field vector per object (and, for as-of views, applies the undo-log
//! overlay). A [`FingerprintCache`] memoizes each object's *local* hash
//! (class + leaf field values + reference-slot markers) and its outgoing
//! references, so repeated walks over an unchanged heap touch no heap
//! storage at all. The cache keeps itself valid: it remembers the
//! [`GraphSource::epoch`] it was filled at and empties itself when a walk
//! sees the epoch moved, and it neither reads nor stores the objects a
//! source reports through [`GraphSource::differs`] (for an as-of view,
//! the objects its journal layer touched — see
//! [`atomask_mor::AsOfHeap::touched`]).

use crate::trace::GraphSource;
use atomask_mor::{ObjId, Value};
use std::collections::HashMap;
use std::rc::Rc;

/// Memoized per-object walk data: everything a fingerprint walk needs to
/// know about an object without calling [`GraphSource::node`].
#[derive(Debug, Clone)]
struct CachedNode {
    /// Hash of the object's class, field count, leaf field values (in
    /// slot order) and reference-slot positions. Deliberately excludes
    /// reference *targets* — object ids are not canonical; sharing is
    /// folded in by the walk via visit indices.
    local: u64,
    /// Reference targets in slot order (the walk descends into these),
    /// shared so a cache hit copies no vector.
    refs: Rc<[ObjId]>,
}

/// A reusable memo table for [`graph_fingerprint`] walks.
///
/// The cache is keyed by [`ObjId`] and belongs to one heap: its entries
/// describe that heap at the [`GraphSource::epoch`] they were filled at,
/// and a walk at any other epoch drops them all first.
#[derive(Debug, Clone, Default)]
pub struct FingerprintCache {
    nodes: HashMap<ObjId, CachedNode>,
    /// The source epoch `nodes` was filled at.
    epoch: Option<u64>,
}

impl FingerprintCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized objects.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

// Distinct token tags per canonical-trace event kind, so e.g. Int(0) and
// Null cannot collide structurally. Arbitrary odd constants.
const TAG_ENTER: u64 = 0x9ae1_6a3b_2f90_404f;
const TAG_BACK: u64 = 0xd6e8_feb8_6659_fd93;
const TAG_NULL: u64 = 0xa076_1d64_78bd_642f;
const TAG_INT: u64 = 0xe703_7ed1_a0b4_28db;
const TAG_FLOAT: u64 = 0x8ebc_6af0_9c88_c6e3;
const TAG_BOOL: u64 = 0x5899_65cc_7537_4cc3;
const TAG_STR: u64 = 0x1d8e_4e27_c47d_124f;
const TAG_DANGLING: u64 = 0xeb44_acca_b455_d165;
const TAG_REF_SLOT: u64 = 0x2f63_3507_75b4_8f35;
const TAG_ROOT_SEP: u64 = 0x6c62_272e_07bb_0142;

/// splitmix64-style avalanche: every input bit affects every output bit.
#[inline]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive fold of one token into an accumulator.
#[inline]
fn mix(acc: u64, token: u64) -> u64 {
    avalanche(acc.rotate_left(11) ^ avalanche(token))
}

/// Deterministic hash of a string leaf (FNV-1a; the std `DefaultHasher`
/// is not documented as stable across releases).
#[inline]
fn str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds an object's cacheable local data from its class and fields.
fn local_node(class: atomask_mor::ClassId, fields: &[Value]) -> CachedNode {
    let mut local = mix(TAG_ENTER, class.into_raw() as u64);
    local = mix(local, fields.len() as u64);
    let mut refs = Vec::new();
    for f in fields {
        local = match f {
            Value::Null => mix(local, TAG_NULL),
            Value::Int(v) => mix(mix(local, TAG_INT), *v as u64),
            Value::Float(v) => mix(mix(local, TAG_FLOAT), v.to_bits()),
            Value::Bool(v) => mix(mix(local, TAG_BOOL), *v as u64),
            Value::Str(s) => mix(mix(local, TAG_STR), str_hash(s)),
            Value::Ref(id) => {
                refs.push(*id);
                // Only the slot's *position* is local; the target's
                // structure enters through the walk.
                mix(local, TAG_REF_SLOT)
            }
        };
    }
    CachedNode {
        local,
        refs: refs.into(),
    }
}

struct Walker<'a, S> {
    source: &'a S,
    cache: &'a mut FingerprintCache,
    visited: HashMap<ObjId, usize>,
    acc: u64,
}

impl<S: GraphSource> Walker<'_, S> {
    /// Folds the graph of `root` into the accumulator in canonical-trace
    /// order, on an explicit work stack so graph depth never costs thread
    /// stack. References are pushed in reverse, so they pop in slot order,
    /// each target's subgraph before its next sibling — the visit order of
    /// the canonical trace ([`crate::Snapshot`]).
    fn visit(&mut self, root: ObjId) {
        let mut pending = vec![root];
        while let Some(id) = pending.pop() {
            if let Some(&idx) = self.visited.get(&id) {
                self.acc = mix(mix(self.acc, TAG_BACK), idx as u64);
                continue;
            }
            let clean = !self.source.differs(id);
            let cached = self.cache.nodes.get(&id).filter(|_| clean).cloned();
            let node = match cached {
                Some(n) => n,
                None => {
                    let Some((class, fields)) = self.source.node(id) else {
                        self.acc = mix(self.acc, TAG_DANGLING);
                        continue;
                    };
                    let n = local_node(class, &fields);
                    if clean {
                        self.cache.nodes.insert(id, n.clone());
                    }
                    n
                }
            };
            self.visited.insert(id, self.visited.len());
            self.acc = mix(self.acc, node.local);
            pending.extend(node.refs.iter().rev());
        }
    }
}

/// Computes the structural fingerprint of the combined object graphs of
/// `roots` — a pure function of the canonical trace
/// [`crate::Snapshot::of_source`] would capture from the same source and
/// roots.
///
/// `cache` memoizes per-object data across walks of one heap, through the
/// live heap itself or any as-of view of it: it is emptied first when
/// `source` is at a different epoch than the cache was filled at, and
/// objects `source` [differs](GraphSource::differs) on are always re-read
/// and never stored.
pub fn graph_fingerprint<S: GraphSource>(
    source: &S,
    roots: &[ObjId],
    cache: &mut FingerprintCache,
) -> u64 {
    let epoch = source.epoch();
    if cache.epoch != Some(epoch) {
        cache.nodes.clear();
        cache.epoch = Some(epoch);
    }
    let mut walker = Walker {
        source,
        cache,
        visited: HashMap::new(),
        acc: 0x243f_6a88_85a3_08d3, // arbitrary non-zero seed
    };
    for (i, &root) in roots.iter().enumerate() {
        if i > 0 {
            walker.acc = mix(walker.acc, TAG_ROOT_SEP);
        }
        walker.visit(root);
    }
    // Fold in the length implicitly via final avalanche; the event stream
    // is prefix-free per root (Enter carries the field count), so the
    // ordered fold is already injective over token streams.
    avalanche(walker.acc)
}

/// One-shot fingerprint with a throwaway cache (tests and benches).
pub fn fingerprint_of_roots<S: GraphSource>(source: &S, roots: &[ObjId]) -> u64 {
    graph_fingerprint(source, roots, &mut FingerprintCache::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use atomask_mor::{Profile, Registry, RegistryBuilder, Vm};

    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Int(0));
        });
        rb.build()
    }

    fn node(vm: &mut Vm, value: i64) -> ObjId {
        let id = vm.alloc_raw("Node");
        vm.root(id);
        vm.heap_mut()
            .set_field(id, "value", Value::Int(value))
            .unwrap();
        id
    }

    #[test]
    fn equal_graphs_equal_fingerprints_across_identities() {
        let mut vm = Vm::new(registry());
        let a1 = node(&mut vm, 1);
        let a2 = node(&mut vm, 2);
        vm.heap_mut().set_field(a1, "next", Value::Ref(a2)).unwrap();
        let b1 = node(&mut vm, 1);
        let b2 = node(&mut vm, 2);
        vm.heap_mut().set_field(b1, "next", Value::Ref(b2)).unwrap();
        assert_eq!(
            Snapshot::of(vm.heap(), a1),
            Snapshot::of(vm.heap(), b1),
            "precondition"
        );
        assert_eq!(
            fingerprint_of_roots(vm.heap(), &[a1]),
            fingerprint_of_roots(vm.heap(), &[b1])
        );
    }

    #[test]
    fn field_change_changes_fingerprint() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        let before = fingerprint_of_roots(vm.heap(), &[a]);
        vm.heap_mut().set_field(a, "value", Value::Int(2)).unwrap();
        assert_ne!(before, fingerprint_of_roots(vm.heap(), &[a]));
    }

    #[test]
    fn sharing_is_part_of_the_fingerprint() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Int(0));
        });
        rb.class("Pair", |c| {
            c.field("a", Value::Null);
            c.field("b", Value::Null);
        });
        let mut vm = Vm::new(rb.build());
        let mk = |vm: &mut Vm, v: i64| {
            let id = vm.alloc_raw("Node");
            vm.root(id);
            vm.heap_mut().set_field(id, "value", Value::Int(v)).unwrap();
            id
        };
        let shared = mk(&mut vm, 7);
        let p1 = vm.alloc_raw("Pair");
        vm.root(p1);
        vm.heap_mut()
            .set_field(p1, "a", Value::Ref(shared))
            .unwrap();
        vm.heap_mut()
            .set_field(p1, "b", Value::Ref(shared))
            .unwrap();
        let n1 = mk(&mut vm, 7);
        let n2 = mk(&mut vm, 7);
        let p2 = vm.alloc_raw("Pair");
        vm.root(p2);
        vm.heap_mut().set_field(p2, "a", Value::Ref(n1)).unwrap();
        vm.heap_mut().set_field(p2, "b", Value::Ref(n2)).unwrap();
        assert_ne!(
            fingerprint_of_roots(vm.heap(), &[p1]),
            fingerprint_of_roots(vm.heap(), &[p2])
        );
    }

    #[test]
    fn cycles_terminate_and_direction_matters() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();
        vm.heap_mut().set_field(b, "next", Value::Ref(a)).unwrap();
        assert_eq!(
            fingerprint_of_roots(vm.heap(), &[a]),
            fingerprint_of_roots(vm.heap(), &[a])
        );
        assert_ne!(
            fingerprint_of_roots(vm.heap(), &[a]),
            fingerprint_of_roots(vm.heap(), &[b])
        );
    }

    #[test]
    fn float_leaves_fingerprint_bitwise() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 0);
        vm.heap_mut()
            .set_field(a, "value", Value::Float(f64::NAN))
            .unwrap();
        assert_eq!(
            fingerprint_of_roots(vm.heap(), &[a]),
            fingerprint_of_roots(vm.heap(), &[a]),
            "NaN equals itself bitwise"
        );
        let zero_pos = {
            vm.heap_mut()
                .set_field(a, "value", Value::Float(0.0))
                .unwrap();
            fingerprint_of_roots(vm.heap(), &[a])
        };
        let zero_neg = {
            vm.heap_mut()
                .set_field(a, "value", Value::Float(-0.0))
                .unwrap();
            fingerprint_of_roots(vm.heap(), &[a])
        };
        assert_ne!(zero_pos, zero_neg, "0.0 and -0.0 differ bitwise");
    }

    #[test]
    fn cached_walk_equals_uncached_walk() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();
        let mut cache = FingerprintCache::new();
        let first = graph_fingerprint(vm.heap(), &[a], &mut cache);
        assert_eq!(cache.len(), 2, "both nodes memoized");
        let second = graph_fingerprint(vm.heap(), &[a], &mut cache);
        assert_eq!(first, second);
        assert_eq!(first, fingerprint_of_roots(vm.heap(), &[a]));
    }

    #[test]
    fn asof_walk_on_a_live_filled_cache_matches_eager_before_fingerprint() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();
        let eager_before = fingerprint_of_roots(vm.heap(), &[a]);

        vm.heap_mut().push_journal();
        let c = node(&mut vm, 3);
        vm.heap_mut().set_field(a, "next", Value::Ref(c)).unwrap();
        vm.heap_mut().set_field(b, "value", Value::Int(9)).unwrap();

        // The wrapper's order: the after-walk fills the cache against the
        // live heap, then the before-walk over the as-of view reuses it for
        // every object the layer did not touch.
        let mut cache = FingerprintCache::new();
        let after = graph_fingerprint(vm.heap(), &[a], &mut cache);
        assert_eq!(cache.len(), 2, "a and c memoized from the live heap");
        let asof = vm.heap().asof_innermost().unwrap();
        let lazy_before = graph_fingerprint(&asof, &[a], &mut cache);
        assert_eq!(lazy_before, eager_before);
        assert_ne!(after, eager_before);
    }

    #[test]
    fn cache_empties_itself_when_the_epoch_moves() {
        // Checkpoint-resume sweeps restore whole heaps between runs
        // (`Vm::restore`). A restore moves the mutation epoch, so a cache
        // filled against the pre-restore heap drops itself instead of
        // poisoning post-restore walks.
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();

        let mut cache = FingerprintCache::new();
        let fp_before = graph_fingerprint(vm.heap(), &[a], &mut cache);
        let cp = vm.checkpoint();

        // Diverge: rewire the graph so the cached entries go stale.
        vm.heap_mut().set_field(a, "next", Value::Null).unwrap();
        vm.heap_mut().set_field(b, "value", Value::Int(9)).unwrap();
        let fp_diverged = graph_fingerprint(vm.heap(), &[a], &mut cache);
        assert_ne!(fp_diverged, fp_before);
        assert_eq!(fp_diverged, fingerprint_of_roots(vm.heap(), &[a]));
        assert_eq!(cache.len(), 1, "only a is reachable now");

        vm.restore(&cp);
        let fp_after = graph_fingerprint(vm.heap(), &[a], &mut cache);
        assert_eq!(fp_after, fp_before);
        assert_eq!(cache.len(), 2, "walk re-memoized the restored objects");
    }

    #[test]
    fn dangling_refs_fingerprint_like_the_trace() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        vm.heap_mut()
            .set_field(a, "next", Value::Ref(ObjId::from_raw(u64::MAX)))
            .unwrap();
        assert_eq!(
            fingerprint_of_roots(vm.heap(), &[a]),
            fingerprint_of_roots(vm.heap(), &[a])
        );
    }

    #[test]
    fn multi_root_separator_and_order_matter() {
        let mut vm = Vm::new(registry());
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        assert_ne!(
            fingerprint_of_roots(vm.heap(), &[a, b]),
            fingerprint_of_roots(vm.heap(), &[b, a])
        );
        assert_ne!(
            fingerprint_of_roots(vm.heap(), &[a]),
            fingerprint_of_roots(vm.heap(), &[a, b])
        );
    }
}
