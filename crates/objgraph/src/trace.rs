//! Canonical object-graph traces.
//!
//! A trace linearizes the object graph of one or more roots by depth-first
//! traversal, assigning each object a *visit index* on first visit and
//! emitting a back-reference on subsequent visits. Because field order is
//! fixed by the class schema, the trace is a **canonical form**: two graphs
//! produce the same trace iff they are equal in the sense of the paper's
//! Definition 1 (same shape, same class labels, same field values, same
//! sharing), regardless of the underlying [`ObjId`]s.

use atomask_mor::{AsOfHeap, ClassId, Heap, ObjId, Value};
use std::collections::HashMap;

/// Anything a canonical trace can be captured from: a live [`Heap`] or a
/// reconstructed historical view of one ([`AsOfHeap`]).
pub trait GraphSource {
    /// The object's class and field values, or `None` if it is not live
    /// in this view (a dangling reference).
    fn node(&self, id: ObjId) -> Option<(ClassId, Vec<Value>)>;

    /// The [`Heap::mutation_epoch`] of the live heap this source reads.
    /// Data memoized per object against that heap stays valid while the
    /// epoch does not move.
    fn epoch(&self) -> u64;

    /// `true` iff [`GraphSource::node`] of `id` may differ from the live
    /// heap's object — memoized per-object data must not be read or
    /// stored for it.
    fn differs(&self, id: ObjId) -> bool;
}

impl GraphSource for Heap {
    fn node(&self, id: ObjId) -> Option<(ClassId, Vec<Value>)> {
        self.get(id)
            .map(|obj| (obj.class_id(), obj.fields().to_vec()))
    }

    fn epoch(&self) -> u64 {
        self.mutation_epoch()
    }

    fn differs(&self, _: ObjId) -> bool {
        false
    }
}

impl GraphSource for AsOfHeap<'_> {
    fn node(&self, id: ObjId) -> Option<(ClassId, Vec<Value>)> {
        AsOfHeap::node(self, id)
    }

    fn epoch(&self) -> u64 {
        self.heap().mutation_epoch()
    }

    fn differs(&self, id: ObjId) -> bool {
        self.touched(id)
    }
}

/// One event of a canonical trace.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// First visit of an object: class label and number of fields; the
    /// object implicitly receives the next visit index.
    Enter(ClassId, usize),
    /// Reference to an already-visited object, by visit index.
    Back(usize),
    /// A null pointer.
    Null,
    /// An integer leaf.
    Int(i64),
    /// A float leaf, by bit pattern (so comparison is an equivalence).
    Float(u64),
    /// A boolean leaf.
    Bool(bool),
    /// A string leaf (shared storage — snapshotting costs a refcount
    /// bump, not a copy).
    Str(std::rc::Rc<str>),
    /// A reference to an object that is not live (dangling). Recorded
    /// rather than panicking so detection can still compare and report.
    Dangling,
    /// Separator between multiple roots.
    RootSep,
}

/// A snapshot of the object graph(s) of one or more roots — the detection
/// phase's `deep_copy` for comparison purposes.
///
/// ```
/// use atomask_mor::{Profile, RegistryBuilder, Value, Vm};
/// use atomask_objgraph::Snapshot;
///
/// let mut rb = RegistryBuilder::new(Profile::java());
/// rb.class("P", |c| { c.field("x", Value::Int(0)); });
/// let mut vm = Vm::new(rb.build());
/// let p = vm.construct("P", &[])?;
/// vm.root(p);
/// let before = Snapshot::of(vm.heap(), p);
/// vm.heap_mut().set_field(p, "x", Value::Int(1)).unwrap();
/// let after = Snapshot::of(vm.heap(), p);
/// assert_ne!(before, after);
/// # Ok::<(), atomask_mor::Exception>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    events: Vec<Event>,
    objects: usize,
}

impl Snapshot {
    /// Captures the object graph of a single root.
    pub fn of(heap: &Heap, root: ObjId) -> Self {
        Self::of_roots(heap, &[root])
    }

    /// Captures the combined object graphs of several roots (Listing 1
    /// copies the receiver *and* all reference arguments).
    ///
    /// Visit indices are shared across roots, so sharing *between* the
    /// receiver's graph and argument graphs is part of the canonical form.
    pub fn of_roots(heap: &Heap, roots: &[ObjId]) -> Self {
        Self::of_source(heap, roots)
    }

    /// Captures the combined object graphs of several roots from any
    /// [`GraphSource`] — a live heap or an as-of view reconstructed from
    /// an undo log.
    pub fn of_source<S: GraphSource>(source: &S, roots: &[ObjId]) -> Self {
        let mut tracer = Tracer {
            source,
            events: Vec::new(),
            visited: HashMap::new(),
        };
        for (i, &root) in roots.iter().enumerate() {
            if i > 0 {
                tracer.events.push(Event::RootSep);
            }
            tracer.visit(root);
        }
        let objects = tracer.visited.len();
        Snapshot {
            events: tracer.events,
            objects,
        }
    }

    /// Number of distinct objects in the captured graph(s).
    pub fn object_count(&self) -> usize {
        self.objects
    }

    /// Deterministic estimate of the snapshot's in-memory size: 16 bytes
    /// per trace event plus the payload of string leaves. Used by capture
    /// accounting (`capture_bytes` in campaign run results), not by
    /// comparison.
    pub fn approx_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Str(s) => 16 + s.len() as u64,
                _ => 16,
            })
            .sum()
    }

    /// Human-readable description of the first difference from `other`,
    /// or `None` if the snapshots are equal. Used in detection reports to
    /// tell the programmer *what* changed.
    pub fn first_difference(&self, other: &Snapshot) -> Option<String> {
        for (i, (a, b)) in self.events.iter().zip(other.events.iter()).enumerate() {
            if a != b {
                return Some(format!("event {i}: before {a:?}, after {b:?}"));
            }
        }
        match self.events.len().cmp(&other.events.len()) {
            std::cmp::Ordering::Equal => None,
            _ => Some(format!(
                "trace length changed: before {} events, after {}",
                self.events.len(),
                other.events.len()
            )),
        }
    }
}

struct Tracer<'s, S> {
    source: &'s S,
    events: Vec<Event>,
    visited: HashMap<ObjId, usize>,
}

impl<S: GraphSource> Tracer<'_, S> {
    /// Depth-first, slot-ordered traversal from `root` on an explicit work
    /// stack, so graph depth costs heap memory, never thread stack (a long
    /// singly linked chain must not overflow a worker thread's stack).
    /// Fields are pushed in reverse, so they pop — and are traced — in
    /// slot order, each object's subgraph before its next sibling: the
    /// same event stream a recursive walk emits.
    fn visit(&mut self, root: ObjId) {
        let mut pending = vec![Value::Ref(root)];
        while let Some(value) = pending.pop() {
            let event = match value {
                Value::Null => Event::Null,
                Value::Int(v) => Event::Int(v),
                Value::Float(v) => Event::Float(v.to_bits()),
                Value::Bool(v) => Event::Bool(v),
                Value::Str(s) => Event::Str(s),
                Value::Ref(id) => match self.visited.get(&id) {
                    Some(&idx) => Event::Back(idx),
                    // The source hands out an owned field vector, so the
                    // walk holds no heap borrow (fields are cheap values).
                    None => match self.source.node(id) {
                        Some((class, fields)) => {
                            self.visited.insert(id, self.visited.len());
                            let enter = Event::Enter(class, fields.len());
                            pending.extend(fields.into_iter().rev());
                            enter
                        }
                        None => Event::Dangling,
                    },
                },
            };
            self.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::{Profile, Registry, RegistryBuilder, Vm};

    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Int(0));
        });
        rb.class("Pair", |c| {
            c.field("a", Value::Null);
            c.field("b", Value::Null);
        });
        rb.build()
    }

    fn vm() -> Vm {
        Vm::new(registry())
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
    fn identical_graphs_compare_equal() {
        let mut vm = vm();
        let a = node(&mut vm, 1);
        let s1 = Snapshot::of(vm.heap(), a);
        let s2 = Snapshot::of(vm.heap(), a);
        assert_eq!(s1, s2);
        assert!(s1.first_difference(&s2).is_none());
    }

    #[test]
    fn equality_is_insensitive_to_object_identity() {
        // Two structurally identical chains built from different objects
        // must compare equal (Def. 1 graphs carry no identities).
        let mut vm = vm();
        let a1 = node(&mut vm, 1);
        let a2 = node(&mut vm, 2);
        vm.heap_mut().set_field(a1, "next", Value::Ref(a2)).unwrap();
        let b1 = node(&mut vm, 1);
        let b2 = node(&mut vm, 2);
        vm.heap_mut().set_field(b1, "next", Value::Ref(b2)).unwrap();
        assert_eq!(Snapshot::of(vm.heap(), a1), Snapshot::of(vm.heap(), b1));
    }

    #[test]
    fn field_change_is_detected() {
        let mut vm = vm();
        let a = node(&mut vm, 1);
        let before = Snapshot::of(vm.heap(), a);
        vm.heap_mut().set_field(a, "value", Value::Int(2)).unwrap();
        let after = Snapshot::of(vm.heap(), a);
        assert_ne!(before, after);
        let diff = before.first_difference(&after).unwrap();
        assert!(diff.contains("Int(1)") && diff.contains("Int(2)"), "{diff}");
    }

    #[test]
    fn sharing_is_part_of_the_graph() {
        // Pair(a -> n, b -> n)  vs  Pair(a -> n1, b -> n2) with n1 == n2
        // structurally: Def. 1 says shared children are *the same node*, so
        // these graphs differ.
        let mut vm = vm();
        let shared = node(&mut vm, 7);
        let p1 = vm.alloc_raw("Pair");
        vm.root(p1);
        vm.heap_mut()
            .set_field(p1, "a", Value::Ref(shared))
            .unwrap();
        vm.heap_mut()
            .set_field(p1, "b", Value::Ref(shared))
            .unwrap();

        let n1 = node(&mut vm, 7);
        let n2 = node(&mut vm, 7);
        let p2 = vm.alloc_raw("Pair");
        vm.root(p2);
        vm.heap_mut().set_field(p2, "a", Value::Ref(n1)).unwrap();
        vm.heap_mut().set_field(p2, "b", Value::Ref(n2)).unwrap();

        assert_ne!(Snapshot::of(vm.heap(), p1), Snapshot::of(vm.heap(), p2));
    }

    #[test]
    fn cycles_terminate_and_compare() {
        let mut vm = vm();
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();
        vm.heap_mut().set_field(b, "next", Value::Ref(a)).unwrap();
        let s1 = Snapshot::of(vm.heap(), a);
        let s2 = Snapshot::of(vm.heap(), a);
        assert_eq!(s1, s2);
        assert_eq!(s1.object_count(), 2);
        // Starting from the other end of the cycle yields a *different*
        // rooted graph (values 2,1 vs 1,2).
        assert_ne!(s1, Snapshot::of(vm.heap(), b));
    }

    #[test]
    fn multi_root_traces_capture_cross_root_sharing() {
        let mut vm = vm();
        let shared = node(&mut vm, 9);
        let r1 = node(&mut vm, 1);
        let r2 = node(&mut vm, 2);
        vm.heap_mut()
            .set_field(r1, "next", Value::Ref(shared))
            .unwrap();
        vm.heap_mut()
            .set_field(r2, "next", Value::Ref(shared))
            .unwrap();
        let shared_trace = Snapshot::of_roots(vm.heap(), &[r1, r2]);

        // Same shape but r2 points at a private copy.
        let priv2 = node(&mut vm, 9);
        let q1 = node(&mut vm, 1);
        let q2 = node(&mut vm, 2);
        let shared2 = node(&mut vm, 9);
        vm.heap_mut()
            .set_field(q1, "next", Value::Ref(shared2))
            .unwrap();
        vm.heap_mut()
            .set_field(q2, "next", Value::Ref(priv2))
            .unwrap();
        let unshared_trace = Snapshot::of_roots(vm.heap(), &[q1, q2]);

        assert_ne!(shared_trace, unshared_trace);
    }

    #[test]
    fn dangling_refs_are_recorded_not_fatal() {
        let mut vm = vm();
        let a = node(&mut vm, 1);
        // A pointer to a node that no longer (or never) existed — the
        // paper's §5.1 limitation 2 (incomplete object graphs): traversal
        // must record the hole rather than abort.
        vm.heap_mut()
            .set_field(a, "next", Value::Ref(ObjId::from_raw(u64::MAX)))
            .unwrap();
        let s = Snapshot::of(vm.heap(), a);
        assert_eq!(s.object_count(), 1);
        assert_eq!(s, Snapshot::of(vm.heap(), a));
    }

    #[test]
    fn asof_snapshot_equals_the_eager_before_snapshot() {
        // Capture eagerly, mutate under a journal layer, then reconstruct
        // the before-state from the undo log: the two canonical traces
        // must be identical events, not merely equivalent.
        let mut vm = vm();
        let a = node(&mut vm, 1);
        let b = node(&mut vm, 2);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();
        let eager = Snapshot::of(vm.heap(), a);
        vm.heap_mut().push_journal();
        let c = node(&mut vm, 3);
        vm.heap_mut().set_field(a, "next", Value::Ref(c)).unwrap();
        vm.heap_mut().set_field(b, "value", Value::Int(9)).unwrap();
        let asof = vm.heap().asof_innermost().unwrap();
        let lazy = Snapshot::of_source(&asof, &[a]);
        assert_eq!(lazy, eager);
        assert_eq!(lazy.approx_bytes(), eager.approx_bytes());
        // And the live heap has of course moved on.
        assert_ne!(Snapshot::of(vm.heap(), a), eager);
    }

    #[test]
    fn approx_bytes_counts_events_and_string_payloads() {
        let mut vm = vm();
        let a = node(&mut vm, 1);
        let plain = Snapshot::of(vm.heap(), a);
        assert_eq!(plain.approx_bytes(), 3 * 16, "Enter + Null + Int");
        vm.heap_mut()
            .set_field(a, "value", Value::from("hello"))
            .unwrap();
        let stringy = Snapshot::of(vm.heap(), a);
        assert_eq!(stringy.approx_bytes(), 3 * 16 + 5);
    }

    #[test]
    fn float_leaves_compare_bitwise() {
        let mut vm = vm();
        let a = node(&mut vm, 0);
        vm.heap_mut()
            .set_field(a, "value", Value::Float(f64::NAN))
            .unwrap();
        let s1 = Snapshot::of(vm.heap(), a);
        let s2 = Snapshot::of(vm.heap(), a);
        assert_eq!(s1, s2, "NaN must equal itself in canonical traces");
    }

    #[test]
    fn object_count_counts_distinct_objects_once() {
        let mut vm = vm();
        let shared = node(&mut vm, 7);
        let p = vm.alloc_raw("Pair");
        vm.root(p);
        vm.heap_mut().set_field(p, "a", Value::Ref(shared)).unwrap();
        vm.heap_mut().set_field(p, "b", Value::Ref(shared)).unwrap();
        assert_eq!(Snapshot::of(vm.heap(), p).object_count(), 2);
    }
}
