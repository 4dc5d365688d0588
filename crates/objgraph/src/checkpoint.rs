//! Heap checkpoints: deep copies that can be restored — the masking phase's
//! `deep_copy` / `replace` pair (Listing 2 of the paper).

use crate::size::object_bytes;
use atomask_mor::{ClassId, FxHashSet, Heap, ObjId, Object, Value};
use std::ops::Range;

/// A restorable deep copy of everything reachable from a set of roots.
///
/// Restoring rewrites every checkpointed object back to its captured field
/// values, resurrecting objects that were reclaimed in the meantime at
/// their original [`ObjId`]s (ids are never reused by the heap, so this is
/// always possible). Objects *created* after the checkpoint are left in
/// place; if the rollback made them unreachable they become garbage for
/// [`Heap::reclaim`] / [`Heap::collect`] — this is exactly the paper's
/// §5.1 rollback-cleanup story (reference counting plus a cycle GC).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    roots: Vec<ObjId>,
    /// The captured objects sorted by id: class and the range of their
    /// field values in `values`.
    objects: Vec<(ObjId, ClassId, Range<usize>)>,
    /// Every captured field value, one flat vector for the whole graph.
    values: Vec<Value>,
    bytes: usize,
}

impl Checkpoint {
    /// Captures the graphs of `roots` (receiver plus by-reference
    /// arguments, per Listing 1/2). One pass over the reachable objects
    /// into flat storage, then a sort of the per-object index by id.
    pub fn capture(heap: &Heap, roots: &[ObjId]) -> Self {
        // Wrapped receivers' graphs are mostly a handful of objects: start
        // with room for them so small captures never regrow.
        const SMALL_GRAPH: usize = 8;
        let mut objects = Vec::with_capacity(SMALL_GRAPH);
        let mut values = Vec::with_capacity(4 * SMALL_GRAPH);
        let mut visited = FxHashSet::with_capacity_and_hasher(SMALL_GRAPH, Default::default());
        let mut bytes = 0;
        let mut stack: Vec<ObjId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            let Some(obj) = heap.get(id) else {
                continue; // dangling (incomplete graph): skip, as §5.1 allows
            };
            bytes += object_bytes(obj);
            stack.extend(
                obj.fields()
                    .iter()
                    .filter_map(Value::as_ref_id)
                    .filter(|target| !visited.contains(target)),
            );
            let start = values.len();
            values.extend_from_slice(obj.fields());
            objects.push((id, obj.class_id(), start..values.len()));
        }
        objects.sort_unstable_by_key(|(id, _, _)| *id);
        Checkpoint {
            roots: roots.to_vec(),
            objects,
            values,
            bytes,
        }
    }

    /// The roots this checkpoint was captured from.
    pub fn roots(&self) -> &[ObjId] {
        &self.roots
    }

    /// Number of objects captured.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Approximate captured payload size in bytes (Fig. 5's x-axis).
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Restores the heap region covered by this checkpoint: every captured
    /// object gets its captured field values back; reclaimed objects are
    /// resurrected. The heap maintains reference counts as it goes, so the
    /// cost is O(captured objects), not O(heap).
    ///
    /// This is the `replace(this, objgraph)` of Listing 2.
    pub fn restore(&self, heap: &mut Heap) {
        for (id, class, range) in &self.objects {
            let fields = &self.values[range.clone()];
            if heap.is_live(*id) {
                heap.restore_fields(*id, fields)
                    .expect("live object accepts restore");
            } else {
                heap.resurrect(*id, Object::from_parts(*class, fields.to_vec()));
            }
        }
    }

    /// Iterates over the captured objects in id order: id, class and
    /// captured field values.
    pub fn objects(&self) -> impl Iterator<Item = (ObjId, ClassId, &[Value])> {
        self.objects
            .iter()
            .map(|(id, class, range)| (*id, *class, &self.values[range.clone()]))
    }

    /// The captured field values of `id`, if captured.
    fn fields(&self, id: ObjId) -> Option<&[Value]> {
        let i = self
            .objects
            .binary_search_by_key(&id, |(id, _, _)| *id)
            .ok()?;
        Some(&self.values[self.objects[i].2.clone()])
    }

    /// Returns `true` iff `id` was captured.
    pub fn contains(&self, id: ObjId) -> bool {
        self.fields(id).is_some()
    }

    /// Convenience: the captured value of `field` on `id`, if captured.
    pub fn field(&self, id: ObjId, slot: usize) -> Option<&Value> {
        self.fields(id)?.get(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Snapshot;
    use atomask_mor::{Profile, Registry, RegistryBuilder, Vm};

    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Int(0));
        });
        rb.build()
    }

    fn chain(vm: &mut Vm, values: &[i64]) -> ObjId {
        let mut head = Value::Null;
        for &v in values.iter().rev() {
            let n = vm.alloc_raw("Node");
            vm.root(n);
            vm.heap_mut().set_field(n, "value", Value::Int(v)).unwrap();
            vm.heap_mut().set_field(n, "next", head.clone()).unwrap();
            if let Some(old) = head.as_ref_id() {
                vm.unroot(old);
            }
            head = Value::Ref(n);
        }
        head.as_ref_id().unwrap()
    }

    #[test]
    fn capture_covers_reachable_graph() {
        let mut vm = Vm::new(registry());
        let head = chain(&mut vm, &[1, 2, 3]);
        let cp = Checkpoint::capture(vm.heap(), &[head]);
        assert_eq!(cp.object_count(), 3);
        assert!(cp.byte_size() > 0);
        assert_eq!(cp.roots(), &[head]);
    }

    #[test]
    fn restore_reverts_field_mutations() {
        let mut vm = Vm::new(registry());
        let head = chain(&mut vm, &[1, 2]);
        let before = Snapshot::of(vm.heap(), head);
        let cp = Checkpoint::capture(vm.heap(), &[head]);
        vm.heap_mut()
            .set_field(head, "value", Value::Int(99))
            .unwrap();
        let next = vm.heap().field(head, "next").unwrap().as_ref_id().unwrap();
        vm.heap_mut()
            .set_field(next, "value", Value::Int(98))
            .unwrap();
        assert_ne!(Snapshot::of(vm.heap(), head), before);
        cp.restore(vm.heap_mut());
        assert_eq!(Snapshot::of(vm.heap(), head), before);
    }

    #[test]
    fn restore_reverts_structural_mutations() {
        let mut vm = Vm::new(registry());
        let head = chain(&mut vm, &[1, 2, 3]);
        let before = Snapshot::of(vm.heap(), head);
        let cp = Checkpoint::capture(vm.heap(), &[head]);
        // Drop the tail: [1] only.
        vm.heap_mut().set_field(head, "next", Value::Null).unwrap();
        cp.restore(vm.heap_mut());
        assert_eq!(Snapshot::of(vm.heap(), head), before);
    }

    #[test]
    fn restore_resurrects_reclaimed_objects() {
        let mut vm = Vm::new(registry());
        let head = chain(&mut vm, &[1, 2, 3]);
        let before = Snapshot::of(vm.heap(), head);
        let cp = Checkpoint::capture(vm.heap(), &[head]);
        // Unlink and reclaim the tail.
        vm.heap_mut().set_field(head, "next", Value::Null).unwrap();
        assert_eq!(vm.heap_mut().reclaim(), 2);
        cp.restore(vm.heap_mut());
        assert_eq!(Snapshot::of(vm.heap(), head), before);
    }

    #[test]
    fn restore_fixes_refcounts() {
        let mut vm = Vm::new(registry());
        let head = chain(&mut vm, &[1, 2]);
        let next = vm.heap().field(head, "next").unwrap().as_ref_id().unwrap();
        let cp = Checkpoint::capture(vm.heap(), &[head]);
        vm.heap_mut().set_field(head, "next", Value::Null).unwrap();
        assert_eq!(vm.heap().refcount(next), 0);
        cp.restore(vm.heap_mut());
        assert_eq!(vm.heap().refcount(next), 1);
    }

    #[test]
    fn objects_created_after_checkpoint_become_garbage_on_rollback() {
        let mut vm = Vm::new(registry());
        let head = chain(&mut vm, &[1]);
        let cp = Checkpoint::capture(vm.heap(), &[head]);
        // Simulate a failing method that inserted a node before throwing.
        let fresh = vm.alloc_raw("Node");
        vm.heap_mut()
            .set_field(head, "next", Value::Ref(fresh))
            .unwrap();
        cp.restore(vm.heap_mut());
        // fresh is unreachable and unrooted: refcount cleanup collects it.
        assert_eq!(vm.heap_mut().reclaim(), 1);
        assert!(!vm.heap().is_live(fresh));
        assert!(vm.heap().is_live(head));
    }

    #[test]
    fn cyclic_graphs_checkpoint_and_restore() {
        let mut vm = Vm::new(registry());
        let a = vm.alloc_raw("Node");
        let b = vm.alloc_raw("Node");
        vm.root(a);
        vm.heap_mut().set_field(a, "next", Value::Ref(b)).unwrap();
        vm.heap_mut().set_field(b, "next", Value::Ref(a)).unwrap();
        let before = Snapshot::of(vm.heap(), a);
        let cp = Checkpoint::capture(vm.heap(), &[a]);
        assert_eq!(cp.object_count(), 2);
        vm.heap_mut().set_field(b, "next", Value::Null).unwrap();
        cp.restore(vm.heap_mut());
        assert_eq!(Snapshot::of(vm.heap(), a), before);
    }

    #[test]
    fn multi_root_checkpoint_restores_arguments_too() {
        let mut vm = Vm::new(registry());
        let recv = chain(&mut vm, &[1]);
        let arg = chain(&mut vm, &[5]);
        let before = Snapshot::of_roots(vm.heap(), &[recv, arg]);
        let cp = Checkpoint::capture(vm.heap(), &[recv, arg]);
        vm.heap_mut()
            .set_field(arg, "value", Value::Int(6))
            .unwrap();
        cp.restore(vm.heap_mut());
        assert_eq!(Snapshot::of_roots(vm.heap(), &[recv, arg]), before);
    }
}
