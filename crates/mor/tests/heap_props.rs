//! Property tests of the heap: reference counts always equal in-degrees,
//! reclamation frees exactly the unreachable acyclic garbage, mark–sweep
//! agrees with reachability, and journal abort is an exact inverse.

use atomask_mor::{Heap, ObjId, Profile, RegistryBuilder, Value, Vm};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc,
    Link(usize, usize, bool), // (from, to, left-or-right field)
    Unlink(usize, bool),
    Root(usize),
    Unroot(usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        2 => Just(HeapOp::Alloc),
        4 => (any::<usize>(), any::<usize>(), any::<bool>())
            .prop_map(|(a, b, f)| HeapOp::Link(a, b, f)),
        2 => (any::<usize>(), any::<bool>()).prop_map(|(a, f)| HeapOp::Unlink(a, f)),
        1 => any::<usize>().prop_map(HeapOp::Root),
        1 => any::<usize>().prop_map(HeapOp::Unroot),
    ]
}

fn fresh_vm() -> Vm {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    rb.class("N", |c| {
        c.field("l", Value::Null);
        c.field("r", Value::Null);
    });
    Vm::new(rb.build())
}

/// Applies ops; every allocated object is rooted once on allocation so the
/// scripts control liveness purely via Root/Unroot and links.
fn apply(vm: &mut Vm, ops: &[HeapOp]) -> Vec<ObjId> {
    let mut nodes = Vec::new();
    let mut extra_roots: Vec<ObjId> = Vec::new();
    for op in ops {
        match op {
            HeapOp::Alloc => {
                let id = vm.alloc_raw("N");
                vm.root(id);
                nodes.push(id);
            }
            HeapOp::Link(a, b, f) if !nodes.is_empty() => {
                let (x, y) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
                if vm.heap().is_live(x) && vm.heap().is_live(y) {
                    let field = if *f { "l" } else { "r" };
                    vm.heap_mut().set_field(x, field, Value::Ref(y)).unwrap();
                }
            }
            HeapOp::Unlink(a, f) if !nodes.is_empty() => {
                let x = nodes[a % nodes.len()];
                if vm.heap().is_live(x) {
                    let field = if *f { "l" } else { "r" };
                    vm.heap_mut().set_field(x, field, Value::Null).unwrap();
                }
            }
            HeapOp::Root(a) if !nodes.is_empty() => {
                let x = nodes[a % nodes.len()];
                vm.root(x);
                extra_roots.push(x);
            }
            HeapOp::Unroot(a) if !nodes.is_empty() => {
                let x = nodes[a % nodes.len()];
                // Only release roots we added beyond the allocation root.
                if let Some(pos) = extra_roots.iter().position(|&r| r == x) {
                    extra_roots.swap_remove(pos);
                    vm.unroot(x);
                }
            }
            _ => {}
        }
    }
    nodes
}

fn in_degrees(heap: &Heap) -> HashMap<ObjId, usize> {
    let mut deg = HashMap::new();
    for (_, obj) in heap.iter() {
        for v in obj.fields() {
            if let Value::Ref(t) = v {
                *deg.entry(*t).or_insert(0) += 1;
            }
        }
    }
    deg
}

fn reachable_from_roots(heap: &Heap) -> HashSet<ObjId> {
    let mut seen = HashSet::new();
    let mut stack: Vec<ObjId> = heap
        .iter()
        .map(|(id, _)| id)
        .filter(|id| heap.root_count(*id) > 0)
        .collect();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Some(obj) = heap.get(id) {
            for v in obj.fields() {
                if let Value::Ref(t) = v {
                    stack.push(*t);
                }
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reference counts always equal in-degrees, whatever the script does.
    #[test]
    fn refcounts_equal_in_degrees(ops in prop::collection::vec(heap_op(), 1..60)) {
        let mut vm = fresh_vm();
        apply(&mut vm, &ops);
        let deg = in_degrees(vm.heap());
        for (id, _) in vm.heap().iter() {
            prop_assert_eq!(
                vm.heap().refcount(id),
                deg.get(&id).copied().unwrap_or(0),
                "refcount mismatch on {}", id
            );
        }
    }

    /// Mark-sweep frees exactly the root-unreachable objects, and the
    /// refcounts it leaves behind are consistent again.
    #[test]
    fn collect_agrees_with_reachability(ops in prop::collection::vec(heap_op(), 1..60)) {
        let mut vm = fresh_vm();
        let nodes = apply(&mut vm, &ops);
        // Drop the allocation roots of a prefix of nodes to create garbage.
        for &n in nodes.iter().take(nodes.len() / 2) {
            vm.unroot(n);
        }
        let reachable = reachable_from_roots(vm.heap());
        let live_before = vm.heap().len();
        let freed = vm.heap_mut().collect();
        prop_assert_eq!(vm.heap().len(), reachable.len());
        prop_assert_eq!(freed, live_before - reachable.len());
        let deg = in_degrees(vm.heap());
        for (id, _) in vm.heap().iter() {
            prop_assert_eq!(vm.heap().refcount(id), deg.get(&id).copied().unwrap_or(0));
        }
    }

    /// reclaim() never frees a reachable object and never leaves acyclic
    /// garbage behind (anything it keeps is reachable or part of a cycle).
    #[test]
    fn reclaim_is_safe_and_complete(ops in prop::collection::vec(heap_op(), 1..60)) {
        let mut vm = fresh_vm();
        let nodes = apply(&mut vm, &ops);
        for &n in nodes.iter().take(nodes.len() / 2) {
            vm.unroot(n);
        }
        let reachable = reachable_from_roots(vm.heap());
        vm.heap_mut().reclaim();
        // Safety: everything reachable survived.
        for id in &reachable {
            prop_assert!(vm.heap().is_live(*id), "{} was reachable but reclaimed", id);
        }
        // Completeness up to cycles: survivors that are unreachable must
        // sit on (or hang off) a reference cycle, which mark-sweep removes.
        let survivors = vm.heap().len();
        let freed_by_gc = vm.heap_mut().collect();
        prop_assert_eq!(vm.heap().len(), reachable.len());
        prop_assert_eq!(survivors - freed_by_gc, reachable.len());
    }

    /// Journal abort after arbitrary journaled mutation restores every
    /// field exactly (spot-checked via full snapshot of all roots).
    #[test]
    fn journal_abort_is_exact(
        setup in prop::collection::vec(heap_op(), 1..30),
        inside in prop::collection::vec(heap_op(), 1..30),
    ) {
        use atomask_objgraph::Snapshot;
        let mut vm = fresh_vm();
        let nodes = apply(&mut vm, &setup);
        prop_assume!(!nodes.is_empty());
        let live: Vec<ObjId> = nodes.iter().copied()
            .filter(|n| vm.heap().is_live(*n)).collect();
        prop_assume!(!live.is_empty());
        let before = Snapshot::of_roots(vm.heap(), &live);
        vm.heap_mut().push_journal();
        // Journaled mutations: links/unlinks only (no new roots, so the
        // liveness set is stable).
        let mutations: Vec<HeapOp> = inside.into_iter()
            .filter(|op| matches!(op, HeapOp::Link(..) | HeapOp::Unlink(..) | HeapOp::Alloc))
            .collect();
        apply_on_existing(&mut vm, &live, &mutations);
        vm.heap_mut().abort_journal();
        prop_assert_eq!(Snapshot::of_roots(vm.heap(), &live), before);
    }
}

/// Applies link/unlink/alloc mutations against a fixed set of nodes.
fn apply_on_existing(vm: &mut Vm, nodes: &[ObjId], ops: &[HeapOp]) {
    for op in ops {
        match op {
            HeapOp::Alloc => {
                let id = vm.alloc_raw("N");
                vm.root(id);
            }
            HeapOp::Link(a, b, f) => {
                let (x, y) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
                let field = if *f { "l" } else { "r" };
                vm.heap_mut().set_field(x, field, Value::Ref(y)).unwrap();
            }
            HeapOp::Unlink(a, f) => {
                let x = nodes[a % nodes.len()];
                let field = if *f { "l" } else { "r" };
                vm.heap_mut().set_field(x, field, Value::Null).unwrap();
            }
            _ => {}
        }
    }
}

/// One step of a heap-bookkeeping script. Indices pick among the objects
/// allocated so far.
#[derive(Debug, Clone)]
enum Step {
    /// Allocate an object, rooted or not.
    Alloc(bool),
    Link(usize, usize, bool),
    Unlink(usize, bool),
    Root(usize),
    Unroot(usize),
    Push,
    Commit,
    Abort,
    Reclaim,
    Collect,
    /// Capture a deep-copy checkpoint of one object's graph.
    Capture(usize),
    /// Restore the last captured checkpoint.
    Restore,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => any::<bool>().prop_map(Step::Alloc),
        4 => (any::<usize>(), any::<usize>(), any::<bool>())
            .prop_map(|(a, b, f)| Step::Link(a, b, f)),
        3 => (any::<usize>(), any::<bool>()).prop_map(|(a, f)| Step::Unlink(a, f)),
        1 => any::<usize>().prop_map(Step::Root),
        2 => any::<usize>().prop_map(Step::Unroot),
        1 => Just(Step::Push),
        1 => Just(Step::Commit),
        1 => Just(Step::Abort),
        2 => Just(Step::Reclaim),
        1 => Just(Step::Collect),
        1 => any::<usize>().prop_map(Step::Capture),
        1 => Just(Step::Restore),
    ]
}

/// Fields `[l, r]` of a model object, as indices of the objects they
/// reference.
type Fields = [Option<usize>; 2];

/// The full-scan reference the heap's incremental bookkeeping must agree
/// with: the same objects, roots and write journal, with every reference
/// count derived by scanning and every reclaim starting from every object.
/// Object `i` is the heap's id `i + 1`.
#[derive(Debug, Default)]
struct Model {
    /// `None` once released.
    objects: Vec<Option<Fields>>,
    roots: Vec<usize>,
    /// `(object, field, previous value)` across all open layers.
    writes: Vec<(usize, usize, Option<usize>)>,
    /// Writes watermark of each open layer.
    layers: Vec<usize>,
    /// What reclaims inside open layers deferred.
    pending: BTreeSet<usize>,
}

impl Model {
    fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0; self.objects.len()];
        for t in self.objects.iter().flatten().flatten().flatten() {
            deg[*t] += 1;
        }
        deg
    }

    fn is_garbage(&self, deg: &[usize], i: usize) -> bool {
        self.objects[i].is_some() && deg[i] == 0 && self.roots[i] == 0
    }

    fn all_garbage(&self) -> Vec<usize> {
        let deg = self.in_degrees();
        (0..self.objects.len())
            .filter(|&i| self.is_garbage(&deg, i))
            .collect()
    }

    fn set(&mut self, i: usize, field: usize, value: Option<usize>) {
        let fields = self.objects[i].as_mut().expect("writes go to live objects");
        let old = std::mem::replace(&mut fields[field], value);
        if !self.layers.is_empty() {
            self.writes.push((i, field, old));
        }
    }

    /// Releases `worklist`, cascading to whatever each release leaves
    /// garbage (only inside `within`, if given); returns the count.
    fn release(&mut self, mut worklist: Vec<usize>, within: Option<&BTreeSet<usize>>) -> usize {
        let mut deg = self.in_degrees();
        let mut freed = 0;
        while let Some(i) = worklist.pop() {
            let Some(fields) = self.objects[i].take() else {
                continue;
            };
            freed += 1;
            for t in fields.into_iter().flatten() {
                deg[t] -= 1;
                if within.is_none_or(|w| w.contains(&t)) && self.is_garbage(&deg, t) {
                    worklist.push(t);
                }
            }
        }
        freed
    }

    /// Every object releasing all garbage now would release.
    fn cascade(&self) -> BTreeSet<usize> {
        let mut deg = self.in_degrees();
        let mut out = BTreeSet::new();
        let mut worklist = self.all_garbage();
        while let Some(i) = worklist.pop() {
            if !out.insert(i) {
                continue;
            }
            for t in self.objects[i]
                .expect("garbage is live")
                .into_iter()
                .flatten()
            {
                deg[t] = deg[t].saturating_sub(1);
                if deg[t] == 0 && self.objects[t].is_some() && self.roots[t] == 0 {
                    worklist.push(t);
                }
            }
        }
        out
    }

    fn reclaim(&mut self) -> usize {
        if self.layers.is_empty() {
            let garbage = self.all_garbage();
            return self.release(garbage, None);
        }
        let cascade = self.cascade();
        self.pending.extend(cascade);
        0
    }

    /// After the outermost layer closed: release the deferred garbage
    /// still garbage now, cascading only through deferred objects.
    fn closed(&mut self) {
        if !self.layers.is_empty() {
            return;
        }
        self.writes.clear();
        let pending = std::mem::take(&mut self.pending);
        let deg = self.in_degrees();
        let worklist = pending
            .iter()
            .copied()
            .filter(|&i| self.is_garbage(&deg, i))
            .collect();
        self.release(worklist, Some(&pending));
    }

    fn abort(&mut self) {
        let mark = self.layers.pop().expect("a layer is open");
        for (i, field, old) in self.writes.split_off(mark).into_iter().rev() {
            self.objects[i]
                .as_mut()
                .expect("journaled objects stay live")[field] = old;
        }
        self.closed();
    }

    fn collect(&mut self) -> usize {
        let mut marked = vec![false; self.objects.len()];
        let mut stack: Vec<usize> = (0..self.objects.len())
            .filter(|&i| self.roots[i] > 0 && self.objects[i].is_some())
            .collect();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut marked[i], true) {
                continue;
            }
            stack.extend(self.objects[i].iter().flatten().flatten());
        }
        let mut freed = 0;
        for (obj, marked) in self.objects.iter_mut().zip(marked) {
            if obj.is_some() && !marked {
                *obj = None;
                freed += 1;
            }
        }
        freed
    }

    /// The objects reachable from `i`, with their fields.
    fn capture(&self, i: usize) -> Vec<(usize, Fields)> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![i];
        while let Some(j) = stack.pop() {
            if let Some(fields) = self.objects[j] {
                if seen.insert(j) {
                    stack.extend(fields.into_iter().flatten());
                }
            }
        }
        seen.into_iter()
            .map(|j| (j, self.objects[j].expect("captured objects are live")))
            .collect()
    }
}

const FIELDS: [&str; 2] = ["l", "r"];

fn id(i: usize) -> ObjId {
    ObjId::from_raw(i as u64 + 1)
}

fn node_heap() -> Heap {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    rb.class("N", |c| {
        c.field("l", Value::Null);
        c.field("r", Value::Null);
    });
    Heap::new(std::rc::Rc::new(rb.build()))
}

/// Runs `steps` on a heap and on the model side by side. After every step
/// the two hold the same live objects, fields and roots, and every reclaim
/// and collect released as many objects in the heap as in the model; then
/// `check` inspects the pair.
fn run_script(steps: &[Step], check: impl Fn(&Step, &Heap, &Model)) {
    use atomask_objgraph::Checkpoint;
    let mut heap = node_heap();
    let class = heap.registry().class_by_name("N").unwrap().clone();
    let mut model = Model::default();
    let mut checkpoint: Option<(Checkpoint, Vec<(usize, Fields)>)> = None;
    for step in steps {
        let n = model.objects.len();
        let live = |k: usize| (n > 0 && model.objects[k % n].is_some()).then(|| k % n);
        match *step {
            Step::Alloc(rooted) => {
                let new = heap.alloc(&class);
                assert_eq!(new, id(n));
                model.objects.push(Some([None, None]));
                model.roots.push(usize::from(rooted));
                if rooted {
                    heap.root(new);
                }
            }
            Step::Link(a, b, f) => {
                if let (Some(i), Some(j)) = (live(a), live(b)) {
                    heap.set_field(id(i), FIELDS[usize::from(f)], Value::Ref(id(j)))
                        .unwrap();
                    model.set(i, usize::from(f), Some(j));
                }
            }
            Step::Unlink(a, f) => {
                if let Some(i) = live(a) {
                    heap.set_field(id(i), FIELDS[usize::from(f)], Value::Null)
                        .unwrap();
                    model.set(i, usize::from(f), None);
                }
            }
            Step::Root(a) => {
                if let Some(i) = live(a) {
                    heap.root(id(i));
                    model.roots[i] += 1;
                }
            }
            Step::Unroot(a) => {
                if let Some(i) = live(a).filter(|&i| model.roots[i] > 0) {
                    heap.unroot(id(i));
                    model.roots[i] -= 1;
                }
            }
            Step::Push => {
                heap.push_journal();
                model.layers.push(model.writes.len());
            }
            Step::Commit if !model.layers.is_empty() => {
                heap.commit_journal();
                model.layers.pop();
                model.closed();
            }
            Step::Abort if !model.layers.is_empty() => {
                heap.abort_journal();
                model.abort();
            }
            Step::Reclaim => assert_eq!(heap.reclaim(), model.reclaim(), "released by reclaim"),
            // Mark–sweep ignores the journal; it only runs at depth 0.
            Step::Collect if model.layers.is_empty() => {
                assert_eq!(heap.collect(), model.collect(), "released by collect");
            }
            Step::Capture(a) => {
                if let Some(i) = live(a) {
                    checkpoint = Some((Checkpoint::capture(&heap, &[id(i)]), model.capture(i)));
                }
            }
            Step::Restore => {
                if let Some((cp, captured)) = &checkpoint {
                    cp.restore(&mut heap);
                    for &(j, fields) in captured {
                        model.objects[j] = Some(fields);
                    }
                }
            }
            Step::Commit | Step::Abort | Step::Collect => {}
        }
        for (i, obj) in model.objects.iter().enumerate() {
            let fields = obj.map(|f| f.map(|t| t.map_or(Value::Null, |t| Value::Ref(id(t)))));
            let heap_fields = heap
                .get(id(i))
                .map(|o| [o.fields()[0].clone(), o.fields()[1].clone()]);
            assert_eq!(heap_fields, fields, "object {} after {step:?}", id(i));
            assert_eq!(heap.root_count(id(i)), model.roots[i], "roots of {}", id(i));
        }
        check(step, &heap, &model);
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(step(), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every live object with no references and no roots is in the
    /// candidate table or born since the last reclaim, whatever released
    /// its last reference or root.
    #[test]
    fn unreferenced_objects_are_reclaim_candidates(steps in steps()) {
        run_script(&steps, |step, heap, model| {
            let candidates: HashSet<ObjId> = heap.reclaim_candidates().collect();
            for i in model.all_garbage() {
                prop_assert!(candidates.contains(&id(i)), "{} missed after {:?}", id(i), step);
            }
        });
    }

    /// Reclaim releases exactly what the full-scan model releases, on the
    /// immediate path and on the deferred path at the outermost close
    /// (`run_script` compares the live sets after every step).
    #[test]
    fn reclaim_frees_what_a_full_scan_frees(steps in steps()) {
        run_script(&steps, |_, heap, model| {
            prop_assert_eq!(heap.len(), model.objects.iter().flatten().count());
        });
    }

    /// Restoring a checkpoint maintains every reference count (dead
    /// objects' included) equal to a recount from scratch.
    #[test]
    fn restore_keeps_refcounts_equal_to_a_recount(steps in steps()) {
        run_script(&steps, |step, heap, model| {
            let deg = model.in_degrees();
            for (i, &d) in deg.iter().enumerate() {
                prop_assert_eq!(heap.refcount(id(i)), d, "count of {} after {:?}", id(i), step);
            }
        });
    }
}
