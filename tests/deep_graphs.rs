//! Graph depth must cost heap memory, never thread stack. A stack overflow
//! aborts the whole process — `catch_unwind` cannot turn it into a
//! `Panicked` outcome — so one long singly linked list in a guest program
//! would kill every campaign worker with it. Both graph walkers (the
//! canonical trace and the fingerprint) run here over a 100,000-node chain
//! on a thread with a 256 KiB stack, an eighth of a default spawned
//! thread's.

use atomask_suite::{
    fingerprint_of_roots, graph_fingerprint, FingerprintCache, ObjId, Profile, RegistryBuilder,
    Snapshot, Value, Vm,
};

const CHAIN: usize = 100_000;

/// Builds `head -> n1 -> ... -> n(CHAIN-1)` and returns the rooted head.
fn chain(vm: &mut Vm) -> ObjId {
    let head = vm.alloc_raw("Node");
    vm.root(head);
    let mut tail = head;
    for i in 1..CHAIN {
        let next = vm.alloc_raw("Node");
        let heap = vm.heap_mut();
        heap.set_field(next, "value", Value::Int(i as i64)).unwrap();
        heap.set_field(tail, "next", Value::Ref(next)).unwrap();
        tail = next;
    }
    head
}

#[test]
fn walkers_cross_a_long_chain_on_a_small_stack() {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let mut rb = RegistryBuilder::new(Profile::java());
            rb.class("Node", |c| {
                c.field("next", Value::Null);
                c.field("value", Value::Int(0));
            });
            let mut vm = Vm::new(rb.build());
            let head = chain(&mut vm);

            let before = Snapshot::of(vm.heap(), head);
            assert_eq!(before.object_count(), CHAIN);
            let before_fp = fingerprint_of_roots(vm.heap(), &[head]);

            // The exception path's walks: the live heap after a write, then
            // the as-of view of the layer, reusing the live walk's cache.
            vm.heap_mut().push_journal();
            vm.heap_mut()
                .set_field(head, "value", Value::Int(-1))
                .unwrap();
            let mut cache = FingerprintCache::new();
            let after_fp = graph_fingerprint(vm.heap(), &[head], &mut cache);
            assert_eq!(cache.len(), CHAIN);
            assert_ne!(after_fp, before_fp);
            let view = vm.heap().asof_innermost().expect("layer is open");
            assert_eq!(graph_fingerprint(&view, &[head], &mut cache), before_fp);
            assert_eq!(Snapshot::of_source(&view, &[head]), before);
            assert_ne!(Snapshot::of(vm.heap(), head), before);
            vm.heap_mut().abort_journal();
        })
        .expect("spawn the small-stack thread")
        .join()
        .expect("walkers finished without panicking");
}
