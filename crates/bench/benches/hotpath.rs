//! Hot-path micro-benchmarks for the sweep-throughput engine: the heap
//! write journal (push/write/abort and epoch reset), incremental graph
//! fingerprints over as-of views with few touched objects, and the
//! injection wrapper's fast-forward point counting on disarmed calls.
//! These are the inner loops whose constants set the detection campaign's
//! points/sec.

use atomask::synthetic::perf_vm;
use atomask::{CaptureMode, InjectionHook};
use atomask_mor::{ObjId, Profile, RegistryBuilder, Value, Vm};
use atomask_objgraph::{graph_fingerprint, FingerprintCache};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

/// A VM whose heap holds a rooted singly linked list of `n` nodes; returns
/// the head and a node from the middle of the list.
fn list_vm(n: usize) -> (Vm, ObjId, ObjId) {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    rb.class("Node", |c| {
        c.field("val", Value::Int(0));
        c.field("next", Value::Null);
        c.ctor(|_, _, _| Ok(Value::Null));
    });
    let mut vm = Vm::new(rb.build());
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let id = vm.construct("Node", &[]).expect("ctor cannot fail");
        vm.heap_mut()
            .set_field(id, "val", Value::Int(i as i64))
            .unwrap();
        if let Some(&prev) = ids.last() {
            vm.heap_mut()
                .set_field(prev, "next", Value::Ref(id))
                .unwrap();
        }
        ids.push(id);
    }
    let head = ids[0];
    vm.root(head);
    (vm, head, ids[n / 2])
}

fn bench_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("heap_journal");
    // The lazy-capture wrapper's skeleton: open a layer, do a method's
    // worth of writes, throw it away (exception path) or keep it.
    group.bench_function("push_write8_abort", |b| {
        let (mut vm, h) = perf_vm(64);
        b.iter(|| {
            let heap = vm.heap_mut();
            heap.push_journal();
            for i in 0..8 {
                heap.set_field(h, "a", Value::Int(i)).unwrap();
            }
            black_box(heap.abort_journal())
        });
    });
    // Level-1 of the lazy comparison: writes that net out to nil, detected
    // in O(writes) without touching the object graph.
    group.bench_function("push_write_revert_check", |b| {
        let (mut vm, h) = perf_vm(64);
        let original = vm.heap().field(h, "a").unwrap();
        b.iter(|| {
            let heap = vm.heap_mut();
            heap.push_journal();
            heap.set_field(h, "a", Value::Int(77)).unwrap();
            heap.set_field(h, "a", original.clone()).unwrap();
            let reverted = heap.asof_innermost().expect("layer is open").reverted();
            heap.abort_journal();
            black_box(reverted)
        });
    });
    // The recycled-universe reset: how fast a populated heap returns to
    // the pristine epoch (Vec capacity is retained across resets).
    group.bench_function("construct16_epoch_reset", |b| {
        let (mut vm, _) = perf_vm(64);
        vm.heap_mut().epoch_reset();
        b.iter(|| {
            for _ in 0..16 {
                vm.construct("Holder", &[]).expect("ctor cannot fail");
            }
            vm.heap_mut().epoch_reset();
        });
    });
    group.finish();
}

fn bench_fingerprint(c: &mut Criterion) {
    const NODES: usize = 256;
    let mut group = c.benchmark_group("fingerprint");
    // Cold: every node hashed from scratch (the price of a cache miss).
    group.bench_function("cold_256", |b| {
        let (vm, head, _) = list_vm(NODES);
        let roots = [head];
        b.iter(|| {
            let mut cache = FingerprintCache::new();
            black_box(graph_fingerprint(vm.heap(), &roots, &mut cache))
        });
    });
    // Warm as-of walk with one touched node: the exception path's
    // before-fingerprint after a typical small write set, over a cache the
    // after-walk filled from the live heap.
    group.bench_function("warm_dirty1_of_256", |b| {
        let (mut vm, head, mid) = list_vm(NODES);
        vm.heap_mut().push_journal();
        vm.heap_mut().set_field(mid, "val", Value::Int(-1)).unwrap();
        let roots = [head];
        let mut cache = FingerprintCache::new();
        graph_fingerprint(vm.heap(), &roots, &mut cache);
        let view = vm.heap().asof_innermost().expect("layer is open");
        b.iter(|| black_box(graph_fingerprint(&view, &roots, &mut cache)));
    });
    // Fully warm live walk: the floor (walk + cache reads only).
    group.bench_function("warm_clean_256", |b| {
        let (vm, head, _) = list_vm(NODES);
        let roots = [head];
        let mut cache = FingerprintCache::new();
        graph_fingerprint(vm.heap(), &roots, &mut cache);
        b.iter(|| black_box(graph_fingerprint(vm.heap(), &roots, &mut cache)));
    });
    group.finish();
}

fn bench_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_counting");
    // One hooked call far below the armed window, with fast-forward's
    // single arithmetic step vs. Listing 1's literal per-type loop.
    for ff in [true, false] {
        let label = if ff { "fast_forward" } else { "per_type_loop" };
        group.bench_with_input(BenchmarkId::new("disarmed_call", label), &ff, |b, &ff| {
            let (mut vm, h) = perf_vm(64);
            let hook = InjectionHook::with_injection_point(u64::MAX)
                .capture(CaptureMode::Lazy)
                .fast_forward(ff);
            vm.set_hook(Some(Rc::new(RefCell::new(hook))));
            b.iter(|| black_box(vm.call(h, "work", &[]).unwrap()));
        });
    }
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    // The recording run's per-boundary cost: a structural copy of the
    // whole live heap (O(live objects), clone_from into a fresh buffer).
    for nodes in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::new("capture", nodes), &nodes, |b, &nodes| {
            let (vm, _, _) = list_vm(nodes);
            b.iter(|| black_box(vm.checkpoint()));
        });
        // The resumed run's setup cost: clone_from back into the live heap
        // (allocation-light — buffers are recycled across restores).
        group.bench_with_input(BenchmarkId::new("restore", nodes), &nodes, |b, &nodes| {
            let (mut vm, _, _) = list_vm(nodes);
            let cp = vm.checkpoint();
            b.iter(|| {
                vm.restore(black_box(&cp));
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_journal,
    bench_fingerprint,
    bench_fast_forward,
    bench_checkpoint
);
criterion_main!(benches);
