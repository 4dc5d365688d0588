//! The managed heap: objects, reference counts, roots, reclamation.
//!
//! Object ids are never reused, so checkpoints can restore reclaimed objects
//! at their original identity (needed by the masking phase's rollback).
//!
//! Reclamation is **deferred**: field writes adjust reference counts but
//! never free; garbage is only released by the explicit [`Heap::reclaim`]
//! (reference-count cascade, acyclic structures) and [`Heap::collect`]
//! (mark–sweep from roots, cyclic structures). This mirrors the paper's
//! §5.1: rolled-back objects are cleaned up with automatic reference
//! counting, and cyclic structures need an off-the-shelf garbage collector.
//! While a write-journal layer is open, [`Heap::reclaim`] only records its
//! garbage and the outermost layer's close releases it, so no object an
//! open layer's undo log or as-of view refers to can vanish under it.
//!
//! Reclamation costs what it touches, not the heap: a *zero-count
//! candidate table* remembers every object that lost its last reference or
//! root since the last reclaim, and the objects born since then are known
//! by an id watermark, so [`Heap::reclaim`] cascades from those alone.

use crate::class::ClassDef;
use crate::error::MorError;
use crate::fx::{FxHashMap, FxHashSet};
use crate::ids::{ClassId, ObjId};
use crate::registry::Registry;
use crate::trace::{RingBufferSink, TraceEvent};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// A heap object: its class and its field values in schema order.
#[derive(Debug, PartialEq)]
pub struct Object {
    class: ClassId,
    fields: Vec<Value>,
}

// Manual `Clone` so `clone_from` reuses the field vector's allocation:
// checkpoint restore clones whole object tables into recycled storage, and
// per-object reallocation would dominate the restore cost.
impl Clone for Object {
    fn clone(&self) -> Self {
        Object {
            class: self.class,
            fields: self.fields.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.class = source.class;
        self.fields.clone_from(&source.fields);
    }
}

impl Object {
    /// Creates an object from parts (used by checkpoint restore).
    pub fn from_parts(class: ClassId, fields: Vec<Value>) -> Self {
        Object { class, fields }
    }

    /// The object's class.
    pub fn class_id(&self) -> ClassId {
        self.class
    }

    /// Field values in schema order.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }
}

/// Counters describing heap activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects ever allocated.
    pub allocated: u64,
    /// Objects released by [`Heap::reclaim`] (reference counting).
    pub reclaimed: u64,
    /// Objects released by [`Heap::collect`] (mark–sweep).
    pub collected: u64,
}

/// The write journal: one flat undo log shared by every open layer.
///
/// A *layer* is a writes watermark into the shared `writes` log plus an
/// id watermark: the object-table length when the layer was pushed. The
/// entries recorded since the innermost writes watermark belong to the
/// innermost layer. Committing a layer therefore merges its entries into
/// the enclosing layer for free (pop the watermarks, keep the entries),
/// instead of moving `O(entries)` values per nesting level as a
/// per-layer-vector representation would.
///
/// Ids are dense and never reused, so an object was *born* under a layer
/// iff its raw id exceeds the layer's id watermark — an index comparison,
/// with no allocation log to keep.
#[derive(Debug, Default)]
struct JournalLog {
    /// `(object, field slot, previous value)` in write order, across all
    /// open layers.
    writes: Vec<(ObjId, usize, Value)>,
    /// Open layers, outermost first: `(writes watermark, id watermark)`
    /// at the moment the layer was pushed.
    layers: Vec<(usize, usize)>,
}

/// A structural copy of the whole heap at a quiescent boundary, captured
/// by [`Heap::checkpoint`] and reinstated by [`Heap::restore_checkpoint`].
/// Field values are `Rc`-shared with the heap they were captured from, so
/// the copy is O(live objects) refcount bumps plus the object table.
#[derive(Debug, Clone)]
pub struct HeapCheckpoint {
    objects: Vec<Option<Object>>,
    refcounts: Vec<usize>,
    root_counts: Vec<usize>,
    candidates: Vec<ObjId>,
    reclaim_mark: usize,
    live: usize,
    stats: HeapStats,
}

impl HeapCheckpoint {
    /// Number of live objects captured.
    pub fn live(&self) -> usize {
        self.live
    }
}

/// The managed heap.
///
/// Object storage is a dense vector indexed by raw id (ids are allocated
/// contiguously from 1 and never reused), so field reads and writes on the
/// sweep hot path are O(1) array accesses rather than tree lookups. A
/// released object leaves a `None` slot behind — its identity stays
/// reserved for checkpoint resurrection.
#[derive(Debug)]
pub struct Heap {
    registry: Rc<Registry>,
    /// Slot `i` holds the object with raw id `i + 1`, or `None` once it
    /// has been released.
    objects: Vec<Option<Object>>,
    /// Heap-reference counts (roots excluded), parallel to `objects`.
    refcounts: Vec<usize>,
    /// Root-reference counts, parallel to `objects` (the dispatch hot
    /// path roots/unroots the receiver and by-ref arguments on every
    /// call, so this is an array index, not a hash lookup).
    root_counts: Vec<usize>,
    /// Number of `Some` entries in `objects`.
    live: usize,
    stats: HeapStats,
    journal: JournalLog,
    /// Zero-count candidates: objects below `reclaim_mark` that a
    /// reference or root release left unreferenced and unrooted since the
    /// last reclaim. Entries may be stale or repeated; reclaim filters.
    /// Invariant: every live, unreferenced, unrooted object is listed here
    /// or has a storage index at or past `reclaim_mark`.
    candidates: Vec<ObjId>,
    /// Object-table length at the last reclaim. Objects born since are
    /// candidates by position, so allocation pushes nothing — and a run
    /// that never reclaims (mark 0) never pushes at all.
    reclaim_mark: usize,
    /// Garbage [`Heap::reclaim`] found while a journal layer was open,
    /// released when the outermost layer closes.
    pending_garbage: FxHashSet<ObjId>,
    /// Bumped by every operation that can change the object graph; see
    /// [`Heap::mutation_epoch`].
    mutations: u64,
    /// The run's flight recorder, when it records one; the VM starts,
    /// takes and drops it (see [`crate::Vm::start_trace`]).
    pub(crate) recorder: Option<RingBufferSink>,
}

/// Storage index of an id: ids are dense from 1, so slot = raw − 1.
/// `None` for the (unallocatable) raw id 0.
#[inline]
fn slot_index(id: ObjId) -> Option<usize> {
    (id.into_raw() as usize).checked_sub(1)
}

impl Heap {
    /// Creates an empty heap over the given registry.
    pub fn new(registry: Rc<Registry>) -> Self {
        Heap {
            registry,
            objects: Vec::new(),
            refcounts: Vec::new(),
            root_counts: Vec::new(),
            live: 0,
            stats: HeapStats::default(),
            journal: JournalLog::default(),
            candidates: Vec::new(),
            reclaim_mark: 0,
            pending_garbage: FxHashSet::default(),
            mutations: 0,
            recorder: None,
        }
    }

    /// A counter bumped by every operation that can change the object
    /// graph: field writes, allocations, rollbacks, restores, probes, and
    /// releases. Consumers memoizing derived graph data (e.g. structural
    /// fingerprints) compare epochs to detect staleness; an unchanged
    /// epoch guarantees the graph is byte-identical to when the memo was
    /// built.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutations
    }

    /// Resets the heap to its freshly-constructed state — all objects,
    /// roots, reference counts, journal layers, and stats are dropped and
    /// id allocation restarts at 1 — while retaining the storage
    /// capacity of the previous run. This is the reusable-universe reset:
    /// a recycled VM calls it between injection attempts instead of
    /// rebuilding a heap, so per-attempt cost is O(previous live set)
    /// drops with no fresh allocation.
    pub fn epoch_reset(&mut self) {
        self.objects.clear();
        self.refcounts.clear();
        self.root_counts.clear();
        self.live = 0;
        self.stats = HeapStats::default();
        self.journal.writes.clear();
        self.journal.layers.clear();
        self.candidates.clear();
        self.reclaim_mark = 0;
        self.pending_garbage.clear();
        self.mutations += 1;
    }

    /// Captures a structural copy of the entire heap: objects, reference
    /// counts, root counts, and allocation stats. O(live objects); field
    /// values are `Rc`-shared, so each copied value costs a refcount bump.
    ///
    /// # Panics
    ///
    /// Panics if a journal layer is open — checkpoints are only meaningful
    /// at quiescent top-level boundaries, where no undo state is pending.
    pub fn checkpoint(&self) -> HeapCheckpoint {
        assert!(
            self.journal.layers.is_empty(),
            "heap checkpoint with an open journal layer"
        );
        HeapCheckpoint {
            objects: self.objects.clone(),
            refcounts: self.refcounts.clone(),
            root_counts: self.root_counts.clone(),
            candidates: self.candidates.clone(),
            reclaim_mark: self.reclaim_mark,
            live: self.live,
            stats: self.stats,
        }
    }

    /// Reinstates a [`HeapCheckpoint`] wholesale, discarding the current
    /// contents. Storage is reused via `clone_from` (allocation-light on a
    /// recycled heap), any open journal layers are dropped, and the
    /// mutation epoch is bumped so memoized graph data (fingerprints) is
    /// invalidated rather than silently reused across the restore.
    pub fn restore_checkpoint(&mut self, ckpt: &HeapCheckpoint) {
        self.objects.clone_from(&ckpt.objects);
        self.refcounts.clone_from(&ckpt.refcounts);
        self.root_counts.clone_from(&ckpt.root_counts);
        self.candidates.clone_from(&ckpt.candidates);
        self.reclaim_mark = ckpt.reclaim_mark;
        self.live = ckpt.live;
        self.stats = ckpt.stats;
        self.journal.writes.clear();
        self.journal.layers.clear();
        self.pending_garbage.clear();
        self.mutations += 1;
    }

    /// Records `make()` on the flight recorder; with none running the
    /// event is never built. The VM's own events go through here too, so
    /// heap and VM events interleave in one stream.
    #[inline]
    pub(crate) fn trace(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(recorder) = &mut self.recorder {
            recorder.record(make());
        }
    }

    /// The registry this heap resolves classes against.
    pub fn registry(&self) -> &Rc<Registry> {
        &self.registry
    }

    /// Allocates a fresh instance of `class` with default field values.
    ///
    /// The new object starts with reference count zero and no roots; callers
    /// (normally the VM) must root it before anything can trigger
    /// reclamation.
    pub fn alloc(&mut self, class: &ClassDef) -> ObjId {
        let id = ObjId::from_raw(self.objects.len() as u64 + 1);
        let fields = class.default_fields();
        for v in &fields {
            if let Some(target) = v.as_ref_id() {
                self.inc_ref(target);
            }
        }
        self.objects.push(Some(Object {
            class: class.id,
            fields,
        }));
        self.refcounts.push(0);
        self.root_counts.push(0);
        self.live += 1;
        self.stats.allocated += 1;
        self.mutations += 1;
        self.trace(|| TraceEvent::HeapAlloc {
            obj: id,
            class: class.id,
        });
        id
    }

    /// Returns the object stored at `id`, if live.
    pub fn get(&self, id: ObjId) -> Option<&Object> {
        self.objects.get(slot_index(id)?)?.as_ref()
    }

    /// Returns `true` iff `id` denotes a live object.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` iff no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over all live objects in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &Object)> {
        self.objects
            .iter()
            .enumerate()
            .filter_map(|(i, o)| Some((ObjId::from_raw(i as u64 + 1), o.as_ref()?)))
    }

    /// Heap activity counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Reads a field by name.
    ///
    /// Returns `None` when the object is dead or the field does not exist.
    pub fn field(&self, id: ObjId, name: &str) -> Option<Value> {
        let obj = self.get(id)?;
        let class = self.registry.class(obj.class);
        let slot = class.field_slot(name)?;
        Some(obj.fields[slot].clone())
    }

    /// Reads a field by slot index.
    pub fn field_by_slot(&self, id: ObjId, slot: usize) -> Option<Value> {
        self.get(id)?.fields.get(slot).cloned()
    }

    /// Writes a field by name, maintaining reference counts.
    ///
    /// # Errors
    ///
    /// Returns [`MorError::DeadObject`] or [`MorError::UnknownField`].
    pub fn set_field(&mut self, id: ObjId, name: &str, value: Value) -> Result<(), MorError> {
        let class_id = self.get(id).ok_or(MorError::DeadObject(id))?.class;
        let class = self.registry.class(class_id);
        let slot = class
            .field_slot(name)
            .ok_or_else(|| MorError::UnknownField {
                class: class.name.clone(),
                field: name.to_owned(),
            })?;
        if let Some(target) = value.as_ref_id() {
            self.inc_ref(target);
        }
        let obj = self.get_slot_mut(id).expect("checked live above");
        let old = std::mem::replace(&mut obj.fields[slot], value);
        self.mutations += 1;
        // The undo record takes ownership of the displaced value — cloning
        // it here would put a deep `String` copy on every journaled write.
        let old_ref = old.as_ref_id();
        if !self.journal.layers.is_empty() {
            self.journal.writes.push((id, slot, old));
        }
        if let Some(target) = old_ref {
            self.dec_ref(target);
        }
        self.trace(|| TraceEvent::HeapWrite {
            obj: id,
            class: class_id,
            slot,
        });
        Ok(())
    }

    /// Adds a root reference to `id` (idempotent counting: every `root` must
    /// be paired with an [`Heap::unroot`]).
    pub fn root(&mut self, id: ObjId) {
        if let Some(n) = slot_index(id).and_then(|i| self.root_counts.get_mut(i)) {
            *n += 1;
        }
    }

    /// Removes one root reference from `id`.
    pub fn unroot(&mut self, id: ObjId) {
        let Some(i) = slot_index(id) else { return };
        if let Some(n) = self.root_counts.get_mut(i) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.note_if_unreferenced(i);
            }
        }
    }

    /// Number of root references on `id`.
    pub fn root_count(&self, id: ObjId) -> usize {
        slot_index(id)
            .and_then(|i| self.root_counts.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Current reference count of `id` (heap references only, roots not
    /// included).
    pub fn refcount(&self, id: ObjId) -> usize {
        slot_index(id)
            .and_then(|i| self.refcounts.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Releases every unrooted object whose reference count is zero,
    /// cascading through acyclic structures. Returns the number of objects
    /// released.
    ///
    /// This is the paper's reference-counting rollback cleanup (§5.1
    /// limitation 4); cyclic garbage survives and needs [`Heap::collect`].
    /// The cascade starts from [`Heap::reclaim_candidates`] only, so it
    /// costs the candidates and what they release, not a heap scan.
    ///
    /// While a journal layer is open this frees nothing and returns 0: it
    /// records the objects it would have released, and the outermost
    /// layer's close releases those still unrooted and unreferenced then.
    /// An enclosing layer's undo log and as-of view may still name them —
    /// a rollback inside an injection wrapper's extent must not punch a
    /// hole in the before-graph that wrapper reconstructs.
    pub fn reclaim(&mut self) -> usize {
        let roots = self.take_garbage_roots();
        if self.journal.layers.is_empty() {
            let freed = self.release(roots, None);
            // An unrestricted cascade leaves no unreferenced, unrooted
            // object behind: whatever it pushed is already released.
            self.candidates.clear();
            return freed;
        }
        let garbage = self.garbage(&roots);
        self.pending_garbage.extend(garbage);
        // Still garbage until something references them again, so the
        // next reclaim's dry run starts from every garbage root once more.
        self.candidates = roots;
        0
    }

    /// `true` iff `id` is live, unrooted and unreferenced.
    fn is_garbage(&self, id: ObjId) -> bool {
        self.is_live(id) && self.refcount(id) == 0 && self.root_count(id) == 0
    }

    /// Records storage index `i` as a zero-count candidate if it is
    /// unreferenced and unrooted and sits below the reclaim mark (objects
    /// past it are candidates by position). Called where a reference or a
    /// root is released. Should stale entries pile up to the mark's size,
    /// the table is dropped and the mark reset, so the next reclaim scans
    /// every object once instead.
    #[inline]
    fn note_if_unreferenced(&mut self, i: usize) {
        if i >= self.reclaim_mark || self.refcounts[i] != 0 || self.root_counts[i] != 0 {
            return;
        }
        if self.candidates.len() >= self.reclaim_mark {
            self.candidates.clear();
            self.reclaim_mark = 0;
        } else {
            self.candidates.push(ObjId::from_raw(i as u64 + 1));
        }
    }

    /// What the next [`Heap::reclaim`] starts from before it filters: the
    /// zero-count candidate table, then the objects born since the last
    /// reclaim. Every live, unreferenced, unrooted object is among them;
    /// entries may repeat or name objects that are no longer garbage.
    pub fn reclaim_candidates(&self) -> impl Iterator<Item = ObjId> + '_ {
        let born = (self.reclaim_mark..self.objects.len()).map(|i| ObjId::from_raw(i as u64 + 1));
        self.candidates.iter().copied().chain(born)
    }

    /// Every live, unrooted, unreferenced object, in id order. Empties the
    /// candidate table and moves the reclaim mark to the end of the object
    /// table.
    fn take_garbage_roots(&mut self) -> Vec<ObjId> {
        let mut roots: Vec<ObjId> = self
            .reclaim_candidates()
            .filter(|&id| self.is_garbage(id))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        self.candidates.clear();
        self.reclaim_mark = self.objects.len();
        roots
    }

    /// What an immediate [`Heap::reclaim`] would release, given every
    /// garbage root: the roots plus every object their release would leave
    /// unrooted and unreferenced. The dry run keeps the references it
    /// drops in a sparse overlay, so it costs the cascade, not the heap.
    fn garbage(&self, roots: &[ObjId]) -> Vec<ObjId> {
        let mut dropped: FxHashMap<usize, usize> = FxHashMap::default();
        let mut worklist = roots.to_vec();
        let mut garbage = Vec::new();
        let mut seen = FxHashSet::default();
        while let Some(id) = worklist.pop() {
            if !seen.insert(id) {
                continue;
            }
            garbage.push(id);
            let obj = self.get(id).expect("garbage candidates are live");
            for target in obj.fields.iter().filter_map(Value::as_ref_id) {
                let Some(i) = slot_index(target).filter(|&i| i < self.refcounts.len()) else {
                    continue;
                };
                let n = dropped.entry(i).or_default();
                *n += 1;
                if self.refcounts[i] <= *n && self.is_live(target) && self.root_count(target) == 0 {
                    worklist.push(target);
                }
            }
        }
        garbage
    }

    /// Releases the objects on `worklist`, cascading to every object their
    /// release leaves unrooted and unreferenced — restricted to `within`
    /// when given. Returns the number of objects released.
    fn release(&mut self, mut worklist: Vec<ObjId>, within: Option<&FxHashSet<ObjId>>) -> usize {
        let mut freed = 0;
        while let Some(id) = worklist.pop() {
            let idx = slot_index(id).expect("worklist ids are allocated");
            let Some(obj) = self.objects[idx].take() else {
                continue;
            };
            freed += 1;
            self.refcounts[idx] = 0;
            self.live -= 1;
            for v in obj.fields {
                if let Some(target) = v.as_ref_id() {
                    self.dec_ref(target);
                    if within.is_none_or(|set| set.contains(&target)) && self.is_garbage(target) {
                        worklist.push(target);
                    }
                }
            }
        }
        self.stats.reclaimed += freed as u64;
        if freed > 0 {
            self.mutations += 1;
        }
        freed
    }

    /// Releases the garbage deferred while journal layers were open
    /// (called when the outermost layer closes). Objects a rollback made
    /// reachable again in the meantime stay, and so does everything they
    /// reference.
    fn release_pending(&mut self) {
        if self.pending_garbage.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_garbage);
        let worklist = pending
            .iter()
            .copied()
            .filter(|&id| self.is_garbage(id))
            .collect();
        self.release(worklist, Some(&pending));
    }

    /// Mark–sweep collection from the root set. Releases cyclic garbage that
    /// [`Heap::reclaim`] cannot. Returns the number of objects released.
    ///
    /// Only call at points where no unrooted object ids are held by the
    /// embedding program (the VM guarantees this between top-level calls).
    pub fn collect(&mut self) -> usize {
        let mut marked: HashSet<ObjId> = HashSet::new();
        let mut stack: Vec<ObjId> = self
            .root_counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, _)| ObjId::from_raw(i as u64 + 1))
            .collect();
        while let Some(id) = stack.pop() {
            if !marked.insert(id) {
                continue;
            }
            if let Some(obj) = self.get(id) {
                for v in &obj.fields {
                    if let Some(target) = v.as_ref_id() {
                        if !marked.contains(&target) {
                            stack.push(target);
                        }
                    }
                }
            }
        }
        let dead: Vec<ObjId> = self
            .iter()
            .map(|(id, _)| id)
            .filter(|id| !marked.contains(id))
            .collect();
        let freed = dead.len();
        for id in dead {
            let idx = slot_index(id).expect("dead ids are allocated");
            self.objects[idx] = None;
            self.refcounts[idx] = 0;
            self.live -= 1;
        }
        if freed > 0 {
            self.recompute_refcounts();
            self.mutations += 1;
        }
        self.stats.collected += freed as u64;
        freed
    }

    /// Overwrites the full field vector of a live object **without**
    /// journaling, maintaining reference counts: the new fields' targets
    /// gain a reference, then the displaced ones lose theirs. Restore-only
    /// API (checkpoint rollback).
    pub fn restore_fields(&mut self, id: ObjId, fields: &[Value]) -> Result<(), MorError> {
        let obj = self.get(id).ok_or(MorError::DeadObject(id))?;
        assert_eq!(
            obj.fields.len(),
            fields.len(),
            "restore_fields: schema size mismatch for {id}"
        );
        for target in fields.iter().filter_map(Value::as_ref_id) {
            self.inc_ref(target);
        }
        for (slot, value) in fields.iter().enumerate() {
            let obj = self.get_slot_mut(id).expect("checked live above");
            let old = std::mem::replace(&mut obj.fields[slot], value.clone());
            if let Some(target) = old.as_ref_id() {
                self.dec_ref(target);
            }
        }
        self.mutations += 1;
        Ok(())
    }

    /// Re-inserts a previously reclaimed object at its original id; its
    /// fields' targets gain a reference. Its own count is left as the
    /// references restored so far made it (a released object had none).
    /// Restore-only API (checkpoint rollback).
    ///
    /// # Panics
    ///
    /// Panics if `id` is still live or was never allocated.
    pub fn resurrect(&mut self, id: ObjId, object: Object) {
        assert!(!self.is_live(id), "resurrect: {id} is live");
        let idx = slot_index(id).filter(|i| *i < self.objects.len());
        let idx = idx.unwrap_or_else(|| panic!("resurrect: {id} was never allocated"));
        for target in object.fields.iter().filter_map(Value::as_ref_id) {
            self.inc_ref(target);
        }
        self.objects[idx] = Some(object);
        self.live += 1;
        self.mutations += 1;
        self.note_if_unreferenced(idx);
    }

    /// Rebuilds every reference count by scanning the heap. Used after
    /// mark–sweep collection, and by tests as the reference the
    /// incremental counts must equal.
    pub fn recompute_refcounts(&mut self) {
        self.refcounts.iter_mut().for_each(|n| *n = 0);
        self.refcounts.resize(self.objects.len(), 0);
        let mut counts: Vec<usize> = std::mem::take(&mut self.refcounts);
        for obj in self.objects.iter().flatten() {
            for v in &obj.fields {
                if let Some(target) = v.as_ref_id() {
                    if let Some(i) = slot_index(target) {
                        counts[i] += 1;
                    }
                }
            }
        }
        self.refcounts = counts;
    }

    /// Opens a new write-journal layer: every subsequent field write and
    /// allocation is recorded until the layer is committed or aborted.
    /// Layers nest (each wrapped call gets its own); writes always go to
    /// the innermost open layer.
    ///
    /// This is the heap half of the *undo-log* masking strategy, the
    /// copy-on-write style optimization the paper's §6.2 suggests for very
    /// large objects: instead of eagerly deep-copying the receiver's
    /// graph, record the writes actually performed and replay them
    /// backwards on failure.
    pub fn push_journal(&mut self) {
        self.journal
            .layers
            .push((self.journal.writes.len(), self.objects.len()));
        let depth = self.journal.layers.len();
        self.trace(|| TraceEvent::JournalPush { depth });
    }

    /// Number of open journal layers.
    pub fn journal_depth(&self) -> usize {
        self.journal.layers.len()
    }

    /// Entries recorded in the innermost open layer (writes, allocations).
    pub fn journal_len(&self) -> (usize, usize) {
        self.journal
            .layers
            .last()
            .map(|&(w, born_from)| {
                (
                    self.journal.writes.len() - w,
                    self.objects.len() - born_from,
                )
            })
            .unwrap_or((0, 0))
    }

    /// Closes the innermost layer, keeping its effects. If an outer layer
    /// is open, the entries become part of it so an outer abort still
    /// undoes them — an `O(1)` watermark pop on the flat log, regardless
    /// of how many writes the layer recorded.
    ///
    /// # Panics
    ///
    /// Panics if no layer is open.
    pub fn commit_journal(&mut self) {
        let depth = self.journal.layers.len();
        self.trace(|| TraceEvent::JournalCommit { depth });
        self.journal
            .layers
            .pop()
            .expect("commit_journal: no open journal");
        if self.journal.layers.is_empty() {
            // Outermost layer closed: nothing can roll these entries back
            // any more, so release the log and the deferred garbage.
            self.journal.writes.clear();
            self.release_pending();
        }
    }

    /// Closes the innermost layer and rolls back every write it recorded,
    /// newest first. Objects allocated under the layer become garbage once
    /// the rollback drops the references to them (reclaim with
    /// [`Heap::reclaim`]). Returns the number of writes undone.
    ///
    /// # Panics
    ///
    /// Panics if no layer is open.
    pub fn abort_journal(&mut self) -> usize {
        let (writes_mark, _) = self
            .journal
            .layers
            .pop()
            .expect("abort_journal: no open journal");
        let undone = self.journal.writes.len() - writes_mark;
        let depth = self.journal.layers.len() + 1;
        self.trace(|| TraceEvent::JournalAbort { depth, undone });
        let rollback: Vec<(ObjId, usize, Value)> =
            self.journal.writes.drain(writes_mark..).collect();
        if undone > 0 {
            self.mutations += 1;
        }
        for (id, slot, old) in rollback.into_iter().rev() {
            // Bypass journaling (the net effect must not be re-recorded),
            // but maintain reference counts.
            if let Some(target) = old.as_ref_id() {
                self.inc_ref(target);
            }
            let obj = self
                .get_slot_mut(id)
                .expect("journaled object cannot die while its layer is open");
            let class = obj.class;
            let current = std::mem::replace(&mut obj.fields[slot], old);
            if let Some(target) = current.as_ref_id() {
                self.dec_ref(target);
            }
            self.trace(|| TraceEvent::UndoWrite {
                obj: id,
                class,
                slot,
            });
        }
        if self.journal.layers.is_empty() {
            self.release_pending();
        }
        undone
    }

    /// Read-only view of the heap **as it was when the innermost open
    /// journal layer was pushed**, reconstructed from the undo log.
    /// Returns `None` when no layer is open.
    ///
    /// This is the one place the layer's write log is collapsed: each
    /// written cell keeps its *first* recorded `old` value — its value at
    /// layer-open time — and later entries for the same cell are
    /// intra-layer noise. Objects allocated under the layer (raw id past
    /// the layer's id watermark) are absent from the view, and so are
    /// their cells: the collapse keeps only cells of objects that existed
    /// when the layer opened. [`AsOfHeap::node`], [`AsOfHeap::reverted`]
    /// and [`AsOfHeap::touched`] all answer from that one collapse, so a
    /// caller builds one view per question it asks of the layer, not one
    /// walk of the log per query. [`AsOfHeap::cells`], which also lists
    /// the layer-born cells, re-collapses the log when called.
    ///
    /// This is the paper's §6.2 capture optimization turned around: the
    /// detection wrapper's "deep copy before the call" becomes an
    /// `O(writes)` overlay over the live heap instead of an `O(graph)`
    /// eager snapshot.
    pub fn asof_innermost(&self) -> Option<AsOfHeap<'_>> {
        let &(writes_mark, born_from) = self.journal.layers.last()?;
        let writes = &self.journal.writes[writes_mark..];
        let (cells, written) = first_writes(writes, |id| !born_under(id, born_from));
        Some(AsOfHeap {
            heap: self,
            writes,
            born_from,
            cells,
            written,
        })
    }

    /// Overwrites one field slot **without** reference-count, journal, or
    /// trace maintenance. Probe-only API for the divergence minimizer:
    /// callers flip a cell to a hypothetical value, inspect the graph, and
    /// must restore the original value before any other heap activity.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or `slot` is out of schema range (host
    /// errors — probes only touch cells the journal recorded).
    pub fn probe_set_slot(&mut self, id: ObjId, slot: usize, value: Value) {
        let obj = self
            .get_slot_mut(id)
            .unwrap_or_else(|| panic!("probe_set_slot: dead object {id}"));
        obj.fields[slot] = value;
        self.mutations += 1;
    }

    #[inline]
    fn get_slot_mut(&mut self, id: ObjId) -> Option<&mut Object> {
        self.objects.get_mut(slot_index(id)?)?.as_mut()
    }

    #[inline]
    fn inc_ref(&mut self, id: ObjId) {
        if let Some(i) = slot_index(id) {
            if let Some(n) = self.refcounts.get_mut(i) {
                *n += 1;
            }
        }
    }

    #[inline]
    fn dec_ref(&mut self, id: ObjId) {
        let Some(i) = slot_index(id) else { return };
        if let Some(n) = self.refcounts.get_mut(i) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.note_if_unreferenced(i);
            }
        }
    }
}

/// `true` iff `id` was allocated after the object table held `born_from`
/// objects (ids are dense from 1 and never reused).
#[inline]
fn born_under(id: ObjId, born_from: usize) -> bool {
    id.into_raw() > born_from as u64
}

/// A layer-open cell: `(object, field slot, value at layer-open time)`.
type OpenCell<'h> = (ObjId, usize, &'h Value);

/// Collapses a layer's write log to its first write per cell, in
/// first-write order, over the objects `keep` admits; also returns the
/// indices of each kept object's cells.
fn first_writes(
    writes: &[(ObjId, usize, Value)],
    keep: impl Fn(ObjId) -> bool,
) -> (Vec<OpenCell<'_>>, HashMap<ObjId, Vec<usize>>) {
    let mut cells: Vec<OpenCell<'_>> = Vec::new();
    let mut written: HashMap<ObjId, Vec<usize>> = HashMap::new();
    for (id, slot, old) in writes.iter().filter(|(id, _, _)| keep(*id)) {
        let seen = written.entry(*id).or_default();
        if seen.iter().all(|&i| cells[i].1 != *slot) {
            seen.push(cells.len());
            cells.push((*id, *slot, old));
        }
    }
    (cells, written)
}

/// A read-only view of a [`Heap`] as of the innermost open journal layer
/// (see [`Heap::asof_innermost`]).
#[derive(Debug)]
pub struct AsOfHeap<'h> {
    heap: &'h Heap,
    /// The layer's slice of the write log.
    writes: &'h [(ObjId, usize, Value)],
    /// The layer's id watermark: objects with a larger raw id were born
    /// under the layer and are absent from the view.
    born_from: usize,
    /// First-write collapse of `writes` over the objects that existed at
    /// layer-open time.
    cells: Vec<OpenCell<'h>>,
    /// Indices into `cells` of each written pre-existing object's cells.
    written: HashMap<ObjId, Vec<usize>>,
}

impl<'h> AsOfHeap<'h> {
    /// The live heap this view reads through.
    pub fn heap(&self) -> &'h Heap {
        self.heap
    }

    /// The object's class and field values as of layer-open time, or
    /// `None` if the object did not exist then (allocated under the layer,
    /// or dead in the underlying heap).
    ///
    /// Objects live at layer-open time cannot have died since —
    /// [`Heap::reclaim`] defers every release until the outermost layer
    /// closes — so reading through the live heap plus the overlay is exact.
    pub fn node(&self, id: ObjId) -> Option<(ClassId, Vec<Value>)> {
        if born_under(id, self.born_from) {
            return None;
        }
        let obj = self.heap.get(id)?;
        let mut fields = obj.fields().to_vec();
        for &i in self.written.get(&id).into_iter().flatten() {
            let (_, slot, open_value) = self.cells[i];
            fields[slot] = open_value.clone();
        }
        Some((obj.class_id(), fields))
    }

    /// Returns `true` iff every cell of a pre-existing object the layer
    /// wrote currently holds **exactly** its layer-open value (bit-level
    /// float comparison, matching canonical-trace equality), i.e. the
    /// layer's net effect on pre-existing objects is nil. `O(written
    /// pre-existing cells)`; writes to layer-born objects (constructor
    /// initialization, mostly) are not looked at.
    ///
    /// When this holds, the object graph reachable from any root that
    /// existed at layer-open time is structurally identical to its
    /// layer-open state, so a before/after comparison can conclude
    /// *atomic* without walking the graph at all. Objects **allocated**
    /// under the layer cannot break this, whatever their fields hold:
    /// layer-open field values can only reference objects that already
    /// existed (ids are monotonic and never reused), so if every written
    /// pre-existing cell reads its layer-open value, no cell reachable
    /// from a pre-existing root references a layer-born object, and no
    /// layer-born cell is reachable. [`Heap::reclaim`] releases nothing
    /// while a layer is open, so no pre-existing object can have vanished
    /// either.
    pub fn reverted(&self) -> bool {
        self.cells.iter().all(|&(id, slot, open_value)| {
            self.heap
                .get(id)
                .is_some_and(|obj| obj.fields[slot].bit_eq(open_value))
        })
    }

    /// Returns `true` iff the layer wrote a field of `id` or allocated it.
    /// [`AsOfHeap::node`] of any other object equals the live heap's, so
    /// data memoized per object against the live heap (structural
    /// fingerprints) is still valid for this view.
    pub fn touched(&self, id: ObjId) -> bool {
        self.written.contains_key(&id) || born_under(id, self.born_from)
    }

    /// The layer's written cells in first-write order: `(object, field
    /// slot, value at layer-open time)`, one entry per cell, layer-born
    /// objects' cells included. The divergence minimizer probes subsets of
    /// exactly these cells. Collapses the layer's write log afresh on each
    /// call — `O(writes)`.
    pub fn cells(&self) -> Vec<(ObjId, usize, &'h Value)> {
        first_writes(self.writes, |_| true).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::registry::RegistryBuilder;

    fn node_registry() -> Rc<Registry> {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Int(0));
        });
        Rc::new(rb.build())
    }

    fn heap() -> Heap {
        Heap::new(node_registry())
    }

    fn alloc_node(h: &mut Heap) -> ObjId {
        let class = h.registry().class_by_name("Node").unwrap().clone();
        h.alloc(&class)
    }

    #[test]
    fn alloc_uses_schema_defaults() {
        let mut h = heap();
        let id = alloc_node(&mut h);
        assert_eq!(h.field(id, "next"), Some(Value::Null));
        assert_eq!(h.field(id, "value"), Some(Value::Int(0)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.stats().allocated, 1);
    }

    #[test]
    fn ids_are_never_reused() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.reclaim();
        assert!(!h.is_live(a));
        let b = alloc_node(&mut h);
        assert_ne!(a, b);
    }

    #[test]
    fn set_field_maintains_refcounts() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        h.root(a);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        assert_eq!(h.refcount(b), 1);
        h.set_field(a, "next", Value::Null).unwrap();
        assert_eq!(h.refcount(b), 0);
    }

    #[test]
    fn reclaim_cascades_through_chains() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        let c = alloc_node(&mut h);
        h.root(a);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.set_field(b, "next", Value::Ref(c)).unwrap();
        assert_eq!(h.reclaim(), 0, "everything reachable from root");
        h.set_field(a, "next", Value::Null).unwrap();
        assert_eq!(h.reclaim(), 2, "b and c cascade");
        assert!(h.is_live(a));
        assert_eq!(h.stats().reclaimed, 2);
    }

    #[test]
    fn reclaim_spares_rooted_objects() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        assert_eq!(h.reclaim(), 0);
        h.unroot(a);
        assert_eq!(h.reclaim(), 1);
    }

    #[test]
    fn refcounting_cannot_free_cycles_but_collect_can() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        h.root(a);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.set_field(b, "next", Value::Ref(a)).unwrap();
        h.unroot(a);
        // a and b refer to each other: refcounts never drop to zero.
        assert_eq!(h.reclaim(), 0);
        assert_eq!(h.len(), 2);
        // Mark-sweep from the (empty) root set frees both.
        assert_eq!(h.collect(), 2);
        assert!(h.is_empty());
        assert_eq!(h.stats().collected, 2);
    }

    #[test]
    fn collect_keeps_rooted_cycles() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        h.root(a);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.set_field(b, "next", Value::Ref(a)).unwrap();
        assert_eq!(h.collect(), 0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn resurrect_restores_identity() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let snapshot = h.get(a).unwrap().clone();
        h.reclaim();
        assert!(!h.is_live(a));
        h.resurrect(a, snapshot);
        assert!(h.is_live(a));
        assert_eq!(h.field(a, "value"), Some(Value::Int(0)));
    }

    #[test]
    #[should_panic(expected = "is live")]
    fn resurrect_live_object_panics() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let obj = h.get(a).unwrap().clone();
        h.resurrect(a, obj);
    }

    #[test]
    fn recompute_refcounts_matches_incremental() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        h.root(a);
        h.root(b);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.set_field(b, "next", Value::Ref(b)).unwrap(); // self loop
        let before: Vec<usize> = [a, b].iter().map(|id| h.refcount(*id)).collect();
        h.recompute_refcounts();
        let after: Vec<usize> = [a, b].iter().map(|id| h.refcount(*id)).collect();
        assert_eq!(before, after);
        assert_eq!(h.refcount(b), 2);
    }

    #[test]
    fn journal_abort_rolls_back_writes() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.set_field(a, "value", Value::Int(1)).unwrap();
        h.push_journal();
        h.set_field(a, "value", Value::Int(2)).unwrap();
        h.set_field(a, "value", Value::Int(3)).unwrap();
        assert_eq!(h.journal_len(), (2, 0));
        assert_eq!(h.abort_journal(), 2);
        assert_eq!(h.field(a, "value"), Some(Value::Int(1)));
        assert_eq!(h.journal_depth(), 0);
    }

    #[test]
    fn journal_commit_keeps_writes_and_merges() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal(); // outer
        h.set_field(a, "value", Value::Int(1)).unwrap();
        h.push_journal(); // inner
        h.set_field(a, "value", Value::Int(2)).unwrap();
        h.commit_journal(); // inner effects survive, but merge into outer
        assert_eq!(h.field(a, "value"), Some(Value::Int(2)));
        assert_eq!(h.journal_len(), (2, 0), "inner entries merged into outer");
        h.abort_journal(); // outer abort undoes both
        assert_eq!(h.field(a, "value"), Some(Value::Int(0)));
    }

    #[test]
    fn nested_abort_then_outer_abort() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal();
        h.set_field(a, "value", Value::Int(1)).unwrap();
        h.push_journal();
        h.set_field(a, "value", Value::Int(2)).unwrap();
        h.abort_journal(); // inner rollback
        assert_eq!(h.field(a, "value"), Some(Value::Int(1)));
        h.abort_journal(); // outer rollback
        assert_eq!(h.field(a, "value"), Some(Value::Int(0)));
    }

    #[test]
    fn journal_rollback_maintains_refcounts_and_garbage() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        let b = alloc_node(&mut h);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.push_journal();
        let c = alloc_node(&mut h);
        h.set_field(a, "next", Value::Ref(c)).unwrap();
        assert_eq!(h.refcount(b), 0);
        h.abort_journal();
        assert_eq!(h.refcount(b), 1, "b is referenced again after rollback");
        assert_eq!(h.refcount(c), 0, "c dropped by rollback");
        assert_eq!(h.reclaim(), 1, "c is garbage");
        assert!(h.is_live(b));
    }

    #[test]
    fn reclaim_defers_until_the_outermost_layer_closes() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        let b = alloc_node(&mut h);
        let c = alloc_node(&mut h);
        h.set_field(b, "next", Value::Ref(c)).unwrap();
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.push_journal(); // outer
        h.set_field(a, "next", Value::Null).unwrap();
        h.push_journal(); // inner
        assert_eq!(h.reclaim(), 0, "nothing is freed under an open layer");
        assert!(h.is_live(b) && h.is_live(c));
        // The as-of view of the outer layer still resolves b.
        h.commit_journal();
        let (_, fields) = h.asof_innermost().unwrap().node(a).unwrap();
        assert_eq!(fields[0], Value::Ref(b));
        // A later allocation is not part of the deferred garbage.
        let d = alloc_node(&mut h);
        h.commit_journal();
        assert!(!h.is_live(b) && !h.is_live(c), "b and c cascade at close");
        assert!(h.is_live(d), "only what reclaim found is released");
        assert_eq!(h.stats().reclaimed, 2);
    }

    #[test]
    fn deferred_garbage_made_reachable_again_survives() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        let b = alloc_node(&mut h);
        let c = alloc_node(&mut h);
        h.set_field(b, "next", Value::Ref(c)).unwrap();
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        h.push_journal();
        h.set_field(a, "next", Value::Null).unwrap();
        h.reclaim();
        // Rolling the layer back re-links b, so b and c stay.
        h.abort_journal();
        assert!(h.is_live(b) && h.is_live(c));
        assert_eq!(h.stats().reclaimed, 0);
    }

    #[test]
    #[should_panic(expected = "no open journal")]
    fn abort_without_journal_panics() {
        let mut h = heap();
        h.abort_journal();
    }

    #[test]
    fn asof_view_reconstructs_layer_open_state() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.set_field(a, "value", Value::Int(1)).unwrap();
        assert!(h.asof_innermost().is_none(), "no layer open");
        h.push_journal();
        h.set_field(a, "value", Value::Int(2)).unwrap();
        h.set_field(a, "value", Value::Int(3)).unwrap();
        let b = alloc_node(&mut h);
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        let asof = h.asof_innermost().unwrap();
        let (_, fields) = asof.node(a).unwrap();
        // First-write-wins: `value` reads 1 (the layer-open value, not 2),
        // `next` reads Null.
        assert_eq!(fields[1], Value::Int(1));
        assert_eq!(fields[0], Value::Null);
        // Objects allocated under the layer did not exist at layer open.
        assert!(asof.node(b).is_none());
    }

    #[test]
    fn asof_view_sees_through_inner_committed_layers() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal(); // outer (the observing wrapper's layer)
        h.set_field(a, "value", Value::Int(1)).unwrap();
        h.push_journal(); // inner (a nested wrapped call)
        h.set_field(a, "value", Value::Int(2)).unwrap();
        h.commit_journal(); // inner completes normally
        let asof = h.asof_innermost().unwrap();
        let (_, fields) = asof.node(a).unwrap();
        assert_eq!(
            fields[1],
            Value::Int(0),
            "committed inner writes still overlay back to the outer layer's open state"
        );
        h.commit_journal();
        assert_eq!(h.journal_len(), (0, 0));
    }

    #[test]
    fn epoch_reset_restores_pristine_state_and_id_sequence() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal();
        h.set_field(a, "value", Value::Int(7)).unwrap();
        h.epoch_reset();
        assert!(h.is_empty());
        assert_eq!(h.journal_depth(), 0);
        assert_eq!(h.root_count(a), 0);
        assert_eq!(h.stats(), HeapStats::default());
        // Id allocation restarts at 1, exactly like a fresh heap.
        let b = alloc_node(&mut h);
        assert_eq!(b.into_raw(), 1);
        assert_eq!(h.field(b, "value"), Some(Value::Int(0)));
    }

    #[test]
    fn mutation_epoch_tracks_graph_changes() {
        let mut h = heap();
        let e0 = h.mutation_epoch();
        let a = alloc_node(&mut h);
        h.root(a);
        let e1 = h.mutation_epoch();
        assert_ne!(e0, e1, "alloc bumps the epoch");
        h.set_field(a, "value", Value::Int(1)).unwrap();
        let e2 = h.mutation_epoch();
        assert_ne!(e1, e2, "writes bump the epoch");
        assert_eq!(
            h.field(a, "value"),
            Some(Value::Int(1)),
            "reads do not bump"
        );
        assert_eq!(h.mutation_epoch(), e2);
        h.push_journal();
        assert_eq!(h.mutation_epoch(), e2, "opening a layer is not a mutation");
        h.set_field(a, "value", Value::Int(2)).unwrap();
        let e3 = h.mutation_epoch();
        h.abort_journal();
        assert_ne!(h.mutation_epoch(), e3, "rollback bumps the epoch");
    }

    #[test]
    fn asof_view_reverted_detects_nil_net_effect() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal();
        assert!(h.asof_innermost().unwrap().reverted(), "no writes yet");
        h.set_field(a, "value", Value::Int(5)).unwrap();
        assert!(!h.asof_innermost().unwrap().reverted());
        h.set_field(a, "value", Value::Int(0)).unwrap();
        assert!(
            h.asof_innermost().unwrap().reverted(),
            "back to the layer-open value"
        );
        h.commit_journal();
    }

    #[test]
    fn asof_view_reverted_is_float_bit_exact() {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.class("F", |c| {
            c.field("x", Value::Float(0.0));
        });
        let mut h = Heap::new(Rc::new(rb.build()));
        let class = h.registry().class_by_name("F").unwrap().clone();
        let a = h.alloc(&class);
        h.root(a);
        h.push_journal();
        h.set_field(a, "x", Value::Float(-0.0)).unwrap();
        // -0.0 == 0.0 under PartialEq, but the canonical trace compares
        // float bits — the fast path must agree with the trace.
        assert!(!h.asof_innermost().unwrap().reverted());
        h.set_field(a, "x", Value::Float(0.0)).unwrap();
        assert!(h.asof_innermost().unwrap().reverted());
        h.commit_journal();
    }

    #[test]
    fn asof_view_touched_is_writes_plus_births() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        h.root(a);
        h.root(b);
        h.push_journal();
        h.set_field(a, "value", Value::Int(1)).unwrap();
        let c = alloc_node(&mut h);
        let view = h.asof_innermost().unwrap();
        assert!(view.touched(a), "written object");
        assert!(view.touched(c), "layer-born object");
        assert!(!view.touched(b), "untouched object stays clean");
        h.commit_journal();
    }

    #[test]
    fn asof_view_cells_collapse_first_write_wins() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        let b = alloc_node(&mut h);
        h.root(a);
        h.root(b);
        h.push_journal(); // outer
        h.set_field(b, "value", Value::Int(7)).unwrap();
        h.push_journal(); // inner
        h.set_field(a, "value", Value::Int(1)).unwrap();
        let c = alloc_node(&mut h);
        h.set_field(c, "value", Value::Int(4)).unwrap();
        h.set_field(b, "value", Value::Int(2)).unwrap();
        h.set_field(a, "value", Value::Int(3)).unwrap();
        h.set_field(c, "value", Value::Int(5)).unwrap();
        h.set_field(a, "next", Value::Ref(c)).unwrap();
        let view = h.asof_innermost().unwrap();
        let cells: Vec<(ObjId, usize, Value)> = view
            .cells()
            .into_iter()
            .map(|(id, slot, v)| (id, slot, v.clone()))
            .collect();
        assert_eq!(
            cells,
            vec![
                (a, 1, Value::Int(0)),
                (c, 1, Value::Int(0)),
                (b, 1, Value::Int(7)),
                (a, 0, Value::Null),
            ],
            "one entry per cell, layer-born cells included, first-write order, \
             inner-layer-open values"
        );
    }

    #[test]
    fn asof_view_reverted_ignores_layer_born_objects() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal();
        // The layer only allocates and initializes: its net effect on
        // pre-existing objects is nil, whatever the born objects hold.
        let b = alloc_node(&mut h);
        let c = alloc_node(&mut h);
        h.set_field(b, "value", Value::Int(4)).unwrap();
        h.set_field(b, "next", Value::Ref(c)).unwrap();
        h.set_field(c, "next", Value::Ref(a)).unwrap();
        let view = h.asof_innermost().unwrap();
        assert!(view.reverted(), "constructor writes are not a net effect");
        assert!(view.touched(b) && view.touched(c), "born objects");
        assert!(!view.touched(a), "a was neither written nor born");
        assert!(view.node(b).is_none() && view.node(c).is_none());
        h.commit_journal();
    }

    #[test]
    fn asof_view_linking_a_born_object_is_not_reverted_until_unlinked() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal();
        let b = alloc_node(&mut h);
        h.set_field(b, "value", Value::Int(4)).unwrap();
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        assert!(
            !h.asof_innermost().unwrap().reverted(),
            "a pre-existing cell now references a born object"
        );
        h.set_field(a, "next", Value::Null).unwrap();
        assert!(
            h.asof_innermost().unwrap().reverted(),
            "the pre-existing cell reads its layer-open value again"
        );
        h.commit_journal();
    }

    #[test]
    fn journal_len_counts_the_layers_allocations() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        h.push_journal(); // outer
        alloc_node(&mut h);
        h.push_journal(); // inner
        assert_eq!(h.journal_len(), (0, 0));
        let b = alloc_node(&mut h);
        h.set_field(b, "value", Value::Int(1)).unwrap();
        h.set_field(a, "next", Value::Ref(b)).unwrap();
        assert_eq!(h.journal_len(), (2, 1));
        h.commit_journal();
        assert_eq!(
            h.journal_len(),
            (2, 2),
            "inner allocations merge into outer"
        );
        h.commit_journal();
        assert_eq!(h.journal_len(), (0, 0));
    }

    #[test]
    fn set_field_on_dead_object_errors() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.reclaim();
        assert_eq!(
            h.set_field(a, "next", Value::Null),
            Err(MorError::DeadObject(a))
        );
    }

    #[test]
    fn set_unknown_field_errors() {
        let mut h = heap();
        let a = alloc_node(&mut h);
        h.root(a);
        assert!(matches!(
            h.set_field(a, "nope", Value::Null),
            Err(MorError::UnknownField { .. })
        ));
    }
}
