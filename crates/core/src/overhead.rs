//! Fig. 5: masking overhead as a function of checkpointed object size and
//! the fraction of calls to wrapped (failure non-atomic) methods.
//!
//! The paper reports the *relative* slowdown of the corrected program over
//! the original, for a base method costing ≈0.5 µs, sweeping checkpoint
//! size and wrapped-call percentage, with each point the median of 40
//! runs. [`measure`] reproduces one point of that surface; `report fig5`
//! sweeps the full grid.

use crate::synthetic::perf_vm;
use atomask_mask::{MaskStrategy, WrapSet};
use atomask_mor::{MethodId, Registry, Vm};
use std::time::Instant;

/// One measured point of the Fig. 5 surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadSample {
    /// Checkpointed object payload size in bytes.
    pub object_bytes: usize,
    /// Percentage of calls that went to wrapped methods (0–100).
    pub wrapped_pct: u32,
    /// Median base (unmasked) time per call, nanoseconds.
    pub base_ns: f64,
    /// Median masked time per call, nanoseconds.
    pub masked_ns: f64,
}

impl OverheadSample {
    /// Relative processing-time overhead (masked / base).
    pub fn factor(&self) -> f64 {
        if self.base_ns <= 0.0 {
            return 1.0;
        }
        self.masked_ns / self.base_ns
    }
}

fn work_wrapped_gid(registry: &Registry) -> MethodId {
    let holder = registry.class_by_name("Holder").expect("perf registry");
    holder.methods[holder.method_slot("workWrapped").expect("method")].gid
}

fn run_calls(vm: &mut Vm, holder: atomask_mor::ObjId, calls: u32, wrapped_pct: u32) {
    for i in 0..calls {
        // Interleave wrapped and unwrapped calls at the requested ratio.
        let wrapped = (i as u64 * wrapped_pct as u64) % 100 + wrapped_pct as u64 >= 100;
        let method = if wrapped { "workWrapped" } else { "work" };
        vm.call(holder, method, &[]).expect("work cannot fail");
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    xs[xs.len() / 2]
}

/// Measures one point of the Fig. 5 surface: `calls` calls per run,
/// `runs` runs (the paper uses the median of 40), `wrapped_pct` percent of
/// the calls going to the masked method on an object weighing
/// `object_bytes`.
pub fn measure(object_bytes: usize, wrapped_pct: u32, calls: u32, runs: u32) -> OverheadSample {
    measure_with(
        MaskStrategy::DeepCopy,
        object_bytes,
        wrapped_pct,
        calls,
        runs,
    )
}

/// [`measure`] with an explicit wrapper [`MaskStrategy`] — the ablation of
/// the paper's §6.2 copy-on-write suggestion (`report fig5` prints it for
/// [`MaskStrategy::UndoLog`]).
pub fn measure_with(
    strategy: MaskStrategy,
    object_bytes: usize,
    wrapped_pct: u32,
    calls: u32,
    runs: u32,
) -> OverheadSample {
    let mut base = Vec::with_capacity(runs as usize);
    let mut masked = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        // Base: no hook at all (the original program).
        let (mut vm, holder) = perf_vm(object_bytes);
        let t0 = Instant::now();
        run_calls(&mut vm, holder, calls, wrapped_pct);
        base.push(t0.elapsed().as_nanos() as f64 / calls as f64);

        // Masked: atomicity wrapper on `workWrapped`.
        let (mut vm, holder) = perf_vm(object_bytes);
        let gid = work_wrapped_gid(vm.registry());
        let wrapped: WrapSet = [gid].into_iter().collect();
        vm.set_hook(Some(strategy.hook(wrapped)));
        let t0 = Instant::now();
        run_calls(&mut vm, holder, calls, wrapped_pct);
        masked.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    OverheadSample {
        object_bytes,
        wrapped_pct,
        base_ns: median(base),
        masked_ns: median(masked),
    }
}

/// The object-size axis of the paper's Fig. 5 sweep.
pub const OBJECT_SIZES: [usize; 5] = [64, 256, 1024, 4096, 16384];
/// The wrapped-call-percentage axis of the paper's Fig. 5 sweep.
pub const WRAPPED_PCTS: [u32; 5] = [0, 1, 10, 50, 100];

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mask::{MaskingHook, UndoMaskingHook};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What both wrappers around a 1 KiB [`perf_vm`] holder take over 400
    /// calls with `wrapped_pct` percent going to the wrapped method:
    /// deep-copy checkpoints, deep-copy bytes, undo-log journals.
    fn checkpoint_work(wrapped_pct: u32) -> (u64, u64, u64) {
        let (mut vm, holder) = perf_vm(1024);
        let gid = work_wrapped_gid(vm.registry());
        let deep = Rc::new(RefCell::new(MaskingHook::wrapping([gid])));
        vm.set_hook(Some(deep.clone()));
        run_calls(&mut vm, holder, 400, wrapped_pct);
        let (mut vm, holder) = perf_vm(1024);
        let undo = Rc::new(RefCell::new(UndoMaskingHook::wrapping([gid])));
        vm.set_hook(Some(undo.clone()));
        run_calls(&mut vm, holder, 400, wrapped_pct);
        let (deep, undo) = (deep.borrow().stats(), undo.borrow().stats());
        (deep.checkpoints, deep.bytes_checkpointed, undo.journals)
    }

    #[test]
    fn zero_wrapped_fraction_has_no_checkpoint_cost() {
        assert_eq!(checkpoint_work(0), (0, 0, 0), "nothing is wrapped at 0%");
        let (checkpoints, bytes, journals) = checkpoint_work(100);
        assert!(
            checkpoints > 0 && bytes > 0 && journals > 0,
            "every call is wrapped at 100%: {checkpoints} checkpoints, {bytes} bytes, {journals} journals"
        );
    }

    #[test]
    fn overhead_grows_with_wrapped_fraction() {
        let low = measure(4096, 1, 400, 5);
        let high = measure(4096, 100, 400, 5);
        assert!(
            high.masked_ns > low.masked_ns,
            "100% wrapped ({:.0}ns) should cost more than 1% ({:.0}ns)",
            high.masked_ns,
            low.masked_ns
        );
    }

    #[test]
    fn overhead_grows_with_object_size() {
        // A 16KiB checkpoint captures a 256-object chain where a 64B one
        // captures a single chunk, so the ordering is structural — but the
        // absolute times are small enough that a loaded scheduler can
        // still invert a single 5-run median. Re-measure a few times; the
        // ordering must hold at least once.
        let holds = (0..3).any(|_| {
            let small = measure(64, 100, 300, 5);
            let large = measure(16384, 100, 300, 5);
            large.masked_ns > small.masked_ns
        });
        assert!(holds, "16KiB checkpoints should cost more than 64B");
    }

    #[test]
    fn undo_log_beats_deep_copy_on_large_objects() {
        use atomask_mask::MaskStrategy;
        // A 16 KiB payload: the deep-copy wrapper clones it on every
        // wrapped call, the undo log only records the two field writes.
        let deep = measure_with(MaskStrategy::DeepCopy, 16384, 100, 300, 5);
        let undo = measure_with(MaskStrategy::UndoLog, 16384, 100, 300, 5);
        assert!(
            undo.masked_ns < deep.masked_ns,
            "undo log ({:.0}ns) should beat deep copy ({:.0}ns) at 16KiB",
            undo.masked_ns,
            deep.masked_ns
        );
    }

    #[test]
    fn factor_is_safe_on_degenerate_input() {
        let s = OverheadSample {
            object_bytes: 0,
            wrapped_pct: 0,
            base_ns: 0.0,
            masked_ns: 5.0,
        };
        assert_eq!(s.factor(), 1.0);
    }
}
