//! The measured legs — the Fig. 1 loop, detection sweeps, and fault-free
//! driver runs of `P` and `P_C`, one application per unit of work — plus
//! the traced run's layer probes. Every layer call goes through the
//! [`Tracer`], which times it and, in a traced run, keeps its span.

use crate::spans::Tracer;
use crate::Rng;
use atomask::apps::AppSpec;
use atomask::{
    classify, fingerprint_of_roots, verify_masked_configured, Campaign, CampaignConfig,
    CaptureMode, Checkpoint, CheckpointStride, Classification, FnProgram, Heap, MaskStats,
    MaskStrategy, MaskingHook, MethodId, MethodResult, ObjId, Policy, Program, Registry, RunHealth,
    Snapshot, TraceMode, UndoMaskingHook, UndoStats, Verdict, Vm,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Duration;

/// Workers of every timed campaign (detection and verification), as
/// `atomask verify` runs them per app. A second worker only runs in
/// parallel when the host grants the process a second CPU, which a shared
/// host does for some minutes and not for others; a 2-worker wall time
/// then measures the host, not the program.
pub const WORKERS: usize = 1;
/// Workers of the traced run's sharder probe (`nproc` on the reference
/// host), the denominator of `inject.shard_speedup`.
pub const SHARD_WORKERS: usize = 2;
/// 2-worker detections per application in the sharder probe; the median
/// is reported.
pub const SHARD_REPS: usize = 3;
/// Repetitions of each layer probe; the median is reported.
pub const PROBE_REPS: usize = 31;

/// The default engine with every knob pinned, so no environment variable
/// can change what is measured: lazy capture, checkpoint-resume at the
/// automatic stride, no flight recorder.
pub fn campaign_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        workers,
        capture: CaptureMode::Lazy,
        trace: TraceMode::Off,
        checkpoint_stride: CheckpointStride::Auto,
        ..CampaignConfig::default()
    }
}

/// What a fault-free run of the unmasked program `P` produced.
#[derive(Debug)]
pub struct Reference {
    /// The driver's return value.
    pub result: MethodResult,
    /// `fingerprint_of_roots` over the final root set.
    pub fingerprint: u64,
    /// Live heap objects after the run.
    pub heap_objects: usize,
}

/// One suite application, ready to run.
pub struct App {
    /// Table 1 row name.
    pub name: &'static str,
    /// The test program `P`.
    pub program: FnProgram,
    /// Registry shared by the driver runs.
    pub registry: Rc<Registry>,
    /// Fault-free behaviour of `P`.
    pub reference: Reference,
}

/// The explicitly rooted objects of `heap`, in id order.
pub fn final_roots(heap: &Heap) -> Vec<ObjId> {
    heap.iter()
        .map(|(id, _)| id)
        .filter(|&id| heap.root_count(id) > 0)
        .collect()
}

/// Builds every application's registry and records `P`'s fault-free
/// reference behaviour: the benchmark's set-up.
pub fn setup(specs: &[AppSpec], tracer: &mut Tracer) -> Vec<App> {
    specs
        .iter()
        .map(|spec| {
            let program = spec.program();
            let open = tracer.open("apps.build_registry", spec.name);
            let registry = Rc::new(program.build_registry());
            tracer.close(open);
            let mut vm = Vm::from_shared_registry(registry.clone());
            let result = program.run(&mut vm);
            let roots = final_roots(vm.heap());
            let reference = Reference {
                result,
                fingerprint: fingerprint_of_roots(vm.heap(), &roots),
                heap_objects: vm.heap().len(),
            };
            App {
                name: spec.name,
                program,
                registry,
                reference,
            }
        })
        .collect()
}

/// Operation tally and failed output checks of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Campaign runs (detection or verification) plus driver runs.
    pub attempted: u64,
    /// Diverged, panicked or skipped campaign runs, and driver runs that
    /// returned `Err`.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Books every run of a campaign.
    pub fn campaign(&mut self, health: &RunHealth) {
        self.attempted += health.total();
        self.failed += health.unhealthy();
    }

    /// Records a failed output check unless `ok`; a repeated failure is
    /// listed once.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            let problem = problem();
            if !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
    }
}

/// Per-method verdicts and point count of one detection campaign; every
/// detection of an application must agree with its first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdicts {
    points: u64,
    verdicts: Vec<Option<Verdict>>,
}

impl Verdicts {
    fn of(points: u64, c: &Classification) -> Self {
        Verdicts {
            points,
            verdicts: c.methods.iter().map(|m| m.verdict).collect(),
        }
    }
}

/// Stage times of one application's Fig. 1 loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `Campaign::run` (detection).
    pub detect: Duration,
    /// `classify`.
    pub classify: Duration,
    /// `Policy::mask_set`.
    pub mask_set: Duration,
    /// `verify_masked_configured` (DeepCopy).
    pub verify: Duration,
    /// The enclosing `core.pipeline` span.
    pub total: Duration,
}

/// Counts from an application's first Fig. 1 loop.
#[derive(Debug, Clone)]
pub struct PipelineFacts {
    /// Methods the policy wraps.
    pub mask_set: HashSet<MethodId>,
    /// Total injection points.
    pub points: u64,
    /// Baseline dynamic calls.
    pub baseline_calls: u64,
    /// Run health of the verification campaign.
    pub verify_health: RunHealth,
}

/// The three measured legs. A unit of work is one application's Fig. 1
/// loop, one application's detection sweep, or one application's three
/// driver runs (`P`, `P_C` DeepCopy, `P_C` UndoLog in shuffled order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// `Campaign::run` → `classify` → `Policy::mask_set` →
    /// `verify_masked_configured`, one worker.
    Pipeline = 0,
    /// `Campaign::run` at [`WORKERS`] workers.
    Detect = 1,
    /// Fault-free driver runs of `P` and `P_C`.
    Runtime = 2,
}

impl Leg {
    /// Every leg, in index order.
    pub const ALL: [Leg; 3] = [Leg::Pipeline, Leg::Detect, Leg::Runtime];
}

/// The state a run accumulates.
pub struct Bench {
    /// Applications in this run's (seeded) order.
    pub apps: Vec<App>,
    /// Timer and span store.
    pub tracer: Tracer,
    /// Operations and failed checks.
    pub ledger: Ledger,
    /// First detection verdicts per application.
    verdicts: Vec<Option<Verdicts>>,
    /// Fig. 1 loop samples, per application.
    pub pipeline: Vec<Vec<StageTimes>>,
    /// Facts from the first Fig. 1 loop, per application.
    pub facts: Vec<Option<PipelineFacts>>,
    /// Detection-sweep samples, per application.
    pub detect: Vec<Vec<Duration>>,
    /// Detection-sweep run health, per application.
    pub detect_health: Vec<Option<RunHealth>>,
    /// Driver-run samples per application and [`Variant`].
    pub runtime: Vec<[Vec<Duration>; 3]>,
    /// Masking counters of one `P_C` (DeepCopy) run, per application.
    pub mask_stats: Vec<Option<MaskStats>>,
    /// Undo-log counters of one `P_C` (UndoLog) run, per application.
    pub undo_stats: Vec<Option<UndoStats>>,
    /// Final-root fingerprint of the first `P_C` run, per application.
    pc_fingerprint: Vec<Option<u64>>,
}

/// The program variant a driver run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The original program `P`, no hook.
    Plain = 0,
    /// `P_C` under [`MaskingHook`] (Listing 2 deep copy).
    DeepCopy = 1,
    /// `P_C` under [`UndoMaskingHook`] (§6.2 undo log).
    UndoLog = 2,
}

impl Variant {
    fn span(self) -> &'static str {
        match self {
            Variant::Plain => "mor.driver_run",
            Variant::DeepCopy => "mask.pc_deepcopy_run",
            Variant::UndoLog => "mask.pc_undo_run",
        }
    }
}

impl Bench {
    /// A run over `apps`, keeping spans iff `tracer` records.
    pub fn new(apps: Vec<App>, tracer: Tracer, ledger: Ledger) -> Self {
        let n = apps.len();
        Bench {
            apps,
            tracer,
            ledger,
            verdicts: vec![None; n],
            pipeline: vec![Vec::new(); n],
            facts: vec![None; n],
            detect: vec![Vec::new(); n],
            detect_health: vec![None; n],
            runtime: (0..n).map(|_| Default::default()).collect(),
            mask_stats: vec![None; n],
            undo_stats: vec![None; n],
            pc_fingerprint: vec![None; n],
        }
    }

    /// Samples taken so far of `leg` on application `i`.
    pub fn samples(&self, leg: Leg, i: usize) -> usize {
        match leg {
            Leg::Pipeline => self.pipeline[i].len(),
            Leg::Detect => self.detect[i].len(),
            Leg::Runtime => self.runtime[i][0].len(),
        }
    }

    /// Runs one unit of `leg` on application `i` and returns its wall
    /// time. A runtime unit needs the mask set of a pipeline unit first.
    pub fn unit(&mut self, leg: Leg, i: usize, rng: &mut Rng) -> Duration {
        match leg {
            Leg::Pipeline => self.pipeline_unit(i),
            Leg::Detect => self.detect_unit(i),
            Leg::Runtime => self.runtime_unit(i, rng),
        }
    }

    /// Every detection of application `i` must classify like its first.
    fn check_verdicts(&mut self, i: usize, seen: Verdicts) {
        match &self.verdicts[i] {
            None => self.verdicts[i] = Some(seen),
            Some(first) => {
                let ok = *first == seen;
                let name = self.apps[i].name;
                self.ledger.check(ok, || {
                    format!("{name}: detection verdicts changed between campaigns")
                });
            }
        }
    }

    /// Application `i`'s Fig. 1 loop: `Campaign::run` → `classify` →
    /// `Policy::mask_set` → `verify_masked_configured`, i.e. the body of
    /// `Pipeline::run`, with a span around each stage.
    fn pipeline_unit(&mut self, i: usize) -> Duration {
        let policy = Policy::default();
        let filter = policy.mark_filter();
        let config = campaign_config(WORKERS);
        let app = &self.apps[i];
        let (name, program) = (app.name, &app.program);
        self.tracer.next_trace();
        let t = &mut self.tracer;
        let whole = t.open("core.pipeline", name);
        let o = t.open("inject.campaign_run", name);
        let detection = Campaign::new(program).config(config).run();
        let detect = t.close(o);
        let o = t.open("inject.classify", name);
        let classification = classify(&detection, &filter);
        let classify_t = t.close(o);
        let o = t.open("mask.mask_set", name);
        let mask_set = policy.mask_set(&classification);
        let mask_set_t = t.close(o);
        let o = t.open("mask.verify", name);
        let verified = verify_masked_configured(
            program,
            &mask_set,
            &filter,
            MaskStrategy::DeepCopy,
            config,
            None,
        );
        let verify = t.close(o);
        let total = t.close(whole);
        self.pipeline[i].push(StageTimes {
            detect,
            classify: classify_t,
            mask_set: mask_set_t,
            verify,
            total,
        });

        self.ledger.campaign(&detection.health());
        self.ledger.campaign(&verified.health);
        let counts = verified.method_counts;
        self.ledger.check(
            counts.pure_nonatomic == 0 && counts.conditional == 0,
            || format!("{name}: P_C is not failure atomic ({counts:?})"),
        );
        self.check_verdicts(i, Verdicts::of(detection.total_points, &classification));
        self.facts[i].get_or_insert_with(|| PipelineFacts {
            mask_set,
            points: detection.total_points,
            baseline_calls: detection.baseline_calls.iter().sum(),
            verify_health: verified.health,
        });
        total
    }

    /// Application `i`'s detection sweep at [`WORKERS`] workers.
    fn detect_unit(&mut self, i: usize) -> Duration {
        let (took, health) = self.detection(i, WORKERS, "inject.detect");
        self.detect[i].push(took);
        self.detect_health[i].get_or_insert(health);
        took
    }

    /// One traced detection campaign of application `i` at `workers`
    /// workers; its verdicts must match the application's first.
    fn detection(&mut self, i: usize, workers: usize, span: &'static str) -> (Duration, RunHealth) {
        let app = &self.apps[i];
        self.tracer.next_trace();
        let o = self.tracer.open(span, app.name);
        let result = Campaign::new(&app.program)
            .config(campaign_config(workers))
            .run();
        let took = self.tracer.close(o);
        let health = result.health();
        self.ledger.campaign(&health);
        let filter = Policy::default().mark_filter();
        let seen = Verdicts::of(result.total_points, &classify(&result, &filter));
        self.check_verdicts(i, seen);
        (took, health)
    }

    /// Per application, the median of [`SHARD_REPS`] detections at
    /// [`SHARD_WORKERS`] workers, in seconds: the sharder probe of the
    /// traced run.
    pub fn shard_probe(&mut self) -> Vec<f64> {
        (0..self.apps.len())
            .map(|i| {
                let xs: Vec<Duration> = (0..SHARD_REPS)
                    .map(|_| self.detection(i, SHARD_WORKERS, "inject.detect_sharded").0)
                    .collect();
                crate::stats::median_s(&xs)
            })
            .collect()
    }

    /// Per application, every 1-worker detection time: the detect leg's
    /// samples and the pipeline leg's detection stages, which make the
    /// same call.
    pub fn detect_samples(&self) -> Vec<Vec<Duration>> {
        let stages = self.pipeline.iter().map(|p| p.iter().map(|s| s.detect));
        self.detect
            .iter()
            .zip(stages)
            .map(|(own, stage)| own.iter().copied().chain(stage).collect())
            .collect()
    }

    /// Application `i`'s fault-free driver runs under every [`Variant`],
    /// in an order shuffled by `rng`.
    fn runtime_unit(&mut self, i: usize, rng: &mut Rng) -> Duration {
        let mut order = [Variant::Plain, Variant::DeepCopy, Variant::UndoLog];
        rng.shuffle(&mut order);
        self.tracer.next_trace();
        let o = self.tracer.open("bench.runtime_unit", self.apps[i].name);
        for variant in order {
            self.driver_run(i, variant);
        }
        self.tracer.close(o)
    }

    fn driver_run(&mut self, i: usize, variant: Variant) {
        let app = &self.apps[i];
        let mut vm = Vm::from_shared_registry(app.registry.clone());
        let wrapped = || {
            let facts = self.facts[i].as_ref();
            facts.expect("a pipeline unit ran first").mask_set.clone()
        };
        let (mask, undo) = match variant {
            Variant::Plain => (None, None),
            Variant::DeepCopy => (
                Some(Rc::new(RefCell::new(MaskingHook::new(wrapped())))),
                None,
            ),
            Variant::UndoLog => (
                None,
                Some(Rc::new(RefCell::new(UndoMaskingHook::new(wrapped())))),
            ),
        };
        if let Some(h) = &mask {
            vm.set_hook(Some(h.clone()));
        }
        if let Some(h) = &undo {
            vm.set_hook(Some(h.clone()));
        }
        let o = self.tracer.open(variant.span(), app.name);
        let result = app.program.run(&mut vm);
        let took = self.tracer.close(o);
        self.runtime[i][variant as usize].push(took);

        self.ledger.attempted += 1;
        self.ledger.failed += u64::from(result.is_err());
        let name = app.name;
        self.ledger.check(result == app.reference.result, || {
            format!("{name}: {variant:?} run returns a different value than P")
        });
        let fingerprint = fingerprint_of_roots(vm.heap(), &final_roots(vm.heap()));
        let rollbacks = match (mask, undo) {
            (Some(h), _) => {
                let stats = h.borrow().stats();
                let first = *self.mask_stats[i].get_or_insert(stats);
                self.ledger.check(first == stats, || {
                    format!("{name}: MaskStats differ between runs")
                });
                stats.restores
            }
            (_, Some(h)) => {
                let stats = h.borrow().stats();
                let first = *self.undo_stats[i].get_or_insert(stats);
                self.ledger.check(first == stats, || {
                    format!("{name}: UndoStats differ between runs")
                });
                stats.rollbacks
            }
            (None, None) => 0,
        };
        // A driver that raises and handles exceptions of its own makes
        // P_C roll back what P leaves half-done, so the final state may
        // then differ from P's; both strategies must still agree on it.
        if variant != Variant::Plain {
            let first = *self.pc_fingerprint[i].get_or_insert(fingerprint);
            self.ledger.check(first == fingerprint, || {
                format!("{name}: P_C runs leave different final states ({variant:?})")
            });
        }
        self.ledger.check(rollbacks > 0 || fingerprint == app.reference.fingerprint, || {
            format!("{name}: {variant:?} run rolled nothing back yet changed the final-root fingerprint")
        });
    }

    /// Times the per-layer primitives on each application's final heap.
    pub fn probes(&mut self) -> Probes {
        let mut p = Probes::default();
        for app in &self.apps {
            let t = &mut self.tracer;
            t.next_trace();
            let name = app.name;
            let med = |t: &mut Tracer, span: &'static str, f: &mut dyn FnMut()| {
                let mut xs = Vec::with_capacity(PROBE_REPS);
                for _ in 0..PROBE_REPS {
                    let o = t.open(span, name);
                    f();
                    xs.push(t.close(o).as_secs_f64() * 1e6);
                }
                crate::stats::median(&xs)
            };
            p.build_registry_us += med(t, "apps.build_registry", &mut || {
                black_box(app.program.build_registry());
            });
            let mut vm = Vm::from_shared_registry(app.registry.clone());
            let _ = app.program.run(&mut vm);
            let roots = final_roots(vm.heap());
            let ckpt = vm.checkpoint();
            p.vm_checkpoint_us += med(t, "mor.vm_checkpoint", &mut || {
                black_box(vm.checkpoint());
            });
            p.vm_restore_us += med(t, "mor.vm_restore", &mut || vm.restore(&ckpt));
            p.snapshot_us += med(t, "objgraph.snapshot", &mut || {
                black_box(Snapshot::of_roots(vm.heap(), &roots));
            });
            p.graph_bytes += Snapshot::of_roots(vm.heap(), &roots).approx_bytes();
            p.fingerprint_us += med(t, "objgraph.fingerprint", &mut || {
                black_box(fingerprint_of_roots(vm.heap(), &roots));
            });
            p.checkpoint_capture_us += med(t, "objgraph.checkpoint_capture", &mut || {
                black_box(Checkpoint::capture(vm.heap(), &roots));
            });
            let cp = Checkpoint::capture(vm.heap(), &roots);
            p.checkpoint_restore_us += med(t, "objgraph.checkpoint_restore", &mut || {
                cp.restore(vm.heap_mut())
            });
            let fp = fingerprint_of_roots(vm.heap(), &roots);
            self.ledger.check(fp == app.reference.fingerprint, || {
                format!("{name}: restoring a checkpoint of the final heap changed it")
            });
        }
        p
    }
}

/// Suite sums of the per-application probe medians (µs) and graph sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `Program::build_registry`.
    pub build_registry_us: f64,
    /// `Vm::checkpoint`.
    pub vm_checkpoint_us: f64,
    /// `Vm::restore`.
    pub vm_restore_us: f64,
    /// `Snapshot::of_roots`.
    pub snapshot_us: f64,
    /// `Snapshot::approx_bytes` of the final roots.
    pub graph_bytes: u64,
    /// `fingerprint_of_roots`.
    pub fingerprint_us: f64,
    /// `objgraph::Checkpoint::capture`.
    pub checkpoint_capture_us: f64,
    /// `objgraph::Checkpoint::restore`.
    pub checkpoint_restore_us: f64,
}
