//! The experiment runner (step 3 of Fig. 1): execute the exception injector
//! program once per potential injection point.
//!
//! ## Resilience
//!
//! A detection campaign over a real program meets programs that misbehave
//! *under* injection: a retry loop that spins forever once its callee's
//! failure is synthetic, or a body that panics on a state it was never
//! meant to reach. The campaign isolates both so one pathological point
//! cannot take down the whole sweep:
//!
//! * every run executes under a fuel [`Budget`]; a run the budget cuts off
//!   is recorded as [`RunOutcome::Diverged`];
//! * every run executes under `catch_unwind`; a host-level panic in an
//!   application body is recorded as [`RunOutcome::Panicked`] for exactly
//!   that run;
//! * diverged and panicked runs are retried per [`RetryPolicy`] with a
//!   scaled-up budget before their outcome is final;
//! * after [`CampaignConfig::max_failures`] unhealthy runs, remaining
//!   points are recorded as [`RunOutcome::Skipped`] instead of executed;
//! * finished runs are appended to a [`CampaignJournal`], and
//!   [`Campaign::resume`] restarts an interrupted sweep at the first
//!   injection point the journal is missing.
//!
//! ## Parallel sharding
//!
//! Injector runs are fully independent (Fig. 1 step 3 runs the injector
//! program once per point on a fresh VM), so the campaign shards the
//! missing points across a [`std::thread::scope`] worker pool when
//! [`CampaignConfig::workers`] (or `ATOMASK_WORKERS`, or the machine's
//! available parallelism) asks for more than one worker. Each worker
//! builds its **own** registry via [`Program::build_registry`] — method
//! bodies stay `Rc`-shared, single-threaded closures — and ships finished
//! [`RunResult`]s to an ordered writer on the campaign thread, which
//! appends them to the journal in injection-point order. With one worker
//! the same writer runs each point inline instead. Journals and results
//! are therefore bit-for-bit identical whatever the worker count (see
//! DESIGN.md, "Campaign execution").

use crate::hook::{CaptureMode, CaptureStats, InjectionHook};
use crate::journal::CampaignJournal;
use crate::marks::Mark;
use crate::replay::{Divergence, ReplayReport};
use atomask_mor::{
    Budget, CallHook, ExcId, MethodId, OpRecord, Program, Registry, Vm, VmCheckpoint,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Factory producing the hook woven *inside* the injection wrappers.
/// `Send + Sync` because campaign workers invoke it from their own
/// threads (the produced hook itself stays thread-local).
type InnerHookFactory = Box<dyn Fn(&Registry) -> Rc<RefCell<dyn CallHook>> + Send + Sync>;

/// Whether campaign runs record a flight-recorder trace. Sweeps never
/// do — [`Campaign::replay`] is the one traced execution — so `Off` is
/// the only mode. Kept only because the benchmark harness names it in
/// [`CampaignConfig::trace`]; both go when that line does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraceMode {
    /// No flight recorder running: every emission site compiles to a
    /// branch on `None`.
    #[default]
    Off,
}

/// Events the flight recorder of [`Campaign::replay`] keeps.
const REPLAY_RING_CAPACITY: usize = 1 << 20;

/// Stride (in injection points) between the VM checkpoints a sweep records
/// for checkpoint-resume execution (see `DESIGN.md` §10).
///
/// With checkpoint-resume on, the campaign performs one *recording* run —
/// the program executes normally under an observing hook while its driver
/// logs every top-level operation ([`Program::record`]) and the campaign
/// captures an
/// [`atomask_mor::VmCheckpoint`] each time the point counter crosses a
/// stride boundary. Every injection run then *replays* the recorded prefix
/// up to the nearest checkpoint strictly before its target point, restores
/// the checkpoint, and executes only the tail live — turning the sweep's
/// quadratic prefix re-execution into `O(N·stride)` work. Results and
/// journals are bit-for-bit identical to from-scratch execution
/// (`crates/inject/tests/checkpoint_equivalence.rs` proves it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CheckpointStride {
    /// `⌊√N⌋` for an `N`-point sweep — the stride minimizing
    /// `checkpoint_cost·N/stride + replay_cost·N·stride` when both costs
    /// are comparable.
    #[default]
    Auto,
    /// Never checkpoint: every injection run executes from program entry
    /// (the pre-PR-5 behaviour, and the reference side of the equivalence
    /// suite).
    Off,
    /// Capture a checkpoint every `n` injection points (`0` disables,
    /// like [`CheckpointStride::Off`]).
    Every(u64),
}

impl CheckpointStride {
    /// The effective stride for an `N`-point sweep, or `None` for
    /// checkpoint-resume off.
    pub(crate) fn resolve(self, total_points: u64) -> Option<u64> {
        match self {
            CheckpointStride::Off => None,
            CheckpointStride::Every(n) => (n > 0).then_some(n),
            CheckpointStride::Auto => Some(total_points.isqrt().max(1)),
        }
    }
}

/// How one injector run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The driver ran to completion — normally or with a propagating guest
    /// exception (the expected ending of an injection run).
    Completed,
    /// The fuel budget was exhausted: the program did not terminate on its
    /// own within the budget (even after any retries).
    Diverged,
    /// An application body panicked at the host level; the panic was
    /// confined to this run.
    Panicked,
    /// Never executed: the campaign hit its `max_failures` cap before
    /// reaching this point.
    Skipped,
}

impl RunOutcome {
    /// Stable lower-case name (used by the journal text format).
    pub fn as_str(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Diverged => "diverged",
            RunOutcome::Panicked => "panicked",
            RunOutcome::Skipped => "skipped",
        }
    }

    /// Inverse of [`RunOutcome::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "completed" => Some(RunOutcome::Completed),
            "diverged" => Some(RunOutcome::Diverged),
            "panicked" => Some(RunOutcome::Panicked),
            "skipped" => Some(RunOutcome::Skipped),
            _ => None,
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Retry discipline for unhealthy (diverged or panicked) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times an unhealthy run is re-executed before its outcome
    /// is accepted.
    pub max_retries: u32,
    /// Fuel multiplier applied to the budget on every retry, so a run that
    /// merely needed more fuel (rather than truly diverging) completes.
    pub budget_multiplier: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            budget_multiplier: 4,
        }
    }
}

impl RetryPolicy {
    /// Never retry: first outcome is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            budget_multiplier: 1,
        }
    }
}

/// Knobs governing a campaign's resilience and execution behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Fuel budget of each injector run (and each retry's base, before
    /// scaling). Defaults to [`Budget::unlimited`] — the paper's campaigns
    /// assume terminating programs.
    pub budget: Budget,
    /// Retry discipline for diverged and panicked runs.
    pub retry: RetryPolicy,
    /// After this many unhealthy runs, remaining points are recorded as
    /// [`RunOutcome::Skipped`] instead of executed. `None` (default) never
    /// gives up. Under parallel sharding the cap keeps its sequential
    /// meaning: results are accounted in injection-point order, and every
    /// point past the cap is recorded as skipped even if a worker had
    /// already executed it speculatively.
    pub max_failures: Option<u64>,
    /// Worker threads for the injection sweep. `0` (default) resolves to
    /// the `ATOMASK_WORKERS` environment variable if set, else to
    /// [`std::thread::available_parallelism`]; auto-resolved campaigns
    /// fall back to sequential execution for small sweeps where thread
    /// setup would dominate. Any explicit value (config or environment)
    /// is honored as-is. `1` runs every point inline on the campaign thread.
    pub workers: usize,
    /// How injection wrappers capture pre-call state, in every campaign —
    /// masking verification included. Defaults to [`CaptureMode::Lazy`]
    /// (undo-log reconstruction); [`CaptureMode::Eager`] is the paper's
    /// literal wrapper and the reference the equivalence suites compare
    /// against.
    pub capture: CaptureMode,
    /// Always [`TraceMode::Off`]: sweeps do not trace. Kept only because
    /// the benchmark harness sets it; removed when that line goes.
    pub trace: TraceMode,
    /// Checkpoint stride for checkpoint-resume sweeps. Defaults to
    /// [`CheckpointStride::Auto`] (`⌊√N⌋`). Every campaign resumes,
    /// inner-hook (verification) campaigns included; results and journals
    /// are bit-identical to from-scratch execution.
    pub checkpoint_stride: CheckpointStride,
}

/// One resumable boundary of a recorded sweep: the op-log cursor and point
/// counter at a quiescent top-level boundary, the injector-prefix state a
/// resumed hook is seeded with, and the VM checkpoint to restore there.
#[derive(Debug)]
struct SweepCheckpoint {
    /// Index into the plan's op log at which live execution resumes.
    op_cursor: usize,
    /// The injector's point counter at this boundary; only targets
    /// strictly beyond it can resume here.
    point: u64,
    /// Marks the prefix recorded (application-thrown exceptions mark even
    /// before any injection).
    marks: Vec<Mark>,
    /// The prefix's capture-cost counters.
    stats: CaptureStats,
    /// The structural VM state at the boundary, restored by every run
    /// that resumes here.
    vm: VmCheckpoint,
}

/// The product of one recording run: the top-level op log plus the strided
/// checkpoints, read (within one thread) by every resumed run of the
/// sweep.
#[derive(Debug)]
struct SweepPlan {
    ops: Vec<OpRecord>,
    /// Ascending by `point` (and by `op_cursor`): captured in execution
    /// order, at most one per point value.
    checkpoints: Vec<SweepCheckpoint>,
}

impl SweepPlan {
    /// Where a run targeting `target` starts: at the latest checkpoint
    /// whose point counter is strictly before `target` — strict, because a
    /// checkpoint *at* the target has already consumed the window
    /// the resumed run must still hit — or from scratch if there is none.
    fn start_for(&self, target: u64) -> Start<'_> {
        let idx = self.checkpoints.partition_point(|c| c.point < target);
        idx.checked_sub(1).map_or(Start::Scratch, |i| {
            Start::Resume(self, &self.checkpoints[i])
        })
    }
}

/// Where one attempt starts executing.
#[derive(Debug, Clone, Copy)]
enum Start<'a> {
    /// At program entry.
    Scratch,
    /// At a sweep checkpoint: the recorded prefix replays at host speed
    /// (guest bodies never run), the checkpoint restores heap, stats, fuel
    /// and chain watermark at the switch op, and the tail runs live with
    /// the injector seeded with the prefix's counter, marks and stats.
    Resume(&'a SweepPlan, &'a SweepCheckpoint),
}

/// The outcome of one injector run (one `InjectionPoint` value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// The `InjectionPoint` threshold of this run (1-based).
    pub injection_point: u64,
    /// The method whose wrapper threw, and the exception type, if the
    /// threshold was reached during the run.
    pub injected: Option<(MethodId, ExcId)>,
    /// Atomicity marks in wrapper-execution order (callee→caller).
    pub marks: Vec<Mark>,
    /// Rendered top-level exception, if one escaped the driver (or the
    /// panic message, for panicked runs).
    pub top_error: Option<String>,
    /// How the run ended. Only [`RunOutcome::Completed`] runs contribute
    /// marks to classification.
    pub outcome: RunOutcome,
    /// Number of retries performed before this outcome was accepted.
    pub retries: u32,
    /// Fuel consumed by the final attempt.
    pub fuel_spent: u64,
    /// Object-graph snapshots captured by the final attempt's injection
    /// wrappers (the capture-cost stat the [`CaptureMode`] optimization
    /// reduces).
    pub snapshots: u64,
    /// Approximate bytes of those snapshots.
    pub capture_bytes: u64,
}

impl RunResult {
    /// A run that was never executed (failure cap reached). Every
    /// execution statistic — fuel, snapshots, capture bytes — is zero by
    /// construction: nothing ran. [`Campaign::replay`] on such a point
    /// executes it for real, under a fresh budget.
    pub fn skipped(injection_point: u64) -> Self {
        RunResult {
            injection_point,
            injected: None,
            marks: Vec::new(),
            top_error: None,
            outcome: RunOutcome::Skipped,
            retries: 0,
            fuel_spent: 0,
            snapshots: 0,
            capture_bytes: 0,
        }
    }

    /// A point whose harness panicked outside the guest isolation (a
    /// campaign bug, not a program outcome), recorded as panicked so the
    /// ordered writer never waits on it.
    fn harness_panic(injection_point: u64, message: &str) -> Self {
        RunResult {
            top_error: Some(format!("panic: harness: {message}")),
            outcome: RunOutcome::Panicked,
            ..RunResult::skipped(injection_point)
        }
    }

    /// `true` iff the run completed and its marks are trustworthy.
    pub fn is_healthy(&self) -> bool {
        self.outcome == RunOutcome::Completed
    }
}

/// Aggregate run-health of a campaign: outcome tallies, retries, fuel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunHealth {
    /// Runs that completed normally.
    pub completed: u64,
    /// Runs cut off by the fuel budget.
    pub diverged: u64,
    /// Runs ended by a host-level panic.
    pub panicked: u64,
    /// Points never executed (failure cap).
    pub skipped: u64,
    /// Total retry attempts across all runs.
    pub retries: u64,
    /// Total fuel consumed across final attempts.
    pub fuel_spent: u64,
    /// Total object-graph snapshots captured across final attempts.
    pub snapshots: u64,
    /// Total approximate snapshot bytes across final attempts.
    pub capture_bytes: u64,
}

impl RunHealth {
    /// Folds one run into the tally.
    pub fn record(&mut self, run: &RunResult) {
        match run.outcome {
            RunOutcome::Completed => self.completed += 1,
            RunOutcome::Diverged => self.diverged += 1,
            RunOutcome::Panicked => self.panicked += 1,
            RunOutcome::Skipped => self.skipped += 1,
        }
        self.retries += u64::from(run.retries);
        self.fuel_spent += run.fuel_spent;
        self.snapshots += run.snapshots;
        self.capture_bytes += run.capture_bytes;
    }

    /// Runs that contributed no marks (diverged + panicked + skipped).
    pub fn unhealthy(&self) -> u64 {
        self.diverged + self.panicked + self.skipped
    }

    /// Total runs tallied.
    pub fn total(&self) -> u64 {
        self.completed + self.unhealthy()
    }
}

impl std::fmt::Display for RunHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} completed, {} diverged, {} panicked, {} skipped ({} retries, {} fuel, {} snapshots)",
            self.completed,
            self.diverged,
            self.panicked,
            self.skipped,
            self.retries,
            self.fuel_spent,
            self.snapshots
        )
    }
}

/// The aggregated outcome of a full detection campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Program name.
    pub program: String,
    /// The registry shared by every run of the campaign (the program builds
    /// identical registries, so one build serves the whole sweep).
    pub registry: Rc<Registry>,
    /// Total potential injection points `N` (Table 1's `#Injections`).
    pub total_points: u64,
    /// Per-method dynamic call counts from the uninstrumented baseline run
    /// (the weights of Figs. 2b/3b).
    pub baseline_calls: Vec<u64>,
    /// One result per executed injector run.
    pub runs: Vec<RunResult>,
}

impl CampaignResult {
    /// Number of injector runs executed (= injections performed, barring a
    /// `max_points` cap).
    pub fn injections(&self) -> usize {
        self.runs.len()
    }

    /// Method ids that were called at least once in the baseline run.
    pub fn used_methods(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.baseline_calls
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| MethodId::from_raw(i as u32))
    }

    /// Run-health summary over all executed runs.
    pub fn health(&self) -> RunHealth {
        let mut h = RunHealth::default();
        for run in &self.runs {
            h.record(run);
        }
        h
    }

    /// Journal equivalent of this result, suitable for serialization and
    /// for seeding [`Campaign::resume`].
    pub fn journal(&self) -> CampaignJournal {
        let mut j = CampaignJournal::new();
        j.bind(&self.program);
        j.record_baseline(self.total_points, &self.baseline_calls);
        for run in &self.runs {
            j.record_run(run);
        }
        j
    }
}

/// Builds and executes detection campaigns over a [`Program`].
///
/// The campaign first performs a counting run (no injection) to size the
/// sweep and collect baseline call statistics, then executes the program
/// once per potential injection point with `InjectionPoint = 1..=N`. Every
/// worker builds its own registry and recycles one VM across its runs,
/// resetting it to a fresh VM's state before each ([`Vm::reset_for_run`]).
pub struct Campaign<'p> {
    program: &'p dyn Program,
    inner_hook: Option<InnerHookFactory>,
    max_points: Option<u64>,
    config: CampaignConfig,
}

impl std::fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("program", &self.program.name())
            .field("capped", &self.max_points)
            .field("config", &self.config)
            .finish()
    }
}

impl<'p> Campaign<'p> {
    /// Creates a campaign over `program`.
    pub fn new(program: &'p dyn Program) -> Self {
        Campaign {
            program,
            inner_hook: None,
            max_points: None,
            config: CampaignConfig::default(),
        }
    }

    /// Weaves an additional hook *inside* the injection wrappers in every
    /// run (and in the baseline run). Used to validate corrected programs:
    /// pass a factory producing the masking hook, and the campaign measures
    /// the program as its users would see it — with atomicity wrappers
    /// rolling back before the injection wrappers compare.
    ///
    /// Contract: a checkpoint-resumed run starts at a top-level driver
    /// boundary with a fresh hook from `factory`, so the hook may carry no
    /// behaviour-relevant state across top-level driver ops. Both masking
    /// hooks satisfy this; their only such state is statistics.
    pub fn with_inner_hook(
        mut self,
        factory: impl Fn(&Registry) -> Rc<RefCell<dyn CallHook>> + Send + Sync + 'static,
    ) -> Self {
        self.inner_hook = Some(Box::new(factory));
        self
    }

    /// Caps the number of injector runs (useful for very large programs;
    /// the paper's campaigns run every point, which is also the default
    /// here).
    pub fn max_points(mut self, cap: u64) -> Self {
        self.max_points = Some(cap);
        self
    }

    /// Replaces the whole resilience configuration.
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the per-run fuel budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Sets the retry discipline for unhealthy runs.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Gives up (recording [`RunOutcome::Skipped`]) after `cap` unhealthy
    /// runs.
    pub fn max_failures(mut self, cap: u64) -> Self {
        self.config.max_failures = Some(cap);
        self
    }

    /// Sets the worker-thread count for the injection sweep (see
    /// [`CampaignConfig::workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the checkpoint-resume stride (see
    /// [`CampaignConfig::checkpoint_stride`]).
    pub fn checkpoint_stride(mut self, stride: CheckpointStride) -> Self {
        self.config.checkpoint_stride = stride;
        self
    }

    /// Executes the campaign.
    pub fn run(&self) -> CampaignResult {
        // Every point is missing from a fresh journal, so the sweep appends
        // the runs in point order and the result takes them over.
        let mut journal = CampaignJournal::new();
        let mut result = self.execute(&mut journal);
        result.runs = journal.into_runs();
        result
    }

    /// Executes the campaign, reusing every run already present in
    /// `journal` and appending each newly finished run to it. An empty
    /// journal makes this identical to [`Campaign::run`]; a journal from an
    /// interrupted sweep is completed from its first missing injection
    /// point, reproducing the uninterrupted result.
    ///
    /// # Panics
    ///
    /// Panics if `journal` was recorded by a different program (host
    /// error).
    pub fn resume(&self, journal: &mut CampaignJournal) -> CampaignResult {
        let mut result = self.execute(journal);
        result.runs = (1..=self.limit(result.total_points))
            .map(|p| {
                journal
                    .run_for(p)
                    .expect("the sweep journals every point")
                    .clone()
            })
            .collect();
        result
    }

    /// Brings `journal` up to date — baseline recorded, every point in
    /// `1..=limit` journaled — and returns the campaign's result without
    /// its runs, which the caller takes from the journal.
    fn execute(&self, journal: &mut CampaignJournal) -> CampaignResult {
        journal.bind(self.program.name());
        let registry = Rc::new(self.program.build_registry());

        // Counting / baseline run, unless the journal already has it.
        let (total_points, baseline_calls) = match journal.baseline() {
            Some((points, calls)) => (points, calls.to_vec()),
            None => {
                let mut vm = Vm::from_shared_registry(registry.clone());
                vm.set_budget(self.config.budget);
                let counter = Rc::new(RefCell::new(InjectionHook::counting()));
                self.install(&mut vm, counter.clone());
                // The baseline gets the same isolation as injector runs: a
                // program that panics or diverges even without injection
                // still yields a (partially) sized campaign.
                if catch_unwind(AssertUnwindSafe(|| self.program.run(&mut vm))).is_err() {
                    eprintln!(
                        "warning: baseline run of `{}` panicked; campaign sized from the points counted before the panic",
                        self.program.name()
                    );
                }
                vm.set_hook(None);
                let total_points = counter.borrow().points();
                let baseline_calls = vm.take_stats().calls;
                journal.record_baseline(total_points, &baseline_calls);
                (total_points, baseline_calls)
            }
        };

        let limit = self.limit(total_points);
        let missing: Vec<u64> = (1..=limit)
            .filter(|p| journal.run_for(*p).is_none())
            .collect();
        // Checkpoint-resume stride, resolved once for the whole sweep. A
        // stride of `None` runs every missing point from scratch; with
        // nothing missing there is no plan worth recording.
        let stride = if missing.is_empty() {
            None
        } else {
            self.config.checkpoint_stride.resolve(limit)
        };
        self.sweep(journal, &registry, limit, &missing, stride);

        CampaignResult {
            program: self.program.name().to_owned(),
            registry,
            total_points,
            baseline_calls,
            runs: Vec::new(),
        }
    }

    /// The last injection point a campaign of `total_points` sweeps.
    fn limit(&self, total_points: u64) -> u64 {
        self.max_points.unwrap_or(total_points).min(total_points)
    }

    /// Executes the missing points and appends them to the journal in
    /// injection-point order. One worker runs each point inline on the
    /// campaign thread, over the campaign's registry; more workers shard
    /// the missing points across a thread pool and feed the same ordered
    /// writer, so the journal is bit-for-bit the same whatever the worker
    /// count.
    ///
    /// `max_failures` semantics: the writer counts unhealthy runs in point
    /// order and, once the cap is reached, records every later point as
    /// [`RunOutcome::Skipped`] — discarding any result a worker had
    /// already produced speculatively for those points — and tells the
    /// workers to stop claiming.
    fn sweep(
        &self,
        journal: &mut CampaignJournal,
        registry: &Rc<Registry>,
        limit: u64,
        missing: &[u64],
        stride: Option<u64>,
    ) {
        let workers = plan_worker_count(
            self.config.workers,
            env_workers(),
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            missing.len(),
        );
        let next = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<RunResult>();
        // Checkpoint-aligned chunked claiming: per-point `fetch_add(1)`
        // interleaves neighbouring points across workers, which defeats
        // checkpoint locality (consecutive points share a checkpoint) and
        // pays one atomic RMW per point. Claiming a stride-sized chunk
        // keeps a checkpoint's whole clientele on one worker and
        // amortizes the contention; without checkpointing a modest fixed
        // chunk still cuts the RMW traffic. Tail imbalance stays bounded
        // by one chunk per worker.
        let chunk = stride.map_or(8, |s| (s as usize).clamp(1, 64));
        std::thread::scope(|scope| {
            let next = &next;
            let cancelled = &cancelled;
            let mut inline = (workers <= 1).then(|| self.executor(registry.clone(), stride));
            let pool = if inline.is_some() { 0 } else { workers };
            for _ in 0..pool {
                let tx = tx.clone();
                scope.spawn(move || {
                    // Each worker owns a private registry; the program
                    // promises identical builds, so ids (and thus results)
                    // are identical across workers.
                    let mut execute = self.executor(Rc::new(self.program.build_registry()), stride);
                    'claim: while !cancelled.load(Ordering::Relaxed) {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= missing.len() {
                            break;
                        }
                        let end = (start + chunk).min(missing.len());
                        for &point in &missing[start..end] {
                            if cancelled.load(Ordering::Relaxed) || tx.send(execute(point)).is_err()
                            {
                                break 'claim;
                            }
                        }
                    }
                });
            }
            drop(tx);

            // The ordered writer: journal appends and cap accounting in
            // point order, buffering out-of-order arrivals.
            let mut pending: HashMap<u64, RunResult> = HashMap::new();
            let mut unhealthy = 0u64;
            for injection_point in 1..=limit {
                let healthy = if let Some(done) = journal.run_for(injection_point) {
                    done.is_healthy()
                } else {
                    let run = if self.config.max_failures.is_some_and(|cap| unhealthy >= cap) {
                        cancelled.store(true, Ordering::Relaxed);
                        RunResult::skipped(injection_point)
                    } else if let Some(execute) = &mut inline {
                        execute(injection_point)
                    } else {
                        loop {
                            if let Some(run) = pending.remove(&injection_point) {
                                break run;
                            }
                            match rx.recv() {
                                Ok(run) if run.injection_point == injection_point => break run,
                                Ok(run) => {
                                    pending.insert(run.injection_point, run);
                                }
                                Err(_) => unreachable!(
                                    "worker pool exited before delivering point {injection_point}"
                                ),
                            }
                        }
                    };
                    let healthy = run.is_healthy();
                    journal.push_run(run);
                    healthy
                };
                if !healthy {
                    unhealthy += 1;
                }
            }
            // Stop workers that are still claiming; results in flight are
            // simply dropped (they were past the cap or past the limit).
            cancelled.store(true, Ordering::Relaxed);
            while rx.try_recv().is_ok() {}
        });
    }

    /// A point executor over one recycled VM universe on `registry` (and
    /// its own sweep plan, when `stride` asks for one: recorded values
    /// share `Rc` storage, so every worker records its own): every point
    /// it is handed runs to a final [`RunResult`]. `run_point` already
    /// isolates guest panics; a panic *outside* it is a harness bug,
    /// recorded as [`RunResult::harness_panic`] so the ordered writer never
    /// waits on the point. The VM is safe to keep either way: the next attempt's
    /// `reset_for_run` discards whatever the unwind left.
    fn executor(
        &self,
        registry: Rc<Registry>,
        stride: Option<u64>,
    ) -> impl FnMut(u64) -> RunResult + '_ {
        let mut vm = Vm::from_shared_registry(registry);
        let plan = stride.and_then(|s| self.record_plan(&mut vm, s));
        move |point| {
            catch_unwind(AssertUnwindSafe(|| {
                self.run_point(&mut vm, point, plan.as_ref())
            }))
            .unwrap_or_else(|payload| {
                RunResult::harness_panic(point, &panic_message(payload.as_ref()))
            })
        }
    }

    /// Runs one injection point to a final outcome, retrying unhealthy runs
    /// per the [`RetryPolicy`] with a scaled-up budget. With a sweep plan,
    /// every attempt resumes from the nearest checkpoint strictly before
    /// the target; a [`atomask_mor::ResumeMismatch`] (the determinism
    /// guard tripping) demotes the point to from-scratch execution
    /// permanently.
    fn run_point(&self, vm: &mut Vm, injection_point: u64, plan: Option<&SweepPlan>) -> RunResult {
        let mut budget = self.config.budget;
        let mut retries = 0u32;
        let mut start = plan.map_or(Start::Scratch, |p| p.start_for(injection_point));
        loop {
            let hook =
                InjectionHook::with_injection_point(injection_point).capture(self.config.capture);
            let Some((mut run, _)) = self.attempt(vm, injection_point, budget, start, hook, false)
            else {
                start = Start::Scratch;
                continue;
            };
            run.retries = retries;
            let retryable = matches!(run.outcome, RunOutcome::Diverged | RunOutcome::Panicked);
            if !retryable || retries >= self.config.retry.max_retries {
                return run;
            }
            retries += 1;
            budget = budget.scaled(self.config.retry.budget_multiplier);
        }
    }

    /// One recording run: executes the program normally under an observing
    /// hook while its driver records the top-level ops, capturing a
    /// [`SweepCheckpoint`] whenever the point counter crosses a stride
    /// threshold. Returns `None` — checkpoint-resume off for this sweep —
    /// unless the recording is *healthy*: no panic and no fuel exhaustion.
    /// Health is load-bearing for equivalence: a healthy recording under
    /// the base budget proves that every injection run's pre-target prefix
    /// (an identical execution up to the checkpoint) completes without
    /// panicking or exhausting any attempt's budget, since retries only
    /// ever scale budgets up.
    fn record_plan(&self, vm: &mut Vm, stride: u64) -> Option<SweepPlan> {
        vm.reset_for_run();
        vm.set_budget(self.config.budget);
        let hook = Rc::new(RefCell::new(
            InjectionHook::observing().capture(self.config.capture),
        ));
        self.install(vm, hook.clone());
        let mut checkpoints = Vec::new();
        // First capture as soon as any point exists (a point-0 boundary
        // checkpoint could serve no target the prefix-less run cannot),
        // then one every `stride` points.
        let mut threshold = 1u64;
        let mut at_boundary = |vm: &Vm, op_cursor| {
            let h = hook.borrow();
            let point = h.points();
            if point >= threshold {
                checkpoints.push(SweepCheckpoint {
                    op_cursor,
                    point,
                    marks: h.marks().to_vec(),
                    stats: h.capture_stats(),
                    vm: vm.checkpoint(),
                });
                threshold = point + stride;
            }
        };
        let recorded = catch_unwind(AssertUnwindSafe(|| {
            self.program.record(&mut *vm, &mut at_boundary)
        }));
        vm.set_hook(None);
        let (_, ops) = recorded.ok().filter(|_| !vm.fuel_exhausted())?;
        // A checkpoint at the very end of the op log has no live tail to
        // switch into — a resumed run would replay the whole driver and
        // come back as a mismatch. Never schedule one.
        checkpoints.retain(|c| c.op_cursor < ops.len());
        Some(SweepPlan { ops, checkpoints })
    }

    /// One isolated attempt at one injection point under `hook`: the one
    /// place a run executes and a [`RunResult`] is built, behind both the
    /// sweep and [`Campaign::replay`]. Only replay sets `traced`, which
    /// leaves the run's flight recorder on the VM for
    /// [`Vm::take_trace`]; sweeps never trace. Returns `None` only when a
    /// resumed start comes back as a [`atomask_mor::ResumeMismatch`] (the
    /// determinism guard tripped); the caller then runs the point from
    /// scratch.
    fn attempt(
        &self,
        vm: &mut Vm,
        injection_point: u64,
        budget: Budget,
        start: Start<'_>,
        hook: InjectionHook,
        traced: bool,
    ) -> Option<(RunResult, Option<Divergence>)> {
        // Recycled VM universe: reset to the pristine epoch (heap, frames,
        // stats, chains, budget) instead of rebuilding the whole VM. The
        // reset also makes a previous attempt's panic harmless — whatever
        // guest state the unwind left behind is discarded here.
        vm.reset_for_run();
        vm.set_budget(budget);
        if traced {
            vm.start_trace(REPLAY_RING_CAPACITY);
        }
        let hook = match start {
            Start::Scratch => hook,
            Start::Resume(_, ckpt) => {
                hook.resume_prefix(ckpt.point, ckpt.marks.clone(), ckpt.stats)
            }
        };
        let hook = Rc::new(RefCell::new(hook));
        self.install(vm, hook.clone());
        // Panic isolation: a panicking application body unwinds out of
        // the driver; the VM is only inspected for fuel afterwards and
        // then reset before its next run, so AssertUnwindSafe is sound here.
        let outcome = catch_unwind(AssertUnwindSafe(|| match start {
            Start::Scratch => Some(self.program.run(&mut *vm)),
            Start::Resume(plan, ckpt) => self
                .program
                .resume_from(&mut *vm, &plan.ops, ckpt.op_cursor, &ckpt.vm)
                .ok(),
        }));
        // Release the VM's clones of both hooks so the results can be moved
        // out.
        vm.set_hook(None);
        let outcome = outcome.transpose()?;
        let diverged = vm.fuel_exhausted();
        let fuel_spent = vm.fuel_spent();
        let mut hook = Rc::try_unwrap(hook)
            .expect("set_hook(None) released the VM's clone of the injection hook")
            .into_inner();
        let divergence = hook.take_divergence();
        let capture = hook.capture_stats();
        // An exhausted budget wins over how the run happened to end: both
        // the guest `BudgetExhausted` exception reaching the driver and the
        // escalation panic (when the program swallowed that exception and
        // kept going) mean the run did not terminate on its own.
        let (outcome, top_error) = match outcome {
            Ok(result) => (RunOutcome::Completed, result.err().map(|e| e.to_string())),
            Err(payload) => (
                RunOutcome::Panicked,
                Some(format!("panic: {}", panic_message(payload.as_ref()))),
            ),
        };
        let outcome = if diverged {
            RunOutcome::Diverged
        } else {
            outcome
        };
        let run = RunResult {
            injection_point,
            injected: hook.injected(),
            marks: hook.into_marks(),
            top_error,
            outcome,
            retries: 0,
            fuel_spent,
            snapshots: capture.snapshots,
            capture_bytes: capture.capture_bytes,
        };
        Some((run, divergence))
    }

    /// Re-executes exactly one injection point with the flight recorder
    /// always on and returns the full artifact: run record, event trace,
    /// and (for non-atomic points) the minimized divergence.
    ///
    /// Replay is deterministic: it rebuilds the registry and runs the point
    /// exactly as the sweep does, so the run matches the campaign's journal
    /// bit for bit, independent of worker count. Replay knows nothing of
    /// journals, retry history, or `max_failures`: a point the campaign
    /// recorded as [`RunOutcome::Skipped`] is executed for real here, under
    /// a fresh `config.budget`.
    ///
    /// Replay runs the point from scratch, never resumed, so it is the
    /// reference the checkpoint-resume engine answers to: the sweep must
    /// agree with it run for run (`tests/fastforward_equivalence.rs`).
    /// Its first pass is the sweep's own run — same counter-gated
    /// counting, same capture mode, minimizer off — so under the default
    /// lazy capture it takes the same revert check and fingerprint compare
    /// as the sweep. Only the second pass, which minimizes the divergence
    /// of a non-atomic run, skips both for the full structural comparison.
    ///
    /// The replay ring is large (`2^20` events); if a run emits more,
    /// [`ReplayReport::trace_dropped`] says how many early events fell off.
    pub fn replay(&self, injection_point: u64) -> ReplayReport {
        let registry = Rc::new(self.program.build_registry());
        let mut vm = Vm::from_shared_registry(registry.clone());
        let reference =
            |capture| InjectionHook::with_injection_point(injection_point).capture(capture);
        let budget = self.config.budget;
        // First pass: the recorded run, bit-for-bit what the sweep journals
        // for this point. No minimizer here — it needs the lazy undo log
        // open at propagation time and the full comparison, so the second
        // pass below derives the divergence instead.
        let first = reference(self.config.capture);
        let (run, _) = self
            .attempt(
                &mut vm,
                injection_point,
                budget,
                Start::Scratch,
                first,
                true,
            )
            .expect("a from-scratch attempt always finishes");
        let sink = vm
            .take_trace()
            .expect("a traced attempt keeps its recorder");
        let divergence = if run.marks.iter().any(|m| !m.atomic) {
            let second = reference(CaptureMode::Lazy).minimize_divergence(true);
            self.attempt(
                &mut vm,
                injection_point,
                budget,
                Start::Scratch,
                second,
                false,
            )
            .and_then(|(_, divergence)| divergence)
        } else {
            None
        };
        let trace_emitted = sink.emitted();
        let trace_dropped = sink.dropped();
        ReplayReport {
            run,
            trace: sink.into_events(),
            trace_emitted,
            trace_dropped,
            registry,
            divergence,
        }
    }

    fn install(&self, vm: &mut Vm, injector: Rc<RefCell<InjectionHook>>) {
        vm.set_hook(Some(injector));
        if let Some(factory) = &self.inner_hook {
            let inner = factory(vm.registry());
            vm.set_inner_hook(Some(inner));
        }
    }
}

/// Resolves the effective worker count for a sweep with `missing` points
/// left to execute. An explicit count (`explicit` from the config, or
/// `env` from `ATOMASK_WORKERS`) is honored as-is; auto mode stays
/// sequential on machines without parallelism (`available <= 1`) — a
/// single worker thread only adds scheduling and channel overhead on top
/// of the same serial execution — and for small sweeps, where thread
/// setup would cost more than it buys. Any resolved count is clamped to
/// the work available.
fn plan_worker_count(
    explicit: usize,
    env: Option<usize>,
    available: usize,
    missing: usize,
) -> usize {
    const AUTO_PARALLEL_MIN_POINTS: usize = 32;
    let requested = if explicit > 0 {
        explicit
    } else if let Some(n) = env {
        n
    } else {
        if available <= 1 || missing < AUTO_PARALLEL_MIN_POINTS {
            return 1;
        }
        available
    };
    requested.min(missing.max(1))
}

/// `ATOMASK_WORKERS`, if set to a positive integer.
fn env_workers() -> Option<usize> {
    std::env::var("ATOMASK_WORKERS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
}

/// Best-effort rendering of a panic payload (the two shapes `panic!`
/// produces, then a generic fallback).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomask_mor::{FnProgram, Profile, RegistryBuilder, Value};

    fn two_level_program() -> FnProgram {
        FnProgram::new(
            "two-level",
            || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.class("T", |c| {
                    c.field("a", Value::Int(0));
                    c.method("outer", |ctx, this, _| {
                        let a = ctx.get_int(this, "a");
                        ctx.set(this, "a", Value::Int(a + 1));
                        ctx.call(this, "inner", &[])?;
                        ctx.set(this, "a", Value::Int(a));
                        Ok(Value::Null)
                    });
                    c.method("inner", |_, _, _| Ok(Value::Null));
                });
                rb.build()
            },
            |d| {
                let t = d.construct("T", &[])?;
                d.root(t);
                d.call(t, "outer", &[])
            },
        )
    }

    /// A program that is healthy on its own but has one diverging and one
    /// panicking injection point. The custom profile has a single runtime
    /// exception, so each dynamic call is exactly one potential point
    /// (5 total): injecting into `commit` (point 2) leaks the lock and the
    /// driver's retry loop spins forever; injecting into `probe` (point 4)
    /// makes `strict` panic. Points 1, 3 and 5 complete normally.
    fn pathological_program() -> FnProgram {
        FnProgram::new(
            "pathological",
            || {
                let mut profile = Profile::cpp();
                profile.runtime_exceptions = vec!["Fault".to_owned()];
                let mut rb = RegistryBuilder::new(profile);
                rb.exception("StateError");
                rb.class("P", |c| {
                    c.field("locked", Value::Bool(false));
                    c.field("done", Value::Int(0));
                    c.method("transact", |ctx, this, _| {
                        if ctx.get_bool(this, "locked") {
                            return Err(ctx.exception("StateError", "still locked"));
                        }
                        ctx.set(this, "locked", Value::Bool(true));
                        // Non-atomic: an exception here leaks the lock.
                        ctx.call(this, "commit", &[])?;
                        ctx.set(this, "locked", Value::Bool(false));
                        Ok(Value::Null)
                    });
                    c.method("commit", |_, _, _| Ok(Value::Null));
                    c.method("strict", |ctx, this, _| {
                        if ctx.call(this, "probe", &[]).is_err() {
                            panic!("invariant violated: probe can never fail");
                        }
                        Ok(Value::Null)
                    });
                    c.method("probe", |_, _, _| Ok(Value::Null));
                    c.method("calm", |ctx, this, _| {
                        let d = ctx.get_int(this, "done");
                        ctx.set(this, "done", Value::Int(d + 1));
                        Ok(Value::Null)
                    });
                });
                rb.build()
            },
            |d| {
                let p = d.construct("P", &[])?;
                d.root(p);
                // Application-level retry loop: swallows failures and tries
                // again. Once the injected failure leaks the lock, every
                // retry throws `StateError` and only the fuel budget ends
                // the run.
                loop {
                    match d.call(p, "transact", &[]) {
                        Ok(_) => break,
                        Err(_) => continue,
                    }
                }
                d.call_absorbed(p, "strict", &[]);
                d.call(p, "calm", &[])
            },
        )
    }

    #[test]
    fn campaign_runs_once_per_point() {
        let p = two_level_program();
        let result = Campaign::new(&p).run();
        // outer: 2 runtime exceptions, inner: 2 => 4 points.
        assert_eq!(result.total_points, 4);
        assert_eq!(result.injections(), 4);
        for (i, run) in result.runs.iter().enumerate() {
            assert_eq!(run.injection_point, i as u64 + 1);
            assert!(run.injected.is_some());
            assert!(run.top_error.is_some(), "injected exception escapes");
            assert_eq!(run.outcome, RunOutcome::Completed);
            assert_eq!(run.retries, 0);
            assert!(run.fuel_spent > 0);
        }
    }

    #[test]
    fn baseline_calls_are_recorded() {
        let p = two_level_program();
        let result = Campaign::new(&p).run();
        let used: Vec<String> = result
            .used_methods()
            .map(|m| result.registry.method_display(m))
            .collect();
        assert_eq!(used, vec!["T::outer", "T::inner"]);
        assert_eq!(result.baseline_calls.iter().sum::<u64>(), 2);
    }

    #[test]
    fn marks_identify_nonatomic_propagation() {
        let p = two_level_program();
        let result = Campaign::new(&p).run();
        // Injections into inner (points 3 and 4) mark outer non-atomic
        // (a was incremented, restore line never reached).
        let nonatomic_runs: Vec<&RunResult> = result
            .runs
            .iter()
            .filter(|r| r.marks.iter().any(|m| !m.atomic))
            .collect();
        assert_eq!(nonatomic_runs.len(), 2);
        for run in nonatomic_runs {
            let m = run.marks.iter().find(|m| !m.atomic).unwrap();
            assert_eq!(result.registry.method_display(m.method), "T::outer");
        }
    }

    #[test]
    fn max_points_caps_the_sweep() {
        let p = two_level_program();
        let result = Campaign::new(&p).max_points(2).run();
        assert_eq!(result.total_points, 4);
        assert_eq!(result.injections(), 2);
    }

    #[test]
    fn pathological_sweep_completes_with_isolated_failures() {
        let p = pathological_program();
        let result = Campaign::new(&p)
            .budget(Budget::fuel(20_000))
            .retry(RetryPolicy {
                max_retries: 1,
                budget_multiplier: 2,
            })
            .run();
        // The full sweep ran despite the diverging and panicking points.
        assert_eq!(result.injections() as u64, result.total_points);
        let health = result.health();
        assert_eq!(health.diverged, 1, "{health}");
        assert_eq!(health.panicked, 1, "{health}");
        assert_eq!(health.skipped, 0, "{health}");
        assert_eq!(health.completed + 2, result.total_points, "{health}");
        // Both unhealthy points were retried to the policy's limit.
        assert_eq!(health.retries, 2, "{health}");
        let diverged = result
            .runs
            .iter()
            .find(|r| r.outcome == RunOutcome::Diverged)
            .unwrap();
        assert_eq!(
            result.registry.method_display(diverged.injected.unwrap().0),
            "P::commit",
            "injecting into commit leaks the lock and spins the driver"
        );
        let panicked = result
            .runs
            .iter()
            .find(|r| r.outcome == RunOutcome::Panicked)
            .unwrap();
        assert!(panicked.top_error.as_deref().unwrap().contains("invariant"));
    }

    #[test]
    fn retries_scale_the_budget() {
        // A 60-fuel budget covers the (healthy) baseline but not the
        // spinning retry loop; retries at 8x each reach 3840 fuel — still
        // not enough for an infinite loop, so the point stays Diverged,
        // with every retry recorded.
        let p = pathological_program();
        let result = Campaign::new(&p)
            .budget(Budget::fuel(60))
            .retry(RetryPolicy {
                max_retries: 2,
                budget_multiplier: 8,
            })
            .run();
        let worst = result
            .runs
            .iter()
            .filter(|r| r.outcome == RunOutcome::Diverged)
            .map(|r| r.retries)
            .max()
            .unwrap();
        assert_eq!(worst, 2);
    }

    #[test]
    fn max_failures_skips_the_tail() {
        let p = pathological_program();
        let result = Campaign::new(&p)
            .budget(Budget::fuel(500))
            .retry(RetryPolicy::none())
            .max_failures(1)
            .run();
        let health = result.health();
        assert!(health.skipped > 0, "{health}");
        // Everything after the first unhealthy run is Skipped.
        let first_bad = result
            .runs
            .iter()
            .position(|r| !r.is_healthy())
            .expect("the pathological program has unhealthy runs");
        for run in &result.runs[first_bad + 1..] {
            assert_eq!(run.outcome, RunOutcome::Skipped);
        }
    }

    #[test]
    fn resume_reproduces_an_uninterrupted_sweep() {
        let p = pathological_program();
        let campaign = || {
            Campaign::new(&p)
                .budget(Budget::fuel(20_000))
                .retry(RetryPolicy::none())
        };
        let full = campaign().run();

        // Interrupt after roughly half the runs.
        let mut journal = full.journal();
        journal.truncate_runs(full.runs.len() / 2);
        let resumed = campaign().resume(&mut journal);

        assert_eq!(resumed.total_points, full.total_points);
        assert_eq!(resumed.baseline_calls, full.baseline_calls);
        assert_eq!(resumed.runs, full.runs, "resume is bit-for-bit");
        // The journal is now complete: resuming again re-runs nothing and
        // still agrees.
        let again = campaign().resume(&mut journal);
        assert_eq!(again.runs, full.runs);
    }

    #[test]
    #[should_panic(expected = "journal")]
    fn resume_rejects_a_foreign_journal() {
        let two = two_level_program();
        let mut journal = Campaign::new(&two).run().journal();
        let p = pathological_program();
        let _ = Campaign::new(&p).resume(&mut journal);
    }

    #[test]
    fn journal_round_trips_through_text() {
        let p = pathological_program();
        let result = Campaign::new(&p)
            .budget(Budget::fuel(20_000))
            .retry(RetryPolicy::none())
            .run();
        let journal = result.journal();
        let text = journal.serialize();
        let parsed = CampaignJournal::parse(&text).expect("serialized journal parses");
        assert_eq!(parsed, journal);
    }

    #[test]
    fn replay_matches_the_sweep_at_every_point_and_worker_count() {
        let p = two_level_program();
        let sequential = Campaign::new(&p).workers(1).run();
        let sharded = Campaign::new(&p).workers(3).run();
        assert_eq!(sequential.runs, sharded.runs);
        for run in &sequential.runs {
            let replay = Campaign::new(&p).replay(run.injection_point);
            assert_eq!(replay.run.marks, run.marks, "point {}", run.injection_point);
            assert_eq!(replay.run.outcome, run.outcome);
            assert_eq!(replay.run.injected, run.injected);
            assert!(replay.trace_emitted > 0, "the replay recorder is always on");
            assert_eq!(replay.trace_dropped, 0);
            assert_eq!(replay.trace.len() as u64, replay.trace_emitted);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let p = two_level_program();
        let a = Campaign::new(&p).replay(3);
        let b = Campaign::new(&p).replay(3);
        assert_eq!(a.run, b.run);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.divergence, b.divergence);
    }

    #[test]
    fn an_untraced_attempt_after_a_traced_one_records_nothing() {
        let p = two_level_program();
        let campaign = Campaign::new(&p);
        let mut vm = Vm::from_shared_registry(Rc::new(p.build_registry()));
        let attempt = |vm: &mut Vm, traced| {
            let hook = InjectionHook::with_injection_point(3);
            campaign
                .attempt(vm, 3, Budget::unlimited(), Start::Scratch, hook, traced)
                .expect("a from-scratch attempt always finishes")
        };
        let (traced_run, _) = attempt(&mut vm, true);
        let (untraced_run, _) = attempt(&mut vm, false);
        assert_eq!(traced_run, untraced_run);
        assert!(
            vm.take_trace().is_none(),
            "the recycled VM dropped the recorder"
        );
        attempt(&mut vm, true);
        assert!(vm.take_trace().is_some_and(|sink| sink.emitted() > 0));
    }

    #[test]
    fn replay_minimizes_the_nonatomic_divergence() {
        let p = two_level_program();
        // Point 3 injects into `inner`, leaving `a` incremented: outer is
        // non-atomic and the minimal explanation is that single cell.
        let replay = Campaign::new(&p).replay(3);
        assert!(replay.run.marks.iter().any(|m| !m.atomic));
        let d = replay
            .divergence
            .expect("non-atomic point has a divergence");
        assert_eq!(replay.registry.method_display(d.method), "T::outer");
        assert_eq!(d.minimal.len(), 1);
        assert_eq!(d.minimal[0].field, "a");
        assert_eq!(d.minimal[0].before, Value::Int(0));
        assert_eq!(d.minimal[0].after, Value::Int(1));
        assert!(d.total_surviving >= d.minimal.len());
        // Atomic points (injections into `outer` itself) have none.
        let atomic = Campaign::new(&p).replay(1);
        assert!(atomic.divergence.is_none());
    }

    #[test]
    fn replay_of_a_skipped_point_executes_for_real() {
        let p = pathological_program();
        let campaign = Campaign::new(&p)
            .budget(Budget::fuel(500))
            .retry(RetryPolicy::none())
            .max_failures(1);
        let result = campaign.run();
        let skipped = result
            .runs
            .iter()
            .find(|r| r.outcome == RunOutcome::Skipped)
            .expect("the failure cap skips the tail");
        // A skipped record carries zeroed execution statistics...
        assert_eq!(skipped.fuel_spent, 0);
        assert_eq!(skipped.snapshots, 0);
        assert_eq!(skipped.capture_bytes, 0);
        assert!(skipped.marks.is_empty());
        // ...and replay re-executes it under a fresh budget.
        let replay = campaign.replay(skipped.injection_point);
        assert_ne!(replay.run.outcome, RunOutcome::Skipped);
        assert!(replay.run.fuel_spent > 0);
    }

    #[test]
    fn auto_workers_stay_sequential_without_parallelism() {
        // The auto-workers bug this guards against: a machine reporting
        // `available_parallelism() == 1` used to get a full worker-pool
        // setup for large sweeps — one thread, plus channel and scope
        // overhead, for strictly serial execution.
        assert_eq!(plan_worker_count(0, None, 1, 10_000), 1);
        // Small sweeps stay sequential whatever the machine offers.
        assert_eq!(plan_worker_count(0, None, 16, 31), 1);
        // Auto mode on a parallel machine shards large sweeps.
        assert_eq!(plan_worker_count(0, None, 8, 10_000), 8);
        // Explicit counts (config, then environment) are honored as-is,
        // even on a single-core machine, clamped only to the work.
        assert_eq!(plan_worker_count(4, None, 1, 10_000), 4);
        assert_eq!(plan_worker_count(0, Some(6), 1, 10_000), 6);
        assert_eq!(plan_worker_count(4, Some(6), 1, 10_000), 4, "config wins");
        assert_eq!(plan_worker_count(64, None, 8, 3), 3, "clamped to work");
        assert_eq!(plan_worker_count(2, None, 8, 0), 1, "no work, no pool");
    }

    #[test]
    fn checkpoint_stride_resolution() {
        assert_eq!(CheckpointStride::Off.resolve(100), None);
        assert_eq!(CheckpointStride::Every(7).resolve(100), Some(7));
        assert_eq!(CheckpointStride::Every(0).resolve(100), None);
        assert_eq!(CheckpointStride::Auto.resolve(100), Some(10));
        assert_eq!(CheckpointStride::Auto.resolve(0), Some(1), "floor of 1");
        assert_eq!(CheckpointStride::Auto.resolve(10_000), Some(100));
    }

    /// An inner hook that changes nothing.
    struct Passthrough;

    impl CallHook for Passthrough {
        fn before(
            &mut self,
            _vm: &mut Vm,
            _site: &atomask_mor::CallSite,
        ) -> Result<atomask_mor::HookGuard, atomask_mor::Exception> {
            Ok(None)
        }

        fn after(
            &mut self,
            _vm: &mut Vm,
            _site: &atomask_mor::CallSite,
            _guard: atomask_mor::HookGuard,
            outcome: atomask_mor::MethodResult,
        ) -> atomask_mor::MethodResult {
            outcome
        }
    }

    #[test]
    fn harness_panics_are_journaled_at_every_worker_count() {
        // An inner-hook factory runs outside the guest's panic isolation,
        // so a panicking factory is a harness fault. Whether the point runs
        // inline or on a worker, the sweep records it as panicked and
        // completes.
        use std::sync::Arc;
        let p = two_level_program();
        for workers in [1, 2] {
            let calls = Arc::new(AtomicUsize::new(0));
            let result = Campaign::new(&p)
                .with_inner_hook({
                    let calls = Arc::clone(&calls);
                    move |_| {
                        // Call 1 is the baseline run; call 3 is the second
                        // injection attempt.
                        if calls.fetch_add(1, Ordering::Relaxed) == 2 {
                            panic!("factory fault");
                        }
                        Rc::new(RefCell::new(Passthrough))
                    }
                })
                .workers(workers)
                .checkpoint_stride(CheckpointStride::Off)
                .run();
            assert_eq!(result.injections(), 4, "workers {workers}");
            let faults: Vec<&RunResult> = result
                .runs
                .iter()
                .filter(|r| r.top_error.as_deref() == Some("panic: harness: factory fault"))
                .collect();
            assert_eq!(faults.len(), 1, "workers {workers}");
            assert_eq!(faults[0].outcome, RunOutcome::Panicked);
            assert_eq!(
                result.journal().run_for(faults[0].injection_point),
                Some(faults[0])
            );
        }
    }

    #[test]
    fn checkpoint_resume_matches_from_scratch_smoke() {
        // The exhaustive property suite lives in
        // `tests/checkpoint_equivalence.rs`; this smoke test keeps the
        // core bit-for-bit claim close to the implementation, on the
        // nastiest in-crate program (diverging and panicking points).
        let p = pathological_program();
        let base = |stride| {
            Campaign::new(&p)
                .budget(Budget::fuel(20_000))
                .workers(1)
                .checkpoint_stride(stride)
                .run()
        };
        let scratch = base(CheckpointStride::Off);
        for stride in [1, 2, 7] {
            let resumed = base(CheckpointStride::Every(stride));
            assert_eq!(resumed.runs, scratch.runs, "stride {stride}");
            assert_eq!(resumed.baseline_calls, scratch.baseline_calls);
            assert_eq!(resumed.total_points, scratch.total_points);
        }
    }

    #[test]
    fn checkpoint_resume_skips_prefix_work() {
        // Fuel and every other VM-visible statistic are identical by
        // construction (restored, not recharged), so the saved work can
        // only be observed through a side channel the engine cannot fake:
        // a host-side counter bumped by a guest body. From scratch, every
        // injection run re-executes the whole prefix, so body executions
        // are quadratic in the sweep size; with checkpoint-resume the
        // replayed prefixes never run guest bodies at all.
        use std::cell::Cell;
        thread_local! {
            static BODY_RUNS: Cell<u64> = const { Cell::new(0) };
        }
        const STEPS: i64 = 12;
        let p = FnProgram::new(
            "stepper",
            || {
                let mut rb = RegistryBuilder::new(Profile::java());
                rb.class("C", |c| {
                    c.field("n", Value::Int(0));
                    c.method("step", |ctx, this, _| {
                        BODY_RUNS.with(|b| b.set(b.get() + 1));
                        let n = ctx.get_int(this, "n");
                        ctx.set(this, "n", Value::Int(n + 1));
                        Ok(Value::Null)
                    });
                });
                rb.build()
            },
            |d| {
                let c = d.construct("C", &[])?;
                d.root(c);
                let mut last = Value::Null;
                for _ in 0..STEPS {
                    last = d.call(c, "step", &[])?;
                }
                Ok(last)
            },
        );
        let sweep = |stride| {
            BODY_RUNS.with(|b| b.set(0));
            let result = Campaign::new(&p).workers(1).checkpoint_stride(stride).run();
            (result, BODY_RUNS.with(|b| b.get()))
        };
        let (scratch, scratch_bodies) = sweep(CheckpointStride::Off);
        let (resumed, resumed_bodies) = sweep(CheckpointStride::Every(1));
        assert_eq!(scratch.runs, resumed.runs, "bit-identical results");
        assert!(
            resumed_bodies * 2 < scratch_bodies,
            "resumed sweep re-executed almost as many guest bodies \
             ({resumed_bodies}) as the quadratic from-scratch sweep \
             ({scratch_bodies})"
        );
    }
}
