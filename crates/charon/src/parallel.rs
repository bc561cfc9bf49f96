//! The region driver: Algorithm 1 over a work-stealing worklist.
//!
//! Every verification run goes through [`run_worklist`]. The sequential
//! [`crate::Verifier`] is a one-worker run; [`ParallelVerifier`] runs the
//! same loop on more threads, as the original implementation runs its
//! abstract-interpretation calls on as many threads as the host provides
//! (§6). Workers pop regions, run counterexample search and abstract
//! interpretation, and push split sub-regions back. The first
//! δ-counterexample found aborts the whole run.
//!
//! Worker 0 runs on the calling thread with the caller's [`Workspace`];
//! workers `1..n` are scoped threads, so a one-worker run spawns none.
//! Each worker pops the left child of its own splits first (the
//! sequential depth-first order), and a worker seeds its [`Minimizer`]
//! with `seed + w`, so worker 0 reproduces a sequential run exactly.
//!
//! Every region step is panic-isolated with an interval-domain retry, so
//! a single bad region degrades precision instead of killing a worker
//! thread (or the process). Budget-limited runs drain the worklist into a
//! [`Checkpoint`] for [`crate::Verifier::resume`].
//!
//! Regions are distributed by the work-stealing scheduler in
//! [`crate::sched`]: per-worker deques with steal-half balancing, and
//! condvar parking (never spinning) when a worker runs out of work while
//! regions are still in flight elsewhere.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use attack::Minimizer;
use domains::{Bounds, Workspace};
use nn::Network;
use parking_lot::Mutex;

use crate::checkpoint::Checkpoint;
use crate::error::{BudgetKind, VerifyError};
use crate::faults::FaultSite;
use crate::policy::Policy;
use crate::sched::{Region, Scheduler, SchedulerMode};
use crate::telemetry::{emit, SharedSink, TraceEvent};
use crate::verify::{
    guarded_region_step, verdict_name, CertRecorder, RegionOutcome, StepEnv, Verdict, Verifier,
    VerifierConfig, VerifyRun, VerifyStats,
};
use crate::RobustnessProperty;

/// A [`Verifier`] whose runs use several worker threads.
///
/// Semantics match the sequential verifier (same soundness and
/// δ-completeness); only scheduling differs, so which δ-counterexample is
/// reported may vary between runs. With one thread it *is* the sequential
/// verifier: same regions, same order, same checkpoint and certificate.
#[derive(Clone)]
pub struct ParallelVerifier {
    verifier: Verifier,
    workers: Workers,
}

/// How many workers drive a run and how they share its regions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Workers {
    pub threads: usize,
    pub mode: SchedulerMode,
}

impl Workers {
    /// The sequential verifier: one worker on the calling thread.
    pub(crate) const ONE: Workers = Workers {
        threads: 1,
        mode: SchedulerMode::WorkStealing,
    };
}

/// State shared by every worker of one run.
struct Shared<'a> {
    sched: &'a Scheduler,
    regions_done: &'a AtomicUsize,
    stop: &'a AtomicBool,
    found: &'a Mutex<Option<(Verdict, Option<BudgetKind>)>>,
    error: &'a Mutex<Option<VerifyError>>,
}

/// The engine's record-and-stop verdict preference rule: whether an
/// `incoming` verdict should replace the `current` one.
///
/// First writer wins, with one exception: a validated refutation replaces
/// an already-recorded `ResourceLimit`. A worker (or shard node) mid-step
/// when another hits a budget may still find a real counterexample;
/// dropping it would checkpoint a worklist without the refuted region,
/// and resuming that checkpoint could flip the verdict to `Verified`.
///
/// This single rule is shared by the in-process driver and the
/// coordinator tier's cross-node shard merge, so the two scheduling
/// layers cannot drift apart semantically.
pub fn verdict_supersedes(current: Option<&Verdict>, incoming: &Verdict) -> bool {
    match current {
        None => true,
        Some(Verdict::ResourceLimit) => matches!(incoming, Verdict::Refuted(_)),
        Some(_) => false,
    }
}

impl Shared<'_> {
    /// Records a verdict and tells everyone to stop, following
    /// [`verdict_supersedes`].
    fn record_and_stop(&self, verdict: Verdict, limit: Option<BudgetKind>) {
        let mut slot = self.found.lock();
        if verdict_supersedes(slot.as_ref().map(|(v, _)| v), &verdict) {
            *slot = Some((verdict, limit));
        }
        self.stop.store(true, Ordering::Release);
        // Parked workers observe `stop` only when awake; wake them so the
        // run winds down promptly instead of after a park slice.
        self.sched.wake_all();
    }

    /// Records an engine error (first writer wins) and stops the run.
    fn record_error(&self, e: VerifyError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::Release);
        self.sched.wake_all();
    }
}

impl ParallelVerifier {
    /// Creates a parallel verifier.
    ///
    /// `threads = 0` selects the number of available CPUs.
    pub fn new(policy: Arc<dyn Policy>, config: VerifierConfig, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            threads
        };
        ParallelVerifier {
            verifier: Verifier::new(policy, config),
            workers: Workers {
                threads,
                mode: SchedulerMode::default(),
            },
        }
    }

    /// Attaches a trace sink shared by all workers; events from different
    /// workers interleave at event granularity. The default sink is
    /// [`crate::telemetry::NullSink`] (tracing off, zero overhead).
    #[must_use]
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.verifier = self.verifier.with_trace(sink);
        self
    }

    /// Overrides the scheduling discipline. The default is
    /// [`SchedulerMode::default`], which selects work stealing unless
    /// `CHARON_FORCE_SCALAR` forces the shared-queue fallback.
    #[must_use]
    pub fn with_scheduler(mut self, mode: SchedulerMode) -> Self {
        self.workers.mode = mode;
        self
    }

    /// The scheduling discipline this verifier will use.
    pub fn scheduler_mode(&self) -> SchedulerMode {
        self.workers.mode
    }

    /// Number of worker threads used.
    pub fn threads(&self) -> usize {
        self.workers.threads
    }

    /// Verifies a property using all worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the property's region dimension differs from the
    /// network's input dimension, the target class is out of range, or
    /// the engine fails irrecoverably (see
    /// [`ParallelVerifier::try_verify_run`] for the non-panicking API).
    pub fn verify(&self, net: &Network, property: &RobustnessProperty) -> Verdict {
        self.verifier.checked_run(net, property, self.workers).verdict
    }

    /// Parallel analogue of [`crate::Verifier::try_verify_run`].
    ///
    /// # Errors
    ///
    /// As the sequential variant: structured [`VerifyError`]s for
    /// malformed inputs and irrecoverable engine failures.
    pub fn try_verify_run(
        &self,
        net: &Network,
        property: &RobustnessProperty,
    ) -> Result<VerifyRun, VerifyError> {
        self.verifier
            .fresh_run(net, property, self.workers, &mut Workspace::new())
    }

    /// Continues an interrupted run from a [`Checkpoint`] (see
    /// [`crate::Verifier::resume`]).
    ///
    /// # Errors
    ///
    /// As [`ParallelVerifier::try_verify_run`].
    pub fn resume(&self, net: &Network, checkpoint: &Checkpoint) -> Result<VerifyRun, VerifyError> {
        self.verifier
            .resumed_run(net, checkpoint, self.workers, &mut Workspace::new())
    }
}

/// The one worklist driver behind every verifier entry point.
///
/// `cert_root` is `Some(root region)` when this is a fresh single-root
/// run that should emit a proof certificate; resumed runs pass `None`.
/// Worker 0 runs here on the calling thread with `ws`; workers
/// `1..threads` get scoped threads and arenas of their own.
pub(crate) fn run_worklist(
    verifier: &Verifier,
    workers: Workers,
    net: &Network,
    target: usize,
    initial: Vec<Region>,
    cert_root: Option<Bounds>,
    ws: &mut Workspace,
) -> Result<VerifyRun, VerifyError> {
    let config = &verifier.config;
    let start = Instant::now();
    let deadline = start + config.timeout;
    let sched = Scheduler::new(workers.threads, workers.mode, initial);
    let regions_done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let found: Mutex<Option<(Verdict, Option<BudgetKind>)>> = Mutex::new(None);
    let error: Mutex<Option<VerifyError>> = Mutex::new(None);
    let shared = Shared {
        sched: &sched,
        regions_done: &regions_done,
        stop: &stop,
        found: &found,
        error: &error,
    };
    let total_stats: Mutex<VerifyStats> = Mutex::new(VerifyStats::default());
    // Per-worker leaf/split records merge here (like the stats) and are
    // assembled into a certificate once the verdict is known.
    let recording = cert_root.is_some();
    let total_records = Mutex::new(cert_root.map_or_else(CertRecorder::default, CertRecorder::new));
    // The objective F is a difference of two M-Lipschitz outputs, so it
    // is 2M-Lipschitz; computed once per run.
    let objective_lipschitz = if config.lipschitz_prefilter {
        2.0 * net.lipschitz_bound()
    } else {
        f64::INFINITY
    };

    let run_worker = |worker: usize, ws: &mut Workspace| {
        let minimizer =
            Minimizer::new(config.seed.wrapping_add(worker as u64)).with_restarts(config.restarts);
        let env = StepEnv {
            net,
            target,
            minimizer: &minimizer,
            policy: verifier.policy.as_ref(),
            config,
            deadline,
            objective_lipschitz,
            trace: verifier.trace.as_ref(),
        };
        let mut stats = VerifyStats::default();
        let mut records = recording.then(CertRecorder::default);
        // The arena spans the worker's whole share of the run (and, for
        // worker 0 of a long-lived caller, many runs): buffers recycle
        // across regions, never across threads.
        worker_loop(worker, &env, &shared, &mut stats, &mut records, ws);
        total_stats.lock().absorb(&stats);
        if let Some(records) = records {
            total_records.lock().absorb(records);
        }
    };
    let scope_result = crossbeam::scope(|scope| {
        for worker in 1..workers.threads {
            let run_worker = &run_worker;
            scope.spawn(move |_| run_worker(worker, &mut Workspace::new()));
        }
        run_worker(0, ws);
    });
    if scope_result.is_err() {
        // Workers are panic-isolated, so this is a bug in the driver
        // itself; surface it as an engine error, not a process abort.
        return Err(VerifyError::WorkerPanic {
            message: "parallel worker panicked outside the isolation boundary".to_string(),
        });
    }

    let (verdict, limit) = match (error.into_inner(), found.into_inner()) {
        // A validated refutation outranks a late engine error: the
        // counterexample is real regardless of what broke elsewhere.
        (Some(_), Some((Verdict::Refuted(cex), _))) => (Verdict::Refuted(cex), None),
        (Some(e), _) => return Err(e),
        (None, Some((verdict, limit))) => (verdict, limit),
        (None, None) => (Verdict::Verified, None),
    };
    let mut stats = total_stats.into_inner();
    stats.elapsed = start.elapsed();
    // The checkpoint counts regions from the *merged* worker stats, which
    // absorb every worker on every exit path; `regions_done` also counts
    // claims that were requeued at the cap.
    let checkpoint = (verdict == Verdict::ResourceLimit).then(|| Checkpoint {
        target,
        pending: sched.into_pending(),
        regions_done: stats.regions,
    });
    let trace = verifier.trace.as_ref();
    if let Some(ckpt) = &checkpoint {
        emit(trace, || TraceEvent::CheckpointSaved {
            pending: ckpt.pending.len(),
            regions_done: ckpt.regions_done,
        });
    }
    emit(trace, || TraceEvent::Verdict {
        verdict: verdict_name(&verdict).to_string(),
        regions: stats.regions,
        seconds: stats.elapsed.as_secs_f64(),
    });
    let certificate = total_records
        .into_inner()
        .finish(net, target, config.delta, &verdict);
    Ok(VerifyRun {
        verdict,
        stats,
        checkpoint,
        limit,
        certificate,
    })
}

/// One worker: pop (or steal) regions, claim each against the region
/// cap, run the guarded step, push splits back onto its own deque.
fn worker_loop(
    worker: usize,
    env: &StepEnv<'_>,
    shared: &Shared<'_>,
    stats: &mut VerifyStats,
    records: &mut Option<CertRecorder>,
    ws: &mut Workspace,
) {
    let config = env.config;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let budget = if Instant::now() >= env.deadline {
            Some(BudgetKind::Timeout)
        } else if shared.regions_done.load(Ordering::Relaxed) >= config.max_regions {
            Some(BudgetKind::Regions)
        } else if config
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            Some(BudgetKind::Cancelled)
        } else {
            None
        };
        if let Some(kind) = budget {
            // A budget lapsing after the worklist drained is a completed
            // run, not a resource limit: report nothing and let the
            // driver conclude `Verified`. `drained` is stable — split
            // children enter the task count before their parent leaves
            // it — so this check cannot race a mid-split worker.
            if !shared.sched.drained() {
                shared.record_and_stop(Verdict::ResourceLimit, Some(kind));
            }
            return;
        }
        let Some((region, depth)) = shared.sched.try_pop(worker, &mut stats.metrics) else {
            // Every deque is empty: finished if nothing is in flight,
            // otherwise park until an in-flight region splits (the
            // scheduler wakes us) or a park slice elapses (so deadlines
            // and external cancellation stay observed).
            if shared.sched.drained() {
                return;
            }
            let now = Instant::now();
            if now < env.deadline {
                shared.sched.park(env.deadline - now, &mut stats.metrics, || {
                    shared.stop.load(Ordering::Acquire)
                });
            }
            continue;
        };
        // One atomic claim per region: the cap is exact across workers,
        // and unfaulted runs number their regions without duplicates. A
        // claim past the cap goes back unprocessed, still counted as a
        // task, so the checkpoint holds it.
        let claim = shared.regions_done.fetch_add(1, Ordering::Relaxed);
        if claim >= config.max_regions {
            shared.sched.requeue(worker, (region, depth));
            shared.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::Regions));
            return;
        }
        let ordinal = match &config.faults {
            Some(plan) => plan.next_region(),
            None => claim,
        };
        emit(env.trace, || TraceEvent::RegionPopped { ordinal, depth });
        if config
            .faults
            .as_ref()
            .is_some_and(|plan| plan.fire(FaultSite::Cancel, ordinal))
        {
            emit(env.trace, || TraceEvent::FaultTriggered {
                site: FaultSite::Cancel.as_str().to_string(),
                ordinal,
            });
            if let Some(flag) = &config.cancel {
                flag.store(true, Ordering::Relaxed);
            }
            shared.sched.requeue(worker, (region, depth));
            shared.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::Cancelled));
            return;
        }
        stats.regions += 1;
        stats.max_depth = stats.max_depth.max(depth);
        match guarded_region_step(env, &region, ordinal, stats, ws) {
            Ok(RegionOutcome::Verified { domain, margin }) => {
                stats.verified_regions += 1;
                if let Some(rec) = records {
                    rec.leaf(&region, domain, margin);
                }
                shared.sched.complete_one();
            }
            Ok(RegionOutcome::Refuted(cex)) => {
                shared.record_and_stop(Verdict::Refuted(cex), None);
                shared.sched.complete_one();
            }
            Ok(RegionOutcome::Split {
                left,
                right,
                dim,
                at,
            }) => {
                emit(env.trace, || TraceEvent::RegionPushed { depth: depth + 1 });
                emit(env.trace, || TraceEvent::RegionPushed { depth: depth + 1 });
                if let Some(rec) = records {
                    rec.split(&region, dim, at);
                }
                // Children enter the worklist before the parent completes,
                // so the drained signal never dips mid-split. The left
                // child goes on top: the owner explores depth-first, left
                // first, exactly as the sequential verifier always has.
                shared
                    .sched
                    .push_split(worker, (right, depth + 1), (left, depth + 1));
                shared.sched.complete_one();
            }
            Ok(RegionOutcome::Unsplittable) => {
                // Undecidable at f64 precision: an honest resource limit,
                // never a fabricated refutation. Keep the region in the
                // worklist so the checkpoint records it.
                shared.sched.requeue(worker, (region, depth));
                shared.record_and_stop(
                    Verdict::ResourceLimit,
                    Some(BudgetKind::NumericPrecision),
                );
            }
            Err(e) => {
                shared.record_error(e);
                shared.sched.complete_one();
            }
        }
    }
}

/// Solves a batch of `(network, property)` pairs in parallel, one property
/// per thread, with a per-property timeout. Returns the verdicts in input
/// order. This mirrors the MPI-parallel training setup of §6.
pub fn verify_batch(
    problems: &[(Network, RobustnessProperty)],
    policy: Arc<dyn Policy>,
    config: &VerifierConfig,
    threads: usize,
) -> Vec<(Verdict, Duration)> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(Verdict, Duration)>>> = Mutex::new(vec![None; problems.len()]);

    crossbeam::scope(|scope| {
        for _ in 0..threads.min(problems.len().max(1)) {
            let next = &next;
            let results = &results;
            let policy = Arc::clone(&policy);
            let config = config.clone();
            scope.spawn(move |_| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= problems.len() {
                    return;
                }
                let (net, prop) = &problems[idx];
                let verifier = crate::Verifier::new(Arc::clone(&policy), config.clone());
                let start = Instant::now();
                let verdict = verifier.verify(net, prop);
                let elapsed = start.elapsed();
                results.lock()[idx] = Some((verdict, elapsed));
            });
        }
    })
    .expect("worker thread panicked");

    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every problem processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, LinearPolicy};
    use domains::DomainChoice;
    use nn::samples;

    fn default_parallel(threads: usize) -> ParallelVerifier {
        ParallelVerifier::new(
            Arc::new(LinearPolicy::default()),
            VerifierConfig::default(),
            threads,
        )
    }

    #[test]
    fn parallel_verifies_xor_property() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        assert_eq!(default_parallel(4).verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn parallel_refutes_unit_square() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        match default_parallel(4).verify(&net, &prop) {
            Verdict::Refuted(cex) => {
                assert!(prop.region().contains(&cex.point));
                assert!(cex.objective <= 1e-9);
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn parallel_agrees_with_sequential_on_examples() {
        let cases = [
            (samples::example_2_2_network(), vec![-1.0], vec![1.0], true),
            (samples::example_2_2_network(), vec![-1.0], vec![2.0], false),
        ];
        for (net, lo, hi, expect_verified) in cases {
            let prop = RobustnessProperty::new(Bounds::new(lo, hi), 1);
            let par = default_parallel(3).verify(&net, &prop);
            let seq = crate::Verifier::default().verify(&net, &prop);
            assert_eq!(par.is_verified(), expect_verified);
            assert_eq!(seq.is_verified(), expect_verified);
        }
    }

    #[test]
    fn single_thread_parallel_works() {
        let net = samples::example_2_3_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        assert_eq!(default_parallel(1).verify(&net, &prop), Verdict::Verified);
    }

    #[test]
    fn parallel_budget_run_checkpoints_and_resumes() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        let config = VerifierConfig {
            max_regions: 1,
            ..VerifierConfig::default()
        };
        let limited = ParallelVerifier::new(
            Arc::new(FixedPolicy::new(DomainChoice::interval())),
            config.clone(),
            2,
        );
        let first = limited.try_verify_run(&net, &prop).unwrap();
        assert_eq!(first.verdict, Verdict::ResourceLimit);
        assert_eq!(first.limit, Some(BudgetKind::Regions));
        let ckpt = first.checkpoint.expect("budget run checkpoints");
        assert!(!ckpt.pending.is_empty());

        let full = ParallelVerifier::new(
            Arc::new(FixedPolicy::new(DomainChoice::interval())),
            VerifierConfig::default(),
            2,
        );
        let resumed = full.resume(&net, &ckpt).unwrap();
        assert_eq!(resumed.verdict, Verdict::Verified);
    }

    #[test]
    fn refutation_outranks_recorded_resource_limit() {
        use crate::verify::Counterexample;

        let sched = Scheduler::new(1, SchedulerMode::WorkStealing, Vec::new());
        let regions_done = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let found: Mutex<Option<(Verdict, Option<BudgetKind>)>> = Mutex::new(None);
        let error: Mutex<Option<VerifyError>> = Mutex::new(None);
        let shared = Shared {
            sched: &sched,
            regions_done: &regions_done,
            stop: &stop,
            found: &found,
            error: &error,
        };
        let cex = Counterexample {
            point: vec![0.0, 0.0],
            objective: 0.0,
        };

        // A worker mid-step when the budget lapses may still validate a
        // counterexample; it must replace the budget verdict.
        shared.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::Timeout));
        shared.record_and_stop(Verdict::Refuted(cex.clone()), None);
        assert_eq!(*found.lock(), Some((Verdict::Refuted(cex.clone()), None)));

        // A later budget verdict never downgrades the refutation, and a
        // second refutation does not replace the first.
        shared.record_and_stop(Verdict::ResourceLimit, Some(BudgetKind::Regions));
        shared.record_and_stop(
            Verdict::Refuted(Counterexample {
                point: vec![1.0, 1.0],
                objective: -1.0,
            }),
            None,
        );
        assert_eq!(*found.lock(), Some((Verdict::Refuted(cex), None)));
        assert!(stop.load(Ordering::Acquire));
    }

    #[test]
    fn lapsed_budget_with_drained_worklist_reports_verified() {
        // A worklist that completes exactly as the deadline lapses (here:
        // resuming a checkpoint whose pending set is already empty under a
        // zero timeout) is a finished proof, not a resource limit.
        let net = samples::xor_network();
        let ckpt = Checkpoint {
            target: 1,
            pending: vec![],
            regions_done: 7,
        };
        let config = VerifierConfig {
            timeout: Duration::ZERO,
            ..VerifierConfig::default()
        };
        let verifier = ParallelVerifier::new(Arc::new(LinearPolicy::default()), config, 2);
        let run = verifier.resume(&net, &ckpt).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        assert!(run.checkpoint.is_none());
        assert!(run.limit.is_none());
    }

    #[test]
    fn resource_limited_refutable_run_never_resumes_to_verified() {
        // Budget-starve a refutable property so workers race budgets
        // against the refutation; whatever interleaving happens, chasing
        // checkpoints must end in Refuted, never flip to Verified.
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        for seed in 0..4 {
            let starved = ParallelVerifier::new(
                Arc::new(FixedPolicy::new(DomainChoice::interval())),
                VerifierConfig {
                    max_regions: 1,
                    counterexample_search: false,
                    seed,
                    ..VerifierConfig::default()
                },
                4,
            );
            let full = ParallelVerifier::new(
                Arc::new(FixedPolicy::new(DomainChoice::interval())),
                VerifierConfig::default(),
                4,
            );
            let mut run = starved.try_verify_run(&net, &prop).unwrap();
            let mut hops = 0;
            loop {
                match run.verdict {
                    Verdict::Refuted(ref cex) => {
                        assert!(prop.region().contains(&cex.point));
                        break;
                    }
                    Verdict::ResourceLimit => {
                        let ckpt = run.checkpoint.expect("budget runs checkpoint");
                        run = full.resume(&net, &ckpt).unwrap();
                    }
                    Verdict::Verified => panic!("verdict flip on refutable property (seed {seed})"),
                }
                hops += 1;
                assert!(hops < 8, "resume chain did not converge");
            }
        }
    }

    #[test]
    fn parallel_merged_certificate_passes_audit() {
        let net = samples::xor_network();
        let config = VerifierConfig {
            certificates: true,
            ..VerifierConfig::default()
        };
        let verifier = ParallelVerifier::new(Arc::new(LinearPolicy::default()), config, 4);

        // Verified: worker-interleaved records assemble into one tree.
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        let run = verifier.try_verify_run(&net, &prop).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        let certificate = run.certificate.expect("parallel run emits a certificate");
        let report = cert::audit(&certificate, &net, &cert::AuditOptions::default())
            .expect("audit accepts the merged certificate");
        assert!(report.verified);
        assert_eq!(report.leaves, run.stats.verified_regions);

        // Refuted: the witness certificate audits, whichever worker won.
        let broken = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        let run = verifier.try_verify_run(&net, &broken).unwrap();
        assert!(run.verdict.is_refuted());
        let certificate = run.certificate.expect("refuted parallel run emits a certificate");
        let report = cert::audit(&certificate, &net, &cert::AuditOptions::default())
            .expect("audit accepts the witness");
        assert!(!report.verified);
    }

    #[test]
    fn parallel_collects_aggregate_stats() {
        let net = samples::xor_network();
        let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
        let run = default_parallel(3).try_verify_run(&net, &prop).unwrap();
        assert_eq!(run.verdict, Verdict::Verified);
        assert!(run.stats.regions >= 1);
        assert!(run.stats.analyze_calls >= 1);
    }

    #[test]
    fn batch_returns_results_in_order() {
        let problems = vec![
            (
                samples::xor_network(),
                RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1),
            ),
            (
                samples::xor_network(),
                RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1),
            ),
            (
                samples::example_2_2_network(),
                RobustnessProperty::new(Bounds::new(vec![-1.0], vec![1.0]), 1),
            ),
        ];
        let results = verify_batch(
            &problems,
            Arc::new(LinearPolicy::default()),
            &VerifierConfig::default(),
            2,
        );
        assert_eq!(results.len(), 3);
        assert!(results[0].0.is_verified());
        assert!(results[1].0.is_refuted());
        assert!(results[2].0.is_verified());
    }
}
