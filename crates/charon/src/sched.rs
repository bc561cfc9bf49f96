//! Work-stealing region scheduler.
//!
//! Distributes the regions of the [`crate::parallel`] driver over
//! per-worker deques: each worker pushes split sub-regions onto its own
//! deque and pops from the same end (LIFO, so the search stays
//! depth-first and cache-warm), while an out-of-work worker steals *half*
//! of a victim's deque from the opposite end (FIFO, so thieves take the
//! oldest — shallowest, largest — regions, which amortizes the steal).
//!
//! Idle workers park on a condvar instead of spinning. The parking
//! protocol is the classic two-phase check: a parker advertises itself
//! (`parked += 1`, sequentially consistent) *before* re-checking the
//! queued count, and a pusher publishes work (`queued += n`) *before*
//! reading `parked`. Whichever side wins the race, the other observes it:
//! either the parker sees the new work and aborts the park, or the pusher
//! sees the parker and notifies. Parks are additionally bounded by a
//! short timeout so budget deadlines and external cancellation are
//! observed promptly even with no work in flight.
//!
//! Termination uses a single `tasks` counter covering queued *and*
//! in-flight regions: workers push children before completing the parent,
//! so `tasks == 0` is a stable "worklist drained" signal (never a
//! transient dip mid-split). Regions re-queued for checkpointing
//! (cancellation faults, unsplittable regions) do not re-increment the
//! counter — they were never completed.
//!
//! [`SchedulerMode::SharedQueue`] degenerates to one shared deque (the
//! pre-steal behaviour, minus the spinning) and is selected automatically
//! when `CHARON_FORCE_SCALAR` is set, so the scalar-kernel fallback
//! configuration is honoured end to end by one switch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use domains::Bounds;
use parking_lot::Mutex;

use crate::telemetry::Metrics;

/// A region awaiting processing: bounds plus split depth.
pub(crate) type Region = (Bounds, usize);

/// Longest single park; bounds how stale a worker's view of the deadline
/// and the external cancel flag can get while it has no work.
const PARK_SLICE: Duration = Duration::from_millis(25);

/// Which scheduling discipline a [`crate::parallel::ParallelVerifier`]
/// uses to distribute regions across workers.
///
/// Both modes produce the same verdicts and the same merged statistics;
/// only the order in which regions are processed (and hence which
/// δ-counterexample a refutable run reports first) may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Per-worker deques with steal-half balancing (the default).
    WorkStealing,
    /// One shared LIFO deque for all workers — the portable fallback,
    /// selected by default when `CHARON_FORCE_SCALAR` is set (the same
    /// switch that forces scalar tensor kernels).
    SharedQueue,
}

impl Default for SchedulerMode {
    /// [`SchedulerMode::WorkStealing`] unless `CHARON_FORCE_SCALAR` is
    /// set to a non-empty value other than `0`.
    fn default() -> Self {
        match std::env::var_os("CHARON_FORCE_SCALAR") {
            Some(v) if !v.is_empty() && v != "0" => SchedulerMode::SharedQueue,
            _ => SchedulerMode::WorkStealing,
        }
    }
}

impl SchedulerMode {
    /// Display name, as recorded in bench files and run reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerMode::WorkStealing => "work_stealing",
            SchedulerMode::SharedQueue => "shared_queue",
        }
    }
}

/// The shared scheduler state of one parallel run.
pub(crate) struct Scheduler {
    /// One deque per worker (one total in shared-queue mode). Owners
    /// push/pop at the back; thieves drain from the front.
    deques: Vec<Mutex<VecDeque<Region>>>,
    /// Regions sitting in some deque (not in flight). Parking checks.
    queued: AtomicUsize,
    /// Queued + in-flight regions. Zero means the worklist is drained:
    /// children are pushed *before* the parent completes.
    tasks: AtomicUsize,
    /// Workers currently inside a park (or committing to one).
    parked: AtomicUsize,
    /// Guards the condvar; holds no data — all state is atomic.
    gate: StdMutex<()>,
    /// Signalled on push, on drain, and on stop.
    work: Condvar,
}

impl Scheduler {
    /// Builds a scheduler for `workers` workers seeded with `initial`
    /// regions (distributed round-robin so workers start on disjoint
    /// work). `SharedQueue` mode collapses to a single deque.
    pub(crate) fn new(workers: usize, mode: SchedulerMode, initial: Vec<Region>) -> Self {
        let slots = match mode {
            SchedulerMode::WorkStealing => workers.max(1),
            SchedulerMode::SharedQueue => 1,
        };
        let mut deques: Vec<VecDeque<Region>> = (0..slots).map(|_| VecDeque::new()).collect();
        let count = initial.len();
        for (i, region) in initial.into_iter().enumerate() {
            deques[i % slots].push_back(region);
        }
        Scheduler {
            deques: deques.into_iter().map(Mutex::new).collect(),
            queued: AtomicUsize::new(count),
            tasks: AtomicUsize::new(count),
            parked: AtomicUsize::new(0),
            gate: StdMutex::new(()),
            work: Condvar::new(),
        }
    }

    /// Pops a region for `worker`: its own deque first (LIFO), then a
    /// steal-half pass over the other deques. Steal counts land in the
    /// worker's [`Metrics`] so scheduler behaviour shows up in run
    /// reports. Returns `None` only if every deque was empty at the time
    /// it was inspected.
    pub(crate) fn try_pop(&self, worker: usize, metrics: &mut Metrics) -> Option<Region> {
        let slots = self.deques.len();
        let me = worker % slots;
        if let Some(region) = self.deques[me].lock().pop_back() {
            self.queued.fetch_sub(1, SeqCst);
            return Some(region);
        }
        if slots == 1 {
            return None;
        }
        for offset in 1..slots {
            let victim = (me + offset) % slots;
            let mut loot: VecDeque<Region> = {
                let mut deque = self.deques[victim].lock();
                let take = deque.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                deque.drain(..take).collect()
            };
            self.queued.fetch_sub(loot.len(), SeqCst);
            metrics.record_steal(loot.len() as u64);
            let first = loot.pop_front().expect("steal takes at least one region");
            if !loot.is_empty() {
                let surplus = loot.len();
                self.deques[me].lock().append(&mut loot);
                self.queued.fetch_add(surplus, SeqCst);
                // The surplus transiently vanished from `queued`; a
                // worker that parked during the dip needs a nudge.
                self.notify_if_parked();
            }
            return Some(first);
        }
        None
    }

    /// Pushes the two children of a split. `b` lands on top, so the
    /// owner pops it next while thieves take `a` first. The task counter
    /// grows before the regions become visible, so `tasks` never
    /// under-counts; the caller completes the parent *afterwards* (see
    /// [`Scheduler::complete_one`]).
    pub(crate) fn push_split(&self, worker: usize, a: Region, b: Region) {
        self.tasks.fetch_add(2, SeqCst);
        let me = worker % self.deques.len();
        {
            let mut deque = self.deques[me].lock();
            deque.push_back(a);
            deque.push_back(b);
        }
        self.queued.fetch_add(2, SeqCst);
        self.notify_if_parked();
    }

    /// Returns a popped region to the worklist *without* growing the task
    /// counter: the region was never completed, it just needs to be in
    /// the deques when the checkpoint drains them (cancellation faults,
    /// unsplittable regions).
    pub(crate) fn requeue(&self, worker: usize, region: Region) {
        let me = worker % self.deques.len();
        self.deques[me].lock().push_back(region);
        self.queued.fetch_add(1, SeqCst);
        self.notify_if_parked();
    }

    /// Marks one popped region as fully processed (verified, refuted, or
    /// errored — anything that does not re-queue it). On the last region
    /// every parked worker is woken so the run can finish.
    pub(crate) fn complete_one(&self) {
        if self.tasks.fetch_sub(1, SeqCst) == 1 {
            self.wake_all();
        }
    }

    /// True once every region has been completed (none queued, none in
    /// flight). Stable: `tasks` never dips to zero transiently.
    pub(crate) fn drained(&self) -> bool {
        self.tasks.load(SeqCst) == 0
    }

    /// Parks the calling worker until work arrives, the run drains, the
    /// `abort` condition holds, or `limit` elapses — whichever is first.
    /// The park (if it happens) is timed into the worker's [`Metrics`].
    pub(crate) fn park(&self, limit: Duration, metrics: &mut Metrics, abort: impl Fn() -> bool) {
        let limit = limit.min(PARK_SLICE);
        let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        // Advertise before re-checking: a pusher increments `queued`
        // before reading `parked` (both SeqCst), so either we see its
        // work here or it sees us and notifies under the gate.
        self.parked.fetch_add(1, SeqCst);
        if self.queued.load(SeqCst) > 0 || self.drained() || abort() {
            self.parked.fetch_sub(1, SeqCst);
            return;
        }
        let start = Instant::now();
        let _ = self.work.wait_timeout(guard, limit);
        self.parked.fetch_sub(1, SeqCst);
        metrics.record_park(start.elapsed().as_secs_f64());
    }

    /// Wakes every parked worker (stop, error, or drained worklist).
    pub(crate) fn wake_all(&self) {
        let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.work.notify_all();
    }

    fn notify_if_parked(&self) {
        if self.parked.load(SeqCst) > 0 {
            // Taking the gate orders the notify after any in-progress
            // parker has reached its wait.
            let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.work.notify_all();
        }
    }

    /// Consumes the scheduler, returning every region still queued (for
    /// checkpointing a budget-limited run). Deque order is preserved
    /// deque by deque; checkpoint consumers treat pending sets as
    /// unordered.
    pub(crate) fn into_pending(self) -> Vec<Region> {
        let mut pending = Vec::new();
        for deque in self.deques {
            pending.extend(deque.into_inner());
        }
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(tag: usize) -> Region {
        (Bounds::new(vec![0.0], vec![tag as f64 + 1.0]), tag)
    }

    #[test]
    fn seeds_round_robin_and_drains_in_lifo_order_per_deque() {
        let sched = Scheduler::new(2, SchedulerMode::WorkStealing, vec![region(0), region(1)]);
        let mut m = Metrics::new();
        // Worker 0's own deque holds region 0; worker 1's holds region 1.
        assert_eq!(sched.try_pop(0, &mut m).unwrap().1, 0);
        assert_eq!(sched.try_pop(1, &mut m).unwrap().1, 1);
        assert!(sched.try_pop(0, &mut m).is_none());
        assert_eq!(m.steals, 0);
    }

    #[test]
    fn steal_takes_half_from_the_front() {
        let sched = Scheduler::new(2, SchedulerMode::WorkStealing, vec![]);
        // Worker 0 splits twice: its deque is [s0, s1, s2, s3] back-most
        // newest. tasks bookkeeping: fake two outstanding parents.
        sched.push_split(0, region(10), region(11));
        sched.push_split(0, region(12), region(13));
        let mut m = Metrics::new();
        // Worker 1 steals ceil(4/2) = 2 oldest (10, 11), keeps the first,
        // deposits the second in its own deque.
        let got = sched.try_pop(1, &mut m).unwrap();
        assert_eq!(got.1, 10);
        assert_eq!(m.steals, 1);
        assert_eq!(m.stolen_regions, 2);
        assert_eq!(sched.try_pop(1, &mut m).unwrap().1, 11);
        // Worker 0 still owns its newest work.
        assert_eq!(sched.try_pop(0, &mut m).unwrap().1, 13);
        assert_eq!(sched.try_pop(0, &mut m).unwrap().1, 12);
    }

    #[test]
    fn shared_queue_mode_uses_one_deque_for_all_workers() {
        let sched = Scheduler::new(
            4,
            SchedulerMode::SharedQueue,
            vec![region(0), region(1), region(2)],
        );
        let mut m = Metrics::new();
        // All workers pop from the same LIFO deque; no steals ever.
        assert_eq!(sched.try_pop(3, &mut m).unwrap().1, 2);
        assert_eq!(sched.try_pop(1, &mut m).unwrap().1, 1);
        assert_eq!(sched.try_pop(2, &mut m).unwrap().1, 0);
        assert_eq!(m.steals, 0);
        assert!(!sched.drained());
    }

    #[test]
    fn tasks_counter_tracks_split_and_complete() {
        let sched = Scheduler::new(1, SchedulerMode::WorkStealing, vec![region(0)]);
        let mut m = Metrics::new();
        let parent = sched.try_pop(0, &mut m).unwrap();
        assert!(!sched.drained());
        sched.push_split(0, region(1), region(2));
        sched.complete_one(); // parent
        assert!(!sched.drained());
        let _ = sched.try_pop(0, &mut m).unwrap();
        sched.complete_one();
        let _ = sched.try_pop(0, &mut m).unwrap();
        sched.complete_one();
        assert!(sched.drained());
        drop(parent);
    }

    #[test]
    fn requeue_preserves_task_count_and_checkpoint_contents() {
        let sched = Scheduler::new(2, SchedulerMode::WorkStealing, vec![region(0), region(1)]);
        let mut m = Metrics::new();
        let popped = sched.try_pop(0, &mut m).unwrap();
        sched.requeue(0, popped);
        assert!(!sched.drained());
        let mut pending: Vec<usize> = sched.into_pending().into_iter().map(|(_, d)| d).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![0, 1]);
    }

    #[test]
    fn park_aborts_immediately_when_work_is_queued_or_drained() {
        let mut m = Metrics::new();
        // Queued work: park must return without waiting or counting.
        let busy = Scheduler::new(1, SchedulerMode::WorkStealing, vec![region(0)]);
        busy.park(Duration::from_secs(5), &mut m, || false);
        assert_eq!(m.parks, 0);
        // Drained: same.
        let done = Scheduler::new(1, SchedulerMode::WorkStealing, vec![]);
        done.park(Duration::from_secs(5), &mut m, || false);
        assert_eq!(m.parks, 0);
    }

    #[test]
    fn park_times_out_within_the_slice() {
        let sched = Scheduler::new(2, SchedulerMode::WorkStealing, vec![region(0)]);
        let mut m = Metrics::new();
        let _held = sched.try_pop(0, &mut m).unwrap(); // in flight, nothing queued
        let start = Instant::now();
        sched.park(Duration::from_secs(60), &mut m, || false);
        assert!(start.elapsed() < Duration::from_secs(5), "park overslept");
        assert_eq!(m.parks, 1);
        assert!(m.idle_seconds > 0.0);
    }

    #[test]
    fn pusher_wakes_a_parked_worker() {
        use std::sync::Arc;
        let sched = Arc::new(Scheduler::new(2, SchedulerMode::WorkStealing, vec![region(0)]));
        let mut m = Metrics::new();
        let parent = sched.try_pop(0, &mut m).unwrap();
        let thief = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                let mut m = Metrics::new();
                // Park (possibly several slices), then pop what arrives.
                while sched.queued.load(SeqCst) == 0 {
                    sched.park(Duration::from_secs(1), &mut m, || false);
                }
                sched.try_pop(1, &mut m).map(|(_, d)| d)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        sched.push_split(0, region(7), region(8));
        sched.complete_one();
        let got = thief.join().expect("thief thread panicked");
        assert!(got == Some(7) || got == Some(8), "thief got {got:?}");
        drop(parent);
    }

    #[test]
    fn mode_default_honours_force_scalar_convention() {
        // Cannot mutate the process environment safely under a threaded
        // test harness; check the parse rule directly instead.
        let rule = |v: Option<&str>| match v {
            Some(s) if !s.is_empty() && s != "0" => SchedulerMode::SharedQueue,
            _ => SchedulerMode::WorkStealing,
        };
        assert_eq!(rule(None), SchedulerMode::WorkStealing);
        assert_eq!(rule(Some("")), SchedulerMode::WorkStealing);
        assert_eq!(rule(Some("0")), SchedulerMode::WorkStealing);
        assert_eq!(rule(Some("1")), SchedulerMode::SharedQueue);
        assert_eq!(SchedulerMode::WorkStealing.name(), "work_stealing");
        assert_eq!(SchedulerMode::SharedQueue.name(), "shared_queue");
    }
}
