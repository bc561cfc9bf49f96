//! The service front-end both tiers share: one listener, one connection
//! loop, and one admission, journal, delivery, drain and stats path, over
//! an [`Executor`] that decides how an admitted job actually runs.
//!
//! Two executors exist. The daemon's [`crate::Server`] runs jobs on a
//! supervised local worker pool; the [`crate::Coordinator`] splits each
//! job into shards and fans them out to nodes. Everything a client can
//! observe about a job's life — idempotent `ack` ids, the fsync'd
//! `accepted` record before the acknowledgement, bounded `query`
//! re-delivery, journal replay, and the drain accounting
//! `accepted == completed + checkpointed + unstarted` — is written here
//! once. An executor supplies only what differs: its admission
//! pre-check, how a job (new or recovered) runs, what drain cancels,
//! how it answers node requests, and its own stats rows.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use charon::json::ObjectBuilder;
use charon::telemetry::{Metrics, OverloadStats};

use crate::faults::ServerFaultPlan;
use crate::journal::{Journal, Record, RecoveredJob, Replay};
use crate::net::{read_line_bounded, Listener, ServerAddr, Stream};
use crate::protocol::{
    accepted_response, error_response, pending_response, poisoned_response, pong_response,
    unknown_response, Request, VerifyRequest, PROTOCOL_VERSION,
};

/// Where a job's responses go.
#[derive(Clone)]
pub(crate) enum Reply {
    /// The live submitting connection.
    Socket(Arc<Mutex<Stream>>),
    /// A journal-replayed job whose original connection died with the
    /// previous process; the terminal response is stored for `query`.
    Recovered,
}

pub(crate) fn send_line(reply: &Reply, line: &str) {
    // The client may be gone; a failed response write must not take the
    // service down (Rust already ignores SIGPIPE).
    let Reply::Socket(sock) = reply else { return };
    let mut writer = sock.lock().unwrap();
    let _ = writer.write_all(line.as_bytes());
    let _ = writer.write_all(b"\n");
    let _ = writer.flush();
}

/// Bumps a counter by one.
pub(crate) fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Reads a counter.
pub(crate) fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Job-lifecycle counters every tier keeps under the same names.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) checkpointed: AtomicU64,
    pub(crate) unstarted: AtomicU64,
    pub(crate) rejected_draining: AtomicU64,
    pub(crate) errored: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) replayed: AtomicU64,
    /// Work sent back for another attempt: jobs orphaned by a worker
    /// death on the daemon, re-dispatched shards on the coordinator.
    pub(crate) requeued: AtomicU64,
    /// Work that spent its retry budget: poisoned jobs on the daemon,
    /// quarantined shards on the coordinator.
    pub(crate) quarantined: AtomicU64,
    pub(crate) duplicates: AtomicU64,
    pub(crate) journal_errors: AtomicU64,
}

/// Bounded store of terminal responses by job id, answering `query` and
/// deduplicated resubmissions.
struct ResultsStore {
    map: HashMap<u64, String>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl ResultsStore {
    fn new(capacity: usize) -> Self {
        ResultsStore {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn insert(&mut self, id: u64, line: String) {
        if self.map.insert(id, line).is_none() {
            self.order.push_back(id);
            while self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, id: u64) -> Option<String> {
        self.map.get(&id).cloned()
    }
}

/// Whether a terminal response line is *retryable* (`busy`, or a
/// queue-full-class error): those must not be replayed to a
/// deduplicated resubmission as if they were the job's verdict.
fn is_retryable_response(line: &str) -> bool {
    let Ok(fields) = charon::json::parse_flat_object(line) else {
        return false;
    };
    match fields.str_field("response").as_deref() {
        Ok("busy") => true,
        Ok("error") => fields
            .str_field("error")
            .is_ok_and(|code| crate::client::is_retryable_error_code(&code)),
        _ => false,
    }
}

/// What a tier hands the front-end at start.
pub(crate) struct FrontConfig {
    pub(crate) addr: ServerAddr,
    pub(crate) journal: Option<PathBuf>,
    pub(crate) results_capacity: usize,
    /// Process deaths a replayed job may have survived before replay
    /// quarantines it.
    pub(crate) retry_budget: u32,
    pub(crate) max_line_bytes: usize,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) faults: Option<Arc<ServerFaultPlan>>,
}

/// The front-end's shared state: admission flags, the journal, the
/// terminal-result store, and the outstanding-job accounting drain
/// waits on.
pub(crate) struct Front {
    pub(crate) counters: Counters,
    pub(crate) draining: AtomicBool,
    pub(crate) shutdown: AtomicBool,
    journal: Option<Mutex<Journal>>,
    results: Mutex<ResultsStore>,
    /// Ids of admitted jobs that are not yet terminal.
    known: Mutex<HashSet<u64>>,
    /// Admitted jobs that have not yet reached a terminal response
    /// (completed, checkpointed, or unstarted). Drain waits on this.
    outstanding: Mutex<i64>,
    idle: Condvar,
    pub(crate) retry_budget: u32,
    max_line_bytes: usize,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    pub(crate) faults: Option<Arc<ServerFaultPlan>>,
}

impl Front {
    /// Appends a load-bearing record; the caller decides what an error
    /// means (admission refuses the job on failure).
    fn journal_append(&self, record: &Record) -> std::io::Result<()> {
        match &self.journal {
            Some(journal) => journal.lock().unwrap().append(record),
            None => Ok(()),
        }
    }

    /// Appends a best-effort state-transition record; failures are
    /// counted but do not stop the job (replay just redoes more work).
    pub(crate) fn journal_transition(&self, record: &Record) {
        if self.journal_append(record).is_err() {
            inc(&self.counters.journal_errors);
        }
    }

    /// Delivers a terminal response for an admitted job: journals the
    /// completion, stores it for `query`, releases the id, writes it to
    /// the submitter if the connection is still there, and settles the
    /// drain accounting.
    pub(crate) fn deliver(&self, id: u64, reply: &Reply, response: &str) {
        self.journal_transition(&Record::Completed {
            id,
            response: response.to_string(),
        });
        if !is_retryable_response(response) {
            self.results
                .lock()
                .unwrap()
                .insert(id, response.to_string());
        }
        self.known.lock().unwrap().remove(&id);
        send_line(reply, response);
        let mut outstanding = self.outstanding.lock().unwrap();
        *outstanding -= 1;
        drop(outstanding);
        self.idle.notify_all();
    }
}

/// The executor-specific values inside the shared `stats` prefix. Rows
/// a tier has no analogue for stay at their zero default.
#[derive(Default)]
pub(crate) struct ExecStats {
    pub(crate) workers: usize,
    pub(crate) queue_depth: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) rejected_full: u64,
    /// Shed and breaker counters (`deadline_expired` is the front-end's).
    pub(crate) overload: OverloadStats,
    pub(crate) worker_deaths: u64,
    pub(crate) cache_entries: usize,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) cache_hit_rate: f64,
    pub(crate) registry_models: usize,
    pub(crate) registry_hits: u64,
    pub(crate) registry_misses: u64,
    pub(crate) metrics: Metrics,
}

/// What runs admitted jobs behind the front-end.
pub(crate) trait Executor: Send + Sync + Sized + 'static {
    /// How refusals name this tier ("daemon is draining").
    const TIER: &'static str;
    /// What admission hands on to [`Executor::enqueue`].
    type Admitted;
    /// Per-connection scratch state for node requests.
    type Scratch: Default;

    /// The shared front-end state.
    fn front(&self) -> &Front;
    /// Starts the executor's own threads (joined by `ServerHandle::join`).
    fn spawn(exec: &Arc<Self>) -> Vec<JoinHandle<()>>;
    /// Pre-checks a submission before anything is journaled; `Err` is
    /// the refusal sent back to the submitter.
    ///
    /// # Errors
    ///
    /// The refusal response line.
    fn admit(&self, request: &VerifyRequest) -> Result<Self::Admitted, String>;
    /// Runs an admitted, journaled job.
    ///
    /// # Errors
    ///
    /// A terminal response the front-end delivers in place of a run
    /// (the job was not accepted after all).
    fn enqueue(
        &self,
        request: VerifyRequest,
        admitted: Self::Admitted,
        reply: Reply,
    ) -> Result<(), String>;
    /// Runs a job journal replay recovered; the executor owes it a
    /// terminal response like any admitted job.
    fn recover(&self, job: RecoveredJob);
    /// Answers `shard`, `node_hello` and `node_stats`.
    fn node_request(&self, request: Request, scratch: &mut Self::Scratch) -> String;
    /// One drain round: cancels what drain cancels. Called repeatedly
    /// until every admitted job is terminal.
    fn cancel(&self);
    /// Wakes the executor's threads once the drain summary is out.
    fn shutdown(&self) {}
    /// The executor's values for the shared `stats` prefix.
    fn stats(&self) -> ExecStats;
    /// Appends the executor's own `stats` rows.
    fn stats_tail(&self, b: ObjectBuilder, stats: &ExecStats) -> ObjectBuilder;
}

/// Handle to a started daemon or coordinator: its bound address plus
/// the thread handles [`ServerHandle::join`] waits on.
pub struct ServerHandle {
    addr: ServerAddr,
    listener: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the service is listening on (for TCP port 0, the
    /// kernel-assigned port).
    pub fn addr(&self) -> &ServerAddr {
        &self.addr
    }

    /// Blocks until the service has drained and shut down.
    pub fn join(self) {
        let _ = self.listener.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Opens the journal (replaying and compacting any existing one), binds
/// the listener, builds the executor around the front-end, re-admits
/// what replay recovered, and starts the executor and listener threads;
/// returns immediately. The service runs until a client sends `drain`.
pub(crate) fn start<E: Executor>(
    config: FrontConfig,
    build: impl FnOnce(Front) -> E,
) -> std::io::Result<ServerHandle> {
    let (journal, replay) = match &config.journal {
        Some(path) => {
            let (journal, replay) = Journal::open(path, config.faults.clone())?;
            (Some(journal), Some(replay))
        }
        None => (None, None),
    };
    let listener = Listener::bind(&config.addr)?;
    let addr = listener.local_addr(&config.addr);
    let exec = Arc::new(build(Front {
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        journal: journal.map(Mutex::new),
        results: Mutex::new(ResultsStore::new(config.results_capacity)),
        known: Mutex::new(HashSet::new()),
        outstanding: Mutex::new(0),
        idle: Condvar::new(),
        retry_budget: config.retry_budget.max(1),
        max_line_bytes: config.max_line_bytes,
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        faults: config.faults,
    }));
    if let Some(replay) = replay {
        restore(&*exec, replay);
    }
    let workers = E::spawn(&exec);

    let listen_addr = addr.clone();
    let listener = std::thread::spawn(move || {
        let front = exec.front();
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if front.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Some(plan) = &front.faults {
                        if plan.conn_drop.check() {
                            stream.shutdown();
                            continue;
                        }
                    }
                    let _ = stream.set_read_timeout(front.read_timeout);
                    let _ = stream.set_write_timeout(front.write_timeout);
                    let exec = Arc::clone(&exec);
                    let addr = listen_addr.clone();
                    std::thread::spawn(move || connection_loop(&*exec, stream, &addr));
                }
                Err(_) => {
                    if front.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }
        if let ServerAddr::Unix(path) = &listen_addr {
            let _ = std::fs::remove_file(path);
        }
    });
    Ok(ServerHandle {
        addr,
        listener,
        workers,
    })
}

/// Re-admits what the journal replay recovered: stored results become
/// queryable, and live jobs go back to the executor (the pool resumes
/// them from their last checkpoint, the fan-out re-shards them from
/// scratch) — except jobs that were already in flight through
/// `retry_budget` process deaths, which are quarantined instead of being
/// given another chance to take the service down.
fn restore<E: Executor>(exec: &E, replay: Replay) {
    let front = exec.front();
    {
        let mut results = front.results.lock().unwrap();
        for (id, response) in replay.results {
            if !is_retryable_response(&response) {
                results.insert(id, response);
            }
        }
    }
    for recovered in replay.live {
        let id = recovered.request.id;
        inc(&front.counters.accepted);
        inc(&front.counters.replayed);
        *front.outstanding.lock().unwrap() += 1;
        if recovered.starts >= front.retry_budget {
            let response = poisoned_response(
                id,
                &format!(
                    "job was in flight during {} process deaths; quarantined on replay",
                    recovered.starts
                ),
                recovered.starts,
            );
            inc(&front.counters.completed);
            inc(&front.counters.quarantined);
            front.deliver(id, &Reply::Recovered, &response);
            continue;
        }
        front.known.lock().unwrap().insert(id);
        exec.recover(recovered);
    }
}

fn connection_loop<E: Executor>(exec: &E, stream: Stream, addr: &ServerAddr) {
    let front = exec.front();
    let sock: Arc<Mutex<Stream>> = match stream.try_clone() {
        Ok(writer) => Arc::new(Mutex::new(writer)),
        Err(_) => return,
    };
    let reply = Reply::Socket(Arc::clone(&sock));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut scratch = E::Scratch::default();
    loop {
        line.clear();
        match read_line_bounded(&mut reader, &mut line, front.max_line_bytes) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                send_line(&reply, &error_response(None, "bad_request", &e.to_string()));
                return;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle-timeout policy: close only if no queued or
                // in-flight job still holds this connection's reply
                // handle; otherwise keep waiting for the next request.
                // Two references are the connection's own (`sock` plus
                // the clone inside `reply`); anything beyond that is a
                // job that still owes this client a response.
                if Arc::strong_count(&sock) <= 2 {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match Request::parse(trimmed) {
            Err(e) => send_line(&reply, &error_response(None, "bad_request", &e)),
            Ok(Request::Ping) => send_line(&reply, &pong_response()),
            Ok(Request::Stats) => send_line(&reply, &stats_response(exec)),
            Ok(Request::Query { id }) => {
                let stored = front.results.lock().unwrap().get(id);
                let response = match stored {
                    Some(line) => line,
                    None if front.known.lock().unwrap().contains(&id) => pending_response(id),
                    None => unknown_response(id),
                };
                send_line(&reply, &response);
            }
            Ok(Request::Verify(request)) => submit(exec, request, &reply),
            Ok(Request::Drain) => {
                let summary = drain(exec);
                // Write the summary before waking the listener: once the
                // listener exits, `ServerHandle::join` returns and the
                // hosting process may exit, killing this thread. The
                // response must already be on the wire by then.
                send_line(&reply, &summary);
                front.shutdown.store(true, Ordering::SeqCst);
                exec.shutdown();
                let _ = Stream::connect(addr);
                return;
            }
            Ok(node) => send_line(&reply, &exec.node_request(node, &mut scratch)),
        }
    }
}

/// The refusal a draining tier answers new work with.
pub(crate) fn draining_response<E: Executor>(id: u64) -> String {
    error_response(
        Some(id),
        "draining",
        &format!("{} is draining; resubmit later", E::TIER),
    )
}

/// Admission: reject while draining, deduplicate `ack`-mode
/// resubmissions, run the executor's pre-check, journal, then hand the
/// job to the executor. Every admitted job is guaranteed a terminal
/// response — by this process or, with a journal, by the next one.
fn submit<E: Executor>(exec: &E, request: VerifyRequest, reply: &Reply) {
    let front = exec.front();
    let id = request.id;
    if front.draining.load(Ordering::SeqCst) {
        inc(&front.counters.rejected_draining);
        send_line(reply, &draining_response::<E>(id));
        return;
    }
    if request.ack {
        // Idempotent ids: a resubmission (a retry whose ack or verdict
        // was lost in a crash) must not run the job twice.
        if front.known.lock().unwrap().contains(&id) {
            inc(&front.counters.duplicates);
            send_line(reply, &accepted_response(id, true));
            return;
        }
        if let Some(stored) = front.results.lock().unwrap().get(id) {
            inc(&front.counters.duplicates);
            send_line(reply, &stored);
            return;
        }
    }
    // The pre-check runs after deduplication (a retry of a job we
    // already hold must be answered, not refused) and before the journal
    // (a refused submission was never accepted, so nothing is persisted).
    let admitted = match exec.admit(&request) {
        Ok(admitted) => admitted,
        Err(refusal) => {
            send_line(reply, &refusal);
            return;
        }
    };
    // The accepted record is load-bearing: it must be on disk before the
    // client hears anything, otherwise a crash between ack and disk
    // would silently lose an acknowledged job.
    if let Err(e) = front.journal_append(&Record::Accepted {
        id,
        request: request.clone(),
    }) {
        inc(&front.counters.journal_errors);
        send_line(
            reply,
            &error_response(Some(id), "journal_error", &format!("journal append: {e}")),
        );
        return;
    }
    // Count the job outstanding *before* the executor can finish it, so
    // a drain can never observe an admitted-but-uncounted job; likewise
    // the ack goes out first so it always precedes the verdict on the
    // wire.
    *front.outstanding.lock().unwrap() += 1;
    front.known.lock().unwrap().insert(id);
    if request.ack {
        send_line(reply, &accepted_response(id, false));
    }
    match exec.enqueue(request, admitted, reply.clone()) {
        Ok(()) => inc(&front.counters.accepted),
        Err(response) => front.deliver(id, reply, &response),
    }
}

/// Stops admission, lets the executor cancel what it can, and waits for
/// every admitted job to reach a terminal response. Returns the drain
/// summary; the caller shuts the listener down after delivering it.
fn drain<E: Executor>(exec: &E) -> String {
    let front = exec.front();
    front.draining.store(true, Ordering::SeqCst);
    // The executor's cancel step is repeated each round because a
    // worker may pick a job up and only register it moments later.
    loop {
        exec.cancel();
        let outstanding = front.outstanding.lock().unwrap();
        if *outstanding <= 0 {
            break;
        }
        let (guard, _) = front
            .idle
            .wait_timeout(outstanding, Duration::from_millis(10))
            .unwrap();
        if *guard <= 0 {
            break;
        }
    }

    let c = &front.counters;
    let accepted = get(&c.accepted);
    let completed = get(&c.completed);
    let checkpointed = get(&c.checkpointed);
    let unstarted = get(&c.unstarted);
    let lost = accepted as i64 - (completed + checkpointed + unstarted) as i64;
    ObjectBuilder::new()
        .str("response", "drained")
        .int("accepted", accepted)
        .int("completed", completed)
        .int("checkpointed", checkpointed)
        .int("unstarted", unstarted)
        .int("replayed", get(&c.replayed))
        .int("requeued", get(&c.requeued))
        .int("quarantined", get(&c.quarantined))
        .num("lost", lost as f64)
        .build()
}

/// Builds the `stats` response: the counter surface both tiers share
/// (so `charon-cli submit --stats` renders either unchanged), then the
/// executor's own rows.
fn stats_response<E: Executor>(exec: &E) -> String {
    let front = exec.front();
    let s = exec.stats();
    let c = &front.counters;
    let (journal_enabled, journal_appends) = match &front.journal {
        Some(journal) => (1, journal.lock().unwrap().appends()),
        None => (0, 0),
    };
    let overload = OverloadStats {
        deadline_expired: get(&c.deadline_expired),
        ..s.overload
    };
    let m = &s.metrics;
    let b = ObjectBuilder::new()
        .str("response", "stats")
        .int("protocol", PROTOCOL_VERSION)
        .int("workers", s.workers as u64)
        .int("queue_depth", s.queue_depth as u64)
        .int("queue_capacity", s.queue_capacity as u64)
        .int("draining", u64::from(front.draining.load(Ordering::SeqCst)))
        .int("accepted", get(&c.accepted))
        .int("completed", get(&c.completed))
        .int("checkpointed", get(&c.checkpointed))
        .int("unstarted", get(&c.unstarted))
        .int("rejected_full", s.rejected_full)
        .int("rejected_draining", get(&c.rejected_draining))
        .int("errored", get(&c.errored));
    let b = overload
        .fields(b)
        .int("replayed", get(&c.replayed))
        .int("requeued", get(&c.requeued))
        .int("quarantined", get(&c.quarantined))
        .int("worker_deaths", s.worker_deaths)
        .int("duplicates", get(&c.duplicates))
        .int("journal_errors", get(&c.journal_errors))
        .int("journal_enabled", journal_enabled)
        .int("journal_appends", journal_appends)
        .int(
            "results_entries",
            front.results.lock().unwrap().map.len() as u64,
        )
        .int("cache_entries", s.cache_entries as u64)
        .int("cache_hits", s.cache_hits)
        .int("cache_misses", s.cache_misses)
        .int("cache_evictions", s.cache_evictions)
        .num("cache_hit_rate", s.cache_hit_rate)
        .int("registry_models", s.registry_models as u64)
        .int("registry_hits", s.registry_hits)
        .int("registry_misses", s.registry_misses)
        .int("attack_calls", m.attack_calls)
        .num("attack_seconds", m.attack_seconds)
        .int("propagation_calls", m.propagation_calls)
        .num("propagation_seconds", m.propagation_seconds)
        .int("policy_calls", m.policy_calls)
        .num("policy_seconds", m.policy_seconds);
    exec.stats_tail(b, &s).build()
}
