//! The service workloads: `service-mix` (one in-process `Server`) and
//! `cluster-fanout` (an in-process `Coordinator` over two node servers),
//! each driven by two closed-loop clients on a Unix socket.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use charon::json::Fields;
use server::{
    Client, Coordinator, CoordinatorConfig, CoordinatorHandle, Server, ServerAddr, ServerConfig,
    ServerHandle, VerifyRequest,
};

use crate::batch::{Batch, Op};
use crate::checks::{check_verdict, disagreeing, Outcome};
use crate::stats::{classify_cached, percentile, share, CacheClass, Metric, Unit};
use crate::trace::Recorder;
use crate::workload::{mix, Query, ZooNet};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// Region budget of one `service-mix` job, the engine workloads' cap.
pub const JOB_MAX_REGIONS: usize = 20;

/// Region budget of one `cluster-fanout` shard: the coordinator gives
/// every shard the job's `max_regions`, so four shards of 5 regions give
/// a job the same 20 regions in all. At 20 per shard an undecided job
/// cost 80 regions, its seed-to-seed count set throughput, and ten seeds
/// spread `ops_per_s` by 16% and p50 by 24% (see NOTES.md).
pub const SHARD_MAX_REGIONS: usize = 5;

/// Safety wall clock per job: a job stopped by it is a failure.
pub const JOB_TIMEOUT_MS: u64 = 30_000;

/// Times each distinct `service-mix` query is sent. Undecided verdicts
/// are not cached, so every repeat of an undecided query is another
/// miss, and the seed-to-seed count of undecided queries moves
/// throughput the more, the more repeats there are (see NOTES.md).
/// Three repeats also keep p50 inside one latency band: the hits on
/// the three small networks are about 44% of the jobs and the hits on
/// `mnist-9x64`, whose larger model file the server reads and hashes on
/// every request, the next 11%. With four repeats the first band ended at 49.5% and p50 jumped
/// between 0.5 and 1.2 ms with the seed.
pub const REPEATS: usize = 3;

/// Distinct queries repeated together: each block of the stream sends
/// its queries `REPEATS` times round-robin, so a repeat never waits
/// behind more than a block of other queries and the default result
/// cache (256 entries) holds every block.
pub const BLOCK: usize = 64;

/// `service-mix` worker threads.
pub const SERVER_WORKERS: usize = 2;

/// `cluster-fanout` shape: shards per job over node daemons of one
/// worker each.
pub const SHARDS: usize = 4;
/// Node daemons behind the coordinator.
pub const NODES: usize = 2;

/// Which front-end a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One `Server`, result cache on.
    Single,
    /// A `Coordinator` sharding every job over two nodes; no cache.
    Cluster,
}

impl Tier {
    /// The `max_regions` of every request.
    fn max_regions(self) -> usize {
        match self {
            Tier::Single => JOB_MAX_REGIONS,
            Tier::Cluster => SHARD_MAX_REGIONS,
        }
    }
}

/// Running daemons of one batch.
pub struct Servers {
    addr: ServerAddr,
    front: Front,
    nodes: Vec<ServerHandle>,
}

enum Front {
    Single(ServerHandle),
    Cluster(CoordinatorHandle),
}

/// Writes the zoo networks as model files; returns their paths.
pub fn write_networks(zoo: &[ZooNet], dir: &Path) -> Vec<String> {
    zoo.iter()
        .map(|z| {
            let path = dir.join(format!("{}.net", z.which.name()));
            nn::serialize::save(&z.net, &path).expect("write a network file in the run directory");
            path.display().to_string()
        })
        .collect()
}

/// Starts the daemons of `tier` with their sockets, and with `journal`
/// their write-ahead logs, under `dir`; `generation` keeps the files of
/// successive starts apart.
///
/// Timed runs keep the logs off. The run directory sits on the disk of
/// the checkout, and every job costs the server three fsyncs (the
/// coordinator six) under the log's lock, so a disk shared with other
/// work would set the service numbers rather than the program. Traced
/// runs turn the logs on, so the logging code runs and
/// `server.journal_appends` counts it.
pub fn start(tier: Tier, dir: &Path, generation: usize, journal: bool) -> Servers {
    let file = |name: &str| dir.join(format!("g{generation}-{name}"));
    match tier {
        Tier::Single => {
            let handle = Server::start(ServerConfig {
                addr: ServerAddr::Unix(file("server.sock")),
                workers: SERVER_WORKERS,
                journal: journal.then(|| file("server.wal")),
                ..ServerConfig::default()
            })
            .expect("start the server");
            Servers {
                addr: handle.addr().clone(),
                front: Front::Single(handle),
                nodes: Vec::new(),
            }
        }
        Tier::Cluster => {
            let nodes: Vec<ServerHandle> = (0..NODES)
                .map(|i| {
                    Server::start(ServerConfig {
                        addr: ServerAddr::Unix(file(&format!("node{i}.sock"))),
                        workers: 1,
                        journal: None,
                        ..ServerConfig::default()
                    })
                    .expect("start a node server")
                })
                .collect();
            let handle = Coordinator::start(CoordinatorConfig {
                addr: ServerAddr::Unix(file("coord.sock")),
                nodes: nodes.iter().map(|n| n.addr().clone()).collect(),
                shards: SHARDS,
                connections_per_node: 1,
                journal: journal.then(|| file("coord.wal")),
                ..CoordinatorConfig::default()
            })
            .expect("start the coordinator");
            Servers {
                addr: handle.addr().clone(),
                front: Front::Cluster(handle),
                nodes,
            }
        }
    }
}

/// Drains every daemon and waits for its threads to end.
pub fn stop(servers: Servers) {
    let drain = |addr: &ServerAddr| {
        let mut client = Client::connect(addr).expect("connect to drain");
        let reply = client
            .request("{\"request\": \"drain\"}")
            .expect("drain reply");
        assert_eq!(
            reply.usize_field("lost").unwrap_or(0),
            0,
            "the drain lost jobs"
        );
    };
    drain(&servers.addr);
    match servers.front {
        Front::Single(h) => h.join(),
        Front::Cluster(h) => h.join(),
    }
    for node in servers.nodes {
        drain(node.addr());
        node.join();
    }
}

/// The job stream: `service-mix` sends each of its distinct queries
/// [`REPEATS`] times, round-robin within seeded blocks of [`BLOCK`];
/// `cluster-fanout` sends each query once.
pub fn stream(tier: Tier, distinct: usize, seed: u64) -> Vec<usize> {
    match tier {
        Tier::Single => {
            let order = crate::workload::Rng::new(mix(seed, 0x57)).permutation(distinct);
            order
                .chunks(BLOCK)
                .flat_map(|block| (0..REPEATS).flat_map(move |_| block.iter().copied()))
                .collect()
        }
        Tier::Cluster => (0..distinct).collect(),
    }
}

fn read_reply(reply: std::io::Result<Fields>) -> (Outcome, usize, Option<usize>) {
    let fields = match reply {
        Ok(f) => f,
        Err(e) => return (Outcome::Failed(format!("request failed: {e}")), 0, None),
    };
    let kind = fields.str_field("response").unwrap_or_default();
    if kind != "verdict" {
        let code = fields.opt_str("error").ok().flatten().unwrap_or_default();
        return (Outcome::Failed(format!("reply {kind} {code}")), 0, None);
    }
    let regions = fields.opt_usize("regions").ok().flatten().unwrap_or(0);
    let cached = fields.opt_usize("cached").ok().flatten();
    let outcome = match fields.str_field("verdict").unwrap_or_default().as_str() {
        "verified" => Outcome::Verified,
        "refuted" => match fields.arr_field("counterexample") {
            Ok(witness) => Outcome::Refuted { witness },
            Err(e) => Outcome::Failed(format!("refutation without a witness: {e}")),
        },
        "resource_limit" => {
            let limit = fields.opt_str("limit").ok().flatten().unwrap_or_default();
            match limit.as_str() {
                "region budget" | "numeric precision floor" => Outcome::Undecided,
                other => Outcome::Failed(format!("stopped by {other}")),
            }
        }
        other => Outcome::Failed(format!("verdict {other}")),
    };
    (outcome, regions, cached)
}

/// For each job, the index of the previous job that asks the same
/// query, if any.
pub fn previous_sends(jobs: &[usize]) -> Vec<Option<usize>> {
    let mut last = std::collections::HashMap::new();
    jobs.iter()
        .enumerate()
        .map(|(k, &query)| last.insert(query, k))
        .collect()
}

/// Replays `jobs` (indices into `queries`) from two closed-loop clients,
/// checks every reply, and reads the daemons' `stats`.
///
/// Both clients take the next job from the shared stream, so neither
/// idles while the other still has work: with alternate jobs fixed per
/// client, the seeded share of slow undecided jobs left one client with
/// 12–18% more work than the other, and the batch ran as long as that
/// client. A client holds a repeat back until the reply to the query's
/// previous send is in, so every repeat of a decided query is a hit and
/// the hits are the same on every run.
#[allow(clippy::too_many_arguments)]
pub fn run(
    tier: Tier,
    servers: &Servers,
    zoo: &[ZooNet],
    net_paths: &[String],
    queries: &[Query],
    jobs: &[usize],
    seed: u64,
    recorder: Option<&Arc<Recorder>>,
    stop_at: Instant,
) -> Batch {
    let request = |k: usize| {
        let query = &queries[jobs[k]];
        VerifyRequest {
            id: k as u64 + 1,
            network: net_paths[query.net].clone(),
            property: query.property.to_text(),
            timeout_ms: JOB_TIMEOUT_MS,
            max_regions: tier.max_regions(),
            ..VerifyRequest::default()
        }
        .to_line()
    };
    let previous = previous_sends(jobs);
    let answered: Vec<AtomicBool> = jobs.iter().map(|_| AtomicBool::new(false)).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut ops: Vec<Op> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (request, previous, answered, next) = (&request, &previous, &answered, &next);
                let addr = &servers.addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connect");
                    let mut out = Vec::new();
                    while Instant::now() < stop_at {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs.len() {
                            break;
                        }
                        // The previous send was claimed earlier and is in
                        // flight or answered, so this wait ends.
                        if let Some(p) = previous[k] {
                            while !answered[p].load(Ordering::Acquire) {
                                std::thread::sleep(Duration::from_micros(20));
                            }
                        }
                        let line = request(k);
                        let t = Instant::now();
                        let reply = match recorder {
                            None => client.request(&line),
                            Some(rec) => {
                                let op = k as u64 + 1;
                                let op_span = rec.id();
                                let t0 = rec.now();
                                let reply = rec.span(op_span, op, "server.client.request", || {
                                    client.request(&line)
                                });
                                rec.push_with_id(op_span, 0, op, "op".into(), t0, rec.now());
                                reply
                            }
                        };
                        let latency = t.elapsed().as_secs_f64();
                        answered[k].store(true, Ordering::Release);
                        let (outcome, regions, cached) = read_reply(reply);
                        out.push(Op {
                            id: k as u64 + 1,
                            query: jobs[k],
                            latency,
                            outcome,
                            regions,
                            cache: classify_cached(cached),
                        });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    ops.sort_by_key(|op| op.id);
    let delta = VerifyRequest::default().delta;
    for op in &mut ops {
        let query = &queries[op.query];
        let net = &zoo[query.net].net;
        if let Some(reason) =
            check_verdict(net, &query.property, &op.outcome, delta, mix(seed, op.id))
        {
            op.outcome = Outcome::Failed(reason);
        }
    }
    let words: Vec<(usize, usize, String)> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| (op.query, i, op.outcome.word().to_string()))
        .collect();
    for i in disagreeing(&words) {
        ops[i].outcome =
            Outcome::Failed("reply disagrees with an earlier reply to the same query".into());
    }

    let layers = match recorder {
        Some(_) => layer_metrics(tier, servers, &ops, wall),
        None => Vec::new(),
    };
    Batch { ops, wall, layers }
}

fn stats_of(addr: &ServerAddr) -> Fields {
    let mut client = Client::connect(addr).expect("stats connect");
    client
        .request("{\"request\": \"stats\"}")
        .expect("stats reply")
}

fn int(fields: &Fields, key: &str) -> f64 {
    fields.opt_f64(key).ok().flatten().unwrap_or(0.0)
}

/// Engine counters of a `stats` reply: (attack calls, attack s,
/// propagation calls, propagation s, policy calls, policy s).
fn engine_counters(stats: &[Fields]) -> [f64; 6] {
    let mut out = [0.0; 6];
    for s in stats {
        for (slot, key) in [
            "attack_calls",
            "attack_seconds",
            "propagation_calls",
            "propagation_seconds",
            "policy_calls",
            "policy_seconds",
        ]
        .iter()
        .enumerate()
        {
            out[slot] += int(s, key);
        }
    }
    out
}

fn layer_metrics(tier: Tier, servers: &Servers, ops: &[Op], wall: f64) -> Vec<Metric> {
    let front = stats_of(&servers.addr);
    let nodes: Vec<Fields> = servers.nodes.iter().map(|n| stats_of(n.addr())).collect();
    let engine_stats = match tier {
        Tier::Single => vec![front.clone()],
        Tier::Cluster => nodes.clone(),
    };
    let [attack_calls, attack_s, prop_calls, prop_s, policy_calls, policy_s] =
        engine_counters(&engine_stats);
    let engine_s = attack_s + prop_s + policy_s;
    let single = tier == Tier::Single;
    let cluster = tier == Tier::Cluster;
    let when = |applies: bool, v: f64| applies.then_some(v);
    let class_p50 = |class: CacheClass| {
        let l: Vec<f64> = ops
            .iter()
            .filter(|op| op.cache == class)
            .map(|op| op.latency)
            .collect();
        percentile(&l, 0.5)
    };
    // Engine work: regions of the replies a worker computed.
    let regions: usize = ops
        .iter()
        .filter(|op| op.cache != CacheClass::Hit)
        .map(|op| op.regions)
        .sum();
    let hits = int(&front, "cache_hits");
    let misses = int(&front, "cache_misses");
    let node_idle: f64 = front
        .arr_field("node_idle_seconds")
        .map(|v| v.iter().sum())
        .unwrap_or(0.0);
    vec![
        Metric::new("attack.calls", Unit::Count, Some(attack_calls)),
        Metric::new("attack.s", Unit::Seconds, Some(attack_s)),
        Metric::new("domains.calls", Unit::Count, Some(prop_calls)),
        Metric::new("domains.s", Unit::Seconds, Some(prop_s)),
        Metric::new("policy.calls", Unit::Count, Some(policy_calls)),
        Metric::new("policy.s", Unit::Seconds, Some(policy_s)),
        Metric::new("verify.regions", Unit::Count, Some(regions as f64)),
        Metric::percentile(
            "server.hit_p50_ms",
            Unit::Millis,
            class_p50(CacheClass::Hit),
            1e3,
        )
        .only_if(single),
        Metric::percentile(
            "server.miss_p50_ms",
            Unit::Millis,
            class_p50(CacheClass::Miss),
            1e3,
        )
        .only_if(single),
        Metric::new(
            "server.cache_hit_ratio",
            Unit::Ratio,
            share(hits as usize, (hits + misses) as usize).filter(|_| single),
        ),
        Metric::new(
            "server.registry_hits",
            Unit::Count,
            when(single, int(&front, "registry_hits")),
        ),
        Metric::new(
            "server.journal_appends",
            Unit::Count,
            Some(int(&front, "journal_appends")),
        ),
        Metric::new(
            "server.refused",
            Unit::Count,
            Some(int(&front, "rejected_full") + int(&front, "shed")),
        ),
        Metric::new("server.errored", Unit::Count, Some(int(&front, "errored"))),
        Metric::new("server.engine_s", Unit::Seconds, when(single, engine_s)),
        Metric::new(
            "server.worker_busy_frac",
            Unit::Ratio,
            when(single, engine_s / (SERVER_WORKERS as f64 * wall)),
        ),
        Metric::new(
            "cluster.shards_dispatched",
            Unit::Count,
            when(cluster, int(&front, "shards_dispatched")),
        ),
        Metric::new(
            "cluster.shards_redispatched",
            Unit::Count,
            when(cluster, int(&front, "shards_redispatched")),
        ),
        Metric::new(
            "cluster.node_engine_s",
            Unit::Seconds,
            when(cluster, engine_s),
        ),
        Metric::new(
            "cluster.node_busy_frac",
            Unit::Ratio,
            when(cluster, engine_s / (NODES as f64 * wall)),
        ),
        Metric::new(
            "cluster.node_idle_s",
            Unit::Seconds,
            when(cluster, node_idle),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every query is sent `REPEATS` times, all within one block.
    #[test]
    fn repeats_stay_in_one_block() {
        let distinct = 2 * BLOCK + 7;
        let jobs = stream(Tier::Single, distinct, 7);
        assert_eq!(jobs.len(), distinct * REPEATS);
        let mut first: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for (k, &q) in jobs.iter().enumerate() {
            let f = *first.entry(q).or_insert(k);
            assert!(k - f < BLOCK * REPEATS);
        }
        assert_eq!(first.len(), distinct);
    }

    #[test]
    fn previous_send_of_each_job() {
        assert_eq!(
            previous_sends(&[4, 2, 4, 4, 2, 9]),
            vec![None, None, Some(0), Some(2), Some(1), None]
        );
    }
}
