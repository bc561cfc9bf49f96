//! Pins the wire surface of the two summary responses the CLI renders:
//! the ordered key lists of `stats` and `drained`, for a single-node
//! daemon and for a coordinator. Both tiers answer through the same
//! front-end, and `charon-cli submit --stats` prints whatever keys
//! arrive in order, so a reordered, renamed or dropped key is a
//! user-visible change this suite reports.

use std::io::{BufRead, BufReader, Write};

use domains::Bounds;
use server::{
    Coordinator, CoordinatorConfig, Server, ServerAddr, ServerConfig, Stream, VerifyRequest,
};

/// The keys shared by both tiers' `stats`, in wire order.
const STATS_PREFIX: &[&str] = &[
    "response",
    "protocol",
    "workers",
    "queue_depth",
    "queue_capacity",
    "draining",
    "accepted",
    "completed",
    "checkpointed",
    "unstarted",
    "rejected_full",
    "rejected_draining",
    "errored",
    "shed",
    "deadline_expired",
    "breaker_open",
    "breaker_opens",
    "replayed",
    "requeued",
    "quarantined",
    "worker_deaths",
    "duplicates",
    "journal_errors",
    "journal_enabled",
    "journal_appends",
    "results_entries",
    "cache_entries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_hit_rate",
    "registry_models",
    "registry_hits",
    "registry_misses",
    "attack_calls",
    "attack_seconds",
    "propagation_calls",
    "propagation_seconds",
    "policy_calls",
    "policy_seconds",
];

/// The daemon's rows after the shared prefix.
const DAEMON_STATS_TAIL: &[&str] = &[
    "job_latency_hist",
    "attack_latency_hist",
    "propagation_latency_hist",
];

/// The coordinator's rows after the shared prefix (the per-node table
/// appears once a shard has been dispatched).
const COORDINATOR_STATS_TAIL: &[&str] = &[
    "nodes",
    "shards_dispatched",
    "shards_completed",
    "shards_redispatched",
    "shards_quarantined",
    "node_failures",
    "node_names",
    "node_dispatched",
    "node_completed",
    "node_redispatched",
    "node_idle_seconds",
];

/// Both tiers' `drained` summary.
const DRAINED: &[&str] = &[
    "response",
    "accepted",
    "completed",
    "checkpointed",
    "unstarted",
    "replayed",
    "requeued",
    "quarantined",
    "lost",
];

/// The keys of a flat JSON object line, in order: every string that is
/// followed by a `:` outside a string.
fn keys(line: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut chars = line.chars();
    let mut in_string: Option<String> = None;
    let mut last_string: Option<String> = None;
    while let Some(c) = chars.next() {
        match (&mut in_string, c) {
            (Some(s), '\\') => {
                s.push(c);
                s.extend(chars.next());
            }
            (Some(_), '"') => last_string = in_string.take(),
            (Some(s), _) => s.push(c),
            (None, '"') => in_string = Some(String::new()),
            (None, ':') => keys.extend(last_string.take()),
            (None, c) if !c.is_whitespace() => last_string = None,
            (None, _) => {}
        }
    }
    keys
}

/// Sends one request line and returns the raw response line.
fn raw(addr: &ServerAddr, line: &str) -> String {
    let mut stream = Stream::connect(addr).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    response
}

fn expected(parts: &[&[&str]]) -> Vec<String> {
    parts.concat().iter().map(|k| k.to_string()).collect()
}

#[test]
fn stats_and_drained_key_lists_are_pinned_for_both_tiers() {
    let dir = std::env::temp_dir().join(format!("charon-wire-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("xor.net");
    nn::serialize::save(&nn::samples::xor_network(), &net).unwrap();
    let node = Server::start(ServerConfig {
        addr: ServerAddr::Unix(dir.join("node.sock")),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let coordinator = Coordinator::start(CoordinatorConfig {
        addr: ServerAddr::Unix(dir.join("coord.sock")),
        nodes: vec![node.addr().clone()],
        ..CoordinatorConfig::default()
    })
    .unwrap();
    let request = VerifyRequest {
        id: 1,
        network: net.to_str().unwrap().to_string(),
        property: charon::RobustnessProperty::new(
            Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]),
            1,
        )
        .to_text(),
        ..VerifyRequest::default()
    };
    for addr in [node.addr(), coordinator.addr()] {
        let verdict = raw(addr, &request.to_line());
        assert!(verdict.contains("\"verified\""), "{verdict}");
    }

    let stats = "{\"request\": \"stats\"}";
    let drain = "{\"request\": \"drain\"}";
    assert_eq!(
        keys(&raw(node.addr(), stats)),
        expected(&[STATS_PREFIX, DAEMON_STATS_TAIL])
    );
    assert_eq!(
        keys(&raw(coordinator.addr(), stats)),
        expected(&[STATS_PREFIX, COORDINATOR_STATS_TAIL])
    );
    assert_eq!(keys(&raw(coordinator.addr(), drain)), expected(&[DRAINED]));
    coordinator.join();
    assert_eq!(keys(&raw(node.addr(), drain)), expected(&[DRAINED]));
    node.join();
    let _ = std::fs::remove_dir_all(&dir);
}
