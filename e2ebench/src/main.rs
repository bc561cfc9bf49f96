//! End-to-end benchmark of the Charon engine and verification service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <zoo-seq|prove-par|service-mix|cluster-fanout> \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. One run sets the workload up three
//! times (reporting the median set-up time), measures one seeded batch
//! sized to last about `--seconds` on a two-core host, checks every
//! output, and prints a table followed by one JSON result line. With
//! `--trace 1` it runs the batch traced, beside an untraced measurement
//! of the same work, and prints the per-layer breakdown instead. See
//! `e2ebench/NOTES.md`.

mod batch;
mod checks;
mod engine;
mod service;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batch::Batch;
use stats::{median, render_table, result_line, Metric, Unit};
use trace::Recorder;
use workload::{Query, ZooNet};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 101;
/// Batch length when none is given, the `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: u64 = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Where runs keep their scratch files and span logs, relative to the
/// working directory (the repository root).
const OUT_DIR: &str = ".e2ebench";
/// No operation starts later than this after the process started, so a
/// run ends well within three minutes even on a much slower build.
const RUN_WALL: Duration = Duration::from_secs(140);

/// End-to-end metrics on the result line, in order. The tail metric is
/// p95, not p90: on three workloads the undecided `mnist-9x64`
/// properties, by far the slowest operations, make up 8–11% of all
/// operations, so p90 sits on the edge of their latency band and jumps
/// between bands with the seed, while p95 lies inside it. The table
/// also prints `op_p90_ms`, `op_p99_ms` (fewer than ten samples lie
/// beyond it on `zoo-seq` and `cluster-fanout`) and `error_frac` (zero
/// on a correct program; the result line carries it as `failed` over
/// `attempted`).
const END_TO_END: [(&str, Unit); 6] = [
    ("setup_s", Unit::Seconds),
    ("ops_per_s", Unit::PerSecond),
    ("op_p50_ms", Unit::Millis),
    ("op_p95_ms", Unit::Millis),
    ("decided_frac", Unit::Ratio),
    ("peak_rss_mb", Unit::MiB),
];

/// Per-layer metrics of the traced run, in order.
const PER_LAYER: [(&str, Unit); 45] = [
    ("data.train_s", Unit::Seconds),
    ("nn.evals", Unit::Count),
    ("nn.eval_gflop", Unit::GflopComputed),
    ("attack.calls", Unit::Count),
    ("attack.s", Unit::Seconds),
    ("attack.center_s", Unit::Seconds),
    ("attack.fgsm_s", Unit::Seconds),
    ("attack.coordinate_s", Unit::Seconds),
    ("attack.restarts_s", Unit::Seconds),
    ("attack.evals_per_region", Unit::Count),
    ("attack.refute_ratio", Unit::Ratio),
    ("domains.calls", Unit::Count),
    ("domains.s", Unit::Seconds),
    ("domains.proved_ratio", Unit::Ratio),
    ("domains.affine_s", Unit::Seconds),
    ("domains.relu_s", Unit::Seconds),
    ("domains.maxpool_s", Unit::Seconds),
    ("policy.calls", Unit::Count),
    ("policy.s", Unit::Seconds),
    ("verify.regions", Unit::Count),
    ("verify.splits", Unit::Count),
    ("verify.max_depth", Unit::Count),
    ("verify.driver_s", Unit::Seconds),
    ("sched.steals", Unit::Count),
    ("sched.parks", Unit::Count),
    ("sched.idle_s", Unit::Seconds),
    ("sched.idle_frac", Unit::Ratio),
    ("cert.count", Unit::Count),
    ("cert.nodes", Unit::Count),
    ("cert.bytes", Unit::Bytes),
    ("server.hit_p50_ms", Unit::Millis),
    ("server.miss_p50_ms", Unit::Millis),
    ("server.cache_hit_ratio", Unit::Ratio),
    ("server.registry_hits", Unit::Count),
    ("server.journal_appends", Unit::Count),
    ("server.refused", Unit::Count),
    ("server.errored", Unit::Count),
    ("server.engine_s", Unit::Seconds),
    ("server.worker_busy_frac", Unit::Ratio),
    ("cluster.shards_dispatched", Unit::Count),
    ("cluster.shards_redispatched", Unit::Count),
    ("cluster.node_engine_s", Unit::Seconds),
    ("cluster.node_busy_frac", Unit::Ratio),
    ("cluster.node_idle_s", Unit::Seconds),
    ("trace.overhead_frac", Unit::Ratio),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ZooSeq,
    ProvePar,
    ServiceMix,
    ClusterFanout,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ZooSeq,
        Workload::ProvePar,
        Workload::ServiceMix,
        Workload::ClusterFanout,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ZooSeq => "zoo-seq",
            Workload::ProvePar => "prove-par",
            Workload::ServiceMix => "service-mix",
            Workload::ClusterFanout => "cluster-fanout",
        }
    }

    fn tier(self) -> Option<service::Tier> {
        match self {
            Workload::ServiceMix => Some(service::Tier::Single),
            Workload::ClusterFanout => Some(service::Tier::Cluster),
            _ => None,
        }
    }

    /// Distinct queries in a batch meant to last `seconds` on a two-core
    /// host. The rates are the ones measured at sizing (see NOTES.md).
    /// The work is fixed per seed, not per clock.
    fn distinct_queries(self, seconds: u64) -> usize {
        let s = seconds as f64;
        match self {
            Workload::ZooSeq => (s * 45.0).ceil() as usize,
            Workload::ProvePar => (s * 110.0).ceil() as usize,
            Workload::ServiceMix => (s * 34.0).ceil() as usize,
            Workload::ClusterFanout => (s * 58.0).ceil() as usize,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A workload ready to run.
struct Prepared {
    zoo: Vec<ZooNet>,
    train_s: f64,
    queries: Vec<Query>,
    /// Service workloads: the job stream, model files and daemons.
    jobs: Vec<usize>,
    net_paths: Vec<String>,
    servers: Option<service::Servers>,
}

impl Prepared {
    /// Operations in one batch: a job per stream entry on the service
    /// workloads, a property per query on the engine workloads.
    fn ops_planned(&self) -> usize {
        if self.jobs.is_empty() {
            self.queries.len()
        } else {
            self.jobs.len()
        }
    }
}

/// One set-up: train the zoo, generate the queries, and for the service
/// workloads write the model files and start the daemons.
fn prepare(args: &Args, dir: &Path, generation: usize, rec: Option<&Arc<Recorder>>) -> Prepared {
    let span = |name: &str, f: &mut dyn FnMut()| match rec {
        Some(r) => r.span(0, 0, name, f),
        None => f(),
    };
    let mut zoo_out = None;
    span("data.zoo.build", &mut || {
        zoo_out = Some(workload::train_zoo())
    });
    let (zoo, train_s) = zoo_out.expect("zoo trained");
    let distinct = args.workload.distinct_queries(args.seconds);
    let mut queries = Vec::new();
    span("data.properties.brightening_suite", &mut || {
        queries = workload::brightening_queries(&zoo, args.seed, distinct)
    });
    let (mut jobs, mut net_paths, mut servers) = (Vec::new(), Vec::new(), None);
    if let Some(tier) = args.workload.tier() {
        jobs = service::stream(tier, queries.len(), args.seed);
        net_paths = service::write_networks(&zoo, dir);
        span("server.start", &mut || {
            servers = Some(service::start(tier, dir, generation, args.trace))
        });
    }
    Prepared {
        zoo,
        train_s,
        queries,
        jobs,
        net_paths,
        servers,
    }
}

fn run_batch(args: &Args, p: &Prepared, rec: Option<&Arc<Recorder>>, stop_at: Instant) -> Batch {
    match args.workload {
        Workload::ZooSeq => engine::run(
            engine::Driver::Sequential,
            &p.zoo,
            &p.queries,
            args.seed,
            rec,
            stop_at,
        ),
        Workload::ProvePar => engine::run(
            engine::Driver::Parallel,
            &p.zoo,
            &p.queries,
            args.seed,
            rec,
            stop_at,
        ),
        Workload::ServiceMix | Workload::ClusterFanout => service::run(
            args.workload.tier().expect("service workload"),
            p.servers.as_ref().expect("daemons started in set-up"),
            &p.zoo,
            &p.net_paths,
            &p.queries,
            &p.jobs,
            args.seed,
            rec,
            stop_at,
        ),
    }
}

/// Peak resident set size of this process in MiB: `ru_maxrss`, which
/// Linux reports in KiB and which equals the process's `VmHWM`.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: on 64-bit Linux `struct rusage` is two `timeval`s of two
    // 64-bit fields each followed by fourteen `long`s, which is exactly
    // `RUsage`; `getrusage(RUSAGE_SELF = 0, ..)` writes only into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.maxrss as f64 / 1024.0
}

/// Orders `metrics` as `names` lists them; a listed metric the workload
/// did not produce is absent.
fn complete(names: &[(&'static str, Unit)], metrics: &[Metric]) -> Vec<Metric> {
    for m in metrics {
        assert!(
            names.iter().any(|(n, _)| *n == m.name),
            "metric {} is not listed",
            m.name
        );
    }
    names
        .iter()
        .map(|&(name, unit)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, None))
        })
        .collect()
}

fn failure_lines(label: &str, batch: &Batch) -> String {
    let failed: Vec<String> = batch
        .ops
        .iter()
        .filter_map(|op| match &op.outcome {
            checks::Outcome::Failed(reason) => Some(format!("  op {}: {reason}\n", op.id)),
            _ => None,
        })
        .collect();
    if failed.is_empty() {
        format!("{label}: no failed operations\n")
    } else {
        format!(
            "{label}: {} failed operations\n{}",
            failed.len(),
            failed.concat()
        )
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <zoo-seq|prove-par|service-mix|cluster-fanout> \
                 [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(64);
        }
    };
    let started = Instant::now();
    let out_dir = PathBuf::from(OUT_DIR);
    let dir = out_dir.join(format!(
        "run-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let rec = args.trace.then(Recorder::new);

    // Set-up, repeated; the last one is kept for the measurement.
    let mut setup_times = Vec::new();
    let mut train_times = Vec::new();
    let mut prepared = None;
    for generation in 0..SETUP_REPEATS {
        if let Some(old) = prepared.take().and_then(|p: Prepared| p.servers) {
            service::stop(old);
        }
        let t = Instant::now();
        let p = prepare(&args, &dir, generation, rec.as_ref());
        setup_times.push(t.elapsed().as_secs_f64());
        train_times.push(p.train_s);
        prepared = Some(p);
    }
    let mut p = prepared.expect("at least one set-up");
    let stop_at = started + RUN_WALL;

    let header = format!(
        "e2ebench {} seed={} seconds={} trace={} queries={} ops_planned={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        p.queries.len(),
        p.ops_planned(),
    );
    println!("{header}");

    // Labelled batches; with tracing, the traced one carries the layers.
    let mut batches: Vec<(&str, Batch)> = Vec::new();
    let mut overhead = None;
    match (&rec, args.workload.tier()) {
        (None, _) => batches.push(("untraced batch", run_batch(&args, &p, None, stop_at))),
        // The engine runs every property traced and untraced in pairs.
        (Some(rec), None) => {
            batches.push(("traced batch", run_batch(&args, &p, Some(rec), stop_at)))
        }
        // A daemon's cache cannot answer a job twice alike, so the service
        // runs untraced, traced, and untraced again, each on fresh
        // daemons; the two untraced batches bracket the traced one and
        // cancel a steady drift in the host's speed.
        (Some(rec), Some(tier)) => {
            let labels = ["untraced batch", "traced batch", "second untraced batch"];
            for (i, label) in labels.into_iter().enumerate() {
                if i > 0 {
                    service::stop(p.servers.take().expect("daemons running"));
                    p.servers = Some(service::start(tier, &dir, SETUP_REPEATS + i, true));
                }
                let traced = (i == 1).then_some(rec);
                batches.push((label, run_batch(&args, &p, traced, stop_at)));
            }
            let (a, b, c) = (&batches[0].1, &batches[1].1, &batches[2].1);
            let untraced_rate = (a.ops.len() + c.ops.len()) as f64 / (a.wall + c.wall);
            overhead = Some(1.0 - b.ops_per_s() / untraced_rate);
        }
    }
    if let Some(servers) = p.servers.take() {
        service::stop(servers);
    }

    let attempted: usize = batches.iter().map(|(_, b)| b.ops.len()).sum();
    let failed: usize = batches.iter().map(|(_, b)| b.failed_ids().len()).sum();
    let planned = p.ops_planned();
    for (label, b) in &batches {
        let count = |word: &str| b.ops.iter().filter(|op| op.outcome.word() == word).count();
        println!(
            "{label}: verified={} refuted={} undecided={} failed={} regions={}",
            count("verified"),
            count("refuted"),
            count("resource_limit"),
            count("failed"),
            b.ops.iter().map(|op| op.regions).sum::<usize>()
        );
        print!("{}", failure_lines(label, b));
        if b.ops.len() < planned {
            println!(
                "{label}: stopped at the run wall after {} of {planned} operations",
                b.ops.len()
            );
        }
    }

    let metrics = if let Some(rec) = &rec {
        let (_, traced) = batches
            .iter()
            .find(|(label, _)| *label == "traced batch")
            .expect("a traced batch");
        let mut layer = traced.layers.clone();
        layer.push(Metric::new(
            "data.train_s",
            Unit::Seconds,
            median(&train_times),
        ));
        if let Some(frac) = overhead {
            layer.push(Metric::new("trace.overhead_frac", Unit::Ratio, Some(frac)));
        }
        let spans = out_dir.join(format!(
            "spans-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match rec.write_jsonl(&spans) {
            Ok(()) => println!("spans written to {}", spans.display()),
            Err(e) => println!("spans not written: {e}"),
        }
        let all = complete(&PER_LAYER, &layer);
        print!("{}", render_table("per-layer metrics (traced batch)", &all));
        all
    } else {
        let setup_s = median(&setup_times).expect("set-up timings");
        let mut e2e =
            vec![Metric::new("setup_s", Unit::Seconds, Some(setup_s)).with_samples(SETUP_REPEATS)];
        e2e.extend(batches[0].1.end_to_end());
        e2e.push(Metric::new("peak_rss_mb", Unit::MiB, Some(peak_rss_mb())));
        print!("{}", render_table("end-to-end metrics", &e2e));
        e2e.retain(|m| END_TO_END.iter().any(|(n, _)| *n == m.name));
        complete(&END_TO_END, &e2e)
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn argument_parsing() {
        let a = args(&[
            "--workload",
            "prove-par",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ProvePar, 7, 3, true)
        );
        let d = args(&["--workload", "zoo-seq"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "zoo-seq", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "zoo-seq", "--seconds", "0"]).is_err());
    }

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &entry[at + key.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value opens") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, Unit)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.label().to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn complete_marks_unproduced_metrics_absent() {
        let got = complete(
            &PER_LAYER[..3],
            &[Metric::new("nn.evals", Unit::Count, Some(5.0))],
        );
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].value, None);
        assert_eq!(got[1].value, Some(5.0));
        assert_eq!(got[2].value, None);
    }
}
