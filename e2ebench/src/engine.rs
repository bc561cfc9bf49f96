//! The engine workloads: `zoo-seq` (sequential `Verifier`, attack on)
//! and `prove-par` (two-thread `ParallelVerifier`, attack off,
//! certificates on), both over the seeded brightening suite.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use charon::parallel::ParallelVerifier;
use charon::policy::LinearPolicy;
use charon::telemetry::{Metrics, SharedSink};
use charon::{BudgetKind, Certificate, Verdict, Verifier, VerifierConfig, VerifyError, VerifyRun};

use crate::batch::{Batch, Op};
use crate::checks::{check_verdict, Outcome};
use crate::stats::{share, CacheClass, Metric, Unit};
use crate::trace::{covered, OpSink, Recorder, Span};
use crate::workload::{mix, Query, ZooNet};

/// Region cap per property (both engine workloads), the same budget the
/// service workloads give a job. A low cap bounds the cost of the
/// undecided properties, whose count varies from seed to seed: at 300
/// regions they took 86–97% of `zoo-seq` time and the throughput of
/// five seeds spread by 18% (see NOTES.md).
pub const MAX_REGIONS: usize = 20;

/// Safety wall clock per property: a run stopped by it is a failure.
pub const SAFETY_WALL: Duration = Duration::from_secs(30);

/// Engine threads of `prove-par`.
pub const PAR_THREADS: usize = 2;

/// Which engine driver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Verifier`, default configuration.
    Sequential,
    /// `ParallelVerifier` with two threads, no counterexample search,
    /// certificates on.
    Parallel,
}

impl Driver {
    fn config(self) -> VerifierConfig {
        let mut config = VerifierConfig {
            max_regions: MAX_REGIONS,
            timeout: SAFETY_WALL,
            ..VerifierConfig::default()
        };
        if self == Driver::Parallel {
            config.counterexample_search = false;
            config.certificates = true;
        }
        config
    }

    fn threads(self) -> usize {
        match self {
            Driver::Sequential => 1,
            Driver::Parallel => PAR_THREADS,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Driver::Sequential => "charon.verify",
            Driver::Parallel => "charon.parallel.verify",
        }
    }

    /// Builds the driver once per batch; traced calls clone it with a
    /// per-call sink.
    fn build(self) -> Engine {
        let policy = Arc::new(LinearPolicy::default());
        match self {
            Driver::Sequential => Engine::Sequential(Verifier::new(policy, self.config())),
            Driver::Parallel => {
                Engine::Parallel(ParallelVerifier::new(policy, self.config(), PAR_THREADS))
            }
        }
    }
}

/// A built engine driver.
enum Engine {
    Sequential(Verifier),
    Parallel(ParallelVerifier),
}

impl Engine {
    fn call(
        &self,
        net: &nn::Network,
        query: &Query,
        sink: Option<SharedSink>,
    ) -> Result<VerifyRun, VerifyError> {
        match (self, sink) {
            (Engine::Sequential(v), None) => v.try_verify_run(net, &query.property),
            (Engine::Sequential(v), Some(sink)) => v
                .clone()
                .with_trace(sink)
                .try_verify_run(net, &query.property),
            (Engine::Parallel(v), None) => v.try_verify_run(net, &query.property),
            (Engine::Parallel(v), Some(sink)) => v
                .clone()
                .with_trace(sink)
                .try_verify_run(net, &query.property),
        }
    }
}

/// What the per-layer table needs from one run.
struct RunRecord {
    net: usize,
    metrics: Metrics,
    splits: usize,
    max_depth: usize,
    certificate: Option<Certificate>,
    evals: u64,
    refuting_calls: u64,
}

/// Runs the queries one after another and checks every verdict
/// afterwards. With a recorder, each call gets an op span, a call span,
/// and the engine's events as child spans, and every property also runs
/// once untraced, alternately before and after its traced call: the
/// paired times give `trace.overhead_frac` with the host's drift
/// cancelled.
pub fn run(
    driver: Driver,
    zoo: &[ZooNet],
    queries: &[Query],
    seed: u64,
    recorder: Option<&Arc<Recorder>>,
    stop_at: Instant,
) -> Batch {
    let delta = driver.config().delta;
    let engine = driver.build();
    let mut ops = Vec::with_capacity(queries.len());
    let mut records = Vec::with_capacity(queries.len());
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let start = Instant::now();
    for (i, query) in queries.iter().enumerate() {
        if Instant::now() >= stop_at {
            break;
        }
        let id = i as u64 + 1;
        let net = &zoo[query.net].net;
        let untraced = || {
            let t = Instant::now();
            let result = engine.call(net, query, None);
            (result, t.elapsed().as_secs_f64())
        };
        let (result, latency, record) = match recorder {
            None => {
                let (result, latency) = untraced();
                (result, latency, None)
            }
            Some(rec) => {
                let baseline_first = i % 2 == 0;
                let baseline = baseline_first.then(untraced);
                let op_span = rec.id();
                let call_span = rec.id();
                let sink = Arc::new(OpSink::new(Arc::clone(rec), id, call_span, net, delta));
                let t0 = rec.now();
                let t = Instant::now();
                let result = engine.call(net, query, Some(sink.clone() as SharedSink));
                let latency = t.elapsed().as_secs_f64();
                let t1 = rec.now();
                rec.push_with_id(call_span, op_span, id, driver.span_name().into(), t0, t1);
                rec.push_with_id(op_span, 0, id, "op".into(), t0, t1);
                let (_, baseline_latency) = baseline.unwrap_or_else(untraced);
                traced_s += latency;
                untraced_s += baseline_latency;
                (result, latency, Some(sink.counts()))
            }
        };
        let outcome = outcome_of(&result, driver);
        records.push(result.as_ref().ok().map(|run| {
            let counts = record.unwrap_or_default();
            RunRecord {
                net: query.net,
                metrics: run.stats.metrics.clone(),
                splits: run.stats.splits,
                max_depth: run.stats.max_depth,
                certificate: run.certificate.clone(),
                evals: counts.evals,
                refuting_calls: counts.refuting_calls,
            }
        }));
        ops.push(Op {
            id,
            query: i,
            latency,
            regions: result.as_ref().map_or(0, |r| r.stats.regions),
            outcome,
            cache: CacheClass::Unclassified,
        });
    }
    let wall = start.elapsed().as_secs_f64();

    for op in &mut ops {
        let query = &queries[op.query];
        let net = &zoo[query.net].net;
        if let Some(reason) =
            check_verdict(net, &query.property, &op.outcome, delta, mix(seed, op.id))
        {
            op.outcome = Outcome::Failed(reason);
        }
    }
    if driver == Driver::Parallel {
        for (op, record) in ops.iter_mut().zip(&records) {
            let query = &queries[op.query];
            let certificate = record.as_ref().and_then(|r| r.certificate.as_ref());
            if let Some(reason) = certificate_problem(&op.outcome, certificate, query) {
                op.outcome = Outcome::Failed(reason);
            }
        }
    }

    let layers = match recorder {
        Some(rec) => {
            let mut layers = layer_metrics(driver, zoo, &ops, &records, &rec.spans());
            layers.push(Metric::new(
                "trace.overhead_frac",
                Unit::Ratio,
                Some(1.0 - untraced_s / traced_s),
            ));
            layers
        }
        None => Vec::new(),
    };
    Batch { ops, wall, layers }
}

fn outcome_of(result: &Result<VerifyRun, VerifyError>, driver: Driver) -> Outcome {
    match result {
        Err(e) => Outcome::Failed(format!("engine error: {e}")),
        Ok(run) => match (&run.verdict, run.limit) {
            (Verdict::Verified, _) => Outcome::Verified,
            (Verdict::Refuted(cex), _) => Outcome::Refuted {
                witness: cex.point.clone(),
            },
            (Verdict::ResourceLimit, Some(BudgetKind::Regions | BudgetKind::NumericPrecision)) => {
                Outcome::Undecided
            }
            (Verdict::ResourceLimit, limit) => Outcome::Failed(format!(
                "{} stopped by {:?} within the safety wall clock",
                driver.span_name(),
                limit
            )),
        },
    }
}

/// A decisive certified run must carry a certificate for its property.
fn certificate_problem(
    outcome: &Outcome,
    certificate: Option<&Certificate>,
    query: &Query,
) -> Option<String> {
    if !outcome.decided() {
        return None;
    }
    match certificate {
        None => Some("decisive run without a certificate".into()),
        Some(c) if !c.matches_property(query.property.region(), query.property.target()) => {
            Some("certificate does not match the property".into())
        }
        Some(_) => None,
    }
}

/// Sums the named spans' durations.
fn span_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .fold(0.0, |a, b| a + b)
}

fn layer_metrics(
    driver: Driver,
    zoo: &[ZooNet],
    ops: &[Op],
    records: &[Option<RunRecord>],
    spans: &[Span],
) -> Vec<Metric> {
    let records: Vec<&RunRecord> = records.iter().flatten().collect();
    let mut m = Metrics::new();
    for r in &records {
        m.merge(&r.metrics);
    }
    let regions: usize = ops.iter().map(|op| op.regions).sum();
    let evals: u64 = records.iter().map(|r| r.evals).sum();
    let gflop: f64 = records
        .iter()
        .map(|r| r.evals as f64 * 2.0 * zoo[r.net].weights as f64 / 1e9)
        .sum();
    let refuting: u64 = records.iter().map(|r| r.refuting_calls).sum();

    // Driver self time: each call span minus the part of it the engine's
    // child spans cover, less the policy time (which has no span).
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut call_seconds = 0.0;
    let mut uncovered = 0.0;
    for call in spans.iter().filter(|s| s.name == driver.span_name()) {
        let inside = children.get(&call.id).map_or(Vec::new(), |kids| {
            kids.iter()
                .map(|s| (s.start.max(call.start), s.end.min(call.end)))
                .collect()
        });
        call_seconds += call.seconds();
        uncovered += call.seconds() - covered(inside);
    }
    let threads = driver.threads() as f64;
    let parallel = driver == Driver::Parallel;
    let certs: Vec<&Certificate> = records
        .iter()
        .filter_map(|r| r.certificate.as_ref())
        .collect();
    let cert_nodes: usize = certs
        .iter()
        .map(|c| match &c.verdict {
            charon::CertVerdict::Verified { tree } => tree.len(),
            charon::CertVerdict::Refuted { .. } => 1,
        })
        .sum();
    let cert_bytes: usize = certs.iter().map(|c| c.to_text().len()).sum();
    let when = |applies: bool, v: f64| applies.then_some(v);

    vec![
        Metric::new("nn.evals", Unit::Count, Some(evals as f64)),
        Metric::new("nn.eval_gflop", Unit::GflopComputed, Some(gflop)),
        Metric::new("attack.calls", Unit::Count, Some(m.attack_calls as f64)),
        Metric::new("attack.s", Unit::Seconds, Some(m.attack_seconds)),
        Metric::new(
            "attack.center_s",
            Unit::Seconds,
            Some(span_seconds(spans, "attack.center")),
        ),
        Metric::new(
            "attack.fgsm_s",
            Unit::Seconds,
            Some(span_seconds(spans, "attack.fgsm")),
        ),
        Metric::new(
            "attack.coordinate_s",
            Unit::Seconds,
            Some(span_seconds(spans, "attack.coordinate")),
        ),
        Metric::new(
            "attack.restarts_s",
            Unit::Seconds,
            Some(span_seconds(spans, "attack.restarts")),
        ),
        Metric::new(
            "attack.evals_per_region",
            Unit::Count,
            share(evals as usize, regions),
        ),
        Metric::new(
            "attack.refute_ratio",
            Unit::Ratio,
            share(refuting as usize, m.attack_calls as usize),
        ),
        Metric::new(
            "domains.calls",
            Unit::Count,
            Some(m.propagation_calls as f64),
        ),
        Metric::new("domains.s", Unit::Seconds, Some(m.propagation_seconds)),
        Metric::new(
            "domains.proved_ratio",
            Unit::Ratio,
            share(m.propagation_proved as usize, m.propagation_calls as usize),
        ),
        Metric::new(
            "domains.affine_s",
            Unit::Seconds,
            Some(span_seconds(spans, "domains.affine")),
        ),
        Metric::new(
            "domains.relu_s",
            Unit::Seconds,
            Some(span_seconds(spans, "domains.relu")),
        ),
        Metric::new(
            "domains.maxpool_s",
            Unit::Seconds,
            Some(span_seconds(spans, "domains.maxpool")),
        ),
        Metric::new("policy.calls", Unit::Count, Some(m.policy_calls as f64)),
        Metric::new("policy.s", Unit::Seconds, Some(m.policy_seconds)),
        Metric::new("verify.regions", Unit::Count, Some(regions as f64)),
        Metric::new(
            "verify.splits",
            Unit::Count,
            Some(records.iter().map(|r| r.splits).sum::<usize>() as f64),
        ),
        Metric::new(
            "verify.max_depth",
            Unit::Count,
            Some(records.iter().map(|r| r.max_depth).max().unwrap_or(0) as f64),
        ),
        Metric::new(
            "verify.driver_s",
            Unit::Seconds,
            Some((uncovered - m.policy_seconds / threads).max(0.0)),
        ),
        Metric::new("sched.steals", Unit::Count, when(parallel, m.steals as f64)),
        Metric::new("sched.parks", Unit::Count, when(parallel, m.parks as f64)),
        Metric::new(
            "sched.idle_s",
            Unit::Seconds,
            when(parallel, m.idle_seconds),
        ),
        Metric::new(
            "sched.idle_frac",
            Unit::Ratio,
            when(parallel, m.idle_seconds / (threads * call_seconds)),
        ),
        Metric::new(
            "cert.count",
            Unit::Count,
            when(parallel, certs.len() as f64),
        ),
        Metric::new("cert.nodes", Unit::Count, when(parallel, cert_nodes as f64)),
        Metric::new("cert.bytes", Unit::Bytes, when(parallel, cert_bytes as f64)),
    ]
}
