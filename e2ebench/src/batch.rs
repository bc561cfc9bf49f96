//! One timed batch of operations and the end-to-end metrics read from it.

use crate::checks::Outcome;
use crate::stats::{percentile, share, CacheClass, Metric, Unit};

/// One operation: a property on the engine workloads, a job on the
/// service workloads.
#[derive(Debug, Clone)]
pub struct Op {
    /// Operation id (1-based, unique in the batch).
    pub id: u64,
    /// Index of the distinct query it asked.
    pub query: usize,
    /// Time to verdict, seconds, as the caller saw it.
    pub latency: f64,
    /// How it ended.
    pub outcome: Outcome,
    /// Regions the verdict reports.
    pub regions: usize,
    /// Cache classification of a service reply.
    pub cache: CacheClass,
}

/// A finished batch.
pub struct Batch {
    /// Every attempted operation, in id order.
    pub ops: Vec<Op>,
    /// Wall-clock seconds from the first request to the last verdict.
    pub wall: f64,
    /// Per-layer metrics of the batch (complete only when traced).
    pub layers: Vec<Metric>,
}

impl Batch {
    /// Operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall
    }

    /// Ids of the failed operations.
    pub fn failed_ids(&self) -> Vec<u64> {
        self.ops
            .iter()
            .filter(|op| matches!(op.outcome, Outcome::Failed(_)))
            .map(|op| op.id)
            .collect()
    }

    /// The end-to-end metrics other than set-up time and memory, plus
    /// the table-only `op_p90_ms`, `op_p99_ms` and `error_frac`.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let latencies: Vec<f64> = self.ops.iter().map(|op| op.latency).collect();
        let attempted = self.ops.len();
        let decided = self.ops.iter().filter(|op| op.outcome.decided()).count();
        let failed = self.failed_ids().len();
        vec![
            Metric::new("ops_per_s", Unit::PerSecond, Some(self.ops_per_s()))
                .with_samples(attempted),
            Metric::percentile("op_p50_ms", Unit::Millis, percentile(&latencies, 0.50), 1e3),
            Metric::percentile("op_p90_ms", Unit::Millis, percentile(&latencies, 0.90), 1e3),
            Metric::percentile("op_p95_ms", Unit::Millis, percentile(&latencies, 0.95), 1e3),
            Metric::percentile("op_p99_ms", Unit::Millis, percentile(&latencies, 0.99), 1e3),
            Metric::new("decided_frac", Unit::Ratio, share(decided, attempted))
                .with_samples(attempted),
            Metric::new("error_frac", Unit::Ratio, share(failed, attempted))
                .with_samples(attempted),
        ]
    }
}
