//! The benchmark's own arithmetic: percentiles with their sample counts,
//! failure shares, unit labels, hit/miss classification, and the result
//! line. Kept free of program calls so the unit tests can pin it down.

/// A percentile read from a sample by the nearest-rank rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked strictly above the percentile's rank. A percentile
    /// is trustworthy only when at least ten samples lie beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` of the samples are at or below it, i.e. the value at 1-based
/// rank `ceil(q * n)` of the sorted sample. Returns `None` for an
/// empty sample. `q` is clamped to `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q.clamp(f64::MIN_POSITIVE, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of a sample (the mean of the two middle values for an even
/// count). Used for the repeated set-up timings, where the sample is
/// small and the nearest-rank rule would pick the lower middle value.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// `part / whole` as a share, or `None` when nothing was attempted (a
/// share of zero attempts is undefined, not zero).
pub fn share(part: usize, whole: usize) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

/// What a metric counts, with the label printed beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Seconds.
    Seconds,
    /// Milliseconds.
    Millis,
    /// Operations per second.
    PerSecond,
    /// A dimensionless share in `[0, 1]` (or a signed relative change).
    Ratio,
    /// A whole-number count.
    Count,
    /// Mebibytes (2^20 bytes).
    MiB,
    /// Bytes.
    Bytes,
    /// Floating-point operations, 10^9, computed from a formula rather
    /// than measured.
    GflopComputed,
}

impl Unit {
    /// The unit label used in the table and the result line.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Seconds => "s",
            Unit::Millis => "ms",
            Unit::PerSecond => "1/s",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::MiB => "MiB",
            Unit::Bytes => "B",
            Unit::GflopComputed => "GFLOP-computed",
        }
    }
}

/// Whether a service reply was answered from the result cache, read from
/// its `cached` field (`1` hit, `0` miss). Replies without the field
/// (coordinator verdicts, errors) are neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    /// Served from the result cache.
    Hit,
    /// Computed by a worker.
    Miss,
    /// No `cached` field on the reply.
    Unclassified,
}

/// Classifies a reply by its `cached` field.
pub fn classify_cached(cached: Option<usize>) -> CacheClass {
    match cached {
        Some(0) => CacheClass::Miss,
        Some(_) => CacheClass::Hit,
        None => CacheClass::Unclassified,
    }
}

/// One named metric of a run. `value: None` means the metric does not
/// apply to the workload: the table prints it as absent.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: Unit,
    /// The measured value, or `None` when absent on this workload.
    pub value: Option<f64>,
    /// Sample count behind the value, when it is a statistic of a sample.
    pub samples: Option<usize>,
    /// Samples beyond a percentile value.
    pub beyond: Option<usize>,
}

impl Metric {
    /// A plain measured value.
    pub fn new(name: &'static str, unit: Unit, value: Option<f64>) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
            beyond: None,
        }
    }

    /// A percentile with its sample counts.
    pub fn percentile(name: &'static str, unit: Unit, p: Option<Percentile>, scale: f64) -> Metric {
        Metric {
            name,
            unit,
            value: p.map(|p| p.value * scale),
            samples: p.map(|p| p.samples),
            beyond: p.map(|p| p.beyond),
        }
    }

    /// This metric, or its absent form when it does not apply.
    pub fn only_if(self, applies: bool) -> Metric {
        if applies {
            self
        } else {
            Metric::new(self.name, self.unit, None)
        }
    }

    /// A value with the sample count it was computed over.
    pub fn with_samples(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }
}

/// Renders the human-readable table: one row per metric with its value
/// (or `absent`), unit and sample counts.
pub fn render_table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "  {:<28} {:>16} {:<15} {}\n",
        "metric", "value", "unit", "samples"
    ));
    for m in metrics {
        let value = match m.value {
            Some(v) => format_value(v),
            None => "absent".to_string(),
        };
        let samples = match (m.samples, m.beyond) {
            (Some(n), Some(b)) => format!("n={n}, {b} beyond"),
            (Some(n), None) => format!("n={n}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  {:<28} {:>16} {:<15} {}\n",
            m.name,
            value,
            m.unit.label(),
            samples
        ));
    }
    out
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Every metric is written with all its digits.
/// A metric absent on this workload is written as `0`: the line must
/// carry every listed metric as a number, and the table above it is
/// where absence shows.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value.unwrap_or(0.0)),
                m.unit.label()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number in Rust's shortest round-trip form; non-finite
/// values (which JSON cannot carry) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_counts_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&samples, 0.50).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!((p50.samples, p50.beyond), (100, 50));
        let p90 = percentile(&samples, 0.90).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        // 1000 samples: p99 has exactly ten samples beyond it.
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99).unwrap().beyond, 10);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        let one = percentile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        // Rank rounds up: the p50 of four samples is the second.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 1.0).unwrap().value, 4.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failure_share_is_over_attempts() {
        assert_eq!(share(0, 120), Some(0.0));
        assert_eq!(share(3, 12), Some(0.25));
        assert_eq!(share(0, 0), None);
    }

    #[test]
    fn unit_labels() {
        assert_eq!(Unit::Seconds.label(), "s");
        assert_eq!(Unit::Millis.label(), "ms");
        assert_eq!(Unit::PerSecond.label(), "1/s");
        assert_eq!(Unit::MiB.label(), "MiB");
        assert_eq!(Unit::GflopComputed.label(), "GFLOP-computed");
        // Every label fits the result-line unit alphabet.
        for unit in [
            Unit::Seconds,
            Unit::Millis,
            Unit::PerSecond,
            Unit::Ratio,
            Unit::Count,
            Unit::MiB,
            Unit::Bytes,
            Unit::GflopComputed,
        ] {
            let label = unit.label();
            assert!(!label.is_empty() && label.len() <= 16);
            assert!(label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn hit_miss_classification() {
        assert_eq!(classify_cached(Some(1)), CacheClass::Hit);
        assert_eq!(classify_cached(Some(0)), CacheClass::Miss);
        assert_eq!(classify_cached(None), CacheClass::Unclassified);
    }

    #[test]
    fn result_line_carries_every_metric_and_marks_absence_in_the_table() {
        let metrics = vec![
            Metric::new("ops_per_s", Unit::PerSecond, Some(12.5)),
            Metric::new("sched.steals", Unit::Count, None),
        ];
        let line = result_line(true, 10, 1, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"sched.steals\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        let table = render_table("t", &metrics);
        assert!(table.contains("absent"));
        assert!(!table.contains("sched.steals                     0"));
    }

    #[test]
    fn result_numbers_keep_all_digits() {
        let m = [Metric::new("x", Unit::Seconds, Some(0.1234567890123))];
        assert!(result_line(true, 1, 0, &m).contains("0.1234567890123"));
        let inf = [Metric::new("x", Unit::Seconds, Some(f64::INFINITY))];
        assert!(result_line(true, 1, 0, &inf).contains("\"value\": 0,"));
    }
}
