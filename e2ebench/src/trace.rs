//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each public call it makes. The
//! engine's `Attack` and `Propagation` events reach a benchmark-owned
//! [`TraceSink`] and become child spans, timed backwards from the moment
//! the event arrives (`start = emit time - seconds`). The engine reports
//! all phases of one attack together when the attack returns, so those
//! are laid end to end, the last ending when the first report arrived.
//! Spans stay in memory until the run ends and are then written as JSON
//! lines.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use charon::telemetry::{TraceEvent, TraceSink};
use nn::Layer;

/// One finished span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation the span belongs to; every span of one operation
    /// shares it. 0 for set-up spans.
    pub op: u64,
    /// Span name, `layer.call` style.
    pub name: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span; returns its id.
    pub fn push(&self, parent: u64, op: u64, name: String, start: f64, end: f64) -> u64 {
        let id = self.id();
        self.push_with_id(id, parent, op, name, start, end);
        id
    }

    /// Records a finished span under an id taken earlier with
    /// [`Recorder::id`] (a parent whose children finish first).
    pub fn push_with_id(&self, id: u64, parent: u64, op: u64, name: String, start: f64, end: f64) {
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&self, parent: u64, op: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.push(parent, op, name.to_string(), start, self.now());
        out
    }

    /// All spans recorded so far, sorted by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}}}",
                s.id, s.parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Engine events counted by the sink that carry no span.
#[derive(Debug, Default, Clone)]
pub struct EventCounts {
    /// Sum of `Attack.evals`.
    pub evals: u64,
    /// Attack calls whose final best objective fell below δ: the calls
    /// that produced a refutation candidate.
    pub refuting_calls: u64,
}

/// The benchmark's trace sink for one engine call: turns `Attack` and
/// `Propagation` events into child spans of the call's span.
pub struct OpSink {
    recorder: Arc<Recorder>,
    op: u64,
    parent: u64,
    delta: f64,
    layer_kinds: Vec<&'static str>,
    state: Mutex<SinkState>,
}

#[derive(Default)]
struct SinkState {
    counts: EventCounts,
    /// Attack calls whose phases have been reported, kept until the
    /// region's propagation (or the end of the engine call) closes them.
    open_attacks: Vec<OpenAttack>,
}

/// The reported phases of one attack call.
struct OpenAttack {
    ordinal: usize,
    /// Best objective after the last reported phase.
    best: f64,
    /// When the first phase was reported: the attack had returned.
    reported: f64,
    /// `(phase, seconds)` in the order the attack ran them.
    phases: Vec<(String, f64)>,
}

impl OpSink {
    /// A sink whose spans belong to operation `op` under span `parent`.
    pub fn new(
        recorder: Arc<Recorder>,
        op: u64,
        parent: u64,
        net: &nn::Network,
        delta: f64,
    ) -> Self {
        OpSink {
            recorder,
            op,
            parent,
            delta,
            layer_kinds: net.layers().iter().map(layer_kind).collect(),
            state: Mutex::new(SinkState::default()),
        }
    }

    /// The event counts, closing any attack call still open.
    pub fn counts(&self) -> EventCounts {
        let mut state = self.state.lock().expect("sink state poisoned");
        for attack in std::mem::take(&mut state.open_attacks) {
            self.close(&mut state.counts, attack);
        }
        state.counts.clone()
    }

    /// Records the spans of a finished attack call, its phases end to end
    /// up to the moment it was reported, and counts it if it refuted.
    fn close(&self, counts: &mut EventCounts, attack: OpenAttack) {
        let mut at = attack.reported - attack.phases.iter().map(|(_, s)| s).sum::<f64>();
        for (phase, seconds) in attack.phases {
            self.recorder.push(
                self.parent,
                self.op,
                format!("attack.{phase}"),
                at,
                at + seconds,
            );
            at += seconds;
        }
        if attack.best < self.delta {
            counts.refuting_calls += 1;
        }
    }
}

/// The span name of a network layer's propagation step.
pub fn layer_kind(layer: &Layer) -> &'static str {
    match layer {
        Layer::Affine(_) => "domains.affine",
        Layer::Relu => "domains.relu",
        Layer::MaxPool(_) => "domains.maxpool",
    }
}

impl TraceSink for OpSink {
    fn record(&self, event: &TraceEvent) {
        let now = self.recorder.now();
        match event {
            TraceEvent::Attack {
                ordinal,
                phase,
                evals,
                best_objective,
                seconds,
            } => {
                let mut state = self.state.lock().expect("sink state poisoned");
                state.counts.evals += *evals as u64;
                let attack = match state
                    .open_attacks
                    .iter()
                    .position(|a| a.ordinal == *ordinal)
                {
                    Some(pos) => &mut state.open_attacks[pos],
                    None => {
                        state.open_attacks.push(OpenAttack {
                            ordinal: *ordinal,
                            best: *best_objective,
                            reported: now,
                            phases: Vec::new(),
                        });
                        state.open_attacks.last_mut().expect("just pushed")
                    }
                };
                attack.best = *best_objective;
                attack.phases.push((phase.clone(), *seconds));
            }
            TraceEvent::Propagation {
                ordinal,
                seconds,
                layer_seconds,
                ..
            } => {
                let start = now - seconds;
                let id = self.recorder.id();
                let mut at = start;
                for (i, &s) in layer_seconds.iter().enumerate() {
                    let kind = self.layer_kinds.get(i).copied().unwrap_or("domains.other");
                    self.recorder
                        .push(id, self.op, kind.to_string(), at, at + s);
                    at += s;
                }
                self.recorder.push_with_id(
                    id,
                    self.parent,
                    self.op,
                    "domains.propagate".into(),
                    start,
                    now,
                );
                // A propagation closes the attack call on its region: the
                // attack's last phase has reported by now.
                let mut state = self.state.lock().expect("sink state poisoned");
                if let Some(pos) = state
                    .open_attacks
                    .iter()
                    .position(|a| a.ordinal == *ordinal)
                {
                    let attack = state.open_attacks.swap_remove(pos);
                    self.close(&mut state.counts, attack);
                }
            }
            _ => {}
        }
    }
}

/// Length of the union of `intervals` (seconds): the part of a parent's
/// interval its children cover, counting overlaps once.
pub fn covered(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Phases reported together when the attack returns are laid end to
    /// end, ending at the first report; a refuting attack is counted.
    #[test]
    fn attack_phases_are_laid_end_to_end() {
        let rec = Recorder::new();
        let net = nn::Network::new(1, vec![]).expect("an empty network");
        let sink = OpSink::new(Arc::clone(&rec), 7, 3, &net, 0.0);
        for (phase, seconds, best) in [("center", 0.25, 1.0), ("fgsm", 0.5, -1.0)] {
            sink.record(&TraceEvent::Attack {
                ordinal: 0,
                phase: phase.to_string(),
                evals: 2,
                best_objective: best,
                seconds,
            });
        }
        let counts = sink.counts();
        assert_eq!((counts.evals, counts.refuting_calls), (4, 1));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "attack.center");
        assert_eq!(spans[1].name, "attack.fgsm");
        assert_eq!(spans[0].end, spans[1].start);
        assert!((spans[0].seconds() - 0.25).abs() < 1e-12);
        assert!((spans[1].seconds() - 0.5).abs() < 1e-12);
        assert!(spans.iter().all(|s| (s.op, s.parent) == (7, 3)));
        assert!((covered(spans.iter().map(|s| (s.start, s.end)).collect()) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(covered(vec![]), 0.0);
        assert_eq!(covered(vec![(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(covered(vec![(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(covered(vec![(1.0, 3.0), (0.0, 4.0), (5.0, 6.0)]), 5.0);
    }
}
