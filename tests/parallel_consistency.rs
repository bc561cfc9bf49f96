//! The parallel verifier must agree with the sequential one on every
//! decidable problem, across policies and thread counts.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use charon::parallel::ParallelVerifier;
use charon::policy::{DomainSelection, FixedPolicy, LinearPolicy};
use charon::telemetry::SharedSink;
use charon::{
    RobustnessProperty, SchedulerMode, TraceEvent, TraceSink, Verdict, Verifier, VerifierConfig,
    VerifyRun,
};
use domains::{Bounds, DomainChoice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config() -> VerifierConfig {
    VerifierConfig {
        timeout: Duration::from_secs(20),
        ..VerifierConfig::default()
    }
}

#[test]
fn parallel_matches_sequential_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xbeef);
    for trial in 0..6 {
        let net = nn::train::random_mlp(3, &[7], 3, trial);
        let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let eps = rng.gen_range(0.1..0.5);
        let prop =
            RobustnessProperty::new(Bounds::linf_ball(&center, eps, None), net.classify(&center));
        let sequential =
            Verifier::new(Arc::new(LinearPolicy::default()), config()).verify(&net, &prop);
        for threads in [1, 2, 4] {
            let parallel =
                ParallelVerifier::new(Arc::new(LinearPolicy::default()), config(), threads)
                    .verify(&net, &prop);
            // Verdict *kind* must match; the specific counterexample may
            // differ between schedules.
            assert_eq!(
                sequential.is_verified(),
                parallel.is_verified(),
                "trial {trial}, {threads} threads: {sequential:?} vs {parallel:?}"
            );
            assert_eq!(sequential.is_refuted(), parallel.is_refuted());
            if let Verdict::Refuted(cex) = &parallel {
                assert!(prop.region().contains(&cex.point));
                assert!(net.objective(&cex.point, prop.target()) <= 1e-9);
            }
        }
    }
}

#[test]
fn parallel_works_with_every_fixed_selection() {
    let net = nn::samples::example_2_3_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
    for selection in [
        DomainSelection::Abstract(DomainChoice::zonotope()),
        DomainSelection::Abstract(DomainChoice::interval()),
        DomainSelection::DeepPoly,
        DomainSelection::Solver { node_budget: 100 },
    ] {
        let policy = Arc::new(FixedPolicy::with_selection(selection));
        let verdict = ParallelVerifier::new(policy, config(), 3).verify(&net, &prop);
        assert!(
            verdict.is_verified(),
            "selection {selection} failed: {verdict:?}"
        );
    }
}

/// Scheduler stress: a refinement-heavy run (interval-only policy forces
/// many splits) must reach the same verdict and explore exactly the same
/// number of regions as the sequential engine, under both scheduling
/// disciplines and with more workers than regions-per-deque (so the
/// work-stealing mode actually steals). The split tree is deterministic
/// given the policy, so `regions` accounting is schedule-independent.
#[test]
fn scheduler_modes_match_sequential_region_accounting() {
    let net = nn::samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let policy = || Arc::new(FixedPolicy::new(DomainChoice::interval()));
    let sequential = Verifier::new(policy(), config())
        .try_verify_run(&net, &prop)
        .unwrap();
    assert_eq!(sequential.verdict, Verdict::Verified);
    assert!(sequential.stats.regions > 4, "need a multi-region baseline");

    for mode in [SchedulerMode::WorkStealing, SchedulerMode::SharedQueue] {
        for threads in [1, 2, 4, 8] {
            let verifier = ParallelVerifier::new(policy(), config(), threads).with_scheduler(mode);
            assert_eq!(verifier.scheduler_mode(), mode);
            let run = verifier.try_verify_run(&net, &prop).unwrap();
            assert_eq!(
                run.verdict,
                Verdict::Verified,
                "{} @ {threads} threads",
                mode.name()
            );
            assert_eq!(
                run.stats.regions,
                sequential.stats.regions,
                "{} @ {threads} threads explored a different region count",
                mode.name()
            );
            assert_eq!(run.stats.verified_regions, sequential.stats.verified_regions);
            // The shared-queue fallback has a single deque: stealing is
            // structurally impossible there.
            if mode == SchedulerMode::SharedQueue {
                assert_eq!(run.stats.metrics.steals, 0);
                assert_eq!(run.stats.metrics.stolen_regions, 0);
            }
        }
    }
}

#[test]
fn batch_runner_matches_individual_runs() {
    let problems: Vec<(nn::Network, RobustnessProperty)> = (0..5)
        .map(|seed| {
            let net = nn::train::random_mlp(2, &[5], 2, seed);
            let prop = RobustnessProperty::new(
                Bounds::linf_ball(&[0.1, -0.1], 0.3, None),
                net.classify(&[0.1, -0.1]),
            );
            (net, prop)
        })
        .collect();
    let batch =
        charon::parallel::verify_batch(&problems, Arc::new(LinearPolicy::default()), &config(), 3);
    assert_eq!(batch.len(), problems.len());
    for ((net, prop), (verdict, elapsed)) in problems.iter().zip(batch.iter()) {
        let solo = Verifier::new(Arc::new(LinearPolicy::default()), config()).verify(net, prop);
        assert_eq!(solo.is_verified(), verdict.is_verified());
        assert_eq!(solo.is_refuted(), verdict.is_refuted());
        assert!(*elapsed <= Duration::from_secs(21));
    }
}

/// A sink that keeps every event, in arrival order.
#[derive(Default)]
struct Collect(Mutex<Vec<TraceEvent>>);

impl TraceSink for Collect {
    fn record(&self, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

impl Collect {
    fn events(&self) -> Vec<TraceEvent> {
        self.0.lock().unwrap().clone()
    }
}

/// Runs `f` with a fresh collecting sink; returns the run and its events.
fn traced(f: impl FnOnce(SharedSink) -> VerifyRun) -> (VerifyRun, Vec<TraceEvent>) {
    let sink = Arc::new(Collect::default());
    let run = f(Arc::clone(&sink) as SharedSink);
    (run, sink.events())
}

/// Region caps hold exactly under any number of workers, and every
/// region a run pops gets an ordinal of its own.
#[test]
fn parallel_region_cap_is_exact_and_ordinals_are_unique() {
    let net = nn::samples::xor_network();
    let prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    for cap in 2..=12 {
        for threads in [2, 4, 8] {
            for rep in 0..10 {
                let config = VerifierConfig {
                    max_regions: cap,
                    counterexample_search: false,
                    ..config()
                };
                let policy = Arc::new(FixedPolicy::new(DomainChoice::interval()));
                let (run, events) = traced(|sink| {
                    ParallelVerifier::new(policy, config, threads)
                        .with_trace(sink)
                        .try_verify_run(&net, &prop)
                        .unwrap()
                });
                let at = format!("cap {cap}, {threads} threads, rep {rep}");
                assert!(
                    run.stats.regions <= cap,
                    "{at}: processed {} regions",
                    run.stats.regions
                );
                if let Some(ckpt) = &run.checkpoint {
                    assert!(
                        ckpt.regions_done <= cap,
                        "{at}: checkpoint counts {} regions",
                        ckpt.regions_done
                    );
                }
                let mut ordinals: Vec<usize> = events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::RegionPopped { ordinal, .. } => Some(*ordinal),
                        _ => None,
                    })
                    .collect();
                let popped = ordinals.len();
                ordinals.sort_unstable();
                ordinals.dedup();
                assert_eq!(ordinals.len(), popped, "{at}: repeated region ordinal");
            }
        }
    }
}

/// A one-worker `ParallelVerifier` is the sequential `Verifier`: the same
/// regions in the same order, the same checkpoint, the same certificate.
#[test]
fn one_worker_parallel_run_equals_sequential_run() {
    let xor = nn::samples::xor_network();
    let xor_prop = RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let ex23 = nn::samples::example_2_3_network();
    let ex23_prop = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
    let cases = [
        ("xor uncapped", &xor, &xor_prop, config()),
        (
            "xor capped at 6",
            &xor,
            &xor_prop,
            VerifierConfig {
                max_regions: 6,
                ..config()
            },
        ),
        (
            "example 2.3 certified",
            &ex23,
            &ex23_prop,
            VerifierConfig {
                certificates: true,
                ..config()
            },
        ),
    ];
    let search_events = |events: &[TraceEvent]| -> Vec<TraceEvent> {
        events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::RegionPopped { .. } | TraceEvent::Bisection { .. }
                )
            })
            .cloned()
            .collect()
    };
    for (name, net, prop, config) in cases {
        let policy = || Arc::new(FixedPolicy::new(DomainChoice::interval()));
        let (seq, seq_events) = traced(|sink| {
            Verifier::new(policy(), config.clone())
                .with_trace(sink)
                .try_verify_run(net, prop)
                .unwrap()
        });
        let (one, one_events) = traced(|sink| {
            ParallelVerifier::new(policy(), config.clone(), 1)
                .with_trace(sink)
                .try_verify_run(net, prop)
                .unwrap()
        });
        assert!(seq.stats.splits > 0, "{name}: need a run that bisects");
        assert_eq!(
            search_events(&seq_events),
            search_events(&one_events),
            "{name}: different region order"
        );
        assert_eq!(seq.verdict, one.verdict, "{name}");
        assert_eq!(seq.stats.regions, one.stats.regions, "{name}");
        assert_eq!(seq.stats.splits, one.stats.splits, "{name}");
        assert_eq!(
            seq.checkpoint.as_ref().map(|c| c.to_text()),
            one.checkpoint.as_ref().map(|c| c.to_text()),
            "{name}: different checkpoint"
        );
        assert_eq!(
            seq.certificate.as_ref().map(|c| c.to_text()),
            one.certificate.as_ref().map(|c| c.to_text()),
            "{name}: different certificate"
        );
        if config.max_regions == 6 {
            assert!(seq.checkpoint.is_some(), "{name}: cap must stop the run");
        }
        if config.certificates {
            assert!(seq.certificate.is_some(), "{name}: certificate expected");
        }
    }
}
