//! Gradient-based adversarial counterexample search.
//!
//! Implements the optimization side of the paper (§3): minimizing the
//! robustness objective `F(x) = N(x)_K - max_{j != K} N(x)_j` (Eq. 2) over
//! an input region using projected gradient descent ([`pgd`]) with random
//! restarts ([`Minimizer`]), plus the fast gradient sign method
//! ([`fgsm_step`]) as a cheap alternative direction. The minimizer runs
//! all its descents — center, FGSM corner, restarts — as one lockstep
//! batch ([`pgd_batch`]).
//!
//! A point with `F(x) <= 0` is a true adversarial counterexample; points
//! with `F(x) <= δ` are the δ-counterexamples of Definition 5.3.
//!
//! # API invariants
//!
//! * [`Minimizer::minimize`] always returns a point inside the given
//!   region (every step is projected back onto the box), and never
//!   reports an objective it did not evaluate at that point.
//! * The search is deterministic for a fixed seed and restart count.
//! * The minimizer itself does not filter non-finite objectives; the
//!   verifier treats a NaN objective as a poisoned attack (never as a
//!   refutation) and falls back to abstraction — see the failure model
//!   in the `charon` crate docs.
//! * [`Minimizer::minimize_traced`] is the observability twin of
//!   `minimize`: identical search, plus one [`PhaseStat`] per phase
//!   (the lockstep PGD batch, then coordinate descent) with evaluation
//!   counts, best objective, and wall time. The untraced path reads no
//!   clocks.
//!
//! # Examples
//!
//! ```
//! use attack::Minimizer;
//! use domains::Bounds;
//! use nn::samples;
//!
//! let net = samples::example_2_2_network();
//! // On [-1, 2] the property "class 1" is falsifiable (N(2) = [8, 6]).
//! let region = Bounds::new(vec![-1.0], vec![2.0]);
//! let result = Minimizer::new(1).with_restarts(8).minimize(&net, &region, 1);
//! assert!(result.objective <= 0.0, "PGD should find the violation");
//! ```

use domains::Bounds;
use nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Matrix;

/// Replaces a NaN objective value with `+∞` so it can never be accepted
/// as a best-so-far or trip a `<= δ` refutation check. Networks with
/// poisoned parameters evaluate to NaN everywhere; the sentinel makes
/// every optimizer in this crate report "attack found nothing" instead
/// of returning a NaN that compares false with everything downstream.
fn sanitize_objective(f: f64) -> f64 {
    if f.is_nan() {
        f64::INFINITY
    } else {
        f
    }
}

/// Whether a gradient is usable for a descent step. Non-finite entries
/// (NaN or ±∞ from poisoned numerics) would teleport the iterate out of
/// the region or poison it outright.
fn gradient_is_finite(g: &[f64]) -> bool {
    g.iter().all(|v| v.is_finite())
}

/// Result of an optimization run: the best point found and its objective
/// value.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// The minimizing point `x*` (always inside the search region).
    pub point: Vec<f64>,
    /// The objective value `F(x*)`.
    pub objective: f64,
    /// Number of evaluations performed: one per objective value computed
    /// and one per gradient a descent step used.
    pub evals: usize,
}

/// Configuration for projected gradient descent.
#[derive(Debug, Clone)]
pub struct PgdConfig {
    /// Number of gradient steps per run.
    pub steps: usize,
    /// Initial step size as a fraction of the mean region width.
    pub step_fraction: f64,
    /// Multiplicative step decay applied when a step fails to improve.
    pub decay: f64,
}

impl Default for PgdConfig {
    fn default() -> Self {
        PgdConfig {
            steps: 60,
            step_fraction: 0.25,
            decay: 0.7,
        }
    }
}

/// Runs projected gradient descent on the robustness objective from a
/// given starting point, returning the best point visited.
///
/// Each step costs one forward and one backward pass: the
/// [`Network::objective_and_gradient`] call that scores the new iterate
/// also supplies the gradient the next step descends along.
///
/// Early-exits as soon as the objective becomes non-positive (a true
/// counterexample has been found).
///
/// # Panics
///
/// Panics if `start` is not inside `region`, or dimensions mismatch.
pub fn pgd(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    config: &PgdConfig,
) -> AttackResult {
    assert!(region.contains(start), "start point must lie in the region");
    let mut x = start.to_vec();
    let mut best = x.clone();
    let (f, mut g) = net.objective_and_gradient(&x, target);
    let mut best_f = sanitize_objective(f);
    let mut evals = 1;
    let mut step = config.step_fraction * region.mean_width().max(1e-12);

    for _ in 0..config.steps {
        if best_f <= 0.0 {
            break;
        }
        // `g` is the gradient at `x`, from the evaluation that produced
        // `x`'s objective; it counts as an evaluation once a step uses it.
        evals += 1;
        if !gradient_is_finite(&g) {
            break;
        }
        let norm = tensor::ops::norm2(&g);
        if norm < 1e-12 {
            break;
        }
        // Descend: x <- Proj(x - step * g / |g|)
        for (xi, gi) in x.iter_mut().zip(g.iter()) {
            *xi -= step * gi / norm;
        }
        region.clamp(&mut x);
        let (f, next_g) = net.objective_and_gradient(&x, target);
        g = next_g;
        let f = sanitize_objective(f);
        evals += 1;
        if f < best_f {
            best_f = f;
            best = x.clone();
        } else {
            step *= config.decay;
            if step < 1e-12 {
                break;
            }
        }
    }
    AttackResult {
        point: best,
        objective: best_f,
        evals,
    }
}

/// Projected gradient descent with momentum: accumulates a velocity
/// vector, which helps cross shallow saddle regions of the piecewise
/// linear objective that plain PGD stalls on.
///
/// Early-exits as soon as the objective becomes non-positive.
///
/// # Panics
///
/// Panics if `start` is not inside `region`.
pub fn pgd_momentum(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    config: &PgdConfig,
    momentum: f64,
) -> AttackResult {
    assert!(region.contains(start), "start point must lie in the region");
    assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
    let mut x = start.to_vec();
    let mut velocity = vec![0.0; x.len()];
    let mut best = x.clone();
    let (f, mut g) = net.objective_and_gradient(&x, target);
    let mut best_f = sanitize_objective(f);
    let mut evals = 1;
    let step = config.step_fraction * region.mean_width().max(1e-12);

    for _ in 0..config.steps {
        if best_f <= 0.0 {
            break;
        }
        // As in `pgd`: `g` is the gradient at `x`, counted when used.
        evals += 1;
        if !gradient_is_finite(&g) {
            break;
        }
        let norm = tensor::ops::norm2(&g);
        if norm < 1e-12 && tensor::ops::norm2(&velocity) < 1e-12 {
            break;
        }
        for ((vi, gi), xi) in velocity.iter_mut().zip(g.iter()).zip(x.iter_mut()) {
            *vi = momentum * *vi - step * gi / norm.max(1e-12);
            *xi += *vi;
        }
        region.clamp(&mut x);
        let (f, next_g) = net.objective_and_gradient(&x, target);
        g = next_g;
        let f = sanitize_objective(f);
        evals += 1;
        if f < best_f {
            best_f = f;
            best = x.clone();
        }
    }
    AttackResult {
        point: best,
        objective: best_f,
        evals,
    }
}

/// Greedy coordinate descent: repeatedly moves single coordinates to
/// whichever region boundary decreases the objective most. Effective on
/// brightening-attack regions, where most coordinates are frozen and the
/// optimum tends to sit on a corner of the free sub-box.
///
/// # Panics
///
/// Panics if `start` is not inside `region`.
pub fn coordinate_descent(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    sweeps: usize,
) -> AttackResult {
    assert!(region.contains(start), "start point must lie in the region");
    let mut x = start.to_vec();
    let mut best_f = sanitize_objective(net.objective(&x, target));
    let mut evals = 1;
    let free: Vec<usize> = region
        .widths()
        .iter()
        .enumerate()
        .filter(|(_, w)| **w > 0.0)
        .map(|(i, _)| i)
        .collect();

    for _ in 0..sweeps {
        if best_f <= 0.0 {
            break;
        }
        let mut improved = false;
        for &i in &free {
            let original = x[i];
            let mut local_best = best_f;
            let mut local_val = original;
            for candidate in [region.lower()[i], region.upper()[i]] {
                if candidate == original {
                    continue;
                }
                x[i] = candidate;
                let f = sanitize_objective(net.objective(&x, target));
                evals += 1;
                if f < local_best {
                    local_best = f;
                    local_val = candidate;
                }
            }
            x[i] = local_val;
            if local_best < best_f {
                best_f = local_best;
                improved = true;
            }
            if best_f <= 0.0 {
                break;
            }
        }
        if !improved {
            break;
        }
    }
    AttackResult {
        point: x,
        objective: best_f,
        evals,
    }
}

/// Projected gradient descent on a batch of starting points in lockstep.
///
/// Each row of `starts` is one restart. Every descent iteration evaluates
/// the whole batch with one blocked forward/backward pass
/// ([`Network::objective_and_gradient_batch`]) instead of one matrix-vector
/// product per point per layer, so the per-layer weight matrix is read
/// once per iteration for all restarts. Rows retire independently (zero or
/// poisoned gradient, step underflow), and the whole batch stops as soon
/// as any row reaches a non-positive objective — matching the sequential
/// restart loop, which never ran later restarts after a success.
///
/// Returns the best point across all rows (earliest row wins ties).
///
/// # Panics
///
/// Panics if any row of `starts` lies outside `region`, or dimensions
/// mismatch.
pub fn pgd_batch(
    net: &Network,
    region: &Bounds,
    target: usize,
    starts: &Matrix,
    config: &PgdConfig,
) -> AttackResult {
    assert!(starts.rows() > 0, "batch must contain at least one start");
    for start in starts.rows_iter() {
        assert!(region.contains(start), "start point must lie in the region");
    }
    let n = starts.cols();
    let base_step = config.step_fraction * region.mean_width().max(1e-12);

    let mut xs = starts.clone();
    let mut best = starts.clone();
    let (fs, mut gs) = net.objective_and_gradient_batch(&xs, target);
    let mut best_f: Vec<f64> = fs.into_iter().map(sanitize_objective).collect();
    let mut evals = starts.rows();
    let mut step = vec![base_step; starts.rows()];
    let mut active = vec![true; starts.rows()];
    // Row ids of `gs`: row `i` of `gs` is the gradient at `xs.row(batch[i])`.
    let mut batch: Vec<usize> = (0..starts.rows()).collect();

    'outer: for _ in 0..config.steps {
        if best_f.iter().any(|f| *f <= 0.0) {
            break;
        }
        // Step the live rows with the gradients of the last evaluation and
        // compact them, so retired restarts stop consuming kernel work.
        let mut live = Vec::with_capacity(batch.len());
        let mut packed = Matrix::zeros(0, n);
        for (&r, g) in batch.iter().zip(gs.rows_iter()) {
            if !active[r] {
                continue;
            }
            live.push(r);
            evals += 1;
            let x = xs.row_mut(r);
            let norm = tensor::ops::norm2(g);
            if !gradient_is_finite(g) || norm < 1e-12 {
                active[r] = false;
            } else {
                for (xi, gi) in x.iter_mut().zip(g.iter()) {
                    *xi -= step[r] * gi / norm;
                }
                region.clamp(x);
            }
            packed.push_row(x);
        }
        if live.is_empty() {
            break;
        }
        let (fs, next_gs) = net.objective_and_gradient_batch(&packed, target);
        gs = next_gs;
        batch = live;
        for (&r, f) in batch.iter().zip(fs.iter()) {
            if !active[r] {
                continue;
            }
            evals += 1;
            let f = sanitize_objective(*f);
            if f < best_f[r] {
                best_f[r] = f;
                best.row_mut(r).copy_from_slice(xs.row(r));
                if f <= 0.0 {
                    break 'outer;
                }
            } else {
                step[r] *= config.decay;
                if step[r] < 1e-12 {
                    active[r] = false;
                }
            }
        }
    }

    let winner = (0..best_f.len())
        .reduce(|a, b| if best_f[b] < best_f[a] { b } else { a })
        .expect("batch is non-empty");
    AttackResult {
        point: best.row(winner).to_vec(),
        objective: best_f[winner],
        evals,
    }
}

/// One fast-gradient-sign step from `start`: moves to the corner of the
/// region indicated by the sign of the objective gradient. Coordinates
/// whose gradient entry is zero (`+0.0` or `-0.0`) give no direction and
/// stay at their start value.
///
/// # Panics
///
/// Panics if `start` is not inside `region`.
pub fn fgsm_step(net: &Network, region: &Bounds, target: usize, start: &[f64]) -> Vec<f64> {
    assert!(region.contains(start), "start point must lie in the region");
    let g = net.objective_gradient(start, target);
    if !gradient_is_finite(&g) {
        // A poisoned gradient gives no usable direction; stay put.
        return start.to_vec();
    }
    let mut x: Vec<f64> = start
        .iter()
        .zip(g.iter())
        .zip(region.widths().iter())
        .map(|((xi, gi), w)| if *gi == 0.0 { *xi } else { xi - w * gi.signum() })
        .collect();
    region.clamp(&mut x);
    x
}

/// Timing and outcome of one attack phase inside
/// [`Minimizer::minimize_traced`].
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Phase name: `pgd` (the lockstep batch) or `coordinate`.
    pub phase: &'static str,
    /// Gradient/objective evaluations this phase contributed.
    pub evals: usize,
    /// Best objective over the whole minimization *after* this phase.
    pub best_objective: f64,
    /// Wall-clock seconds of this phase.
    pub seconds: f64,
}

/// Per-phase statistics of one traced minimization run.
///
/// A minimization that early-exits on a found counterexample records
/// only the phases that actually ran.
#[derive(Debug, Clone, Default)]
pub struct MinimizeTrace {
    /// The phases that ran, in execution order.
    pub phases: Vec<PhaseStat>,
}

/// Multi-restart minimizer for the robustness objective (the `Minimize`
/// call at line 2 of Algorithm 1).
///
/// Runs PGD from the region center, from the FGSM corner of the center
/// and from a number of random starting points as one lockstep batch,
/// then coordinate descent from the center if no descent refuted,
/// keeping the best result.
#[derive(Debug, Clone)]
pub struct Minimizer {
    /// PGD configuration shared by all restarts.
    pub config: PgdConfig,
    /// Number of random restarts in addition to the center start.
    pub restarts: usize,
    seed: u64,
}

impl Minimizer {
    /// Creates a minimizer with default configuration and the given RNG
    /// seed.
    pub fn new(seed: u64) -> Self {
        Minimizer {
            config: PgdConfig::default(),
            restarts: 3,
            seed,
        }
    }

    /// Sets the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the PGD configuration.
    pub fn with_config(mut self, config: PgdConfig) -> Self {
        self.config = config;
        self
    }

    /// Minimizes `F` over `region`, returning the best point found.
    ///
    /// If the network evaluates to NaN on every visited point (poisoned
    /// parameters), the returned objective is `+∞` — a sentinel meaning
    /// "the attack could not evaluate the network", which no δ-check can
    /// mistake for a refutation.
    ///
    /// # Panics
    ///
    /// Panics if `region.dim() != net.input_dim()` or `target` is out of
    /// range.
    pub fn minimize(&self, net: &Network, region: &Bounds, target: usize) -> AttackResult {
        self.minimize_impl(net, region, target, None)
    }

    /// [`Minimizer::minimize`], additionally returning per-phase timing
    /// and evaluation counts.
    ///
    /// The untraced [`Minimizer::minimize`] path performs no clock reads;
    /// use it when the statistics are not needed.
    ///
    /// # Panics
    ///
    /// As [`Minimizer::minimize`].
    pub fn minimize_traced(
        &self,
        net: &Network,
        region: &Bounds,
        target: usize,
    ) -> (AttackResult, MinimizeTrace) {
        let mut trace = MinimizeTrace::default();
        let result = self.minimize_impl(net, region, target, Some(&mut trace));
        (result, trace)
    }

    /// Shared phase driver: `trace = None` is the production path (no
    /// `Instant` reads), `Some` records a [`PhaseStat`] per phase run.
    fn minimize_impl(
        &self,
        net: &Network,
        region: &Bounds,
        target: usize,
        mut trace: Option<&mut MinimizeTrace>,
    ) -> AttackResult {
        use std::time::Instant;
        let mut phase_start = trace.as_ref().map(|_| Instant::now());
        // Appends one phase row and restarts the phase clock (tracing
        // runs only; a no-op otherwise).
        let record = |trace: &mut Option<&mut MinimizeTrace>,
                      phase_start: &mut Option<Instant>,
                      phase: &'static str,
                      evals: usize,
                      best_objective: f64| {
            if let Some(t) = trace.as_deref_mut() {
                let start = phase_start.expect("phase clock runs while tracing");
                t.phases.push(PhaseStat {
                    phase,
                    evals,
                    best_objective,
                    seconds: start.elapsed().as_secs_f64(),
                });
                *phase_start = Some(Instant::now());
            }
        };

        let starts = self.starts(net, region, target);
        let mut best = pgd_batch(net, region, target, &starts, &self.config);
        record(&mut trace, &mut phase_start, "pgd", best.evals, best.objective);
        if best.objective <= 0.0 {
            return best;
        }

        // One coordinate-descent pass: box-shaped regions (like the
        // brightening attacks of §7.1) often hide their minima in
        // corners that gradient steps orbit around.
        let center = starts.row(0);
        let run = coordinate_descent(net, region, target, center, 2);
        let before = best.evals;
        best = merge(best, run);
        record(&mut trace, &mut phase_start, "coordinate", best.evals - before, best.objective);
        best
    }

    /// The lockstep batch's start rows: the region center, its FGSM
    /// corner, then the seeded random restarts. [`pgd_batch`] keeps the
    /// earliest row on ties, so this order is also the preference order.
    fn starts(&self, net: &Network, region: &Bounds, target: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let center = region.center();
        let mut starts = Matrix::zeros(0, region.dim());
        starts.push_row(&center);
        starts.push_row(&fgsm_step(net, region, target, &center));
        for _ in 0..self.restarts {
            starts.push_row(&region.sample(&mut rng));
        }
        starts
    }
}

fn merge(a: AttackResult, b: AttackResult) -> AttackResult {
    let evals = a.evals + b.evals;
    let mut best = if b.objective < a.objective { b } else { a };
    best.evals = evals;
    best
}

#[cfg(test)]
mod two_pass;

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;

    #[test]
    fn finds_counterexample_on_falsifiable_region() {
        let net = samples::example_2_2_network();
        let region = Bounds::new(vec![-1.0], vec![2.0]);
        let result = Minimizer::new(1).minimize(&net, &region, 1);
        assert!(result.objective <= 0.0);
        assert!(region.contains(&result.point));
        // The found point really is misclassified.
        assert_ne!(net.classify(&result.point), 1);
    }

    #[test]
    fn reports_positive_objective_on_robust_region() {
        let net = samples::example_2_2_network();
        let region = Bounds::new(vec![-1.0], vec![1.0]);
        let result = Minimizer::new(2).minimize(&net, &region, 1);
        assert!(
            result.objective > 0.0,
            "region is robust; F must stay positive"
        );
        assert!(region.contains(&result.point));
    }

    #[test]
    fn xor_property_resists_attack() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let result = Minimizer::new(3)
            .with_restarts(5)
            .minimize(&net, &region, 1);
        assert!(result.objective > 0.0);
    }

    #[test]
    fn xor_falsified_on_wider_region() {
        let net = samples::xor_network();
        // [0, 1]^2 contains [0,0] and [1,1], both class 0.
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let result = Minimizer::new(4)
            .with_restarts(5)
            .minimize(&net, &region, 1);
        assert!(result.objective <= 0.0);
        assert_ne!(net.classify(&result.point), 1);
    }

    #[test]
    fn pgd_point_stays_in_region() {
        let net = nn::train::random_mlp(4, &[10], 3, 17);
        let region = Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.3, None);
        let result = Minimizer::new(5).minimize(&net, &region, 0);
        assert!(region.contains(&result.point));
        assert_eq!(result.objective, net.objective(&result.point, 0));
    }

    #[test]
    fn fgsm_step_moves_to_region() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let x = fgsm_step(&net, &region, 1, &region.center());
        assert!(region.contains(&x));
    }

    #[test]
    fn fgsm_keeps_zero_gradient_coordinates_at_start() {
        // x1 feeds only a hidden unit that is dead on the whole region,
        // so the objective's gradient along x1 is exactly zero there.
        let net = Network::new(
            2,
            vec![
                nn::Layer::Affine(nn::AffineLayer::new(
                    tensor::Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
                    vec![0.0, -5.0],
                )),
                nn::Layer::Relu,
                nn::Layer::Affine(nn::AffineLayer::new(
                    tensor::Matrix::from_rows(&[&[1.0, 1.0], &[-1.0, 1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let center = region.center();
        assert_eq!(net.objective_gradient(&center, 0), vec![2.0, 0.0]);
        let x = fgsm_step(&net, &region, 0, &center);
        assert_eq!(x, vec![0.0, 0.5], "only the live coordinate moves");
    }

    #[test]
    fn momentum_pgd_finds_xor_violation() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // Start near a violating corner basin.
        let result = pgd_momentum(&net, &region, 1, &[0.8, 0.8], &PgdConfig::default(), 0.8);
        assert!(result.objective <= 0.0, "objective {}", result.objective);
        assert!(region.contains(&result.point));
    }

    #[test]
    fn momentum_result_objective_is_consistent() {
        let net = nn::train::random_mlp(3, &[8], 3, 2);
        let region = Bounds::linf_ball(&[0.1, 0.0, -0.1], 0.4, None);
        let result = pgd_momentum(
            &net,
            &region,
            0,
            &region.center(),
            &PgdConfig::default(),
            0.5,
        );
        assert_eq!(result.objective, net.objective(&result.point, 0));
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn momentum_out_of_range_panics() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        pgd_momentum(&net, &region, 1, &[0.5, 0.5], &PgdConfig::default(), 1.5);
    }

    #[test]
    fn coordinate_descent_reaches_corner_violation() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let result = coordinate_descent(&net, &region, 1, &[0.5, 0.5], 5);
        // The corners (0,0) and (1,1) violate; coordinate moves reach one.
        assert!(result.objective <= 0.0, "objective {}", result.objective);
    }

    #[test]
    fn coordinate_descent_respects_frozen_dims() {
        let net = samples::xor_network();
        // Freeze x1 at 0.6: only x0 may move.
        let region = Bounds::new(vec![0.0, 0.6], vec![1.0, 0.6]);
        let result = coordinate_descent(&net, &region, 1, &[0.5, 0.6], 5);
        assert_eq!(result.point[1], 0.6);
        assert!(region.contains(&result.point));
    }

    #[test]
    fn minimizer_is_deterministic() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.1, 0.1], vec![0.9, 0.9]);
        let a = Minimizer::new(9).minimize(&net, &region, 1);
        let b = Minimizer::new(9).minimize(&net, &region, 1);
        assert_eq!(a.point, b.point);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn starts_are_center_then_fgsm_corner_then_seeded_restarts() {
        let net = nn::train::random_mlp(4, &[10], 3, 17);
        let region = Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.3, None);
        let (seed, restarts, target) = (21, 3, 0);
        let starts = Minimizer::new(seed)
            .with_restarts(restarts)
            .starts(&net, &region, target);
        assert_eq!(starts.rows(), restarts + 2);

        let center = region.center();
        let fgsm = fgsm_step(&net, &region, target, &center);
        assert_ne!(fgsm, center, "the FGSM step must move on this net");
        assert_eq!(starts.row(0), center.as_slice());
        assert_eq!(starts.row(1), fgsm.as_slice());
        let mut rng = StdRng::seed_from_u64(seed);
        for r in 2..starts.rows() {
            assert_eq!(starts.row(r), region.sample(&mut rng).as_slice(), "restart row {r}");
        }
    }

    #[test]
    fn pgd_batch_tie_goes_to_earliest_row() {
        // The only hidden unit is dead on the whole region, so every
        // point has the objective 1 and a zero gradient: all rows retire
        // at their starts with equal objectives.
        let net = Network::new(
            2,
            vec![
                nn::Layer::Affine(nn::AffineLayer::new(
                    tensor::Matrix::from_rows(&[&[1.0, 1.0]]),
                    vec![-5.0],
                )),
                nn::Layer::Relu,
                nn::Layer::Affine(nn::AffineLayer::new(
                    tensor::Matrix::from_rows(&[&[1.0], &[0.0]]),
                    vec![1.0, 0.0],
                )),
            ],
        )
        .unwrap();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let rows: [&[f64]; 3] = [&[0.9, 0.1], &[0.1, 0.9], &[0.5, 0.5]];
        for first in 0..rows.len() {
            let mut order = rows;
            order.rotate_left(first);
            let result = pgd_batch(
                &net,
                &region,
                0,
                &tensor::Matrix::from_rows(&order),
                &PgdConfig::default(),
            );
            assert_eq!(result.objective, 1.0);
            assert_eq!(result.point, order[0], "rotation {first}");
        }
    }

    fn poisoned_network() -> Network {
        // A single affine layer with a NaN weight: every evaluation and
        // every gradient of this network is NaN.
        Network::new(
            1,
            vec![nn::Layer::Affine(nn::AffineLayer::new(
                tensor::Matrix::from_rows(&[&[f64::NAN], &[1.0]]),
                vec![0.0, 0.0],
            ))],
        )
        .unwrap()
    }

    #[test]
    fn poisoned_network_reports_infinite_objective_not_nan() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let result = Minimizer::new(1).with_restarts(2).minimize(&net, &region, 0);
        assert!(
            result.objective.is_infinite() && result.objective > 0.0,
            "poisoned objective must surface as +inf, got {}",
            result.objective
        );
        assert!(region.contains(&result.point));
        assert!(result.point.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fgsm_stays_put_on_poisoned_gradient() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let x = fgsm_step(&net, &region, 0, &[0.25]);
        assert_eq!(x, vec![0.25]);
    }

    #[test]
    fn batched_pgd_agrees_with_sequential_per_start() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.05, 0.05], vec![0.95, 0.95]);
        let starts = [
            vec![0.1, 0.2],
            vec![0.8, 0.85],
            vec![0.5, 0.4],
            vec![0.25, 0.9],
        ];
        let rows: Vec<&[f64]> = starts.iter().map(Vec::as_slice).collect();
        let batch = pgd_batch(
            &net,
            &region,
            1,
            &tensor::Matrix::from_rows(&rows),
            &PgdConfig::default(),
        );
        // The batch's best can only match or beat every individual
        // sequential run it subsumes (it stops early once any row finds a
        // violation, which only happens when a sequential run would too).
        let sequential_best = starts
            .iter()
            .map(|s| pgd(&net, &region, 1, s, &PgdConfig::default()).objective)
            .fold(f64::INFINITY, f64::min);
        assert!(region.contains(&batch.point));
        assert_eq!(batch.objective, net.objective(&batch.point, 1));
        if sequential_best <= 0.0 {
            assert!(batch.objective <= 0.0);
        }
    }

    #[test]
    fn batched_pgd_single_row_matches_plain_pgd() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let start = [0.8, 0.8];
        let plain = pgd(&net, &region, 1, &start, &PgdConfig::default());
        let batch = pgd_batch(
            &net,
            &region,
            1,
            &tensor::Matrix::from_rows(&[&start]),
            &PgdConfig::default(),
        );
        assert_eq!(batch.point, plain.point);
        assert_eq!(batch.objective, plain.objective);
    }

    #[test]
    fn batched_pgd_poisoned_network_reports_infinity() {
        let net = poisoned_network();
        let region = Bounds::new(vec![0.0], vec![1.0]);
        let batch = pgd_batch(
            &net,
            &region,
            0,
            &tensor::Matrix::from_rows(&[&[0.25], &[0.75]]),
            &PgdConfig::default(),
        );
        assert!(batch.objective.is_infinite() && batch.objective > 0.0);
        assert!(batch.point.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn degenerate_point_region() {
        let net = samples::xor_network();
        let region = Bounds::point(&[0.5, 0.5]);
        let result = Minimizer::new(11).minimize(&net, &region, 1);
        assert_eq!(result.point, vec![0.5, 0.5]);
    }
}
