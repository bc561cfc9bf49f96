//! The two-pass attack as a test oracle, and the bit-identity suite that
//! holds the fused attack to it.
//!
//! In the two-pass form each descent step calls the objective gradient
//! (a forward pass to pick the rival class, then a traced forward and a
//! backward) and then the objective at the new iterate (a third
//! forward). The fused routines take the gradient from the pass that
//! scores the new iterate. Both compute every forward with the same
//! code, so their points, objectives and evaluation counts agree bit for
//! bit.
//!
//! The fused batch takes the next step's gradients from the pass that
//! scored the current step, over the rows live before that step; the
//! two-pass batch recomputes them over the rows still live after it.
//! When a row retires in between, the other rows shift position, so the
//! two agree only because every kernel arm computes a batch row the same
//! way wherever it sits (see `tensor::kernels`). The suite compares every
//! case on whichever arm is active, the forced scalar arm included.

use domains::Bounds;
use nn::Network;
use tensor::Matrix;

use super::{
    coordinate_descent, gradient_is_finite, merge, sanitize_objective, AttackResult, Minimizer,
    PgdConfig,
};

/// The objective gradient as a separate call: one forward pass to pick
/// the rival class, then [`Network::gradient`] with the `±1` seed.
fn objective_gradient(net: &Network, x: &[f64], target: usize) -> Vec<f64> {
    let y = net.eval(x);
    let rival = y
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != target)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(j, _)| j)
        .expect("network must have at least two outputs");
    let mut seed = vec![0.0; y.len()];
    seed[target] = 1.0;
    seed[rival] = -1.0;
    net.gradient(x, &seed)
}

/// Two-pass [`super::pgd`]: gradient at the iterate, then the objective
/// at the stepped point.
fn pgd(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    config: &PgdConfig,
) -> AttackResult {
    assert!(region.contains(start), "start point must lie in the region");
    let mut x = start.to_vec();
    let mut best = x.clone();
    let mut best_f = sanitize_objective(net.objective(&x, target));
    let mut evals = 1;
    let mut step = config.step_fraction * region.mean_width().max(1e-12);

    for _ in 0..config.steps {
        if best_f <= 0.0 {
            break;
        }
        let g = objective_gradient(net, &x, target);
        evals += 1;
        if !gradient_is_finite(&g) {
            break;
        }
        let norm = tensor::ops::norm2(&g);
        if norm < 1e-12 {
            break;
        }
        for (xi, gi) in x.iter_mut().zip(g.iter()) {
            *xi -= step * gi / norm;
        }
        region.clamp(&mut x);
        let f = sanitize_objective(net.objective(&x, target));
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

/// Two-pass [`super::pgd_momentum`].
fn pgd_momentum(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    config: &PgdConfig,
    momentum: f64,
) -> AttackResult {
    let mut x = start.to_vec();
    let mut velocity = vec![0.0; x.len()];
    let mut best = x.clone();
    let mut best_f = sanitize_objective(net.objective(&x, target));
    let mut evals = 1;
    let step = config.step_fraction * region.mean_width().max(1e-12);

    for _ in 0..config.steps {
        if best_f <= 0.0 {
            break;
        }
        let g = objective_gradient(net, &x, target);
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
        let f = sanitize_objective(net.objective(&x, target));
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

/// Two-pass [`super::pgd_batch`]: the batched gradient of the live rows,
/// then the batched objective at their stepped points.
fn pgd_batch(
    net: &Network,
    region: &Bounds,
    target: usize,
    starts: &Matrix,
    config: &PgdConfig,
) -> AttackResult {
    let n = starts.cols();
    let base_step = config.step_fraction * region.mean_width().max(1e-12);

    let mut xs = starts.clone();
    let mut best = starts.clone();
    let mut best_f: Vec<f64> = net
        .objective_batch(&xs, target)
        .into_iter()
        .map(sanitize_objective)
        .collect();
    let mut evals = starts.rows();
    let mut step = vec![base_step; starts.rows()];
    let mut active = vec![true; starts.rows()];

    'outer: for _ in 0..config.steps {
        if best_f.iter().any(|f| *f <= 0.0) {
            break;
        }
        let live: Vec<usize> = (0..xs.rows()).filter(|&r| active[r]).collect();
        if live.is_empty() {
            break;
        }
        let mut packed = Matrix::zeros(0, n);
        for &r in &live {
            packed.push_row(xs.row(r));
        }
        let gs = net.objective_gradient_batch(&packed, target);
        evals += live.len();
        for ((&r, g), x) in live.iter().zip(gs.rows_iter()).zip(packed.rows_iter_mut()) {
            if !gradient_is_finite(g) {
                active[r] = false;
                continue;
            }
            let norm = tensor::ops::norm2(g);
            if norm < 1e-12 {
                active[r] = false;
                continue;
            }
            for (xi, gi) in x.iter_mut().zip(g.iter()) {
                *xi -= step[r] * gi / norm;
            }
            region.clamp(x);
            xs.row_mut(r).copy_from_slice(x);
        }
        let fs = net.objective_batch(&packed, target);
        for (&r, f) in live.iter().zip(fs.iter()) {
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

/// [`Minimizer::minimize`] with the lockstep batch on the two-pass
/// routine: the same start rows (center, FGSM corner, restarts) through
/// [`pgd_batch`], then coordinate descent from the center unless a row
/// refuted.
fn minimize(m: &Minimizer, net: &Network, region: &Bounds, target: usize) -> AttackResult {
    let starts = m.starts(net, region, target);
    let best = pgd_batch(net, region, target, &starts, &m.config);
    if best.objective <= 0.0 {
        return best;
    }
    merge(best, coordinate_descent(net, region, target, starts.row(0), 2))
}

mod tests {
    use super::*;
    use nn::conv::{max_pool_groups, Conv2d, Shape3};
    use nn::{AffineLayer, Layer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_bitwise(fused: &AttackResult, two_pass: &AttackResult, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused.point), bits(&two_pass.point), "{what}: point");
        assert_eq!(
            fused.objective.to_bits(),
            two_pass.objective.to_bits(),
            "{what}: objective {} vs {}",
            fused.objective,
            two_pass.objective
        );
        assert_eq!(fused.evals, two_pass.evals, "{what}: evals");
    }

    /// A small conv net: 1×6×6 input, 3-channel 3×3 convolution, ReLU,
    /// 2×2 max-pool, dense readout to 4 classes.
    fn conv_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Shape3::new(1, 6, 6);
        let conv = Conv2d::new(
            input,
            3,
            (3, 3),
            (1, 1),
            (0..27).map(|_| rng.gen_range(-0.6..0.6)).collect(),
            (0..3).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        );
        let pooled = conv.output_shape();
        let pool = max_pool_groups(pooled, 2);
        let readout = AffineLayer::new(
            Matrix::from_fn(4, pool.output_dim(), |_, _| rng.gen_range(-1.0..1.0)),
            (0..4).map(|_| rng.gen_range(-0.2..0.2)).collect(),
        );
        Network::new(
            input.len(),
            vec![
                Layer::Affine(conv.to_affine()),
                Layer::Relu,
                Layer::MaxPool(pool),
                Layer::Affine(readout),
            ],
        )
        .unwrap()
    }

    /// An L∞ ball around a seeded image in `[0, 1]^n`.
    fn linf_region(n: usize, eps: f64, seed: u64) -> Bounds {
        let mut rng = StdRng::seed_from_u64(seed);
        let image: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        Bounds::linf_ball(&image, eps, Some((0.0, 1.0)))
    }

    /// A brightening-style box: pixels at or above `tau` may rise to 1,
    /// every other coordinate is frozen at its value.
    fn brightening_region(n: usize, tau: f64, seed: u64) -> Bounds {
        let mut rng = StdRng::seed_from_u64(seed);
        let image: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let upper = image
            .iter()
            .map(|&v| if v >= tau { 1.0 } else { v })
            .collect();
        Bounds::new(image, upper)
    }

    /// Seeded cases: random MLPs and a conv + max-pool net, each on an
    /// L∞ region and a brightening-style region with frozen coordinates.
    fn cases() -> Vec<(String, Network, Bounds, usize)> {
        let mut cases = Vec::new();
        for seed in 0..6u64 {
            let hidden: &[usize] = match seed % 3 {
                0 => &[16, 16],
                1 => &[24, 12, 8],
                _ => &[9],
            };
            let net = nn::train::random_mlp(12, hidden, 4, 100 + seed);
            let linf = linf_region(12, 0.02 + 0.04 * seed as f64, seed);
            let bright = brightening_region(12, 0.5 + 0.08 * seed as f64, seed);
            cases.push((format!("mlp{seed}-linf"), net.clone(), linf));
            cases.push((format!("mlp{seed}-bright"), net, bright));
        }
        for seed in 0..3u64 {
            let net = conv_net(200 + seed);
            let linf = linf_region(36, 0.02 + 0.1 * seed as f64, 10 + seed);
            let bright = brightening_region(36, 0.6 + 0.1 * seed as f64, 10 + seed);
            cases.push((format!("conv{seed}-linf"), net.clone(), linf));
            cases.push((format!("conv{seed}-bright"), net, bright));
        }
        // The property under attack: the class the net gives the center.
        cases
            .into_iter()
            .map(|(name, net, region)| {
                let target = net.classify(&region.center());
                (name, net, region, target)
            })
            .collect()
    }

    #[test]
    fn pgd_matches_two_pass_bitwise() {
        for (name, net, region, target) in cases() {
            let mut rng = StdRng::seed_from_u64(7);
            for start in [
                region.center(),
                region.sample(&mut rng),
                region.sample(&mut rng),
            ] {
                let config = PgdConfig::default();
                let fused = crate::pgd(&net, &region, target, &start, &config);
                assert_bitwise(&fused, &pgd(&net, &region, target, &start, &config), &name);
                let fused = crate::pgd_momentum(&net, &region, target, &start, &config, 0.6);
                let two_pass = pgd_momentum(&net, &region, target, &start, &config, 0.6);
                assert_bitwise(&fused, &two_pass, &format!("{name} momentum"));
            }
        }
    }

    /// Cases where restarts retire at different iterations while others
    /// keep descending, so the live batch shrinks mid-run.
    fn retiring_cases() -> Vec<(String, Network, Bounds, usize)> {
        // Every hidden unit is dead below 0.6 in both coordinates, three
        // quarters of the region: starts there have a zero gradient and
        // retire on their first step, while the others keep descending.
        let dead_zone = Network::new(
            2,
            vec![
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
                    vec![-0.6, -0.6, -1.2],
                )),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[-1.0, 0.5, -2.0], &[3.0, 2.0, 1.0]]),
                    vec![1.0, 0.0],
                )),
            ],
        )
        .unwrap();
        // Two free coordinates in a box so narrow that the step decays
        // underflow within the step budget, at a different iteration for
        // each restart.
        let net = nn::train::random_mlp(12, &[16, 16], 4, 321);
        let mut upper = brightening_region(12, 2.0, 321).upper().to_vec();
        upper[3] += 1e-11;
        upper[8] += 1e-11;
        let tiny = Bounds::new(brightening_region(12, 2.0, 321).lower().to_vec(), upper);
        let target = net.classify(&tiny.center());
        vec![
            (
                "dead-zone".into(),
                dead_zone,
                Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]),
                0,
            ),
            ("tiny-box".into(), net, tiny, target),
        ]
    }

    #[test]
    fn pgd_batch_matches_two_pass_bitwise() {
        for (name, net, region, target) in cases().into_iter().chain(retiring_cases()) {
            for rows in [1, 2, 3, 5, 6] {
                let mut rng = StdRng::seed_from_u64(rows as u64);
                let mut starts = Matrix::zeros(0, region.dim());
                for _ in 0..rows {
                    starts.push_row(&region.sample(&mut rng));
                }
                let config = PgdConfig::default();
                let fused = crate::pgd_batch(&net, &region, target, &starts, &config);
                assert!(
                    region.contains(&fused.point),
                    "{name}: point leaves the region"
                );
                let two_pass = pgd_batch(&net, &region, target, &starts, &config);
                assert_bitwise(&fused, &two_pass, &format!("{name} x{rows}"));
            }
        }
    }

    #[test]
    fn minimize_matches_two_pass_bitwise() {
        for (name, net, region, target) in cases().into_iter().chain(retiring_cases()) {
            for (seed, restarts) in [(1u64, 0), (5, 2), (9, 3), (13, 4)] {
                let m = Minimizer::new(seed).with_restarts(restarts);
                let fused = m.minimize(&net, &region, target);
                assert_bitwise(&fused, &minimize(&m, &net, &region, target), &name);
                let (traced, _) = m.minimize_traced(&net, &region, target);
                assert_bitwise(&traced, &fused, &format!("{name} traced"));
            }
        }
    }

    #[test]
    fn cases_reach_every_phase() {
        // The suite is only as strong as its cases: some must refute in
        // the lockstep batch, some must go on to coordinate descent.
        let m = Minimizer::new(1).with_restarts(2);
        let (mut refuted, mut full) = (0, 0);
        for (_, net, region, target) in cases() {
            let (result, trace) = m.minimize_traced(&net, &region, target);
            let phases: Vec<&str> = trace.phases.iter().map(|p| p.phase).collect();
            match phases.as_slice() {
                ["pgd"] => refuted += usize::from(result.objective <= 0.0),
                ["pgd", "coordinate"] => full += 1,
                other => panic!("unexpected phases {other:?}"),
            }
        }
        assert!(refuted > 0, "no case refutes in the lockstep batch");
        assert!(full > 0, "no case reaches coordinate descent");
    }
}
