//! Backpropagation: exact input gradients for piecewise-linear networks.

use crate::{Layer, Network};

impl Network {
    /// Gradient of the scalar `seed . N(x)` with respect to the input `x`.
    ///
    /// `seed` weights the output components; passing a one-hot vector gives
    /// the gradient of a single output score. At ReLU kinks (pre-activation
    /// exactly zero) the subgradient `0` is used; at max-pool ties the
    /// lowest-index winner receives the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()` or
    /// `seed.len() != self.output_dim()`.
    pub fn gradient(&self, x: &[f64], seed: &[f64]) -> Vec<f64> {
        assert_eq!(
            seed.len(),
            self.output_dim(),
            "seed dimension must equal output dimension"
        );
        self.backprop(&self.eval_trace(x), seed.to_vec())
    }

    /// Backpropagates `seed` through the layers from a forward trace
    /// produced by [`Network::eval_trace`].
    fn backprop(&self, trace: &[Vec<f64>], seed: Vec<f64>) -> Vec<f64> {
        let mut g = seed;
        for (idx, layer) in self.layers().iter().enumerate().rev() {
            let input = &trace[idx];
            g = match layer {
                Layer::Affine(a) => a.weights.matvec_transpose(&g),
                Layer::Relu => input
                    .iter()
                    .zip(g.iter())
                    .map(|(pre, gi)| if *pre > 0.0 { *gi } else { 0.0 })
                    .collect(),
                Layer::MaxPool(p) => {
                    let mut back = vec![0.0; p.input_dim];
                    for (out_idx, group) in p.groups.iter().enumerate() {
                        let winner = group
                            .iter()
                            .copied()
                            .max_by(|&a, &b| {
                                input[a]
                                    .partial_cmp(&input[b])
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    // Prefer the lower index on ties.
                                    .then(b.cmp(&a))
                            })
                            .expect("max-pool groups are non-empty");
                        back[winner] += g[out_idx];
                    }
                    back
                }
            };
        }
        g
    }

    /// The robustness objective `F` (Eq. 2) at `x` for class `target`
    /// together with its gradient, from one forward trace.
    ///
    /// `F` is read off the trace's last layer with [`crate::margin`], so it
    /// equals [`Network::objective`] bit for bit; the gradient is
    /// backpropagated from the same trace and equals
    /// [`Network::objective_gradient`] bit for bit. The gradient seeds
    /// `+1` at `target` and `-1` at the strongest other class `j*` (the
    /// last one on ties).
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()` or the network has fewer
    /// than two outputs.
    pub fn objective_and_gradient(&self, x: &[f64], target: usize) -> (f64, Vec<f64>) {
        let trace = self.eval_trace(x);
        let y = trace.last().expect("trace is non-empty");
        let f = crate::margin(y, target);
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
        (f, self.backprop(&trace, seed))
    }

    /// Gradient of the robustness objective `F` (Eq. 2) at `x` for class
    /// `target`: the gradient half of [`Network::objective_and_gradient`].
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()`.
    pub fn objective_gradient(&self, x: &[f64], target: usize) -> Vec<f64> {
        self.objective_and_gradient(x, target).1
    }
}

#[cfg(test)]
mod tests {
    use crate::{AffineLayer, Layer, MaxPoolLayer, Network};
    use tensor::Matrix;

    fn finite_difference(net: &Network, x: &[f64], seed: &[f64]) -> Vec<f64> {
        let h = 1e-6;
        (0..x.len())
            .map(|i| {
                let mut xp = x.to_vec();
                let mut xm = x.to_vec();
                xp[i] += h;
                xm[i] -= h;
                let fp = tensor::ops::dot(seed, &net.eval(&xp));
                let fm = tensor::ops::dot(seed, &net.eval(&xm));
                (fp - fm) / (2.0 * h)
            })
            .collect()
    }

    fn small_net() -> Network {
        Network::new(
            3,
            vec![
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[
                        &[0.5, -1.0, 0.25],
                        &[1.5, 0.75, -0.5],
                        &[-0.25, 0.5, 1.0],
                        &[2.0, -0.3, 0.1],
                    ]),
                    vec![0.1, -0.2, 0.3, 0.0],
                )),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0, -1.0, 0.5, 0.2], &[0.3, 0.7, -0.9, 1.1]]),
                    vec![0.0, 0.5],
                )),
            ],
        )
        .unwrap()
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let net = small_net();
        let x = vec![0.3, -0.7, 0.9];
        for seed in [vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, -1.5]] {
            let g = net.gradient(&x, &seed);
            let fd = finite_difference(&net, &x, &seed);
            for (a, b) in g.iter().zip(fd.iter()) {
                assert!((a - b).abs() < 1e-4, "analytic {a} vs fd {b}");
            }
        }
    }

    #[test]
    fn objective_gradient_matches_finite_difference() {
        let net = small_net();
        // Pick a point where no ReLU pre-activation is near its kink, so
        // the finite difference sees a single linear piece.
        let x = (0..50)
            .map(|i| {
                let t = i as f64 * 0.071;
                vec![t.sin() * 0.8, (t * 1.7).cos() * 0.8, (t * 0.9).sin() * 0.8]
            })
            .find(|x| {
                let trace = net.eval_trace(x);
                trace[1].iter().all(|pre| pre.abs() > 0.05)
            })
            .expect("some probe point avoids all kinks");
        let g = net.objective_gradient(&x, 0);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let fd = (net.objective(&xp, 0) - net.objective(&xm, 0)) / (2.0 * h);
            assert!((g[i] - fd).abs() < 1e-4, "analytic {} vs fd {fd}", g[i]);
        }
    }

    /// The objective gradient as separate passes: a forward pass to pick
    /// the rival class (last maximum on ties), then [`Network::gradient`].
    fn two_pass_objective_gradient(net: &Network, x: &[f64], target: usize) -> Vec<f64> {
        let y = net.eval(x);
        let rival = (0..y.len())
            .filter(|&j| j != target)
            .reduce(|a, b| if y[b] >= y[a] { b } else { a })
            .unwrap();
        let mut seed = vec![0.0; y.len()];
        seed[target] = 1.0;
        seed[rival] = -1.0;
        net.gradient(x, &seed)
    }

    fn assert_fused_matches_separate(net: &Network, x: &[f64], target: usize) {
        let (f, g) = net.objective_and_gradient(x, target);
        assert_eq!(
            f.to_bits(),
            net.objective(x, target).to_bits(),
            "objective at {x:?}"
        );
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let reference = two_pass_objective_gradient(net, x, target);
        assert_eq!(bits(&g), bits(&reference), "gradient at {x:?}");
        assert_eq!(bits(&net.objective_gradient(x, target)), bits(&g));
    }

    #[test]
    fn objective_and_gradient_equals_separate_passes_bitwise() {
        for seed in 0..5u64 {
            let net = crate::train::random_mlp(7, &[12, 9], 4, seed);
            for i in 0..8 {
                let x: Vec<f64> = (0..7)
                    .map(|j| ((i * 7 + j) as f64 * 0.37 + seed as f64).sin())
                    .collect();
                assert_fused_matches_separate(&net, &x, (i % 4) as usize);
            }
        }
        // Conv + max-pool: 1×5×5 input, two 2×2 filters, 2×2 pooling.
        let conv = crate::conv::Conv2d::new(
            crate::conv::Shape3::new(1, 5, 5),
            2,
            (2, 2),
            (1, 1),
            vec![0.5, -0.25, 0.75, 1.0, -0.5, 0.3, 0.2, -0.8],
            vec![0.1, -0.05],
        );
        let pool = crate::conv::max_pool_groups(conv.output_shape(), 2);
        let pooled = pool.output_dim();
        let net = Network::new(
            25,
            vec![
                Layer::Affine(conv.to_affine()),
                Layer::Relu,
                Layer::MaxPool(pool),
                Layer::Affine(AffineLayer::new(
                    Matrix::from_fn(3, pooled, |r, c| ((r * 5 + c) as f64 * 0.61).cos()),
                    vec![0.0, 0.1, -0.1],
                )),
            ],
        )
        .unwrap();
        for i in 0..6 {
            let x: Vec<f64> = (0..25)
                .map(|j| ((i * 25 + j) as f64 * 0.23).sin())
                .collect();
            assert_fused_matches_separate(&net, &x, i % 3);
        }
    }

    #[test]
    fn objective_and_gradient_breaks_rival_ties_to_the_last_class() {
        // y = x exactly: classes 1 and 2 tie for the rival of class 0.
        let net = Network::new(
            3,
            vec![Layer::Affine(AffineLayer::new(
                Matrix::identity(3),
                vec![0.0; 3],
            ))],
        )
        .unwrap();
        let (f, g) = net.objective_and_gradient(&[1.0, 3.0, 3.0], 0);
        assert_eq!(f, -2.0);
        assert_eq!(g, vec![1.0, 0.0, -1.0]);
        assert_fused_matches_separate(&net, &[1.0, 3.0, 3.0], 0);
    }

    #[test]
    fn maxpool_gradient_routes_to_winner() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(Matrix::identity(2), vec![0.0, 0.0])),
            ],
        )
        .unwrap();
        let g = net.gradient(&[1.0, 5.0, -2.0, -3.0], &[1.0, 1.0]);
        assert_eq!(g, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_blocks_gradient_for_inactive_units() {
        let net = Network::new(
            1,
            vec![
                Layer::Affine(AffineLayer::new(Matrix::from_rows(&[&[1.0]]), vec![-10.0])),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0], &[-1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        // Pre-activation is x - 10 < 0 at x = 0, so gradient is zero.
        assert_eq!(net.gradient(&[0.0], &[1.0, 0.0]), vec![0.0]);
    }
}
