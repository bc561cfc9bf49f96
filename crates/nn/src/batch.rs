//! Batched evaluation and backpropagation: many input points at once.
//!
//! Each row of the input [`Matrix`] is one point. Affine layers apply to
//! the whole batch as a single `X·Wᵀ` kernel call ([`Matrix::matmul_transb`])
//! and the backward pass as one `G·W` ([`Matrix::matmul`]), so a batch of
//! PGD restarts pays one blocked matrix product per layer instead of one
//! strided matrix-vector product per point.

use tensor::Matrix;

use crate::{Layer, Network};

impl Layer {
    /// Applies the layer to every row of `xs` at once.
    ///
    /// Row `i` of the result equals `self.apply(xs.row(i))` for finite
    /// inputs (the batched affine kernel accumulates in the same ascending
    /// column order as the per-point path).
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols()` differs from the layer's input dimension.
    pub fn apply_batch(&self, xs: &Matrix) -> Matrix {
        match self {
            Layer::Affine(a) => xs.matmul_transb_bias(&a.weights, &a.bias),
            Layer::Relu => {
                let mut out = xs.clone();
                for v in out.as_mut_slice() {
                    *v = v.max(0.0);
                }
                out
            }
            Layer::MaxPool(p) => {
                assert_eq!(xs.cols(), p.input_dim, "max-pool dimension mismatch");
                let mut out = Matrix::zeros(xs.rows(), p.output_dim());
                for (x, o) in xs.rows_iter().zip(out.rows_iter_mut()) {
                    for (g, slot) in p.groups.iter().zip(o.iter_mut()) {
                        *slot = g.iter().map(|&i| x[i]).fold(f64::NEG_INFINITY, f64::max);
                    }
                }
                out
            }
        }
    }
}

impl Network {
    /// Evaluates the network on every row of `xs` at once.
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != self.input_dim()`.
    pub fn eval_batch(&self, xs: &Matrix) -> Matrix {
        assert_eq!(xs.cols(), self.input_dim(), "input dimension mismatch");
        let mut v = xs.clone();
        for layer in self.layers() {
            v = layer.apply_batch(&v);
        }
        v
    }

    /// Batched [`Network::eval_trace`]: `result[0]` is the input batch and
    /// `result[i + 1]` the batch after layer `i`.
    pub fn eval_trace_batch(&self, xs: &Matrix) -> Vec<Matrix> {
        assert_eq!(xs.cols(), self.input_dim(), "input dimension mismatch");
        let mut trace = Vec::with_capacity(self.layers().len() + 1);
        trace.push(xs.clone());
        for layer in self.layers() {
            let next = layer.apply_batch(trace.last().expect("trace is non-empty"));
            trace.push(next);
        }
        trace
    }

    /// The robustness objective `F` (Eq. 2) for every row of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()` or the network has fewer
    /// than two outputs.
    pub fn objective_batch(&self, xs: &Matrix, target: usize) -> Vec<f64> {
        let ys = self.eval_batch(xs);
        ys.rows_iter().map(|y| crate::margin(y, target)).collect()
    }

    /// The robustness objective `F` and its gradient for every row of
    /// `xs`, from one batched forward trace: `F` for row `i` is entry `i`
    /// of the vector and its gradient is row `i` of the matrix.
    ///
    /// `F` is read off the trace's last layer with [`crate::margin`], so
    /// it equals [`Network::objective_batch`] bit for bit; the gradient is
    /// backpropagated from the same trace and equals
    /// [`Network::objective_gradient_batch`] bit for bit. Semantics per row
    /// match [`Network::objective_gradient`]: the seed is `+1` at `target`
    /// and `-1` at that row's strongest rival class, ReLU kinks use the `0`
    /// subgradient, and max-pool ties route to the lowest winning index.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()` or the network has fewer
    /// than two outputs.
    pub fn objective_and_gradient_batch(&self, xs: &Matrix, target: usize) -> (Vec<f64>, Matrix) {
        assert!(target < self.output_dim(), "target class out of range");
        let trace = self.eval_trace_batch(xs);
        let ys = trace.last().expect("trace is non-empty");
        let fs = ys.rows_iter().map(|y| crate::margin(y, target)).collect();

        // Seed batch: one ±1 pair per row. Rival ties keep the last
        // maximum, as the per-point path does.
        let mut g = Matrix::zeros(xs.rows(), self.output_dim());
        for (y, seed) in ys.rows_iter().zip(g.rows_iter_mut()) {
            let mut rival = usize::MAX;
            for (j, v) in y.iter().enumerate() {
                if j != target && (rival == usize::MAX || *v >= y[rival]) {
                    rival = j;
                }
            }
            assert!(
                rival != usize::MAX,
                "network must have at least two outputs"
            );
            seed[target] = 1.0;
            seed[rival] = -1.0;
        }

        for (idx, layer) in self.layers().iter().enumerate().rev() {
            let input = &trace[idx];
            g = match layer {
                // d(g·(Wx + b))/dx = Wᵀg, batched: G_prev = G · W.
                Layer::Affine(a) => g.matmul(&a.weights),
                Layer::Relu => {
                    let mut back = g;
                    for (pre, gr) in input.rows_iter().zip(back.rows_iter_mut()) {
                        for (p, gi) in pre.iter().zip(gr.iter_mut()) {
                            if *p <= 0.0 {
                                *gi = 0.0;
                            }
                        }
                    }
                    back
                }
                Layer::MaxPool(p) => {
                    let mut back = Matrix::zeros(xs.rows(), p.input_dim);
                    for ((pre, gr), br) in
                        input.rows_iter().zip(g.rows_iter()).zip(back.rows_iter_mut())
                    {
                        for (group, gi) in p.groups.iter().zip(gr.iter()) {
                            let winner = group
                                .iter()
                                .copied()
                                .reduce(|a, b| if pre[b] > pre[a] { b } else { a })
                                .expect("max-pool groups are non-empty");
                            br[winner] += gi;
                        }
                    }
                    back
                }
            };
        }
        (fs, g)
    }

    /// Gradient of the robustness objective for every row of `xs`: the
    /// gradient half of [`Network::objective_and_gradient_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()`.
    pub fn objective_gradient_batch(&self, xs: &Matrix, target: usize) -> Matrix {
        self.objective_and_gradient_batch(xs, target).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, AffineLayer, MaxPoolLayer};

    fn batch_of(points: &[&[f64]]) -> Matrix {
        Matrix::from_rows(points)
    }

    #[test]
    fn eval_batch_matches_eval_per_row() {
        let net = crate::train::random_mlp(3, &[8, 6], 4, 21);
        let points: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..3).map(|j| (i as f64 * 0.3 - j as f64 * 0.7).sin()).collect())
            .collect();
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let ys = net.eval_batch(&batch_of(&refs));
        for (x, y) in points.iter().zip(ys.rows_iter()) {
            // Not bitwise: the batched path runs through the register-tiled
            // matmul, whose summation association differs from matvec's.
            for (a, b) in y.iter().zip(net.eval(x).iter()) {
                assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn eval_batch_handles_maxpool() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(Matrix::identity(2), vec![0.5, -0.5])),
            ],
        )
        .unwrap();
        let xs = batch_of(&[&[1.0, 5.0, -2.0, -3.0], &[0.0, 0.0, 7.0, 7.0]]);
        let ys = net.eval_batch(&xs);
        assert_eq!(ys.row(0), &[5.5, -2.5]);
        assert_eq!(ys.row(1), &[0.5, 6.5]);
    }

    #[test]
    fn objective_batch_matches_objective() {
        let net = samples::xor_network();
        let xs = batch_of(&[&[0.1, 0.9], &[0.5, 0.5], &[0.95, 0.95]]);
        let f = net.objective_batch(&xs, 1);
        for (x, fi) in xs.rows_iter().zip(f.iter()) {
            assert_eq!(*fi, net.objective(x, 1));
        }
    }

    #[test]
    fn gradient_batch_matches_gradient_per_row() {
        let net = crate::train::random_mlp(4, &[10, 8], 3, 33);
        let points: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 7 + j * 3) as f64 * 0.17).cos() * 0.8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let (fs, gs) = net.objective_and_gradient_batch(&batch_of(&refs), 2);
        for ((x, f), g) in points.iter().zip(&fs).zip(gs.rows_iter()) {
            let (reference_f, reference) = net.objective_and_gradient(x, 2);
            assert!(
                (f - reference_f).abs() <= 1e-12,
                "batched objective {f} vs {reference_f}"
            );
            for (a, b) in g.iter().zip(reference.iter()) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "batched gradient {a} vs per-point {b}"
                );
            }
        }
    }

    #[test]
    fn fused_batch_equals_separate_batch_calls_bitwise() {
        let net = crate::train::random_mlp(6, &[10, 7], 4, 5);
        let xs = Matrix::from_fn(5, 6, |r, c| ((r * 6 + c) as f64 * 0.41).sin());
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for target in 0..4 {
            let (fs, gs) = net.objective_and_gradient_batch(&xs, target);
            assert_eq!(bits(&fs), bits(&net.objective_batch(&xs, target)));
            let separate = net.objective_gradient_batch(&xs, target);
            assert_eq!(bits(gs.as_slice()), bits(separate.as_slice()));
        }
    }

    #[test]
    fn fused_batch_rows_equal_per_point_on_ties() {
        // Integer weights keep both paths exact, so rows must equal the
        // per-point results bit for bit. Classes 1 and 2 always tie for
        // the rival of class 0, and the pool groups tie on some rows.
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]),
                    vec![0.0, 0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        let xs = batch_of(&[
            &[2.0, 2.0, -1.0, -1.0],
            &[1.0, 5.0, 3.0, 3.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[4.0, -2.0, 7.0, 6.0],
        ]);
        let (fs, gs) = net.objective_and_gradient_batch(&xs, 0);
        for ((x, f), g) in xs.rows_iter().zip(&fs).zip(gs.rows_iter()) {
            let (pf, pg) = net.objective_and_gradient(x, 0);
            assert_eq!(f.to_bits(), pf.to_bits(), "objective at {x:?}");
            assert_eq!(g, pg.as_slice(), "gradient at {x:?}");
        }
        // The rival is the last tied class; the pool routes to the
        // lowest tied index.
        assert_eq!(gs.row(0), &[1.0, 0.0, -1.0, 0.0]);
    }

    #[test]
    fn gradient_batch_routes_maxpool_ties_to_lowest_index() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        // Both pool groups tie; the per-point path sends gradient to the
        // lowest index of each group.
        let xs = batch_of(&[&[2.0, 2.0, -1.0, -1.0]]);
        let g = net.objective_gradient_batch(&xs, 0);
        assert_eq!(g.row(0), net.objective_gradient(&[2.0, 2.0, -1.0, -1.0], 0));
    }
}
