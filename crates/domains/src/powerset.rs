use nn::{AffineLayer, MaxPoolLayer};

use crate::{AbstractElement, Bounds, ReluCoordOps, Workspace};

/// The bounded powerset domain: a disjunction of at most `budget` base
/// elements.
///
/// This implements the paper's "bounded powerset" domains (§2.3): the ReLU
/// transformer performs *case splitting* on unstable neurons — each
/// disjunct is intersected with `x_i >= 0` (identity case) and `x_i <= 0`
/// (projection-to-zero case) — for as long as the disjunct budget allows,
/// and falls back to the base domain's single-element ReLU relaxation for
/// the remaining unstable neurons.
///
/// Splitting targets the unstable neurons with the widest straddling range
/// first, which is where the relaxation would lose the most precision.
///
/// # Examples
///
/// ```
/// use domains::{propagate, AbstractElement, Bounds, Powerset, Zonotope};
/// use nn::samples;
///
/// // Example 2.3 of the paper: verified by powerset-of-zonotopes.
/// let net = samples::example_2_3_network();
/// let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
/// let element = Powerset::<Zonotope>::with_budget(&region, 2);
/// let out = propagate(&net, element);
/// assert!(out.margin_lower_bound(1) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Powerset<D> {
    disjuncts: Vec<D>,
    budget: usize,
}

impl<D: ReluCoordOps> Powerset<D> {
    /// Creates a powerset element abstracting `bounds` with the given
    /// disjunct budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn with_budget(bounds: &Bounds, budget: usize) -> Self {
        assert!(budget > 0, "disjunct budget must be positive");
        Powerset {
            disjuncts: vec![D::from_bounds(bounds)],
            budget,
        }
    }

    /// The current disjuncts.
    pub fn disjuncts(&self) -> &[D] {
        &self.disjuncts
    }

    /// The disjunct budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Unstable coordinates among `bounds`, widest straddle first.
    fn split_order(bounds: &[(f64, f64)]) -> Vec<usize> {
        let mut unstable: Vec<(usize, f64)> = bounds
            .iter()
            .enumerate()
            .filter(|(_, &(lo, hi))| lo < 0.0 && hi > 0.0)
            .map(|(i, &(lo, hi))| (i, hi.min(-lo)))
            .collect();
        unstable.sort_by(|a, b| b.1.total_cmp(&a.1));
        unstable.into_iter().map(|(i, _)| i).collect()
    }

    /// Coordinates of a finished disjunct that ReLU sends to zero: upper
    /// bound at most zero, and not already exactly zero.
    fn nonpositive(bounds: &[(f64, f64)]) -> Vec<usize> {
        bounds
            .iter()
            .enumerate()
            .filter(|(_, &(lo, hi))| hi <= 0.0 && (lo != 0.0 || hi != 0.0))
            .map(|(i, _)| i)
            .collect()
    }

    /// Case split of `d` on its unstable coordinates, in `order`, while
    /// the disjunct budget allows. Returns the finished disjunct, or
    /// `None` once `d` was split into two halves (pushed onto `current`)
    /// or found empty. A split with one empty side finishes the
    /// coordinate on the surviving half and goes on with the next.
    fn split(mut d: D, order: &[usize], current: &mut Vec<D>) -> Option<D> {
        for &i in order {
            let (lo, hi) = d.coord_bounds(i);
            if hi <= 0.0 {
                d.project_zero(i);
                continue;
            }
            if lo >= 0.0 {
                continue;
            }
            // Case split: x_i <= 0 branch projects to zero, x_i >= 0
            // branch keeps the coordinate.
            let neg = d.meet_coord_nonpos(i).map(|mut m| {
                m.project_zero(i);
                m
            });
            let pos = d.meet_coord_nonneg(i);
            match (neg, pos) {
                (Some(n), Some(p)) => {
                    current.push(n);
                    current.push(p);
                    return None;
                }
                (Some(mut only), None) | (None, Some(mut only)) => {
                    let (l2, h2) = only.coord_bounds(i);
                    if h2 <= 0.0 {
                        only.project_zero(i);
                    } else if l2 < 0.0 {
                        only.relax_relu_coord(i, l2, h2);
                    }
                    d = only;
                }
                // Disjunct is empty; drop it.
                (None, None) => return None,
            }
        }
        Some(d)
    }
}

impl<D: ReluCoordOps> AbstractElement for Powerset<D> {
    fn from_bounds(bounds: &Bounds) -> Self {
        // Default budget of 2 disjuncts; use `with_budget` to configure.
        Powerset::with_budget(bounds, 2)
    }

    fn dim(&self) -> usize {
        self.disjuncts.first().map_or(0, AbstractElement::dim)
    }

    fn bounds(&self) -> Bounds {
        let mut iter = self.disjuncts.iter().map(AbstractElement::bounds);
        let first = iter.next().expect("powerset is never empty");
        iter.fold(first, |acc, b| acc.join(&b))
    }

    fn affine(&self, layer: &AffineLayer) -> Self {
        Powerset {
            disjuncts: self.disjuncts.iter().map(|d| d.affine(layer)).collect(),
            budget: self.budget,
        }
    }

    fn affine_ws(&self, layer: &AffineLayer, ws: &mut Workspace) -> Self {
        Powerset {
            disjuncts: self
                .disjuncts
                .iter()
                .map(|d| d.affine_ws(layer, ws))
                .collect(),
            budget: self.budget,
        }
    }

    fn recycle(self, ws: &mut Workspace) {
        for d in self.disjuncts {
            d.recycle(ws);
        }
    }

    fn relu(&self) -> Self {
        let mut current = self.disjuncts.clone();
        // Splitting is global across the element: it stops once the
        // total number of disjuncts reaches the budget. A disjunct that
        // may not split takes every decision from the bounds of one pass
        // and applies them together: its stable-negative coordinates go
        // to zero and its unstable ones are relaxed in split order. Each
        // decision touches only its own coordinate, so no bound moves in
        // between.
        let mut result: Vec<D> = Vec::new();
        while let Some(mut d) = current.pop() {
            let bounds = d.all_coord_bounds();
            let order = Self::split_order(&bounds);
            if current.len() + result.len() + 1 < self.budget {
                match Self::split(d, &order, &mut current) {
                    Some(done) => d = done,
                    None => continue,
                }
            } else {
                let relax: Vec<(usize, f64, f64)> =
                    order.iter().map(|&i| (i, bounds[i].0, bounds[i].1)).collect();
                d.relu_coords(&Self::nonpositive(&bounds), &relax);
            }
            // All coordinates resolved: project whatever is still
            // non-positive (after a split, the stable-negative
            // coordinates, which are never in the split order).
            let zero = Self::nonpositive(&d.all_coord_bounds());
            d.relu_coords(&zero, &[]);
            result.push(d);
        }
        assert!(!result.is_empty(), "powerset relu emptied all disjuncts");
        Powerset {
            disjuncts: result,
            budget: self.budget,
        }
    }

    fn max_pool(&self, layer: &MaxPoolLayer) -> Self {
        Powerset {
            disjuncts: self.disjuncts.iter().map(|d| d.max_pool(layer)).collect(),
            budget: self.budget,
        }
    }

    fn margin_lower_bound(&self, target: usize) -> f64 {
        self.disjuncts
            .iter()
            .map(|d| d.margin_lower_bound(target))
            .fold(f64::INFINITY, f64::min)
    }

    fn is_poisoned(&self) -> bool {
        self.disjuncts.iter().any(|d| d.is_poisoned())
    }
}

impl<D: ReluCoordOps> Powerset<D> {
    /// The per-coordinate ReLU, the oracle the row-major
    /// [`AbstractElement::relu`] is held to bit for bit (by this crate's
    /// tests and by the `powerset_relu` row of `perf_kernels`): bounds
    /// re-read coordinate by coordinate before every decision, each
    /// decision applied on its own. Not for use outside those checks.
    #[doc(hidden)]
    pub fn relu_per_coord(&self) -> Self {
        let mut current = self.disjuncts.clone();
        let mut result: Vec<D> = Vec::new();
        while let Some(mut d) = current.pop() {
            let bounds: Vec<(f64, f64)> = (0..d.dim()).map(|i| d.coord_bounds(i)).collect();
            let order = Self::split_order(&bounds);
            let mut split_done = false;
            for &i in &order {
                let (lo, hi) = d.coord_bounds(i);
                if hi <= 0.0 {
                    d.project_zero(i);
                    continue;
                }
                if lo >= 0.0 {
                    continue;
                }
                let live = current.len() + result.len() + 1;
                if live < self.budget {
                    let neg = d.meet_coord_nonpos(i).map(|mut m| {
                        m.project_zero(i);
                        m
                    });
                    let pos = d.meet_coord_nonneg(i);
                    match (neg, pos) {
                        (Some(n), Some(p)) => {
                            current.push(n);
                            current.push(p);
                            split_done = true;
                            break;
                        }
                        (Some(mut only), None) | (None, Some(mut only)) => {
                            let (l2, h2) = only.coord_bounds(i);
                            if h2 <= 0.0 {
                                only.project_zero(i);
                            } else if l2 < 0.0 {
                                only.relax_relu_coord(i, l2, h2);
                            }
                            d = only;
                        }
                        (None, None) => {
                            split_done = true;
                            break;
                        }
                    }
                } else {
                    d.relax_relu_coord(i, lo, hi);
                }
            }
            if !split_done {
                for i in 0..d.dim() {
                    let (lo, hi) = d.coord_bounds(i);
                    if hi <= 0.0 && (lo != 0.0 || hi != 0.0) {
                        d.project_zero(i);
                    }
                }
                result.push(d);
            }
        }
        Powerset {
            disjuncts: result,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{propagate, Interval, Zonotope};
    use nn::{samples, Layer, Network};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit_box(dim: usize) -> Bounds {
        Bounds::new(vec![0.0; dim], vec![1.0; dim])
    }

    #[test]
    fn powerset_zonotope_verifies_example_2_3() {
        let net = samples::example_2_3_network();
        let element = Powerset::<Zonotope>::with_budget(&unit_box(2), 2);
        let out = propagate(&net, element);
        assert!(out.margin_lower_bound(1) > 0.0);
    }

    #[test]
    fn powerset_interval_tighter_than_plain_interval() {
        let net = samples::example_2_3_network();
        let plain = propagate(&net, Interval::from_bounds(&unit_box(2)));
        let split = propagate(&net, Powerset::<Interval>::with_budget(&unit_box(2), 8));
        assert!(split.margin_lower_bound(1) >= plain.margin_lower_bound(1));
    }

    #[test]
    fn budget_is_respected() {
        let net = nn::train::random_mlp(4, &[12, 12], 3, 9);
        let region = Bounds::linf_ball(&[0.1, -0.2, 0.3, 0.0], 0.5, None);
        for budget in [1, 2, 4] {
            let out = propagate(&net, Powerset::<Zonotope>::with_budget(&region, budget));
            assert!(
                out.disjuncts().len() <= budget,
                "{} disjuncts exceed budget {budget}",
                out.disjuncts().len()
            );
        }
    }

    #[test]
    fn budget_one_matches_base_domain() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]);
        let base = propagate(&net, Zonotope::from_bounds(&region));
        let ps = propagate(&net, Powerset::<Zonotope>::with_budget(&region, 1));
        assert_eq!(ps.disjuncts().len(), 1);
        assert!(
            (ps.margin_lower_bound(1) - base.margin_lower_bound(1)).abs() < 1e-12,
            "budget-1 powerset should degenerate to the base domain"
        );
    }

    /// Walks `net` from `region` layer by layer and checks, at every
    /// ReLU layer, that the row-major transformers equal their
    /// per-coordinate oracles bit for bit: the plain zonotope, and the
    /// powersets of zonotopes and of intervals at `budget`. Returns how
    /// many ReLU layers had unstable coordinates.
    fn assert_relu_matches_per_coord(net: &Network, region: &Bounds, budget: usize) -> usize {
        let interval_bits = |d: &Interval| {
            let b = d.bounds();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(b.lower()), bits(b.upper()))
        };
        let mut z = Zonotope::from_bounds(region);
        let mut pz = Powerset::<Zonotope>::with_budget(region, budget);
        let mut pi = Powerset::<Interval>::with_budget(region, budget);
        let mut unstable_layers = 0;
        for (idx, layer) in net.layers().iter().enumerate() {
            match layer {
                Layer::Affine(a) => {
                    z = z.affine(a);
                    pz = pz.affine(a);
                    pi = pi.affine(a);
                }
                Layer::MaxPool(m) => {
                    z = z.max_pool(m);
                    pz = pz.max_pool(m);
                    pi = pi.max_pool(m);
                }
                Layer::Relu => {
                    let what = format!("layer {idx}, budget {budget}");
                    unstable_layers += usize::from(
                        z.all_coord_bounds().iter().any(|&(lo, hi)| lo < 0.0 && hi > 0.0),
                    );
                    let (fast, slow) = (z.relu(), z.relu_per_coord());
                    assert_eq!(fast.to_bits(), slow.to_bits(), "zonotope {what}");
                    z = fast;
                    let (fast, slow) = (pz.relu(), pz.relu_per_coord());
                    let bits = |p: &Powerset<Zonotope>| {
                        p.disjuncts().iter().map(Zonotope::to_bits).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&fast), bits(&slow), "powerset<zonotope> {what}");
                    pz = fast;
                    let (fast, slow) = (pi.relu(), pi.relu_per_coord());
                    let bits = |p: &Powerset<Interval>| {
                        p.disjuncts().iter().map(interval_bits).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&fast), bits(&slow), "powerset<interval> {what}");
                    pi = fast;
                }
            }
        }
        unstable_layers
    }

    /// A brightening region: pixels at or above `tau` may rise to 1,
    /// the others are frozen.
    fn brightening(image: &[f64], tau: f64) -> Bounds {
        let upper = image.iter().map(|&v| if v >= tau { 1.0 } else { v }).collect();
        Bounds::new(image.to_vec(), upper)
    }

    /// The benchmark's four zoo networks (briefly trained), on
    /// brightening regions of their own data, at budgets 1, 2 and 4.
    #[test]
    fn relu_matches_per_coord_on_zoo_nets() {
        use data::zoo::{build, ZooConfig, ZooNetwork};
        let config = ZooConfig {
            train_size: 100,
            train: nn::train::TrainConfig {
                epochs: 5,
                ..nn::train::TrainConfig::default()
            },
            cache_dir: None,
            ..ZooConfig::default()
        };
        for which in [
            ZooNetwork::Mnist6x32,
            ZooNetwork::Mnist9x64,
            ZooNetwork::Cifar6x32,
            ZooNetwork::ConvSmall,
        ] {
            let (net, _) = build(which, &config);
            let images = which.dataset(3, 7).images;
            let mut unstable = 0;
            for (image, tau) in images.iter().zip([0.8, 0.7, 0.6]) {
                for budget in [1, 2, 4] {
                    unstable += assert_relu_matches_per_coord(&net, &brightening(image, tau), budget);
                }
            }
            assert!(unstable > 0, "{}: no ReLU layer was unstable", which.name());
        }
    }

    proptest! {
        /// The row-major ReLU transformers equal the per-coordinate path
        /// bit for bit on random networks and regions.
        #[test]
        fn relu_matches_per_coord_on_random_mlps(seed in 0u64..40, budget in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let net = nn::train::random_mlp(5, &[8, 7, 6], 3, seed);
            let center: Vec<f64> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = Bounds::linf_ball(&center, rng.gen_range(0.05..0.8), None);
            assert_relu_matches_per_coord(&net, &region, budget);
            let image: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..1.0)).collect();
            assert_relu_matches_per_coord(&net, &brightening(&image, 0.5), budget);
        }

        /// Soundness: powerset propagation over-approximates concrete
        /// execution on random networks, for both base domains.
        #[test]
        fn powerset_propagation_is_sound(seed in 0u64..30) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            let net = nn::train::random_mlp(3, &[6, 6], 3, seed);
            let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = Bounds::linf_ball(&center, 0.3, None);

            let zps = propagate(&net, Powerset::<Zonotope>::with_budget(&region, 4));
            let ips = propagate(&net, Powerset::<Interval>::with_budget(&region, 4));
            let zb = zps.bounds();
            let ib = ips.bounds();
            for _ in 0..25 {
                let x = region.sample(&mut rng);
                let y = net.eval(&x);
                for i in 0..y.len() {
                    prop_assert!(y[i] >= zb.lower()[i] - 1e-9 && y[i] <= zb.upper()[i] + 1e-9);
                    prop_assert!(y[i] >= ib.lower()[i] - 1e-9 && y[i] <= ib.upper()[i] + 1e-9);
                }
                for t in 0..3 {
                    prop_assert!(zps.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                    prop_assert!(ips.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                }
            }
        }
    }
}
