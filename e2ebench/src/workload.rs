//! Workload inputs: the zoo networks and the seeded brightening suite.
//!
//! The networks are trained with the fixed zoo seed 0 and the on-disk
//! cache off, so every run pays the same training work in set-up. The
//! benchmark seed only selects the evaluation images.

use std::time::Instant;

use charon::RobustnessProperty;
use data::zoo::{ZooConfig, ZooNetwork};
use nn::{Layer, Network};

/// The four networks of the benchmark: two MNIST MLPs of different depth
/// and width, a CIFAR MLP, and the convolutional network (the only one
/// with max-pool layers).
pub const NETWORKS: [ZooNetwork; 4] = [
    ZooNetwork::Mnist6x32,
    ZooNetwork::Mnist9x64,
    ZooNetwork::Cifar6x32,
    ZooNetwork::ConvSmall,
];

/// Brightening thresholds: pixels at or above τ may brighten to 1.
pub const TAUS: [f64; 3] = [0.8, 0.7, 0.6];

/// One trained zoo network.
pub struct ZooNet {
    /// Zoo identifier.
    pub which: ZooNetwork,
    /// The trained network.
    pub net: Network,
    /// Affine weights (the multiply-adds of one forward pass).
    pub weights: usize,
}

/// Trains the four networks; returns them with the training seconds.
pub fn train_zoo() -> (Vec<ZooNet>, f64) {
    let config = ZooConfig {
        cache_dir: None,
        ..ZooConfig::default()
    };
    let start = Instant::now();
    let nets = NETWORKS
        .iter()
        .map(|&which| {
            let (net, _accuracy) = data::zoo::build(which, &config);
            let weights = net
                .layers()
                .iter()
                .map(|layer| match layer {
                    Layer::Affine(a) => a.input_dim() * a.output_dim(),
                    _ => 0,
                })
                .sum();
            ZooNet {
                which,
                net,
                weights,
            }
        })
        .collect();
    (nets, start.elapsed().as_secs_f64())
}

/// One robustness query of a workload.
#[derive(Clone)]
pub struct Query {
    /// Index into the zoo.
    pub net: usize,
    /// The property.
    pub property: RobustnessProperty,
}

/// `count` brightening properties, spread evenly over the (network, τ)
/// slots and interleaved slot by slot. Every property gets its own
/// evaluation image: the seed picks a fresh image set per slot, so
/// properties are independent draws rather than one image under three
/// thresholds.
pub fn brightening_queries(zoo: &[ZooNet], seed: u64, count: usize) -> Vec<Query> {
    let slots = zoo.len() * TAUS.len();
    let per_slot = count.div_ceil(slots);
    let mut by_slot: Vec<Vec<Query>> = Vec::with_capacity(slots);
    for (k, z) in zoo.iter().enumerate() {
        for (j, &tau) in TAUS.iter().enumerate() {
            let image_seed = mix(seed, (k * TAUS.len() + j) as u64);
            // Twice the needed images: the suite skips misclassified ones.
            let images = z.which.dataset(2 * per_slot + 10, image_seed);
            let suite = data::properties::brightening_suite(&z.net, &images, &[tau], per_slot);
            assert_eq!(
                suite.len(),
                per_slot,
                "{}: too few correctly classified images",
                z.which.name()
            );
            by_slot.push(
                suite
                    .into_iter()
                    .map(|b| Query {
                        net: k,
                        property: b.property,
                    })
                    .collect(),
            );
        }
    }
    let mut out = Vec::with_capacity(per_slot * slots);
    for i in 0..per_slot {
        for slot in &by_slot {
            out.push(slot[i].clone());
        }
    }
    out.truncate(count);
    out
}

/// SplitMix64 finalizer over `seed` and a stream index: decorrelated
/// sub-seeds from one benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of uniform draws in `[0, 1)`.
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = ((self.unit() * (i + 1) as f64) as usize).min(i);
            p.swap(i, j);
        }
        p
    }
}
