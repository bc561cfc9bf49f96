//! Output checks, run after the timed batch so they cost no operation
//! time. Every failing operation is kept and listed by id.

use charon::RobustnessProperty;
use nn::Network;

use crate::workload::{mix, Rng};

/// Sample points drawn per verified property to look for a
/// contradiction.
const SAMPLE_POINTS: usize = 16;

/// How an operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The property holds.
    Verified,
    /// A witness point refutes it.
    Refuted {
        /// The witness input.
        witness: Vec<f64>,
    },
    /// The region budget ran out, or the region could not be split
    /// further, before a decision.
    Undecided,
    /// Anything else: an engine error, a reply that is not a verdict, a
    /// run stopped by the safety wall clock, or a failed check.
    Failed(String),
}

impl Outcome {
    /// Verified or refuted.
    pub fn decided(&self) -> bool {
        matches!(self, Outcome::Verified | Outcome::Refuted { .. })
    }

    /// The verdict word, for agreement checks across repeated queries.
    pub fn word(&self) -> &str {
        match self {
            Outcome::Verified => "verified",
            Outcome::Refuted { .. } => "refuted",
            Outcome::Undecided => "resource_limit",
            Outcome::Failed(_) => "failed",
        }
    }
}

/// Checks one verdict against the network and property. Returns the
/// reason it is wrong, if it is.
///
/// * A refutation's witness must lie inside the region and its directed
///   upper objective bound must be below δ.
/// * A verification must not be contradicted by seeded sample points.
pub fn check_verdict(
    net: &Network,
    property: &RobustnessProperty,
    outcome: &Outcome,
    delta: f64,
    seed: u64,
) -> Option<String> {
    let region = property.region();
    let target = property.target();
    match outcome {
        Outcome::Refuted { witness } => {
            if witness.len() != region.dim() || !region.contains(witness) {
                return Some("witness outside the region".into());
            }
            let upper = cert::objective_upper(net, witness, target);
            (upper.is_nan() || upper >= delta)
                .then(|| format!("witness objective upper bound {upper} is not below delta"))
        }
        Outcome::Verified => {
            let mut rng = Rng::new(mix(seed, 0x5A3F));
            let (lo, hi) = (region.lower(), region.upper());
            for k in 0..SAMPLE_POINTS {
                let point: Vec<f64> = if k == 0 {
                    region.center()
                } else {
                    lo.iter()
                        .zip(hi)
                        .map(|(&l, &h)| l + (h - l) * rng.unit())
                        .collect()
                };
                let class = net.classify(&point);
                if class != target {
                    return Some(format!("sample point {k} classified {class}, not {target}"));
                }
            }
            None
        }
        Outcome::Undecided | Outcome::Failed(_) => None,
    }
}

/// Marks every reply to a repeated query that disagrees with the first
/// reply to it. `replies` holds `(query, op index, verdict word)`.
/// Returns the op indices that disagree.
pub fn disagreeing(replies: &[(usize, usize, String)]) -> Vec<usize> {
    let mut first: std::collections::HashMap<usize, &str> = std::collections::HashMap::new();
    let mut bad = Vec::new();
    for (query, op, word) in replies {
        let expected = *first.entry(*query).or_insert(word.as_str());
        if expected != word {
            bad.push(*op);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_against_the_first_reply() {
        let replies = vec![
            (0, 0, "verified".to_string()),
            (1, 1, "refuted".to_string()),
            (0, 2, "verified".to_string()),
            (1, 3, "verified".to_string()),
            (1, 4, "refuted".to_string()),
        ];
        assert_eq!(disagreeing(&replies), vec![3]);
    }

    #[test]
    fn decided_outcomes() {
        assert!(Outcome::Verified.decided());
        assert!(Outcome::Refuted { witness: vec![] }.decided());
        assert!(!Outcome::Undecided.decided());
        assert!(!Outcome::Failed("x".into()).decided());
    }
}
