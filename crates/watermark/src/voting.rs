//! Majority voting used by watermark detection (§5.3).
//!
//! The hierarchical scheme recovers several copies of the same bit from one
//! embedding position (one per tree level between the ultimate and maximal
//! generalization nodes) and many embedding positions per mark bit (multiple
//! embedding). Both reductions are majority votes; the per-level vote can
//! optionally weight copies from higher levels more heavily, "enforcing the
//! policy that the copy from a higher level is more reliable than that from a
//! lower level".

/// A violated voting contract. Detection feeds votes from untrusted
/// (possibly attacked) tables, so contract violations surface as errors
/// rather than silently dropped or miscounted votes — a dropped vote could
/// flip a recovered mark bit without any trace.
#[derive(Debug, Clone, PartialEq)]
pub enum VotingError {
    /// `weighted_majority` was called with a weight slice whose length does
    /// not match the bit slice; zip-truncating would silently discard votes.
    WeightLengthMismatch {
        /// Number of bits voted on.
        bits: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// A vote targeted a position outside the accumulator.
    IndexOutOfRange {
        /// The offending position.
        index: usize,
        /// Number of positions the accumulator tracks.
        len: usize,
    },
    /// A vote carried a weight that cannot count (non-positive or non-finite).
    InvalidWeight(f64),
}

impl std::fmt::Display for VotingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VotingError::WeightLengthMismatch { bits, weights } => {
                write!(f, "{bits} bits voted on with {weights} weights; lengths must match")
            }
            VotingError::IndexOutOfRange { index, len } => {
                write!(f, "vote for position {index} is outside the {len}-position accumulator")
            }
            VotingError::InvalidWeight(w) => {
                write!(f, "vote weight {w} is not a positive finite number")
            }
        }
    }
}

impl std::error::Error for VotingError {}

/// `MajorVot`: unweighted majority of a slice of bits. Ties and empty input
/// resolve to `false`.
pub fn majority(bits: &[bool]) -> bool {
    let ones = bits.iter().filter(|&&b| b).count();
    ones * 2 > bits.len()
}

/// Weighted majority: `bits[i]` carries `weights[i]` votes. Ties and empty
/// input resolve to `false`.
///
/// The slices must have the same length — a shorter weight slice used to be
/// padded with 1s and a longer one silently zip-truncated, either of which
/// miscounts votes without a trace; both are now
/// [`VotingError::WeightLengthMismatch`]. Negative or non-finite weights
/// (formerly clamped to zero) are [`VotingError::InvalidWeight`]; an explicit
/// zero weight is allowed and contributes nothing.
pub fn weighted_majority(bits: &[bool], weights: &[f64]) -> Result<bool, VotingError> {
    if bits.len() != weights.len() {
        return Err(VotingError::WeightLengthMismatch { bits: bits.len(), weights: weights.len() });
    }
    let mut ones = 0.0;
    let mut total = 0.0;
    for (&b, &w) in bits.iter().zip(weights.iter()) {
        if !w.is_finite() || w < 0.0 {
            return Err(VotingError::InvalidWeight(w));
        }
        total += w;
        if b {
            ones += w;
        }
    }
    Ok(ones * 2.0 > total)
}

/// Weights for `level_count` copies collected bottom-up (index 0 is the level
/// right above the ultimate node, the last index is right below the maximal
/// node). Higher levels receive linearly larger weights.
pub fn level_weights(level_count: usize) -> Vec<f64> {
    (0..level_count).map(|i| (i + 1) as f64).collect()
}

/// An accumulator of votes for the bits of the extended mark `wmd`.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteAccumulator {
    ones: Vec<f64>,
    totals: Vec<f64>,
}

impl VoteAccumulator {
    /// An accumulator for `len` bit positions.
    pub fn new(len: usize) -> Self {
        VoteAccumulator { ones: vec![0.0; len], totals: vec![0.0; len] }
    }

    /// Number of bit positions the accumulator tracks.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True if the accumulator tracks no positions.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Record a vote of weight `weight` for position `index`.
    ///
    /// An out-of-range `index` or a non-positive / non-finite `weight` is a
    /// caller bug, not a vote: both used to be silently dropped, which could
    /// flip a recovered mark bit without any trace, and are now rejected as
    /// [`VotingError`]s.
    pub fn vote(&mut self, index: usize, bit: bool, weight: f64) -> Result<(), VotingError> {
        if index >= self.totals.len() {
            return Err(VotingError::IndexOutOfRange { index, len: self.totals.len() });
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(VotingError::InvalidWeight(weight));
        }
        self.totals[index] += weight;
        if bit {
            self.ones[index] += weight;
        }
        Ok(())
    }

    /// Fold another accumulator's votes into this one, position by position.
    /// Both accumulators must track the same number of positions (they come
    /// from the same detection run, split over row chunks). Vote weights are
    /// small integral counts in practice, so the floating-point sums are
    /// exact and merging chunk tallies in any order reproduces the sequential
    /// accumulation bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the accumulators have different lengths.
    pub fn merge(&mut self, other: &VoteAccumulator) {
        assert_eq!(
            self.totals.len(),
            other.totals.len(),
            "cannot merge vote accumulators of different lengths"
        );
        for (mine, theirs) in self.ones.iter_mut().zip(other.ones.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.totals.iter_mut().zip(other.totals.iter()) {
            *mine += theirs;
        }
    }

    /// The resolved bit at each position: `Some(bit)` where votes exist,
    /// `None` where the position received no vote.
    pub fn resolve(&self) -> Vec<Option<bool>> {
        self.ones
            .iter()
            .zip(self.totals.iter())
            .map(|(&o, &t)| if t == 0.0 { None } else { Some(o * 2.0 > t) })
            .collect()
    }

    /// Number of positions that received at least one vote.
    pub fn covered_positions(&self) -> usize {
        self.totals.iter().filter(|&&t| t > 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_basic() {
        assert!(!majority(&[]));
        assert!(majority(&[true]));
        assert!(!majority(&[false]));
        assert!(majority(&[true, true, false]));
        assert!(!majority(&[true, false]));
        assert!(!majority(&[true, false, false]));
    }

    #[test]
    fn weighted_majority_respects_weights() {
        // One heavy true vote beats two light false votes.
        assert!(weighted_majority(&[true, false, false], &[5.0, 1.0, 1.0]).unwrap());
        assert!(!weighted_majority(&[true, false, false], &[1.0, 1.0, 1.0]).unwrap());
        assert!(!weighted_majority(&[], &[]).unwrap());
        // A zero weight is a vote that contributes nothing, not an error.
        assert!(weighted_majority(&[true, false], &[1.0, 0.0]).unwrap());
    }

    #[test]
    fn weighted_majority_rejects_length_mismatch() {
        // Too few weights: padding with 1s would invent votes.
        assert_eq!(
            weighted_majority(&[true, true, false], &[2.0]),
            Err(VotingError::WeightLengthMismatch { bits: 3, weights: 1 })
        );
        // Too many weights: zip-truncating would silently discard them.
        assert_eq!(
            weighted_majority(&[true], &[1.0, 9.0]),
            Err(VotingError::WeightLengthMismatch { bits: 1, weights: 2 })
        );
        // Exact lengths at the boundary are fine.
        assert!(weighted_majority(&[true], &[1.0]).unwrap());
    }

    #[test]
    fn weighted_majority_rejects_bad_weights() {
        assert_eq!(
            weighted_majority(&[true, false], &[-3.0, 1.0]),
            Err(VotingError::InvalidWeight(-3.0))
        );
        assert!(matches!(
            weighted_majority(&[true], &[f64::NAN]),
            Err(VotingError::InvalidWeight(_))
        ));
        assert!(matches!(
            weighted_majority(&[true], &[f64::INFINITY]),
            Err(VotingError::InvalidWeight(_))
        ));
    }

    #[test]
    fn level_weights_increase_with_level() {
        let w = level_weights(4);
        assert_eq!(w, vec![1.0, 2.0, 3.0, 4.0]);
        assert!(level_weights(0).is_empty());
    }

    /// The detection threshold τ for a position is a strict majority of its
    /// votes. Exactly at the threshold (a tie) the bit must resolve to
    /// `false`; one vote above must resolve to `true`; one below, `false`.
    #[test]
    fn majority_threshold_boundary() {
        // Even vote counts: exactly τ = half the votes is NOT a majority.
        assert!(!majority(&[true, false]));
        assert!(!majority(&[true, true, false, false]));
        // One above the boundary flips the bit...
        assert!(majority(&[true, true, false]));
        assert!(majority(&[true, true, true, false, false]));
        // ...and one below keeps it off.
        assert!(!majority(&[true, false, false]));
        assert!(!majority(&[true, true, false, false, false]));
    }

    #[test]
    fn weighted_majority_threshold_boundary() {
        // Exactly at the weighted tie: 3.0 of 6.0 total → false.
        assert!(!weighted_majority(&[true, false], &[3.0, 3.0]).unwrap());
        // An epsilon above the tie → true; an epsilon below → false.
        assert!(weighted_majority(&[true, false], &[3.0 + 1e-9, 3.0]).unwrap());
        assert!(!weighted_majority(&[true, false], &[3.0 - 1e-9, 3.0]).unwrap());
    }

    #[test]
    fn accumulator_threshold_boundary() {
        let mut acc = VoteAccumulator::new(1);
        acc.vote(0, true, 2.0).unwrap();
        acc.vote(0, false, 2.0).unwrap();
        // Tied at the threshold → false.
        assert_eq!(acc.resolve(), vec![Some(false)]);
        acc.vote(0, true, 1.0).unwrap();
        // One vote above → true.
        assert_eq!(acc.resolve(), vec![Some(true)]);
        acc.vote(0, false, 2.0).unwrap();
        // One below → false again.
        assert_eq!(acc.resolve(), vec![Some(false)]);
    }

    #[test]
    fn merge_reproduces_sequential_accumulation() {
        // Votes accumulated in one pass...
        let mut sequential = VoteAccumulator::new(4);
        let votes = [
            (0usize, true, 1.0),
            (1, false, 1.0),
            (0, true, 1.0),
            (2, true, 2.0),
            (1, true, 1.0),
            (2, false, 1.0),
            (3, false, 1.0),
        ];
        for &(i, b, w) in &votes {
            sequential.vote(i, b, w).unwrap();
        }
        // ...must equal the merge of two per-chunk accumulators, in either
        // merge order.
        for split in 0..votes.len() {
            let mut left = VoteAccumulator::new(4);
            let mut right = VoteAccumulator::new(4);
            for &(i, b, w) in &votes[..split] {
                left.vote(i, b, w).unwrap();
            }
            for &(i, b, w) in &votes[split..] {
                right.vote(i, b, w).unwrap();
            }
            let mut forward = left.clone();
            forward.merge(&right);
            assert_eq!(forward.resolve(), sequential.resolve(), "split {split}");
            assert_eq!(forward.covered_positions(), sequential.covered_positions());
            let mut backward = right;
            backward.merge(&left);
            assert_eq!(backward.resolve(), sequential.resolve(), "split {split} reversed");
        }
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn merge_rejects_mismatched_lengths() {
        let mut a = VoteAccumulator::new(2);
        a.merge(&VoteAccumulator::new(3));
    }

    #[test]
    fn accumulator_resolves_votes() {
        let mut acc = VoteAccumulator::new(3);
        acc.vote(0, true, 1.0).unwrap();
        acc.vote(0, true, 1.0).unwrap();
        acc.vote(0, false, 1.0).unwrap();
        acc.vote(1, false, 2.0).unwrap();
        acc.vote(1, true, 1.0).unwrap();
        // Position 2 receives no vote and resolves to None.
        assert_eq!(acc.resolve(), vec![Some(true), Some(false), None]);
        assert_eq!(acc.covered_positions(), 2);
    }

    #[test]
    fn accumulator_rejects_invalid_votes() {
        let mut acc = VoteAccumulator::new(3);
        // The last valid index is len-1; one past it is an error.
        acc.vote(2, true, 1.0).unwrap();
        assert_eq!(acc.vote(3, true, 1.0), Err(VotingError::IndexOutOfRange { index: 3, len: 3 }));
        assert_eq!(acc.vote(9, true, 1.0), Err(VotingError::IndexOutOfRange { index: 9, len: 3 }));
        // Zero, negative and non-finite weights cannot count as votes.
        assert_eq!(acc.vote(0, true, 0.0), Err(VotingError::InvalidWeight(0.0)));
        assert_eq!(acc.vote(0, true, -1.0), Err(VotingError::InvalidWeight(-1.0)));
        assert!(matches!(acc.vote(0, true, f64::NAN), Err(VotingError::InvalidWeight(_))));
        // A rejected vote must leave the tallies untouched.
        assert_eq!(acc.resolve(), vec![None, None, Some(true)]);
        assert_eq!(acc.covered_positions(), 1);
        // An empty accumulator rejects every index.
        let mut empty = VoteAccumulator::new(0);
        assert_eq!(
            empty.vote(0, true, 1.0),
            Err(VotingError::IndexOutOfRange { index: 0, len: 0 })
        );
    }

    #[test]
    fn voting_error_display_is_informative() {
        let e = VotingError::WeightLengthMismatch { bits: 3, weights: 1 };
        assert!(e.to_string().contains("3 bits"));
        assert!(e.to_string().contains("1 weights"));
        let e = VotingError::IndexOutOfRange { index: 9, len: 3 };
        assert!(e.to_string().contains("position 9"));
        assert!(VotingError::InvalidWeight(-1.0).to_string().contains("-1"));
    }
}
