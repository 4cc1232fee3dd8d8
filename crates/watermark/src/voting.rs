//! Majority voting used by watermark detection (§5.3).
//!
//! The hierarchical scheme recovers several copies of the same bit from one
//! embedding position (one per tree level between the ultimate and maximal
//! generalization nodes) and many embedding positions per mark bit (multiple
//! embedding). Both reductions are plain majority votes with one vote per
//! copy, so every tally is an exact integer count. The paper's option of
//! weighting copies from higher levels more heavily is not offered.

/// A violated voting contract. Detection feeds votes from untrusted
/// (possibly attacked) tables, so contract violations surface as errors
/// rather than silently dropped or miscounted votes — a dropped vote could
/// flip a recovered mark bit without any trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VotingError {
    /// A vote targeted a position outside the accumulator.
    IndexOutOfRange {
        /// The offending position.
        index: usize,
        /// Number of positions the accumulator tracks.
        len: usize,
    },
}

impl std::fmt::Display for VotingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VotingError::IndexOutOfRange { index, len } => {
                write!(f, "vote for position {index} is outside the {len}-position accumulator")
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

/// An accumulator of votes for the bits of the extended mark `wmd`: per
/// position, the number of votes cast and how many of them were for `1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteAccumulator {
    ones: Vec<usize>,
    totals: Vec<usize>,
}

impl VoteAccumulator {
    /// An accumulator for `len` bit positions.
    pub fn new(len: usize) -> Self {
        VoteAccumulator { ones: vec![0; len], totals: vec![0; len] }
    }

    /// Number of bit positions the accumulator tracks.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True if the accumulator tracks no positions.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Record one vote for position `index`.
    ///
    /// An out-of-range `index` is a caller bug, not a vote: silently
    /// dropping it could flip a recovered mark bit without any trace, so it
    /// is rejected as a [`VotingError`].
    pub fn vote(&mut self, index: usize, bit: bool) -> Result<(), VotingError> {
        if index >= self.totals.len() {
            return Err(VotingError::IndexOutOfRange { index, len: self.totals.len() });
        }
        self.totals[index] += 1;
        self.ones[index] += usize::from(bit);
        Ok(())
    }

    /// Fold another accumulator's votes into this one, position by position.
    /// Both accumulators must track the same number of positions (they come
    /// from the same detection run, split over row chunks). The counts are
    /// integers, so merging chunk tallies in any order reproduces the
    /// sequential accumulation exactly.
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
            .map(|(&o, &t)| if t == 0 { None } else { Some(o * 2 > t) })
            .collect()
    }

    /// Number of positions that received at least one vote.
    pub fn covered_positions(&self) -> usize {
        self.totals.iter().filter(|&&t| t > 0).count()
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
    fn accumulator_threshold_boundary() {
        let mut acc = VoteAccumulator::new(1);
        for bit in [true, true, false, false] {
            acc.vote(0, bit).unwrap();
        }
        // Tied at the threshold → false.
        assert_eq!(acc.resolve(), vec![Some(false)]);
        acc.vote(0, true).unwrap();
        // One vote above → true.
        assert_eq!(acc.resolve(), vec![Some(true)]);
        acc.vote(0, false).unwrap();
        acc.vote(0, false).unwrap();
        // One below → false again.
        assert_eq!(acc.resolve(), vec![Some(false)]);
    }

    #[test]
    fn merge_reproduces_sequential_accumulation() {
        // Votes accumulated in one pass...
        let mut sequential = VoteAccumulator::new(4);
        let votes = [
            (0usize, true),
            (1, false),
            (0, true),
            (2, true),
            (2, true),
            (1, true),
            (2, false),
            (3, false),
        ];
        for &(i, b) in &votes {
            sequential.vote(i, b).unwrap();
        }
        // ...must equal the merge of two per-chunk accumulators, in either
        // merge order.
        for split in 0..votes.len() {
            let mut left = VoteAccumulator::new(4);
            let mut right = VoteAccumulator::new(4);
            for &(i, b) in &votes[..split] {
                left.vote(i, b).unwrap();
            }
            for &(i, b) in &votes[split..] {
                right.vote(i, b).unwrap();
            }
            let mut forward = left.clone();
            forward.merge(&right);
            assert_eq!(forward, sequential, "split {split}");
            assert_eq!(forward.covered_positions(), sequential.covered_positions());
            let mut backward = right;
            backward.merge(&left);
            assert_eq!(backward, sequential, "split {split} reversed");
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
        acc.vote(0, true).unwrap();
        acc.vote(0, true).unwrap();
        acc.vote(0, false).unwrap();
        acc.vote(1, false).unwrap();
        acc.vote(1, false).unwrap();
        acc.vote(1, true).unwrap();
        // Position 2 receives no vote and resolves to None.
        assert_eq!(acc.resolve(), vec![Some(true), Some(false), None]);
        assert_eq!(acc.covered_positions(), 2);
    }

    #[test]
    fn accumulator_rejects_invalid_votes() {
        let mut acc = VoteAccumulator::new(3);
        // The last valid index is len-1; one past it is an error.
        acc.vote(2, true).unwrap();
        assert_eq!(acc.vote(3, true), Err(VotingError::IndexOutOfRange { index: 3, len: 3 }));
        assert_eq!(acc.vote(9, true), Err(VotingError::IndexOutOfRange { index: 9, len: 3 }));
        // A rejected vote must leave the tallies untouched.
        assert_eq!(acc.resolve(), vec![None, None, Some(true)]);
        assert_eq!(acc.covered_positions(), 1);
        // An empty accumulator rejects every index.
        let mut empty = VoteAccumulator::new(0);
        assert_eq!(empty.vote(0, true), Err(VotingError::IndexOutOfRange { index: 0, len: 0 }));
    }

    #[test]
    fn voting_error_display_is_informative() {
        let e = VotingError::IndexOutOfRange { index: 9, len: 3 };
        assert!(e.to_string().contains("position 9"));
        assert!(e.to_string().contains("3-position"));
    }
}
