//! Configuration of the binning agent: the k-anonymity specification and the
//! algorithmic knobs the paper discusses as design alternatives.

use serde::{Deserialize, Serialize};

/// The k-anonymity specification (§3): the parameter k, plus the ε safety
/// margin of §6 used to absorb the (bounded) interference of watermarking
/// with bin sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KAnonymitySpec {
    /// Every bin must contain at least `k` records.
    pub k: usize,
    /// Safety margin: binning actually targets `k + epsilon` so that the
    /// small permutations introduced by watermarking cannot push a bin below
    /// `k`. The paper's conservative rule is ε = (s/S)·|wmd| where `s` is the
    /// largest bin size, `S` the sum of bin sizes and `|wmd|` the number of
    /// embedded bits.
    pub epsilon: usize,
}

impl KAnonymitySpec {
    /// A specification with no safety margin.
    pub fn new(k: usize) -> Self {
        KAnonymitySpec { k, epsilon: 0 }
    }

    /// A specification with an explicit ε margin.
    pub fn with_epsilon(k: usize, epsilon: usize) -> Self {
        KAnonymitySpec { k, epsilon }
    }

    /// The k value binning actually enforces (`k + ε`).
    pub fn effective_k(&self) -> usize {
        self.k + self.epsilon
    }

    /// The paper's conservative ε rule (§6): `ε = (s / S) · |wmd|`, rounded
    /// up, where `s` is the largest bin size, `S` the sum of all bin sizes and
    /// `wmd_len` the total number of embedded bits.
    pub fn conservative_epsilon(largest_bin: usize, total_records: usize, wmd_len: usize) -> usize {
        if total_records == 0 {
            return 0;
        }
        ((largest_bin as f64 / total_records as f64) * wmd_len as f64).ceil() as usize
    }
}

/// How mono-attribute binning decides that a node is a *minimal*
/// generalization node (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MinimalNodeStrategy {
    /// The paper's simple rationale: a node is minimal if it satisfies
    /// k-anonymity but **not all** of its children do. May over-generalize.
    #[default]
    Conservative,
    /// The "more aggressive strategy" sketched in §4.2.1: children that hold
    /// no records at all are treated as (vacuously) satisfying k-anonymity,
    /// so the presence of empty sibling leaves does not force the parent to
    /// stay whole. Descends further, losing less information.
    Aggressive,
}

/// How multi-attribute binning scores candidate generalizations when choosing
/// the ultimate generalization (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// The paper's preferred estimate: specificity loss `(N − Ng)/N` per
    /// tree, summed over columns. Cheap but approximate.
    #[default]
    SpecificityLoss,
    /// Full information loss via Eq. (1)–(3). More accurate, more expensive;
    /// the paper notes it "may incur unacceptable computation penalty".
    FullInfoLoss,
}

/// Complete configuration of the binning agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinningConfig {
    /// The k-anonymity specification.
    pub spec: KAnonymitySpec,
    /// Minimal-node strategy for mono-attribute binning.
    pub minimal_strategy: MinimalNodeStrategy,
    /// Scoring strategy for multi-attribute binning.
    pub selection_strategy: SelectionStrategy,
    /// Upper bound on the number of per-column allowable generalizations that
    /// multi-attribute binning will enumerate exhaustively. When the
    /// cross-column product exceeds this limit, the agent falls back to the
    /// greedy coarsening search (a scalability substitution documented in
    /// the "Substitutions" section of `docs/ARCHITECTURE.md` — the paper
    /// enumerates exhaustively on its 20k-tuple set).
    pub exhaustive_limit: usize,
    /// Worker threads for the exhaustive multi-attribute binning search: its
    /// candidate space is sharded over this many scoped threads (the greedy
    /// fallback always runs on the calling thread). `1` is the strictly
    /// sequential search; every thread count produces an identical outcome. `0` is rejected
    /// ([`crate::BinningError::InvalidThreads`]).
    pub threads: usize,
    /// Secret used to derive the AES-128 key that encrypts the identifying
    /// columns (the `E()` of Fig. 8).
    pub encryption_secret: Vec<u8>,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig {
            spec: KAnonymitySpec::new(10),
            minimal_strategy: MinimalNodeStrategy::default(),
            selection_strategy: SelectionStrategy::default(),
            exhaustive_limit: 4_096,
            threads: 1,
            encryption_secret: b"medshield-default-binning-secret".to_vec(),
        }
    }
}

impl BinningConfig {
    /// A configuration with the given k and defaults for everything else.
    pub fn with_k(k: usize) -> Self {
        BinningConfig { spec: KAnonymitySpec::new(k), ..Default::default() }
    }

    /// The same configuration with the search sharded over `threads` worker
    /// threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_k_adds_epsilon() {
        assert_eq!(KAnonymitySpec::new(10).effective_k(), 10);
        assert_eq!(KAnonymitySpec::with_epsilon(10, 3).effective_k(), 13);
    }

    #[test]
    fn conservative_epsilon_rule() {
        // s=200, S=20000, |wmd|=100 → 1.0 → ceil 1
        assert_eq!(KAnonymitySpec::conservative_epsilon(200, 20_000, 100), 1);
        // s=2000, S=20000, |wmd|=100 → 10
        assert_eq!(KAnonymitySpec::conservative_epsilon(2_000, 20_000, 100), 10);
        // Fractional result rounds up.
        assert_eq!(KAnonymitySpec::conservative_epsilon(1, 3, 1), 1);
        // Degenerate inputs.
        assert_eq!(KAnonymitySpec::conservative_epsilon(5, 0, 100), 0);
    }

    #[test]
    fn defaults_are_sane() {
        let c = BinningConfig::default();
        assert_eq!(c.spec.k, 10);
        assert_eq!(c.minimal_strategy, MinimalNodeStrategy::Conservative);
        assert_eq!(c.selection_strategy, SelectionStrategy::SpecificityLoss);
        assert!(c.exhaustive_limit > 0);
        assert_eq!(c.threads, 1);
        let c5 = BinningConfig::with_k(5);
        assert_eq!(c5.spec.k, 5);
        assert_eq!(BinningConfig::with_k(5).threads(8).threads, 8);
    }
}
