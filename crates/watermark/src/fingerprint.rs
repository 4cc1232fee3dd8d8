//! Per-recipient fingerprints and traitor tracing.
//!
//! The paper embeds one mark per outsourced release, but a data owner who
//! hands the same table to many recipients needs to know *which* recipient
//! leaked. This module refines the release model to **one release, many
//! per-recipient copies**: every copy carries a mark derived from the owner's
//! key and the recipient's identity via the labeled PRF, so
//!
//! * no new key material is stored per recipient — the derivation label *is*
//!   the recipient id, and the owner key alone regenerates every fingerprint;
//! * all copies of a release are detection-equivalent for the owner: the same
//!   selection key, η, and binning state drive detection, so one detect pass
//!   over a leaked table recovers whichever recipient's bits it carries;
//! * the recovered bits are ranked against all registered recipients by
//!   [`score_recipients`], and the top score names the leaker (or, under
//!   collusion, a member of the colluding set — positions where colluders
//!   agree survive averaging/majority mixing, so a colluder still outranks
//!   every innocent recipient in expectation).
//!
//! Embedding a fingerprint is the ordinary columnar batch path: the derived
//! [`Mark`] feeds the same plan/kernel machinery (midstate-cached HMAC, one
//! wide PRF per (tuple, column), per-dictionary-code memoization) as a
//! single-mark release — there is no separate row-at-a-time fingerprint
//! embedder to keep columnar.

use crate::key::{Mark, WatermarkKey};

/// The derivation label prefix for per-recipient fingerprints. Domain
/// separation from the permutation/bit-index labels used by the embedding
/// kernels is what allows the fingerprint to be derived from `k2` without
/// correlating with the embedding positions.
const FINGERPRINT_LABEL: &str = "fingerprint";

/// Derive `recipient`'s `mark_len`-bit fingerprint mark under `key`: the
/// bits of `k2`'s labeled digests of the recipient id and a block counter.
/// Deterministic in (key, recipient, mark_len); distinct recipients get
/// independent bits because the recipient id is the PRF data under a
/// dedicated label. The owner re-derives every fingerprint from the key
/// alone, at issue time and at tracing time.
pub fn derive_recipient_mark(key: &WatermarkKey, recipient: &str, mark_len: usize) -> Mark {
    let prf = key.permutation_prf();
    let mut bits = Vec::with_capacity(mark_len);
    let mut counter = 0u32;
    while bits.len() < mark_len {
        let mut data = recipient.as_bytes().to_vec();
        data.extend_from_slice(&counter.to_be_bytes());
        let digest = prf.labeled_digest(FINGERPRINT_LABEL, &data);
        'bytes: for byte in digest {
            for i in (0..8).rev() {
                if bits.len() == mark_len {
                    break 'bytes;
                }
                bits.push((byte >> i) & 1 == 1);
            }
        }
        counter += 1;
    }
    Mark::from_bits(bits)
}

/// The agreement between one recipient's fingerprint and the bits recovered
/// from a leaked table.
#[derive(Debug, Clone, PartialEq)]
pub struct RecipientScore {
    /// The recipient's identity (the derivation label).
    pub name: String,
    /// Fraction of compared positions where the recovered bit equals the
    /// recipient's fingerprint bit, in `[0, 1]`. An innocent recipient sits
    /// near 0.5 (independent bits); the leaker near 1.0 minus the attack's
    /// bit-flip rate.
    pub score: f64,
    /// Number of positions where the bits agree.
    pub matching_bits: usize,
    /// Number of positions compared (`min` of the two lengths).
    pub compared_bits: usize,
}

/// Rank every candidate recipient of a release against the mark bits
/// recovered from a leaked table, best match first (ties broken by name so
/// the ranking is deterministic). An empty candidate list yields an empty
/// ranking; a zero-length comparison scores 0.
pub fn score_recipients<'a, I>(recovered: &[bool], candidates: I) -> Vec<RecipientScore>
where
    I: IntoIterator<Item = (&'a str, &'a Mark)>,
{
    let mut scores: Vec<RecipientScore> = candidates
        .into_iter()
        .map(|(name, mark)| {
            let compared = recovered.len().min(mark.len());
            let matching = recovered
                .iter()
                .zip(mark.bits())
                .filter(|(recovered_bit, mark_bit)| recovered_bit == mark_bit)
                .count();
            let score = if compared == 0 { 0.0 } else { matching as f64 / compared as f64 };
            RecipientScore {
                name: name.to_string(),
                score,
                matching_bits: matching,
                compared_bits: compared,
            }
        })
        .collect();
    scores.sort_by(|a, b| {
        b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal).then(a.name.cmp(&b.name))
    });
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> WatermarkKey {
        WatermarkKey::from_master(b"owner-secret", 10)
    }

    #[test]
    fn derivation_is_deterministic_and_length_exact() {
        for len in [1usize, 8, 20, 64, 300] {
            let m = derive_recipient_mark(&key(), "clinic-a", len);
            assert_eq!(m.len(), len);
            assert_eq!(m, derive_recipient_mark(&key(), "clinic-a", len));
        }
    }

    #[test]
    fn distinct_recipients_get_distinct_marks() {
        let a = derive_recipient_mark(&key(), "clinic-a", 20);
        let b = derive_recipient_mark(&key(), "clinic-b", 20);
        assert_ne!(a, b);
        // Different owner keys decouple the fingerprints entirely.
        let other = WatermarkKey::from_master(b"other-owner", 10);
        assert_ne!(a, derive_recipient_mark(&other, "clinic-a", 20));
    }

    #[test]
    fn fingerprints_are_independent_of_the_embedding_labels() {
        // The fingerprint must not be predictable from the permutation PRF's
        // unlabeled values (same key, different domain-separation label).
        let k = key();
        let fp = derive_recipient_mark(&k, "clinic-a", 64);
        let raw = Mark::from_bytes(&k.permutation_prf().digest(b"clinic-a"), 64);
        assert_ne!(fp, raw);
    }

    #[test]
    fn scoring_ranks_the_exact_match_first() {
        let marks: Vec<(String, Mark)> = ["clinic-a", "clinic-b", "clinic-c"]
            .iter()
            .map(|n| (n.to_string(), derive_recipient_mark(&key(), n, 20)))
            .collect();
        let leaked = marks[1].1.bits().to_vec();
        let ranking = score_recipients(&leaked, marks.iter().map(|(n, m)| (n.as_str(), m)));
        assert_eq!(ranking.len(), 3);
        assert_eq!(ranking[0].name, "clinic-b");
        assert_eq!(ranking[0].score, 1.0);
        assert_eq!(ranking[0].matching_bits, 20);
        assert_eq!(ranking[0].compared_bits, 20);
        assert!(ranking[1].score < 1.0);
    }

    #[test]
    fn scoring_survives_bit_flips() {
        // Flip 3 of 20 bits (a 15% alteration): the true recipient must still
        // outrank the others.
        let names = ["clinic-a", "clinic-b", "clinic-c", "clinic-d"];
        let marks: Vec<(String, Mark)> =
            names.iter().map(|n| (n.to_string(), derive_recipient_mark(&key(), n, 20))).collect();
        let mut leaked = marks[2].1.bits().to_vec();
        for pos in [1usize, 7, 13] {
            leaked[pos] = !leaked[pos];
        }
        let ranking = score_recipients(&leaked, marks.iter().map(|(n, m)| (n.as_str(), m)));
        assert_eq!(ranking[0].name, "clinic-c");
        assert_eq!(ranking[0].matching_bits, 17);
    }

    #[test]
    fn scoring_is_deterministic_under_ties() {
        let m = Mark::from_bits(vec![true, false]);
        let same = Mark::from_bits(vec![true, false]);
        let ranking = score_recipients(&[true, false], [("zeta", &m), ("alpha", &same)]);
        assert_eq!(ranking[0].name, "alpha");
        assert_eq!(ranking[1].name, "zeta");
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        assert!(score_recipients(&[true], std::iter::empty()).is_empty());
        let m = Mark::from_bits(vec![true]);
        let ranking = score_recipients(&[], [("a", &m)]);
        assert_eq!(ranking[0].score, 0.0);
        assert_eq!(ranking[0].compared_bits, 0);
    }
}
