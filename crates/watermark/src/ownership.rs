//! The rightful-ownership protocol of §5.4.
//!
//! Robustness of the embedding is not enough to establish ownership: an
//! attacker can add his own mark to the watermarked data (attack 1) or
//! "subtract" a bogus mark to fabricate a bogus original (attack 2). The
//! multimedia literature's answer is to derive the mark from the original
//! data through a one-way function, `wm = F(D_o)`, and to require the
//! original in court. The paper's insight is that the binned table already
//! carries an encrypted copy of the identifying columns, so the owner does
//! not need to present the whole original table: the mark is `F(v)` for a
//! statistic `v` (e.g. the mean) of the *clear-text* identifying column, and
//! in a dispute the court decrypts the identifiers of the contested table,
//! recomputes the statistic `v'`, checks `|v − v'| < τ`, and finally compares
//! the extracted mark against `F(v)`.

use crate::key::Mark;
use medshield_metrics::mark_loss;
use medshield_relation::{Table, Value};
use serde::{Deserialize, Serialize};

/// The owner's side of the protocol: the statistic of the clear-text
/// identifying column and the mark derived from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnershipProof {
    /// The statistic `v` (mean of the numeric projection of the identifying
    /// values).
    pub statistic: f64,
    /// Length of the owner's mark in bits.
    pub mark_len: usize,
}

impl OwnershipProof {
    /// Compute the proof from the *original* (pre-binning) table: the mean of
    /// the numeric projections of the identifying column values.
    pub fn from_original_table(table: &Table, mark_len: usize) -> Option<OwnershipProof> {
        let first = *table.schema().identifying_indices().first()?;
        let column = table.column(first)?;
        let values: Vec<f64> = (0..column.len())
            .map(|row| numeric_projection(&column.value(row).canonical_bytes()))
            .collect();
        if values.is_empty() {
            return None;
        }
        let statistic = values.iter().sum::<f64>() / values.len() as f64;
        Some(OwnershipProof { statistic, mark_len })
    }

    /// The owner's mark, `wm = F(v)`: the statistic is quantized and pushed
    /// through a one-way function (SHA-256 based bit expansion).
    pub fn mark(&self) -> Mark {
        mark_from_statistic(self.statistic, self.mark_len)
    }
}

/// The court's verdict in an ownership dispute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnershipVerdict {
    /// The statistic the claimant presented.
    pub claimed_statistic: f64,
    /// The statistic recomputed from the decrypted identifiers of the table
    /// in dispute.
    pub recomputed_statistic: f64,
    /// Whether `|v − v'| < τ`.
    pub statistic_consistent: bool,
    /// Fraction of mark bits that differ between `F(v)` and the mark
    /// extracted from the disputed table.
    pub mark_loss: f64,
    /// The overall decision: statistic consistent **and** the extracted mark
    /// matches `F(v)` up to `max_mark_loss`.
    pub accepted: bool,
}

/// Resolve an ownership dispute.
///
/// * `claim` — the claimant's statistic and mark length.
/// * `disputed` — the table in dispute (binned + watermarked, possibly
///   attacked).
/// * `identifier_column` — the (encrypted) identifying column of `disputed`.
/// * `decrypt` — the claimant's decryption of an encrypted identifier; only
///   the rightful owner can supply this (it requires the binning key).
///   Returning `None` marks the value as undecryptable.
/// * `tau` — the tolerance `τ` on the statistic.
/// * `extracted_mark` — the mark the detector extracted from `disputed`.
/// * `max_mark_loss` — how many of the mark bits may disagree (fraction).
pub fn resolve_dispute(
    claim: &OwnershipProof,
    disputed: &Table,
    identifier_column: &str,
    decrypt: impl Fn(&str) -> Option<Vec<u8>>,
    tau: f64,
    extracted_mark: &[bool],
    max_mark_loss: f64,
) -> OwnershipVerdict {
    let recomputed = recompute_statistic(disputed, identifier_column, &decrypt);
    let statistic_consistent = (claim.statistic - recomputed).abs() < tau;
    let expected = claim.mark();
    let loss = mark_loss(expected.bits(), extracted_mark);
    OwnershipVerdict {
        claimed_statistic: claim.statistic,
        recomputed_statistic: recomputed,
        statistic_consistent,
        mark_loss: loss,
        accepted: statistic_consistent && loss <= max_mark_loss,
    }
}

/// Recompute the statistic over the decrypted identifying column of a table
/// in dispute. Undecryptable or missing values are skipped (the paper
/// anticipates deleted/added tuples, which is why a statistic is used instead
/// of the exact clear-text).
pub fn recompute_statistic(
    table: &Table,
    identifier_column: &str,
    decrypt: &impl Fn(&str) -> Option<Vec<u8>>,
) -> f64 {
    let mut values = Vec::new();
    let Ok(column) = table.column_values(identifier_column) else {
        return f64::NAN;
    };
    for v in column {
        let Value::Text(cipher) = v else { continue };
        if let Some(clear) = decrypt(&cipher) {
            values.push(numeric_projection(&clear));
        }
    }
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `F(v)`: derive a mark from the quantized statistic through a one-way
/// function.
pub fn mark_from_statistic(statistic: f64, mark_len: usize) -> Mark {
    // Quantize to a fixed precision so that the owner's v and the court's
    // F(v) computation agree bit-for-bit.
    let quantized = format!("{statistic:.6}");
    Mark::from_bytes(quantized.as_bytes(), mark_len)
}

/// Numeric projection of an identifier's bytes: the decimal digits found in
/// the value, interpreted as an integer (e.g. SSN `123-45-6789` →
/// `123456789`). Values without digits fall back to a byte sum so that every
/// identifier contributes.
pub fn numeric_projection(bytes: &[u8]) -> f64 {
    let mut digits: u64 = 0;
    let mut count = 0u32;
    for &b in bytes {
        if b.is_ascii_digit() && count < 12 {
            digits = digits * 10 + u64::from(b - b'0');
            count += 1;
        }
    }
    if count > 0 {
        digits as f64
    } else {
        bytes.iter().map(|&b| b as f64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::{ColumnDef, ColumnRole, Schema};

    fn original_table(n: usize) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert(vec![
                Value::text(format!("{:03}-{:02}-{:04}", i % 1000, i % 100, i % 10_000)),
                Value::int((i % 90) as i64),
            ])
            .unwrap();
        }
        t
    }

    /// `table` with its identifying column encrypted, as binning publishes it.
    fn encrypt_ssn(table: &Table, cipher: &medshield_crypto::Aes128) -> Table {
        table
            .map_distinct::<medshield_relation::RelationError>(&[0], |_, v| {
                Ok(Value::Text(cipher.encrypt_value(&v.canonical_bytes())))
            })
            .unwrap()
    }

    #[test]
    fn numeric_projection_reads_digits() {
        assert_eq!(numeric_projection(b"123-45-6789"), 123_456_789.0);
        assert_eq!(numeric_projection(b"007"), 7.0);
        // Truncates to 12 digits.
        assert_eq!(numeric_projection(b"12345678901234567890"), 123_456_789_012.0);
        // No digits → byte sum fallback.
        assert_eq!(numeric_projection(b"ab"), (b'a' as f64) + (b'b' as f64));
    }

    #[test]
    fn proof_is_deterministic_and_mark_depends_on_statistic() {
        let t = original_table(500);
        let p1 = OwnershipProof::from_original_table(&t, 20).unwrap();
        let p2 = OwnershipProof::from_original_table(&t, 20).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.mark(), p2.mark());
        let other = OwnershipProof { statistic: p1.statistic + 1.0, mark_len: 20 };
        assert_ne!(p1.mark(), other.mark());
        // Empty table has no proof.
        let empty = Table::new(t.schema().clone());
        assert!(OwnershipProof::from_original_table(&empty, 20).is_none());
    }

    #[test]
    fn dispute_accepts_the_rightful_owner() {
        use medshield_crypto::Aes128;
        let original = original_table(400);
        let cipher = Aes128::from_secret(b"owner-binning-secret");
        // Build the "binned" table: encrypted identifiers.
        let disputed = encrypt_ssn(&original, &cipher);
        let claim = OwnershipProof::from_original_table(&original, 20).unwrap();
        let extracted = claim.mark();
        let verdict = resolve_dispute(
            &claim,
            &disputed,
            "ssn",
            |c| cipher.decrypt_value(c).ok(),
            1.0,
            extracted.bits(),
            0.2,
        );
        assert!(verdict.statistic_consistent, "{verdict:?}");
        assert_eq!(verdict.mark_loss, 0.0);
        assert!(verdict.accepted);
    }

    #[test]
    fn dispute_survives_moderate_tuple_deletion() {
        use medshield_crypto::Aes128;
        let original = original_table(1000);
        let cipher = Aes128::from_secret(b"owner-binning-secret");
        let mut disputed = encrypt_ssn(&original, &cipher);
        // The attacker deletes 20% of the tuples, spread across the table.
        let keep: Vec<bool> = (0..disputed.len()).map(|row| row % 5 != 0).collect();
        disputed.retain_rows(&keep);

        let claim = OwnershipProof::from_original_table(&original, 20).unwrap();
        let verdict = resolve_dispute(
            &claim,
            &disputed,
            "ssn",
            |c| cipher.decrypt_value(c).ok(),
            // τ tolerant of the sampling shift caused by deletions.
            claim.statistic * 0.2,
            claim.mark().bits(),
            0.2,
        );
        assert!(verdict.statistic_consistent, "{verdict:?}");
        assert!(verdict.accepted);
    }

    #[test]
    fn dispute_rejects_an_attacker_without_the_decryption_key() {
        use medshield_crypto::Aes128;
        let original = original_table(300);
        let cipher = Aes128::from_secret(b"owner-binning-secret");
        let disputed = encrypt_ssn(&original, &cipher);
        // The attacker claims ownership with his own (different) statistic and
        // cannot decrypt the identifiers, so the recomputation fails.
        let attacker_claim = OwnershipProof { statistic: 42.0, mark_len: 20 };
        let wrong_cipher = Aes128::from_secret(b"attacker-guess");
        let verdict = resolve_dispute(
            &attacker_claim,
            &disputed,
            "ssn",
            |c| wrong_cipher.decrypt_value(c).ok(),
            1.0,
            attacker_claim.mark().bits(),
            0.2,
        );
        assert!(!verdict.accepted, "{verdict:?}");
    }

    #[test]
    fn dispute_rejects_a_wrong_mark_even_with_a_consistent_statistic() {
        use medshield_crypto::Aes128;
        let original = original_table(300);
        let cipher = Aes128::from_secret(b"owner-binning-secret");
        let disputed = encrypt_ssn(&original, &cipher);
        let claim = OwnershipProof::from_original_table(&original, 20).unwrap();
        // The extracted mark is garbage (e.g. the mark was destroyed or was
        // never this owner's): flip every bit of F(v).
        let flipped: Vec<bool> = claim.mark().bits().iter().map(|b| !b).collect();
        let verdict = resolve_dispute(
            &claim,
            &disputed,
            "ssn",
            |c| cipher.decrypt_value(c).ok(),
            1.0,
            &flipped,
            0.2,
        );
        assert!(verdict.statistic_consistent);
        assert!(!verdict.accepted);
        assert!(verdict.mark_loss > 0.5);
    }

    #[test]
    fn recompute_handles_missing_column_and_empty_table() {
        let t = original_table(5);
        let stat = recompute_statistic(&t, "missing", &|_c: &str| None);
        assert!(stat.is_nan());
        let stat = recompute_statistic(&t, "ssn", &|_c: &str| None);
        // ssn values are clear text (not encrypted hex) and decrypt returns
        // None → no values → NaN.
        assert!(stat.is_nan());
    }
}
