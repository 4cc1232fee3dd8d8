//! The identity of a tuple and keyed tuple selection (Eq. 5 of the paper).
//!
//! Watermarking alters only a keyed fraction of the tuples: tuple `ti` is
//! selected when `H(ti.ident, k1) mod η == 0`. The identity bytes come from
//! the (encrypted) identifying columns, which binning leaves intact and the
//! watermark never writes. A table without an identifying column cannot be
//! watermarked or searched for a mark ([`WatermarkError::NoIdentity`]); the
//! paper's fallback of a virtual primary key over other columns (footnote 1)
//! is not offered.

use crate::error::WatermarkError;
use crate::key::WatermarkKey;
use medshield_crypto::KeyedPrf;
use medshield_relation::Schema;

/// The schema indices of the identifying columns, whose values form a
/// tuple's identity: each field's canonical bytes prefixed by its 64-bit
/// big-endian length, in schema order. The framing keeps the concatenation
/// injective regardless of the field encoding — two distinct tuples cannot
/// collide to one identity by shifting bytes across a field boundary (e.g.
/// `("ab", "c")` vs `("a", "bc")`).
pub(crate) fn identity_columns(schema: &Schema) -> Result<Vec<usize>, WatermarkError> {
    let indices = schema.identifying_indices();
    if indices.is_empty() {
        return Err(WatermarkError::NoIdentity);
    }
    Ok(indices)
}

/// The identity bytes of the tuple at `row` of `table`, field by field as
/// [`identity_columns`] describes. The plain reference encoding; the
/// watermark kernels assemble the same bytes from precomputed
/// per-dictionary-entry encodings.
#[cfg(test)]
pub(crate) fn identity_bytes(
    table: &medshield_relation::Table,
    columns: &[usize],
    row: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    for &i in columns {
        let field = table.columns()[i].value(row).canonical_bytes();
        out.extend_from_slice(&(field.len() as u64).to_be_bytes());
        out.extend_from_slice(&field);
    }
    out
}

/// The selection predicate of Eq. (5) plus the derived indices used by the
/// embedding primitive, bundled so every call site reduces hashes the same
/// way.
#[derive(Debug, Clone)]
pub struct Selector {
    selection: KeyedPrf,
    permutation: KeyedPrf,
    eta: u64,
}

impl Selector {
    /// Build a selector from the watermarking key.
    pub fn new(key: &WatermarkKey) -> Result<Self, WatermarkError> {
        if key.eta == 0 {
            return Err(WatermarkError::InvalidEta);
        }
        Ok(Selector {
            selection: key.selection_prf(),
            permutation: key.permutation_prf(),
            eta: key.eta,
        })
    }

    /// Eq. (5): is this tuple watermarked? The per-row reference the
    /// batched kernels ([`Selector::selects_wide`]) are tested against.
    #[cfg(test)]
    pub(crate) fn selects(&self, ident: &[u8]) -> bool {
        self.selects_wide(self.selection.prefixed_value_wide(&[], ident))
    }

    /// Eq. (5) on the selection PRF's wide value of an identity, its
    /// [`KeyedPrf::prefixed_value_wide`] with an empty prefix. Batch
    /// kernels compute the wide values four at a time.
    pub(crate) fn selects_wide(&self, wide: u128) -> bool {
        // `Selector::new` rejects η = 0, and every wide value is 0 mod 1.
        KeyedPrf::reduce_wide(wide, self.eta) == 0
    }

    /// The selection PRF of Eq. (5), for batch kernels (see
    /// [`Selector::selects_wide`]).
    pub(crate) fn selection_prf(&self) -> &KeyedPrf {
        &self.selection
    }

    /// The permutation/bit-index PRF (`k2`). The kernels derive the mark-bit
    /// index `H(ident, k2) mod |wmd|` and the permutation index
    /// `H(ident, k2) mod |S|` from it, domain-separated per column by the
    /// label prefixes `bit:<column>` and `perm:<column>`
    /// ([`KeyedPrf::label_prefix`] hoisted out of the row loop, then
    /// [`KeyedPrf::prefixed_value_wide`] + [`KeyedPrf::reduce_wide`]).
    pub(crate) fn permutation_prf(&self) -> &KeyedPrf {
        &self.permutation
    }
}

/// `SetµBit`: force the least significant bit of a permutation index to the
/// mark bit, keeping the index within `set_len`. With a singleton set the bit
/// cannot be represented and index 0 is returned.
pub fn set_parity(index: usize, bit: bool, set_len: usize) -> usize {
    if set_len <= 1 {
        return 0;
    }
    let wanted = usize::from(bit);
    let candidate = (index & !1usize) | wanted;
    if candidate < set_len {
        return candidate;
    }
    // Fall back to the highest index with the right parity.
    let top = set_len - 1;
    if top % 2 == wanted {
        top
    } else {
        top - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Table, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..50 {
            t.insert(vec![
                Value::text(format!("ssn-{i}")),
                Value::int(30 + i),
                Value::text("Surgeon"),
            ])
            .unwrap();
        }
        t
    }

    /// Length-prefix one field the way [`identity_bytes`] does.
    fn framed(value: &Value) -> Vec<u8> {
        let field = value.canonical_bytes();
        let mut out = (field.len() as u64).to_be_bytes().to_vec();
        out.extend_from_slice(&field);
        out
    }

    #[test]
    fn identity_from_identifying_columns() {
        let t = table();
        let columns = identity_columns(t.schema()).unwrap();
        assert_eq!(identity_bytes(&t, &columns, 0), framed(&Value::text("ssn-0")));
    }

    #[test]
    fn identity_bytes_are_injective_under_adversarial_values() {
        // Adversarial pairs designed to collide if fields were concatenated
        // without framing: content shifted across the field boundary, empty
        // vs. missing content, and text that mimics another variant's bytes.
        let schema = Schema::new(vec![
            ColumnDef::new("a", ColumnRole::Identifying),
            ColumnDef::new("b", ColumnRole::Identifying),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let rows: Vec<(Value, Value)> = vec![
            (Value::text("ab"), Value::text("c")),
            (Value::text("a"), Value::text("bc")),
            (Value::text("abc"), Value::text("")),
            (Value::text(""), Value::text("abc")),
            (Value::Null, Value::text("abc")),
            (Value::int(0x6162), Value::text("c")),
            (Value::interval(0, 1), Value::Null),
            (Value::Null, Value::interval(0, 1)),
        ];
        for (a, b) in rows {
            t.insert(vec![a, b]).unwrap();
        }
        let columns = identity_columns(t.schema()).unwrap();
        let identities: Vec<Vec<u8>> =
            (0..t.len()).map(|row| identity_bytes(&t, &columns, row)).collect();
        for i in 0..identities.len() {
            for j in (i + 1)..identities.len() {
                assert_ne!(
                    identities[i], identities[j],
                    "tuples {i} and {j} collided to one identity"
                );
            }
        }
    }

    #[test]
    fn resolved_identity_matches_table_path() {
        // Two identifying columns around a quasi column: the identity takes
        // both, in schema order, and skips the quasi column between them.
        let schema = Schema::new(vec![
            ColumnDef::new("mrn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("ssn", ColumnRole::Identifying),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..20 {
            t.insert(vec![Value::int(i), Value::int(30 + i), Value::text(format!("ssn-{i}"))])
                .unwrap();
        }
        let columns = identity_columns(t.schema()).unwrap();
        assert_eq!(columns, [0, 2]);
        for row in 0..t.len() {
            let mut expected = framed(t.value_at(row, 0).unwrap());
            expected.extend_from_slice(&framed(t.value_at(row, 2).unwrap()));
            assert_eq!(identity_bytes(&t, &columns, row), expected);
        }
    }

    #[test]
    fn identity_requires_identifying_columns_when_default() {
        let schema = Schema::new(vec![ColumnDef::new("x", ColumnRole::NonIdentifying)]).unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::int(1)]).unwrap();
        assert!(matches!(identity_columns(t.schema()), Err(WatermarkError::NoIdentity)));
    }

    #[test]
    fn selector_rejects_zero_eta() {
        let key = WatermarkKey::new(b"k1".to_vec(), b"k2".to_vec(), 0);
        assert!(matches!(Selector::new(&key), Err(WatermarkError::InvalidEta)));
    }

    #[test]
    fn selection_rate_tracks_eta() {
        let key = WatermarkKey::from_master(b"secret", 10);
        let sel = Selector::new(&key).unwrap();
        let n = 10_000;
        let picked = (0..n).filter(|i| sel.selects(format!("ident-{i}").as_bytes())).count();
        let expected = n as f64 / 10.0;
        assert!(
            (picked as f64 - expected).abs() < expected * 0.3,
            "picked {picked}, expected ≈ {expected}"
        );
    }

    #[test]
    fn eta_one_selects_everything() {
        let key = WatermarkKey::from_master(b"secret", 1);
        let sel = Selector::new(&key).unwrap();
        assert!((0..100).all(|i| sel.selects(format!("id-{i}").as_bytes())));
    }

    #[test]
    fn column_separation_of_indices() {
        // The kernels' per-column label prefixes must decorrelate the bit
        // indices two columns derive for the same tuple.
        let key = WatermarkKey::from_master(b"secret", 5);
        let prf = Selector::new(&key).unwrap().permutation_prf().clone();
        let bit_index = |ident: &[u8], column: &str| {
            let prefix = KeyedPrf::label_prefix(&format!("bit:{column}"));
            KeyedPrf::reduce_wide(prf.prefixed_value_wide(&prefix, ident), 1000)
        };
        let differing = (0..100u32)
            .filter(|i| bit_index(&i.to_be_bytes(), "age") != bit_index(&i.to_be_bytes(), "doctor"))
            .count();
        assert!(differing > 50, "column labels should decorrelate bit indices");
    }

    #[test]
    fn set_parity_behaviour() {
        // Even request.
        assert_eq!(set_parity(5, false, 8), 4);
        // Odd request.
        assert_eq!(set_parity(4, true, 8), 5);
        // Parity preserved when already correct.
        assert_eq!(set_parity(6, false, 8), 6);
        // Clamped to range: index 7 requested odd in a set of 7 (max 6).
        assert_eq!(set_parity(7, true, 7), 5);
        assert_eq!(set_parity(7, false, 7), 6);
        // Singleton set cannot encode.
        assert_eq!(set_parity(3, true, 1), 0);
        assert_eq!(set_parity(0, false, 1), 0);
        // Result always in range and with requested parity when set_len > 1.
        for len in 2..10usize {
            for idx in 0..len {
                for bit in [false, true] {
                    let r = set_parity(idx, bit, len);
                    assert!(r < len);
                    assert_eq!(r % 2 == 1, bit);
                }
            }
        }
    }
}
