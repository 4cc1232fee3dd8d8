//! A compact, versioned binary codec for the release state a data owner
//! must retain durably: per-column binning sets, the mark, the ownership
//! proof.
//!
//! The workspace builds hermetically (the `serde` dependency is a no-op
//! shim), so persistence cannot lean on derived serialization. This module
//! provides the hand-rolled alternative: little-endian fixed-width
//! primitives, `u32`-length-prefixed byte strings, and explicit
//! `write_*`/`read_*` pairs for the three protection-state types. Every
//! reader is **total** — malformed or truncated input yields a
//! [`CodecError`], never a panic — because the write-ahead log of the
//! serving layer replays these bytes after a crash.
//!
//! The serving layer's log and snapshot files frame each encoded record
//! with a length prefix and a [`crc32`] checksum so a torn tail can be
//! detected and truncated on recovery.

use medshield_binning::ColumnBinning;
use medshield_dht::{GeneralizationSet, NodeId};
use medshield_watermark::{Mark, OwnershipProof};

/// Why a byte buffer could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value it announced.
    Truncated,
    /// The bytes are structurally invalid (bad tag, impossible length,
    /// non-UTF-8 string).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ends before the announced value"),
            CodecError::Invalid(m) => write!(f, "invalid encoding: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte buffer the `write_*` functions encode into.
///
/// Length conversions are checked with a *sticky overflow* design: a
/// count that does not fit its wire width poisons the writer instead of
/// truncating silently, and [`Writer::into_bytes`] reports it once at
/// the end — callers keep the simple infallible `write_*` call style.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    overflow: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer that encodes into `buf`'s allocation (its contents
    /// are cleared), so a loop encoding many values reuses one buffer.
    pub fn reusing(mut buf: Vec<u8>) -> Writer {
        buf.clear();
        Writer { buf, overflow: false }
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads and infinities).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a count/length as a little-endian `u32`; a value above
    /// `u32::MAX` poisons the writer.
    pub fn count_u32(&mut self, v: usize) {
        match u32::try_from(v) {
            Ok(n) => self.u32(n),
            Err(_) => self.overflow = true,
        }
    }

    /// Append a count/length as a little-endian `u64`; lossless for any
    /// `usize` this codebase can run on, but checked all the same.
    pub fn count_u64(&mut self, v: usize) {
        match u64::try_from(v) {
            Ok(n) => self.u64(n),
            Err(_) => self.overflow = true,
        }
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.count_u32(v.len());
        if !self.overflow {
            self.buf.extend_from_slice(v);
        }
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// The encoded bytes — or [`CodecError::Invalid`] if any length
    /// overflowed its wire width along the way.
    pub fn into_bytes(self) -> Result<Vec<u8>, CodecError> {
        if self.overflow {
            return Err(CodecError::Invalid("a length overflowed its wire width".into()));
        }
        Ok(self.buf)
    }
}

/// A cursor over a byte buffer the `read_*` functions decode from.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.buf.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.take(1)?.first().copied().ok_or(CodecError::Truncated)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let bytes = self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = usize::try_from(self.u32()?).map_err(|_| CodecError::Truncated)?;
        self.take(len)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| CodecError::Invalid("string is not UTF-8".into()))
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Error unless every byte was consumed — a record with trailing bytes
    /// was not produced by this codec.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid(format!("{} trailing bytes after the value", self.remaining())))
        }
    }
}

/// The IEEE 802.3 CRC-32 polynomial, bit-reflected.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// One step of the bit-at-a-time CRC register: shift out one bit.
const fn crc32_bit_step(crc: u32) -> u32 {
    (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg())
}

/// Slice-by-8 table `k`: entry `b` is the register after feeding byte `b`
/// into a zero register and then `k` zero bytes, i.e. `8 * (k + 1)` bit
/// steps from `b`. Table 0 is the classic byte-at-a-time table.
const fn crc32_table(k: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut rest: &mut [u32] = &mut table;
    let mut byte = 0u32;
    while let Some((entry, tail)) = rest.split_first_mut() {
        let mut crc = byte;
        let mut step = 0;
        while step < 8 * (k + 1) {
            crc = crc32_bit_step(crc);
            step += 1;
        }
        *entry = crc;
        rest = tail;
        byte += 1;
    }
    table
}

/// The eight slice-by-8 tables, built at compile time.
const CRC32_TABLES: [[u32; 256]; 8] = [
    crc32_table(0),
    crc32_table(1),
    crc32_table(2),
    crc32_table(3),
    crc32_table(4),
    crc32_table(5),
    crc32_table(6),
    crc32_table(7),
];

/// `table[byte]`; a `u8` always indexes a 256-entry table, so the bounds
/// check folds away.
#[inline(always)]
fn crc32_lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`. Used by the durable
/// release store to checksum every log and snapshot record, so recovery
/// reads every stored byte through it.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// A streaming CRC-32: `Crc32::new().update(a).update(b).finish()` equals
/// [`crc32`] of `a ++ b`, without concatenating the parts. The store
/// checksums a WAL frame as its log generation followed by its payload.
///
/// Slice-by-8: each 8-byte block takes eight table lookups instead of 64
/// shift steps; the tail of fewer than eight bytes goes byte by byte.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    register: u32,
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes so far.
    pub fn new() -> Crc32 {
        Crc32 { register: 0xFFFF_FFFF }
    }

    /// Feed `data` after every byte fed so far.
    pub fn update(mut self, data: &[u8]) -> Crc32 {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
        let mut crc = self.register;
        let mut blocks = data.chunks_exact(8);
        for block in &mut blocks {
            let Ok([b0, b1, b2, b3, b4, b5, b6, b7]) = <[u8; 8]>::try_from(block) else {
                continue;
            };
            let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            crc = crc32_lookup(t7, x0)
                ^ crc32_lookup(t6, x1)
                ^ crc32_lookup(t5, x2)
                ^ crc32_lookup(t4, x3)
                ^ crc32_lookup(t3, b4)
                ^ crc32_lookup(t2, b5)
                ^ crc32_lookup(t1, b6)
                ^ crc32_lookup(t0, b7);
        }
        for &byte in blocks.remainder() {
            let [low, ..] = (crc ^ u32::from(byte)).to_le_bytes();
            crc = (crc >> 8) ^ crc32_lookup(t0, low);
        }
        self.register = crc;
        self
    }

    /// The CRC-32 of every byte fed.
    pub fn finish(self) -> u32 {
        !self.register
    }
}

/// Encode a [`Mark`] (bit count + packed bits).
pub fn write_mark(w: &mut Writer, mark: &Mark) {
    w.count_u64(mark.len());
    w.bytes(&mark.to_packed_bits());
}

/// Decode a [`Mark`] written by [`write_mark`].
pub fn read_mark(r: &mut Reader<'_>) -> Result<Mark, CodecError> {
    let len = usize::try_from(r.u64()?)
        .map_err(|_| CodecError::Invalid("mark length exceeds usize".into()))?;
    let packed = r.bytes()?;
    Mark::from_packed_bits(len, packed).ok_or_else(|| {
        CodecError::Invalid(format!("{} packed bytes cannot hold {len} bits", packed.len()))
    })
}

/// Encode an [`OwnershipProof`].
pub fn write_ownership_proof(w: &mut Writer, proof: &OwnershipProof) {
    w.f64(proof.statistic);
    w.count_u64(proof.mark_len);
}

/// Decode an [`OwnershipProof`] written by [`write_ownership_proof`].
pub fn read_ownership_proof(r: &mut Reader<'_>) -> Result<OwnershipProof, CodecError> {
    let statistic = r.f64()?;
    let mark_len = usize::try_from(r.u64()?)
        .map_err(|_| CodecError::Invalid("mark length exceeds usize".into()))?;
    Ok(OwnershipProof { statistic, mark_len })
}

fn write_generalization_set(w: &mut Writer, set: &GeneralizationSet) {
    w.count_u32(set.nodes().len());
    for node in set.nodes() {
        w.u32(node.0);
    }
}

/// Decode a node list written by [`write_generalization_set`] into
/// `scratch` (cleared first) and return it.
fn read_node_list<'s>(
    r: &mut Reader<'_>,
    scratch: &'s mut Vec<NodeId>,
) -> Result<&'s [NodeId], CodecError> {
    let count = usize::try_from(r.u32()?).map_err(|_| CodecError::Truncated)?;
    // Cap the reservation by what the buffer can actually hold (4 bytes per
    // node) so a corrupt count cannot balloon memory.
    if count.saturating_mul(4) > r.remaining() {
        return Err(CodecError::Truncated);
    }
    scratch.clear();
    scratch.reserve(count);
    for _ in 0..count {
        scratch.push(NodeId(r.u32()?));
    }
    Ok(scratch)
}

/// Encode a [`ColumnBinning`] (column name + maximal/minimal/ultimate node
/// sets).
pub fn write_column_binning(w: &mut Writer, column: &ColumnBinning) {
    w.str(&column.column);
    write_generalization_set(w, &column.maximal);
    write_generalization_set(w, &column.minimal);
    write_generalization_set(w, &column.ultimate);
}

/// Decode a [`ColumnBinning`] written by [`write_column_binning`].
///
/// Node lists are decoded through `scratch`, which a caller decoding many
/// records reuses, so each set costs one allocation: its shared node
/// storage. An `ultimate` set equal to `minimal` (per-attribute binning
/// stores it that way) shares `minimal`'s storage instead of taking its own.
///
/// Node sets come back through
/// [`GeneralizationSet::from_validated_nodes`], which re-sorts and dedups
/// but does **not** re-check tree validity — the bytes are trusted to have
/// been produced by [`write_column_binning`] over a set that was validated
/// when it was first built (checksums in the store's framing catch
/// corruption before decoding starts).
pub fn read_column_binning(
    r: &mut Reader<'_>,
    scratch: &mut Vec<NodeId>,
) -> Result<ColumnBinning, CodecError> {
    let column = r.str()?.to_string();
    let maximal = GeneralizationSet::from_validated_nodes(read_node_list(r, scratch)?);
    let minimal = GeneralizationSet::from_validated_nodes(read_node_list(r, scratch)?);
    let ultimate = read_node_list(r, scratch)?;
    let ultimate = if ultimate == minimal.nodes() {
        minimal.clone()
    } else {
        GeneralizationSet::from_validated_nodes(ultimate)
    };
    Ok(ColumnBinning { column, maximal, minimal, ultimate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.bytes(b"raw");
        w.str("caf\u{e9}");
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "caf\u{e9}");
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.str("column");
        w.u64(42);
        let bytes = w.into_bytes().unwrap();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let first =
                r.str().map(std::string::ToString::to_string).and_then(|s| r.u64().map(|n| (s, n)));
            assert!(first.is_err(), "cut at {cut} still decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u32(1);
        let mut bytes = w.into_bytes().unwrap();
        bytes.push(0);
        let mut r = Reader::new(&bytes);
        r.u32().unwrap();
        assert!(matches!(r.finish(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The bit-at-a-time CRC-32 the table-driven [`crc32`] must equal.
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = crc32_bit_step(crc);
            }
        }
        !crc
    }

    #[test]
    fn crc32_reference_matches_known_vectors() {
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_reference(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn crc32_matches_the_bitwise_reference_at_every_alignment(
            data in prop::collection::vec(any::<u8>(), 0..=4096),
            filler in any::<u8>(),
        ) {
            // Hash the same bytes from every start offset 0-7 of a larger
            // buffer, so every block alignment meets every tail length.
            let expected = crc32_reference(&data);
            for offset in 0..8 {
                let mut buf = vec![filler; offset];
                buf.extend_from_slice(&data);
                buf.extend_from_slice(&[filler; 8]);
                let got = crc32(&buf[offset..offset + data.len()]);
                prop_assert!(got == expected, "offset {offset}, {} bytes", data.len());
            }
        }

        #[test]
        fn streamed_crc32_equals_the_crc32_of_the_concatenation(
            data in prop::collection::vec(any::<u8>(), 0..=600),
            cuts in prop::collection::vec(0usize..=600, 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                crc = crc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), crc32_reference(&data));
        }
    }

    #[test]
    fn mark_and_proof_round_trip() {
        for len in [0usize, 1, 7, 8, 9, 20, 64, 301] {
            let mark = Mark::from_bytes(b"owner", len);
            let mut w = Writer::new();
            write_mark(&mut w, &mark);
            let bytes = w.into_bytes().unwrap();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_mark(&mut r).unwrap(), mark, "len {len}");
            r.finish().unwrap();
        }
        let proof = OwnershipProof { statistic: 123_456_789.654_321, mark_len: 20 };
        let mut w = Writer::new();
        write_ownership_proof(&mut w, &proof);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(read_ownership_proof(&mut r).unwrap(), proof);
        r.finish().unwrap();
    }

    #[test]
    fn mark_rejects_impossible_packing() {
        let mut w = Writer::new();
        w.u64(64); // claims 64 bits…
        w.bytes(&[0xFF]); // …but supplies one byte
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert!(matches!(read_mark(&mut r), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn column_binning_round_trips_through_real_trees() {
        use medshield_datagen::ontology;
        let trees = ontology::all_trees();
        let tree = trees.values().next().expect("ontology has trees");
        let column = ColumnBinning {
            column: "symptom".to_string(),
            maximal: GeneralizationSet::root_only(tree),
            minimal: GeneralizationSet::all_leaves(tree),
            ultimate: GeneralizationSet::at_depth(tree, 1),
        };
        let mut w = Writer::new();
        write_column_binning(&mut w, &column);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let decoded = read_column_binning(&mut r, &mut Vec::new()).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, column);
    }

    #[test]
    fn an_ultimate_equal_to_minimal_decodes_into_shared_storage() {
        use medshield_datagen::ontology;
        let trees = ontology::all_trees();
        let tree = trees.values().next().expect("ontology has trees");
        let minimal = GeneralizationSet::all_leaves(tree);
        let column = ColumnBinning {
            column: "symptom".to_string(),
            maximal: GeneralizationSet::root_only(tree),
            minimal: minimal.clone(),
            ultimate: minimal,
        };
        let mut w = Writer::new();
        write_column_binning(&mut w, &column);
        write_column_binning(&mut w, &column);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let mut scratch = Vec::new();
        for _ in 0..2 {
            let decoded = read_column_binning(&mut r, &mut scratch).unwrap();
            assert_eq!(decoded, column);
            assert!(decoded.ultimate.nodes().as_ptr() == decoded.minimal.nodes().as_ptr());
            assert!(decoded.maximal.nodes().as_ptr() != decoded.minimal.nodes().as_ptr());
        }
        r.finish().unwrap();
    }
}
