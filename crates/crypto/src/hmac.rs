//! HMAC-SHA256 (RFC 2104).
//!
//! The paper writes the keyed hash as `H(ti.ident, k1)`; HMAC is the standard
//! construction for turning a Merkle–Damgård hash into such a keyed function
//! without the length-extension weaknesses of naive concatenation.

use crate::sha256::{compress4, Lanes, Sha256};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// HMAC-SHA256 of `message` under `key` (32-byte tag).
///
/// The naive construction: every call rebuilds the padded key blocks. It is
/// the reference [`HmacKey`] is pinned against.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    // Keys longer than the block size are hashed first (RFC 2104 §2).
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let mut h = Sha256::new();
        h.update(key);
        let digest = h.finalize();
        key_block[..digest.len()].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = key_block[i] ^ IPAD;
        opad[i] = key_block[i] ^ OPAD;
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// The ipad/opad midstates: the RFC 2104 key schedule run once, each pad
/// block folded into a fresh hasher's chaining state.
fn primed_midstates(key: &[u8]) -> ([u32; 8], [u32; 8]) {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let mut h = Sha256::new();
        h.update(key);
        let digest = h.finalize();
        key_block[..digest.len()].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = key_block[i] ^ IPAD;
        opad[i] = key_block[i] ^ OPAD;
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    let mut outer = Sha256::new();
    outer.update(&opad);
    (inner.midstate(), outer.midstate())
}

/// The number of 64-byte blocks the inner hash compresses after its pad
/// block for a `len`-byte message: the message, `0x80` and the 8-byte length.
fn padded_blocks(len: usize) -> usize {
    (len + 9).div_ceil(BLOCK_LEN)
}

/// Write block `index` of the padded inner message `prefix ‖ data ‖ 0x80 ‖
/// 0… ‖ bit length` into `out`. The length counts the 64-byte pad block
/// already folded into the midstate.
fn padded_block(prefix: &[u8], data: &[u8], index: usize, out: &mut [u8; BLOCK_LEN]) {
    let start = index * BLOCK_LEN;
    let len = prefix.len() + data.len();
    *out = [0u8; BLOCK_LEN];
    for (part, offset) in [(prefix, 0), (data, prefix.len())] {
        // The part covers message bytes offset..offset + part.len().
        let from = start.max(offset);
        let to = (start + BLOCK_LEN).min(offset + part.len());
        if from < to {
            out[from - start..to - start].copy_from_slice(&part[from - offset..to - offset]);
        }
    }
    if (start..start + BLOCK_LEN).contains(&len) {
        out[len - start] = 0x80;
    }
    if index + 1 == padded_blocks(len) {
        let bits = ((BLOCK_LEN + len) as u64).wrapping_mul(8);
        out[BLOCK_LEN - 8..].copy_from_slice(&bits.to_be_bytes());
    }
}

/// The first 16 bytes of a tag, read big-endian.
fn wide_of(tag: &[u8; 32]) -> u128 {
    let mut bytes = [0u8; 16];
    bytes.copy_from_slice(&tag[..16]);
    u128::from_be_bytes(bytes)
}

/// A precomputed HMAC-SHA256 key schedule.
///
/// [`hmac_sha256`] rebuilds the padded key blocks and absorbs them into fresh
/// hashers on every call; in the watermarking hot loops that key schedule
/// dominates the per-tuple cost because the messages themselves are short.
/// `HmacKey` runs the schedule once at construction and caches the two
/// chaining states it leaves (the ipad/opad midstates), so a per-message
/// digest starts from them. Its tags are byte-identical to [`hmac_sha256`]
/// (pinned by tests).
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Run the RFC 2104 key schedule for `key` and cache the resulting
    /// ipad/opad midstates.
    pub fn new(key: &[u8]) -> Self {
        let (inner, outer) = primed_midstates(key);
        HmacKey { inner, outer }
    }

    /// The HMAC tag of `message`, byte-identical to [`hmac_sha256`].
    pub fn digest(&self, message: &[u8]) -> [u8; 32] {
        self.digest_parts(&[message])
    }

    /// The HMAC tag of the concatenation of `parts`, without materializing
    /// the concatenation. Streaming the parts through the inner hasher is
    /// definitionally equal to hashing their concatenation, so
    /// `digest_parts(&[a, b]) == digest(a ++ b)` byte for byte.
    pub fn digest_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::from_midstate(self.inner, BLOCK_LEN as u64);
        for part in parts {
            h.update(part);
        }
        let inner_digest = h.finalize();
        let mut o = Sha256::from_midstate(self.outer, BLOCK_LEN as u64);
        o.update(&inner_digest);
        o.finalize()
    }

    /// The first 16 tag bytes of `prefix ‖ data`, big-endian.
    pub fn wide(&self, prefix: &[u8], data: &[u8]) -> u128 {
        wide_of(&self.digest_parts(&[prefix, data]))
    }

    /// [`HmacKey::wide`] of four messages at once, lane `l` hashing
    /// `messages[l].0 ‖ messages[l].1`.
    ///
    /// The lanes share one run of the 4-lane compression per block: every
    /// lane starts from the cached ipad midstate, its padded message is
    /// gathered into the lane's schedule words, and the outer hash runs from
    /// fixed words (the 32-byte inner digest, `0x80`, a length of 768 bits).
    /// The wide values are read straight from the outer state words. Lanes
    /// whose padded messages span different block counts cannot share
    /// compressions and are hashed one at a time instead.
    pub fn wide4(&self, messages: [(&[u8], &[u8]); 4]) -> [u128; 4] {
        let blocks = padded_blocks(messages[0].0.len() + messages[0].1.len());
        if messages.iter().any(|(prefix, data)| padded_blocks(prefix.len() + data.len()) != blocks)
        {
            return messages.map(|(prefix, data)| self.wide(prefix, data));
        }
        let mut state: [Lanes; 8] = self.inner.map(|word| [word; 4]);
        let mut words = [[0u32; 4]; 16];
        let mut block = [0u8; BLOCK_LEN];
        for index in 0..blocks {
            for (lane, (prefix, data)) in messages.iter().enumerate() {
                padded_block(prefix, data, index, &mut block);
                for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
                    word[lane] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                }
            }
            compress4(&mut state, &words);
        }
        // The outer message is the inner digest (the eight state words),
        // then 0x80, zeros and its bit length: 64 pad bytes + 32 digest bytes.
        let mut outer_words = [[0u32; 4]; 16];
        outer_words[..8].copy_from_slice(&state);
        outer_words[8] = [0x8000_0000; 4];
        outer_words[15] = [((BLOCK_LEN + 32) * 8) as u32; 4];
        let mut outer: [Lanes; 8] = self.outer.map(|word| [word; 4]);
        compress4(&mut outer, &outer_words);
        std::array::from_fn(|lane| {
            (u128::from(outer[0][lane]) << 96)
                | (u128::from(outer[1][lane]) << 64)
                | (u128::from(outer[2][lane]) << 32)
                | u128::from(outer[3][lane])
        })
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key material; never print them.
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_hmac_sha256() {
        let key = [0x0b_u8; 20];
        assert_eq!(
            hex::encode(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex::encode(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaa_u8; 131];
        assert_eq!(
            hex::encode(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_separation() {
        // Different keys must produce different tags (the property the paper
        // relies on when using distinct keys k1 and k2, §5.3).
        let msg = b"ssn-encrypted-value";
        assert_ne!(hmac_sha256(b"k1", msg), hmac_sha256(b"k2", msg));
    }

    #[test]
    fn cached_midstate_matches_naive_path() {
        // The midstate-cached schedule must be byte-identical to the naive
        // per-call function across the key-length cases RFC 2104
        // distinguishes (short, exactly block-sized, longer than a block) and
        // messages spanning block boundaries.
        let keys: [&[u8]; 4] = [b"", b"k1", &[0x0b; 64], &[0xaa; 131]];
        let messages: [&[u8]; 4] = [b"", b"Hi There", &[0x42; 64], &[0x37; 200]];
        for key in keys {
            let cached = HmacKey::new(key);
            for msg in messages {
                assert_eq!(cached.digest(msg), hmac_sha256(key, msg));
            }
        }
    }

    #[test]
    fn digest_parts_equals_digest_of_concatenation() {
        let key = HmacKey::new(b"k2");
        let (a, b, c): (&[u8], &[u8], &[u8]) = (b"perm:age\x1f", b"ident-", b"bytes");
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        concat.extend_from_slice(c);
        assert_eq!(key.digest_parts(&[a, b, c]), key.digest(&concat));
        assert_eq!(key.digest_parts(&[&concat]), key.digest(&concat));
        assert_eq!(key.digest_parts(&[]), key.digest(b""));
    }

    #[test]
    fn cached_key_is_reusable_across_messages() {
        // Reusing one HmacKey for many messages must not leak state between
        // calls: each digest equals a fresh naive computation.
        let key = HmacKey::new(b"watermark-key");
        for i in 0..32u32 {
            let msg = i.to_be_bytes();
            assert_eq!(key.digest(&msg), hmac_sha256(b"watermark-key", &msg));
        }
    }
}
