//! AES-128 block cipher (FIPS 197) with ECB mode.
//!
//! The binning algorithm (Fig. 8 in the paper) replaces every value of the
//! identifying columns with `E(value)` where `E()` is "an encryption function,
//! e.g. DES or AES". The replacement must be a deterministic one-to-one map so
//! that the encrypted identifier can still act as a (pseudonymous) key for
//! watermark tuple selection and for the rightful-ownership statistic. For
//! that use case [`Aes128::encrypt_value`] applies ECB over a length-prefixed,
//! zero-padded encoding — deterministic and invertible.
//!
//! Binning encrypts one value per distinct identifier on every protect, so
//! [`Aes128::encrypt_block`] is word-oriented: the state is four big-endian
//! column words, and each of the nine full rounds is sixteen lookups in one
//! 1 KiB table that fuses SubBytes with MixColumns (`TE`, built by a
//! `const fn`), three rotates per column for ShiftRows, and the round key
//! pre-expanded as words. The last round, which has no MixColumns, uses the
//! S-box. [`Aes128::encrypt_value`] pads block by block on the stack and
//! hex-encodes into its one output `String`. The byte-at-a-time cipher of
//! FIPS 197 §5.1 stays in the tests as the reference the table version must
//! equal. Decryption, which only ownership disputes use, is still byte-wise.
//!
//! Side channels: neither version is constant-time. The byte-wise cipher
//! indexes the 256 B S-box by secret state, and its `gmul` branches on
//! state bits. The table version is branch-free but still uses
//! secret-indexed lookups, now over 1.25 KiB (the 1 KiB round table plus the
//! S-box), so its timing can depend on the key and the data through the
//! cache.

use crate::error::CryptoError;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;
/// Number of AES-128 rounds.
const ROUNDS: usize = 10;

/// A single 16-byte AES block.
pub type AesBlock = [u8; BLOCK_LEN];

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// AES inverse S-box.
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

/// Round constants for key expansion.
const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by `x` in GF(2^8) modulo the AES polynomial, without a branch.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (0x1b & (b >> 7).wrapping_neg())
}

/// The fused SubBytes+MixColumns table: entry `x` is the column that a row-0
/// input byte `x` contributes, `(2·S[x], S[x], S[x], 3·S[x])` as a
/// big-endian word. Rows 1–3 contribute the same word rotated right by 8,
/// 16 and 24 bits.
const fn round_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        table[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        x += 1;
    }
    table
}

/// See [`round_table`].
const TE: [u32; 256] = round_table();

/// Byte `n` (0 = most significant) of `w`, as a table index.
fn byte(w: u32, n: usize) -> usize {
    usize::from(w.to_be_bytes()[n])
}

/// One output column of a full round: the `TE` lookups of the four bytes
/// ShiftRows brings into it, xored with the round-key word.
fn round_column(a: u32, b: u32, c: u32, d: u32, key: u32) -> u32 {
    TE[byte(a, 0)]
        ^ TE[byte(b, 1)].rotate_right(8)
        ^ TE[byte(c, 2)].rotate_right(16)
        ^ TE[byte(d, 3)].rotate_right(24)
        ^ key
}

/// One output column of the last round: SubBytes and ShiftRows through the
/// S-box, xored with the round-key word.
fn final_column(a: u32, b: u32, c: u32, d: u32, key: u32) -> u32 {
    u32::from_be_bytes([SBOX[byte(a, 0)], SBOX[byte(b, 1)], SBOX[byte(c, 2)], SBOX[byte(d, 3)]])
        ^ key
}

/// Multiply in GF(2^8) modulo the AES polynomial x^8 + x^4 + x^3 + x + 1.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key schedule.
#[derive(Clone)]
pub struct Aes128 {
    /// The expanded key as big-endian words; round `r` uses words
    /// `4r..4r + 4`.
    round_keys: [u32; 4 * (ROUNDS + 1)],
}

impl std::fmt::Debug for Aes128 {
    /// The key schedule is secret material; never print it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand a 16-byte key into the round-key schedule.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        if key.len() != KEY_LEN {
            return Err(CryptoError::InvalidKeyLength { expected: KEY_LEN, actual: key.len() });
        }
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i] = [chunk[0], chunk[1], chunk[2], chunk[3]];
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        Ok(Aes128 { round_keys: w.map(u32::from_be_bytes) })
    }

    /// Construct from an arbitrary-length secret by deriving the 16-byte key
    /// with SHA-256 (first 16 bytes of the digest). Convenient for textual
    /// watermarking keys.
    pub fn from_secret(secret: &[u8]) -> Self {
        let digest = crate::sha256::sha256(secret);
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&digest[..KEY_LEN]);
        // Unwrap is fine: the key length is correct by construction.
        Aes128::new(&key).expect("derived key has the correct length")
    }

    /// Round `round`'s key as the 16 bytes the byte-wise state takes.
    fn round_key_bytes(&self, round: usize) -> [u8; BLOCK_LEN] {
        let mut bytes = [0u8; BLOCK_LEN];
        for (column, word) in bytes.chunks_exact_mut(4).zip(&self.round_keys[4 * round..]) {
            column.copy_from_slice(&word.to_be_bytes());
        }
        bytes
    }

    /// Encrypt a single block in place (table-driven; see the module
    /// documentation).
    pub fn encrypt_block(&self, block: &mut AesBlock) {
        let rk = &self.round_keys;
        let column = |c: usize| {
            u32::from_be_bytes([block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]])
        };
        let (mut s0, mut s1, mut s2, mut s3) =
            (column(0) ^ rk[0], column(1) ^ rk[1], column(2) ^ rk[2], column(3) ^ rk[3]);
        for k in rk[4..4 * ROUNDS].chunks_exact(4) {
            (s0, s1, s2, s3) = (
                round_column(s0, s1, s2, s3, k[0]),
                round_column(s1, s2, s3, s0, k[1]),
                round_column(s2, s3, s0, s1, k[2]),
                round_column(s3, s0, s1, s2, k[3]),
            );
        }
        let k = &rk[4 * ROUNDS..];
        let out = [
            final_column(s0, s1, s2, s3, k[0]),
            final_column(s1, s2, s3, s0, k[1]),
            final_column(s2, s3, s0, s1, k[2]),
            final_column(s3, s0, s1, s2, k[3]),
        ];
        for (bytes, word) in block.chunks_exact_mut(4).zip(out) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Decrypt a single block in place.
    pub fn decrypt_block(&self, block: &mut AesBlock) {
        add_round_key(block, &self.round_key_bytes(ROUNDS));
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for round in (1..ROUNDS).rev() {
            add_round_key(block, &self.round_key_bytes(round));
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_key_bytes(0));
    }

    /// ECB-encrypt `data`, which must be a multiple of 16 bytes.
    ///
    /// ECB is used deliberately for the deterministic one-to-one identifier
    /// replacement of the binning step; see the module documentation.
    pub fn ecb_encrypt(&self, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if !data.len().is_multiple_of(BLOCK_LEN) {
            return Err(CryptoError::InvalidBlockLength { block: BLOCK_LEN, actual: data.len() });
        }
        let mut out = data.to_vec();
        for chunk in out.chunks_exact_mut(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(chunk);
            self.encrypt_block(&mut block);
            chunk.copy_from_slice(&block);
        }
        Ok(out)
    }

    /// ECB-decrypt `data`, which must be a multiple of 16 bytes.
    pub fn ecb_decrypt(&self, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if !data.len().is_multiple_of(BLOCK_LEN) {
            return Err(CryptoError::InvalidBlockLength { block: BLOCK_LEN, actual: data.len() });
        }
        let mut out = data.to_vec();
        for chunk in out.chunks_exact_mut(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(chunk);
            self.decrypt_block(&mut block);
            chunk.copy_from_slice(&block);
        }
        Ok(out)
    }

    /// Deterministically encrypt an arbitrary byte string into a hex-encoded
    /// ciphertext. Used as the `E()` of the binning algorithm (Fig. 8): a
    /// one-to-one replacement for identifying-column values.
    ///
    /// Encoding: an 8-byte big-endian length prefix followed by the value,
    /// zero-padded to a multiple of 16 bytes, ECB-encrypted, hex-encoded.
    pub fn encrypt_value(&self, value: &[u8]) -> String {
        const PREFIX: usize = 8;
        let blocks = (PREFIX + value.len()).div_ceil(BLOCK_LEN);
        let mut out = String::with_capacity(2 * BLOCK_LEN * blocks);
        let (head, tail) = value.split_at(value.len().min(BLOCK_LEN - PREFIX));
        let mut block = [0u8; BLOCK_LEN];
        block[..PREFIX].copy_from_slice(&(value.len() as u64).to_be_bytes());
        block[PREFIX..PREFIX + head.len()].copy_from_slice(head);
        self.encrypt_block(&mut block);
        crate::hex::encode_into(&block, &mut out);
        for chunk in tail.chunks(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block[..chunk.len()].copy_from_slice(chunk);
            self.encrypt_block(&mut block);
            crate::hex::encode_into(&block, &mut out);
        }
        out
    }

    /// Invert [`Aes128::encrypt_value`], recovering the original byte string.
    pub fn decrypt_value(&self, hex_ciphertext: &str) -> Result<Vec<u8>, CryptoError> {
        let cipher = crate::hex::decode(hex_ciphertext)?;
        let plain = self.ecb_decrypt(&cipher)?;
        if plain.len() < 8 {
            return Err(CryptoError::InvalidBlockLength { block: BLOCK_LEN, actual: plain.len() });
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&plain[..8]);
        let len = u64::from_be_bytes(len_bytes) as usize;
        if 8 + len > plain.len() {
            return Err(CryptoError::InvalidHex(hex_ciphertext.to_string()));
        }
        Ok(plain[8..8 + len].to_vec())
    }
}

fn add_round_key(block: &mut AesBlock, rk: &[u8; BLOCK_LEN]) {
    for i in 0..BLOCK_LEN {
        block[i] ^= rk[i];
    }
}

#[cfg(test)]
fn sub_bytes(block: &mut AesBlock) {
    for b in block.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn inv_sub_bytes(block: &mut AesBlock) {
    for b in block.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State is column-major: byte `i` sits at row `i % 4`, column `i / 4`.
#[cfg(test)]
fn shift_rows(block: &mut AesBlock) {
    let orig = *block;
    for row in 1..4 {
        for col in 0..4 {
            block[col * 4 + row] = orig[((col + row) % 4) * 4 + row];
        }
    }
}

fn inv_shift_rows(block: &mut AesBlock) {
    let orig = *block;
    for row in 1..4 {
        for col in 0..4 {
            block[((col + row) % 4) * 4 + row] = orig[col * 4 + row];
        }
    }
}

#[cfg(test)]
fn mix_columns(block: &mut AesBlock) {
    for col in 0..4 {
        let c = &mut block[col * 4..(col + 1) * 4];
        let a = [c[0], c[1], c[2], c[3]];
        c[0] = gmul(a[0], 2) ^ gmul(a[1], 3) ^ a[2] ^ a[3];
        c[1] = a[0] ^ gmul(a[1], 2) ^ gmul(a[2], 3) ^ a[3];
        c[2] = a[0] ^ a[1] ^ gmul(a[2], 2) ^ gmul(a[3], 3);
        c[3] = gmul(a[0], 3) ^ a[1] ^ a[2] ^ gmul(a[3], 2);
    }
}

fn inv_mix_columns(block: &mut AesBlock) {
    for col in 0..4 {
        let c = &mut block[col * 4..(col + 1) * 4];
        let a = [c[0], c[1], c[2], c[3]];
        c[0] = gmul(a[0], 14) ^ gmul(a[1], 11) ^ gmul(a[2], 13) ^ gmul(a[3], 9);
        c[1] = gmul(a[0], 9) ^ gmul(a[1], 14) ^ gmul(a[2], 11) ^ gmul(a[3], 13);
        c[2] = gmul(a[0], 13) ^ gmul(a[1], 9) ^ gmul(a[2], 14) ^ gmul(a[3], 11);
        c[3] = gmul(a[0], 11) ^ gmul(a[1], 13) ^ gmul(a[2], 9) ^ gmul(a[3], 14);
    }
}

/// The byte-at-a-time cipher of FIPS 197 §5.1 that the table-driven
/// [`Aes128::encrypt_block`] replaced, kept as the reference it must equal.
#[cfg(test)]
fn encrypt_block_bytewise(cipher: &Aes128, block: &mut AesBlock) {
    add_round_key(block, &cipher.round_key_bytes(0));
    for round in 1..ROUNDS {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, &cipher.round_key_bytes(round));
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, &cipher.round_key_bytes(ROUNDS));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// FIPS 197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = hex::decode("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let cipher = Aes128::new(&key).unwrap();
        let mut block: AesBlock = [0u8; 16];
        block.copy_from_slice(&hex::decode("3243f6a8885a308d313198a2e0370734").unwrap());
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "3925841d02dc09fbdc118597196a0b32");
        cipher.decrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "3243f6a8885a308d313198a2e0370734");
    }

    /// FIPS 197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key = hex::decode("000102030405060708090a0b0c0d0e0f").unwrap();
        let cipher = Aes128::new(&key).unwrap();
        let mut block: AesBlock = [0u8; 16];
        block.copy_from_slice(&hex::decode("00112233445566778899aabbccddeeff").unwrap());
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn invalid_key_length_rejected() {
        assert!(matches!(
            Aes128::new(&[0u8; 15]),
            Err(CryptoError::InvalidKeyLength { expected: 16, actual: 15 })
        ));
        assert!(Aes128::new(&[0u8; 16]).is_ok());
    }

    #[test]
    fn ecb_rejects_partial_blocks() {
        let cipher = Aes128::from_secret(b"owner-key");
        assert!(cipher.ecb_encrypt(&[0u8; 17]).is_err());
        assert!(cipher.ecb_decrypt(&[0u8; 1]).is_err());
    }

    #[test]
    fn ecb_roundtrip() {
        let cipher = Aes128::from_secret(b"owner-key");
        let plain = vec![7u8; 64];
        let ct = cipher.ecb_encrypt(&plain).unwrap();
        assert_ne!(ct, plain);
        assert_eq!(cipher.ecb_decrypt(&ct).unwrap(), plain);
    }

    #[test]
    fn encrypt_value_is_deterministic_and_invertible() {
        let cipher = Aes128::from_secret(b"hospital-secret");
        let ssn = b"987-65-4320";
        let c1 = cipher.encrypt_value(ssn);
        let c2 = cipher.encrypt_value(ssn);
        assert_eq!(c1, c2, "one-to-one replacement must be deterministic");
        assert_eq!(cipher.decrypt_value(&c1).unwrap(), ssn.to_vec());
    }

    #[test]
    fn encrypt_value_is_injective_on_sample() {
        let cipher = Aes128::from_secret(b"hospital-secret");
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let v = format!("ssn-{i:09}");
            assert!(seen.insert(cipher.encrypt_value(v.as_bytes())), "collision at {i}");
        }
    }

    #[test]
    fn different_secrets_different_ciphertexts() {
        let a = Aes128::from_secret(b"key-a");
        let b = Aes128::from_secret(b"key-b");
        assert_ne!(a.encrypt_value(b"123-45-6789"), b.encrypt_value(b"123-45-6789"));
    }

    #[test]
    fn decrypt_value_rejects_garbage() {
        let cipher = Aes128::from_secret(b"key");
        assert!(cipher.decrypt_value("not-hex!").is_err());
        assert!(cipher.decrypt_value("00").is_err());
    }

    #[test]
    fn empty_value_roundtrip() {
        let cipher = Aes128::from_secret(b"key");
        let ct = cipher.encrypt_value(b"");
        assert_eq!(cipher.decrypt_value(&ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn long_value_roundtrip() {
        let cipher = Aes128::from_secret(b"key");
        let v: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
        let ct = cipher.encrypt_value(&v);
        assert_eq!(cipher.decrypt_value(&ct).unwrap(), v);
    }

    #[test]
    fn round_table_fuses_sbox_and_mix_columns() {
        for x in 0..=255u8 {
            let s = SBOX[usize::from(x)];
            assert_eq!(TE[usize::from(x)].to_be_bytes(), [gmul(s, 2), s, s, gmul(s, 3)]);
            assert_eq!(xtime(x), gmul(x, 2));
        }
    }

    #[test]
    fn fips197_vectors_match_the_bytewise_reference() {
        for (key, plain) in [
            ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734"),
            ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff"),
        ] {
            let cipher = Aes128::new(&hex::decode(key).unwrap()).unwrap();
            let mut fast: AesBlock = [0u8; 16];
            fast.copy_from_slice(&hex::decode(plain).unwrap());
            let mut slow = fast;
            cipher.encrypt_block(&mut fast);
            encrypt_block_bytewise(&cipher, &mut slow);
            assert_eq!(fast, slow);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The table-driven cipher equals the byte-wise reference on random
        /// keys and blocks.
        #[test]
        fn table_cipher_matches_the_bytewise_reference(
            key in prop::collection::vec(any::<u8>(), 16..=16),
            plain in prop::collection::vec(any::<u8>(), 16..=16),
        ) {
            let cipher = Aes128::new(&key).unwrap();
            let mut fast: AesBlock = [0u8; 16];
            fast.copy_from_slice(&plain);
            let mut slow = fast;
            cipher.encrypt_block(&mut fast);
            encrypt_block_bytewise(&cipher, &mut slow);
            prop_assert_eq!(fast, slow);
        }
    }
}
