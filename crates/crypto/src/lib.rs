//! # medshield-crypto
//!
//! From-scratch cryptographic primitives for the MedShield framework
//! (Bertino et al., *Privacy and Ownership Preserving of Outsourced Medical
//! Data*, ICDE 2005).
//!
//! The paper's framework requires three cryptographic building blocks:
//!
//! * `H()` — a cryptographic hash function, used keyed for watermark tuple
//!   selection (Eq. 5) and for deriving the permutation indices of the
//!   hierarchical embedding (Fig. 9). The paper names MD5 or SHA-1; SHA-256
//!   is the one hash implemented here.
//! * `E()` — a block cipher (the paper suggests DES or AES) used for the
//!   one-to-one replacement of the identifying columns during binning
//!   (Fig. 8).
//! * `F()` — a one-way function that maps a statistic of the clear-text
//!   identifying column to the owner's mark, resolving the rightful
//!   ownership problem (§5.4).
//!
//! None of these are available in the allowed offline dependency set, so this
//! crate implements them from scratch:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, validated against the standard test
//!   vectors. It is the one hash function the framework uses for `H()`.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against the RFC 4231
//!   vectors and used as the keyed hash `H(·, k)` of the paper.
//! * [`aes`] — AES-128 with ECB mode (for deterministic one-to-one
//!   identifier replacement), validated against the FIPS 197 test vectors.
//! * [`prf`] — a convenience keyed pseudo-random function built on HMAC-SHA-256
//!   that yields `u64` values, the form in which the rest of the framework
//!   consumes `H(ti.ident, k) mod η`.
//!
//! The watermark kernels hash one short message per tuple and per selected
//! cell, so the PRF has lane entry points: [`HmacKey::wide4`] and
//! [`KeyedPrf::prefixed_value_wide4`] hash four `(prefix, data)` messages
//! at once and return the first 16 tag bytes of each as a `u128`. They run
//! one SHA-256 compression over four states, written as element-wise
//! arithmetic on `[u32; 4]` lanes, with no `unsafe` and no `std::arch`.
//! On the baseline x86-64 target the optimizer vectorizes it only in part:
//! the additions, xors and most shifts become SSE2 instructions, while
//! some of each round's rotate shifts run in general registers, with lane
//! shuffles in and out of the vector registers around them (see
//! `sha256::compress4` for the instruction counts and how to check them).
//! That compression is `#[inline(never)]`: inlined into its callers, it
//! ran slower (on a shared 2-core x86-64 host a tag of an 81-byte identity
//! took about 450 ns instead of 365 ns; the scalar path takes about
//! 520 ns).
//! Lanes whose padded messages span different block counts fall back to
//! one-at-a-time hashing.
//!
//! The crate is `#![forbid(unsafe_code)]` and uses only the standard library.
//!
//! ```
//! use medshield_crypto::{hex, sha256};
//!
//! let digest = sha256::sha256(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aes;
pub mod error;
pub mod hex;
pub mod hmac;
pub mod prf;
pub mod sha256;

pub use aes::{Aes128, AesBlock};
pub use error::CryptoError;
pub use hmac::{hmac_sha256, HmacKey};
pub use prf::KeyedPrf;

/// The digest size, in bytes, of SHA-256.
pub const SHA256_DIGEST_LEN: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lengths_match_constants() {
        assert_eq!(sha256::sha256(b"").len(), SHA256_DIGEST_LEN);
        assert_eq!(hmac_sha256(b"k", b"").len(), SHA256_DIGEST_LEN);
    }

    #[test]
    fn keyed_digest_differs_from_plain_digest() {
        let data = b"tuple-identifier";
        assert_ne!(hmac_sha256(b"key", data), sha256::sha256(data));
    }
}
