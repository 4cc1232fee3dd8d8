//! Property-based tests of the cryptographic primitives.

use medshield_crypto::{aes::Aes128, hex, hmac, sha256, HmacKey, KeyedPrf, SHA256_DIGEST_LEN};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// Hex encoding round-trips for arbitrary byte strings.
    #[test]
    fn hex_roundtrip(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(hex::decode(&encoded).unwrap(), data);
    }

    /// AES-128 block encryption is invertible for every key/block pair.
    #[test]
    fn aes_block_roundtrip(key in prop::collection::vec(any::<u8>(), 16..=16),
                           block in prop::collection::vec(any::<u8>(), 16..=16)) {
        let cipher = Aes128::new(&key).unwrap();
        let mut b = [0u8; 16];
        b.copy_from_slice(&block);
        let original = b;
        cipher.encrypt_block(&mut b);
        // Encryption is (overwhelmingly) not the identity.
        cipher.decrypt_block(&mut b);
        prop_assert_eq!(b, original);
    }

    /// The deterministic value encryption used for identifiers round-trips
    /// and never produces the same ciphertext for different plaintexts.
    #[test]
    fn aes_value_roundtrip(secret in prop::collection::vec(any::<u8>(), 1..32),
                           a in prop::collection::vec(any::<u8>(), 0..64),
                           b in prop::collection::vec(any::<u8>(), 0..64)) {
        let cipher = Aes128::from_secret(&secret);
        let ca = cipher.encrypt_value(&a);
        prop_assert_eq!(cipher.decrypt_value(&ca).unwrap(), a.clone());
        let cb = cipher.encrypt_value(&b);
        if a != b {
            prop_assert_ne!(ca, cb);
        } else {
            prop_assert_eq!(ca, cb);
        }
    }

    /// Streaming hashing equals one-shot hashing regardless of chunking.
    #[test]
    fn streaming_equals_one_shot(data in prop::collection::vec(any::<u8>(), 0..500),
                                 chunk in 1usize..97) {
        let mut s256 = sha256::Sha256::new();
        for c in data.chunks(chunk) {
            s256.update(c);
        }
        prop_assert_eq!(s256.finalize(), sha256::sha256(&data));
    }

    /// HMAC differs between keys and between messages (no trivial collisions
    /// on random inputs).
    #[test]
    fn hmac_separates_keys_and_messages(k1 in prop::collection::vec(any::<u8>(), 1..40),
                                        k2 in prop::collection::vec(any::<u8>(), 1..40),
                                        msg in prop::collection::vec(any::<u8>(), 0..100)) {
        if k1 != k2 {
            prop_assert_ne!(hmac::hmac_sha256(&k1, &msg), hmac::hmac_sha256(&k2, &msg));
        }
    }

    /// The keyed PRF stays within the requested modulus and is deterministic.
    #[test]
    fn prf_is_bounded_and_deterministic(key in prop::collection::vec(any::<u8>(), 1..32),
                                        prefix in prop::collection::vec(any::<u8>(), 0..16),
                                        data in prop::collection::vec(any::<u8>(), 0..64),
                                        modulus in 1u64..10_000) {
        let prf = KeyedPrf::new(&key);
        let v = KeyedPrf::reduce_wide(prf.prefixed_value_wide(&prefix, &data), modulus);
        prop_assert!(v < modulus);
        prop_assert_eq!(v, KeyedPrf::reduce_wide(prf.prefixed_value_wide(&prefix, &data), modulus));
    }

    /// The cached HMAC key and the keyed PRF produce full SHA-256 digests.
    #[test]
    fn digest_lengths(key in prop::collection::vec(any::<u8>(), 0..80),
                      data in prop::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(HmacKey::new(&key).digest(&data).len(), SHA256_DIGEST_LEN);
        prop_assert_eq!(KeyedPrf::new(&key).digest(&data).len(), SHA256_DIGEST_LEN);
    }
}

/// One lane's message: a label-like prefix and identity-like data.
fn lane() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (vec(any::<u8>(), 0..=24), vec(any::<u8>(), 0..=200))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The 4-lane PRF equals the naive HMAC and the scalar path on every
    /// lane. Keys of 0–131 bytes cover both RFC 2104 key cases (padded and
    /// hashed first); random prefix and data lengths put lanes on different
    /// padded block counts, which takes the one-at-a-time fallback.
    #[test]
    fn four_lane_prf_matches_naive_hmac(key in vec(any::<u8>(), 0..=131),
                                        a in lane(), b in lane(), c in lane(), d in lane()) {
        let lanes = [a, b, c, d];
        let prf = KeyedPrf::new(&key);
        let wide = prf.prefixed_value_wide4(
            std::array::from_fn(|l| (lanes[l].0.as_slice(), lanes[l].1.as_slice())),
        );
        for (l, (prefix, data)) in lanes.iter().enumerate() {
            let mut message = prefix.clone();
            message.extend_from_slice(data);
            let tag = hmac::hmac_sha256(&key, &message);
            let mut first = [0u8; 16];
            first.copy_from_slice(&tag[..16]);
            prop_assert!(wide[l] == u128::from_be_bytes(first), "lane {l} differs from the naive HMAC");
            prop_assert!(wide[l] == prf.prefixed_value_wide(prefix, data), "lane {l} differs from the scalar path");
        }
    }

    /// Four lanes of one shape share compressions (no fallback): the lane
    /// path itself must match the naive HMAC for every length.
    #[test]
    fn four_lane_prf_on_equal_lengths(key in vec(any::<u8>(), 0..=131),
                                      prefix_len in 0usize..=24,
                                      data_len in 0usize..=200,
                                      fill in vec(any::<u8>(), 4 * 224..=4 * 224)) {
        let lanes: Vec<(&[u8], &[u8])> = fill
            .chunks_exact(224)
            .map(|bytes| (&bytes[..prefix_len], &bytes[24..24 + data_len]))
            .collect();
        let wide = KeyedPrf::new(&key).prefixed_value_wide4([lanes[0], lanes[1], lanes[2], lanes[3]]);
        for (l, (prefix, data)) in lanes.iter().enumerate() {
            let mut message = prefix.to_vec();
            message.extend_from_slice(data);
            let tag = hmac::hmac_sha256(&key, &message);
            let mut first = [0u8; 16];
            first.copy_from_slice(&tag[..16]);
            prop_assert!(wide[l] == u128::from_be_bytes(first), "lane {l} differs from the naive HMAC");
        }
    }
}

/// `E(value)` composed from its definition: an 8-byte big-endian length
/// prefix, the value, zero padding to a whole block, ECB, then hex.
fn encrypt_value_by_definition(cipher: &Aes128, value: &[u8]) -> String {
    let mut plain = (value.len() as u64).to_be_bytes().to_vec();
    plain.extend_from_slice(value);
    plain.resize(plain.len().div_ceil(16) * 16, 0);
    hex::encode(&cipher.ecb_encrypt(&plain).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// The streaming identifier encryption equals its definition for values
    /// of 0–200 bytes (one to fourteen blocks, every padding length), and
    /// `decrypt_value` inverts it.
    #[test]
    fn encrypt_value_matches_its_definition(key in vec(any::<u8>(), 16..=16),
                                            value in vec(any::<u8>(), 0..=200)) {
        let cipher = Aes128::new(&key).unwrap();
        let fast = cipher.encrypt_value(&value);
        prop_assert_eq!(&fast, &encrypt_value_by_definition(&cipher, &value));
        prop_assert_eq!(cipher.decrypt_value(&fast).unwrap(), value);
    }
}
