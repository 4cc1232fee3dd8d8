//! Minimal hex encoding/decoding helpers.
//!
//! Used for displaying digests in reports and for round-tripping encrypted
//! identifier values through the textual `Value` representation of the
//! relational substrate.

use crate::error::CryptoError;

const HEX_CHARS: &[u8; 16] = b"0123456789abcdef";

/// Encode `data` as a lowercase hexadecimal string.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2);
    encode_into(data, &mut out);
    out
}

/// Append the lowercase hexadecimal encoding of `data` to `out`.
pub(crate) fn encode_into(data: &[u8], out: &mut String) {
    out.extend(data.iter().flat_map(|&b| {
        [HEX_CHARS[usize::from(b >> 4)], HEX_CHARS[usize::from(b & 0x0f)]].map(char::from)
    }));
}

/// Decode a hexadecimal string (upper- or lowercase) into bytes.
///
/// Returns [`CryptoError::InvalidHex`] if the string has odd length or
/// contains a non-hex character.
pub fn decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::InvalidHex(s.to_string()));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let hi = hex_val(pair[0]).ok_or_else(|| CryptoError::InvalidHex(s.to_string()))?;
        let lo = hex_val(pair[1]).ok_or_else(|| CryptoError::InvalidHex(s.to_string()))?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known_values() {
        assert_eq!(encode(&[]), "");
        assert_eq!(encode(&[0x00]), "00");
        assert_eq!(encode(&[0xde, 0xad, 0xbe, 0xef]), "deadbeef");
        assert_eq!(encode(&[0x0f, 0xf0]), "0ff0");
    }

    #[test]
    fn decode_known_values() {
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
        assert_eq!(decode("deadbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(decode("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert!(decode("abc").is_err());
    }

    #[test]
    fn decode_rejects_non_hex() {
        assert!(decode("zz").is_err());
        assert!(decode("0g").is_err());
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }
}
