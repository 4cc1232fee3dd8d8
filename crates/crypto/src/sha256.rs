//! SHA-256 message digest (FIPS 180-4).
//!
//! The framework's recommended default for `H()` (tuple selection, permutation
//! indices) and `F()` (the one-way function of the rightful-ownership
//! protocol, §5.4).

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Round constants (first 32 bits of the fractional parts of the cube roots of
/// the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Sha256 {
    /// Create a new hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.process_block(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// A hasher resumed from a chaining state `state` after `absorbed`
    /// bytes, a multiple of the 64-byte block size (the HMAC midstates).
    pub(crate) fn from_midstate(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "a midstate sits on a block boundary");
        Sha256 { state, buffer: [0u8; 64], buffer_len: 0, total_len: absorbed }
    }

    /// The chaining state. Only a hasher on a block boundary (nothing
    /// buffered) has a meaningful midstate.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffer_len, 0, "a midstate sits on a block boundary");
        self.state
    }

    /// Finish hashing and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad in place: 0x80, a zero run, then the 64-bit length, which
        // spills into a second block when fewer than 9 bytes are free.
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            self.process_block(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.process_block(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One 32-bit word of each of four independent messages.
pub(crate) type Lanes = [u32; 4];

#[inline(always)]
fn add(x: Lanes, y: Lanes) -> Lanes {
    [
        x[0].wrapping_add(y[0]),
        x[1].wrapping_add(y[1]),
        x[2].wrapping_add(y[2]),
        x[3].wrapping_add(y[3]),
    ]
}

#[inline(always)]
fn xor(x: Lanes, y: Lanes) -> Lanes {
    [x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]]
}

#[inline(always)]
fn and(x: Lanes, y: Lanes) -> Lanes {
    [x[0] & y[0], x[1] & y[1], x[2] & y[2], x[3] & y[3]]
}

#[inline(always)]
fn andnot(x: Lanes, y: Lanes) -> Lanes {
    [!x[0] & y[0], !x[1] & y[1], !x[2] & y[2], !x[3] & y[3]]
}

#[inline(always)]
fn shr(x: Lanes, n: u32) -> Lanes {
    [x[0] >> n, x[1] >> n, x[2] >> n, x[3] >> n]
}

#[inline(always)]
fn shl(x: Lanes, n: u32) -> Lanes {
    [x[0] << n, x[1] << n, x[2] << n, x[3] << n]
}

/// `rotr(x, a) ^ rotr(x, b) ^ rotr(x, c)`, spelled as six shifts: a rotate
/// the optimizer recognizes as one is split back into scalar instructions on
/// a target without a vector rotate, so the shift pairs are xored apart.
#[inline(always)]
fn rotr3(x: Lanes, a: u32, b: u32, c: u32) -> Lanes {
    xor(
        xor(xor(shr(x, a), shr(x, b)), shr(x, c)),
        xor(xor(shl(x, 32 - a), shl(x, 32 - b)), shl(x, 32 - c)),
    )
}

/// The SHA-256 compression on four independent states at once: lane `l` of `state` and
/// of the 16 schedule words `block` is one message, and the lanes never mix.
///
/// The element-wise arithmetic on `[u32; 4]` is only partly vectorized on
/// the baseline target (SSE2 on x86-64). In the LTO release binaries
/// (`medshield`, and `perfbench` built by `perfbench/run.py`) this function
/// holds 75 `paddd`, 96 `pxor`, 52 `pslld` and 40 `psrld`, but also 56
/// scalar `shr` with 73 `pshufd`, 64 `movd` and 36 `punpckldq` that move
/// lanes between vector and general registers: part of every round's
/// rotates runs one lane at a time. Count them with
/// `objdump -d --no-show-raw-insn -C target/release/medshield` over the
/// `medshield_crypto::sha256::compress4` symbol. One call still costs
/// under three scalar compressions. The function stays `#[inline(never)]`:
/// inlined into its callers, it ran slower. The rotates are spelled as
/// shifts for the reason given at `rotr3`.
#[inline(never)]
pub(crate) fn compress4(state: &mut [Lanes; 8], block: &[Lanes; 16]) {
    let mut w = [[0u32; 4]; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let x = w[i - 15];
        let s0 = xor(xor(xor(shr(x, 7), shr(x, 18)), shr(x, 3)), xor(shl(x, 25), shl(x, 14)));
        let x = w[i - 2];
        let s1 = xor(xor(xor(shr(x, 17), shr(x, 19)), shr(x, 10)), xor(shl(x, 15), shl(x, 13)));
        w[i] = add(add(w[i - 16], s0), add(w[i - 7], s1));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in (0..64).step_by(8) {
        // Eight rounds per pass, rotating the roles of the working variables
        // instead of moving them.
        round4(a, b, c, &mut d, e, f, g, &mut h, i, &w);
        round4(h, a, b, &mut c, d, e, f, &mut g, i + 1, &w);
        round4(g, h, a, &mut b, c, d, e, &mut f, i + 2, &w);
        round4(f, g, h, &mut a, b, c, d, &mut e, i + 3, &w);
        round4(e, f, g, &mut h, a, b, c, &mut d, i + 4, &w);
        round4(d, e, f, &mut g, h, a, b, &mut c, i + 5, &w);
        round4(c, d, e, &mut f, g, h, a, &mut b, i + 6, &w);
        round4(b, c, d, &mut e, f, g, h, &mut a, i + 7, &w);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = add(*s, v);
    }
}

/// Round `i` of [`compress4`]: `d` and `h` are the two working variables
/// the round rewrites.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn round4(
    a: Lanes,
    b: Lanes,
    c: Lanes,
    d: &mut Lanes,
    e: Lanes,
    f: Lanes,
    g: Lanes,
    h: &mut Lanes,
    i: usize,
    w: &[Lanes; 64],
) {
    let s1 = rotr3(e, 6, 11, 25);
    let ch = xor(and(e, f), andnot(e, g));
    let temp1 = add(add(add(*h, add(w[i], [K[i]; 4])), ch), s1);
    let s0 = rotr3(a, 2, 13, 22);
    let maj = xor(xor(and(a, b), and(a, c)), and(b, c));
    *d = add(*d, temp1);
    *h = add(temp1, add(s0, maj));
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// FIPS 180-4 test vectors.
    #[test]
    fn fips_test_vectors() {
        let cases: &[(&str, &str)] = &[
            ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                "The quick brown fox jumps over the lazy dog",
                "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex::encode(&sha256(input.as_bytes())), *expected, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..513).map(|i| (i * 31 % 256) as u8).collect();
        let expected = sha256(&data);
        for chunk in [1usize, 2, 63, 64, 65, 500] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"tuple-1"), sha256(b"tuple-2"));
    }
}
