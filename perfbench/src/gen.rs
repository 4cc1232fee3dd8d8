//! Seeded input generation. Everything a workload sends is a pure function
//! of the benchmark seed; the program only ever sees the generated CSV.

use medshield_core::datagen::{DatasetConfig, MedicalDataset};
use medshield_core::relation::Table;

/// SplitMix64: a small, well-mixed PRNG whose stream is fixed forever (the
/// request streams must not change when a dependency does).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent seed for one named input stream.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut rng = Rng::new(seed ^ fnv1a(stream.as_bytes()) ^ index.wrapping_mul(0x2545_F491));
    rng.next_u64()
}

/// `n` sizes, one per stratum of a log-uniform distribution over
/// `[lo, hi]`, in ascending stratum order, each drawn from the middle fifth
/// of its stratum. Stratifying keeps the size mix of every seed alike, so
/// rates over a run do not depend on how many large tables one seed
/// happened to draw.
pub fn stratified_log_uniform(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let ratio = hi as f64 / lo as f64;
    (0..n)
        .map(|i| {
            let q = (i as f64 + 0.4 + 0.2 * rng.unit()) / n as f64;
            (lo as f64 * ratio.powf(q)).round() as usize
        })
        .collect()
}

/// A synthetic hospital table of `rows` tuples (the paper's schema and
/// skew), generated from `seed`.
pub fn hospital_table(rows: usize, seed: u64) -> Table {
    MedicalDataset::generate(&DatasetConfig { num_tuples: rows, seed, zipf_exponent: 0.8 }).table
}

/// Row-count histogram of a set of inputs, as a JSON object keyed by the
/// lower bound of each power-of-two bucket.
pub fn size_histogram(sizes: impl IntoIterator<Item = usize>) -> String {
    let mut buckets = std::collections::BTreeMap::<usize, usize>::new();
    for rows in sizes {
        let lower = if rows == 0 { 0 } else { 1usize << rows.ilog2() };
        *buckets.entry(lower).or_default() += 1;
    }
    let body: Vec<String> = buckets.iter().map(|(lo, n)| format!("\"{lo}\":{n}")).collect();
    format!("{{{}}}", body.join(","))
}

/// 64-bit FNV-1a, used to compare reply bodies without keeping them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}
