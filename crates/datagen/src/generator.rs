//! Deterministic synthetic generation of the medical table.
//!
//! The generator draws categorical values from a Zipf-like distribution over
//! the ontology leaves (rank-skewed, like diagnosis frequencies in real
//! clinical data), ages from a triangular-ish mixture centred on middle age,
//! and zip codes Zipf-skewed across the metropolitan range. Every tuple gets
//! a unique SSN-formatted identifier. The same [`DatasetConfig`] always
//! produces the same table.

use crate::ontology;
use medshield_dht::DomainHierarchyTree;
use medshield_relation::{Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Configuration of the synthetic data set.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of tuples to generate (the paper's data set has ~20,000).
    pub num_tuples: usize,
    /// PRNG seed; the same seed yields the same table.
    pub seed: u64,
    /// Zipf exponent for categorical leaf frequencies (0 = uniform; the
    /// default 0.8 gives realistically skewed bins).
    pub zipf_exponent: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig { num_tuples: 20_000, seed: 0x5EED_CAFE, zipf_exponent: 0.8 }
    }
}

impl DatasetConfig {
    /// A smaller configuration for unit tests and quick examples.
    pub fn small(num_tuples: usize) -> Self {
        DatasetConfig { num_tuples, ..Default::default() }
    }
}

/// The generated data set: the table plus the domain hierarchy tree of every
/// quasi-identifying column.
#[derive(Debug, Clone)]
pub struct MedicalDataset {
    /// The generated table, using [`Schema::medical_example`].
    pub table: Table,
    /// Quasi-identifier trees keyed by column name.
    pub trees: BTreeMap<String, DomainHierarchyTree>,
}

impl MedicalDataset {
    /// Generate a data set from the configuration.
    pub fn generate(config: &DatasetConfig) -> Self {
        let trees = ontology::all_trees();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut table = Table::new(Schema::medical_example());

        // Pre-compute the leaf label pools for the categorical columns.
        let doctor_leaves = leaf_labels(&trees["doctor"]);
        let symptom_leaves = leaf_labels(&trees["symptom"]);
        let prescription_leaves = leaf_labels(&trees["prescription"]);

        let doctor_cdf = zipf_cdf(doctor_leaves.len(), config.zipf_exponent);
        let symptom_cdf = zipf_cdf(symptom_leaves.len(), config.zipf_exponent);
        let prescription_cdf = zipf_cdf(prescription_leaves.len(), config.zipf_exponent);
        let zip_leaves =
            ((ontology::ZIP_MAX - ontology::ZIP_MIN) / ontology::ZIP_LEAF_WIDTH) as usize;
        let zip_cdf = zipf_cdf(zip_leaves, config.zipf_exponent);

        for i in 0..config.num_tuples {
            let ssn =
                format!("{:03}-{:02}-{:04}", (i / 100_000) % 1000, (i / 10_000) % 100, i % 10_000);
            let age = sample_age(&mut rng);
            let zip = sample_zip(&mut rng, &zip_cdf);
            let doctor = pick(&mut rng, &doctor_cdf, &doctor_leaves);
            let symptom = pick(&mut rng, &symptom_cdf, &symptom_leaves);
            let prescription = pick(&mut rng, &prescription_cdf, &prescription_leaves);
            table
                .insert(vec![
                    Value::text(ssn),
                    Value::int(age),
                    Value::int(zip),
                    Value::text(doctor),
                    Value::text(symptom),
                    Value::text(prescription),
                ])
                .expect("generated tuple matches the schema arity");
        }

        MedicalDataset { table, trees }
    }

    /// The tree for a column, if it is one of the quasi-identifiers.
    pub fn tree(&self, column: &str) -> Option<&DomainHierarchyTree> {
        self.trees.get(column)
    }

    /// Names of the quasi-identifying columns, in schema order.
    pub fn quasi_columns(&self) -> Vec<String> {
        self.table
            .schema()
            .quasi_names()
            .into_iter()
            .map(std::string::ToString::to_string)
            .collect()
    }
}

/// Labels of the leaves of a categorical tree, in left-to-right order.
fn leaf_labels(tree: &DomainHierarchyTree) -> Vec<String> {
    tree.leaves().iter().map(|&l| tree.node(l).expect("leaf exists").label.clone()).collect()
}

/// Cumulative distribution of a Zipf(s) law over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draw an index from a CDF.
fn sample_cdf(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u: f64 = rng.gen();
    match cdf.iter().position(|&c| u <= c) {
        Some(i) => i,
        None => cdf.len() - 1,
    }
}

/// Pick a label using a Zipf CDF.
fn pick<'a>(rng: &mut StdRng, cdf: &[f64], labels: &'a [String]) -> &'a str {
    &labels[sample_cdf(rng, cdf)]
}

/// Age distribution: a mixture of three uniform bands approximating a
/// clinical population (children, adults, elderly), clipped to the domain.
fn sample_age(rng: &mut StdRng) -> i64 {
    let band: f64 = rng.gen();
    let age: i64 = if band < 0.15 {
        rng.gen_range(0..18)
    } else if band < 0.70 {
        rng.gen_range(18..65)
    } else {
        rng.gen_range(65..100)
    };
    age.clamp(ontology::AGE_MIN, ontology::AGE_MAX - 1)
}

/// Zip codes: Zipf-skewed across the leaf intervals, uniform inside a leaf.
fn sample_zip(rng: &mut StdRng, cdf: &[f64]) -> i64 {
    let leaf = sample_cdf(rng, cdf) as i64;
    let lo = ontology::ZIP_MIN + leaf * ontology::ZIP_LEAF_WIDTH;
    let hi = (lo + ontology::ZIP_LEAF_WIDTH).min(ontology::ZIP_MAX);
    rng.gen_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::stats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DatasetConfig::small(200);
        let a = MedicalDataset::generate(&cfg);
        let b = MedicalDataset::generate(&cfg);
        assert_eq!(a.table.len(), 200);
        for column in a.table.schema().columns() {
            assert_eq!(
                a.table.column_values(&column.name).unwrap(),
                b.table.column_values(&column.name).unwrap()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = MedicalDataset::generate(&DatasetConfig { seed: 1, ..DatasetConfig::small(100) });
        let b = MedicalDataset::generate(&DatasetConfig { seed: 2, ..DatasetConfig::small(100) });
        let arity = a.table.schema().arity();
        let same = (0..100)
            .filter(|&row| (0..arity).all(|c| a.table.value_at(row, c) == b.table.value_at(row, c)))
            .count();
        assert!(same < 100, "tables should differ between seeds");
    }

    #[test]
    fn ssns_are_unique() {
        let d = MedicalDataset::generate(&DatasetConfig::small(1000));
        let ssns = stats::value_counts(&d.table, "ssn").unwrap();
        assert_eq!(ssns.len(), 1000);
    }

    #[test]
    fn every_value_is_in_its_tree_domain() {
        let d = MedicalDataset::generate(&DatasetConfig::small(500));
        for column in d.quasi_columns() {
            let tree = d.tree(&column).unwrap();
            for v in d.table.column_values(&column).unwrap() {
                assert!(
                    tree.leaf_for_value(&v).is_ok(),
                    "column {column} value {v} not in the tree domain"
                );
            }
        }
    }

    #[test]
    fn categorical_distribution_is_skewed() {
        let d = MedicalDataset::generate(&DatasetConfig::small(5000));
        let counts = stats::value_counts(&d.table, "symptom").unwrap();
        let max = counts.values().max().copied().unwrap_or(0);
        let min = counts.values().min().copied().unwrap_or(0);
        // Zipf skew: the most common code should be clearly more frequent
        // than the least common one.
        assert!(max >= 4 * min.max(1), "max {max}, min {min}");
    }

    #[test]
    fn ages_are_within_domain() {
        let d = MedicalDataset::generate(&DatasetConfig::small(2000));
        for v in d.table.column_values("age").unwrap() {
            let age = v.as_int().unwrap();
            assert!((ontology::AGE_MIN..ontology::AGE_MAX).contains(&age));
        }
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = DatasetConfig::default();
        assert_eq!(cfg.num_tuples, 20_000);
    }

    #[test]
    fn quasi_columns_match_schema() {
        let d = MedicalDataset::generate(&DatasetConfig::small(10));
        assert_eq!(d.quasi_columns(), vec!["age", "zip_code", "doctor", "symptom", "prescription"]);
        assert!(d.tree("age").is_some());
        assert!(d.tree("ssn").is_none());
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let cdf = zipf_cdf(10, 0.8);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-9);
    }
}
