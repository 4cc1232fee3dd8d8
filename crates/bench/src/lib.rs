//! Shared experiment harness for regenerating the figures and tables of the
//! paper's evaluation section (§7).
//!
//! The binaries in `src/bin/`:
//!
//! | binary | what it runs |
//! |---|---|
//! | `figures` | every paper figure below, in-process, in this order; `figures <name>` runs one |
//! | `figures fig11` | Fig. 11 — k vs. information loss, mono- vs multi-attribute binning |
//! | `figures fig12a` | Fig. 12(a) — mark loss under subset alteration, η ∈ {50, 75, 100} |
//! | `figures fig12b` | Fig. 12(b) — mark loss under subset addition |
//! | `figures fig12c` | Fig. 12(c) — mark loss under subset deletion |
//! | `figures fig13` | Fig. 13 — information loss caused by watermarking vs η |
//! | `figures fig14` | Fig. 14 — effect of watermarking on binning (bin statistics) |
//! | `figures generalization_attack` | §5.2 ablation — single-level vs hierarchical under the generalization attack |
//! | `throughput` | engine throughput at 1/2/4/8 threads → `BENCH_throughput.json` |
//! | `binning` | sharded `GenUltiNd` search throughput at 1/2/4/8 threads → `BENCH_binning.json` |
//! | `serve` | loopback serving-layer requests/sec at 1/2/4/8 pool workers, 1/64/1024 pipelined connections and 1/4/16 registered recipients → `BENCH_serve.json` |
//! | `check-regression` | CI guard: fresh `BENCH_*.json` vs `baselines/`, fails on >25% 1-thread (or 1024-connection / 16-recipient) drop, refuses cross-core-count comparisons |
//!
//! The experiments default to the paper's scale (20,000 tuples); set the
//! environment variable `MEDSHIELD_TUPLES` to run them smaller or larger.
//!
//! ```
//! use medshield_datagen::{DatasetConfig, MedicalDataset};
//!
//! let ds = MedicalDataset::generate(&DatasetConfig::small(50));
//! // "Directly given" usage metrics: one maximal node (the root) per tree.
//! let metrics = medshield_bench::experiment_pipeline(10, 50).default_maximal(&ds.trees);
//! assert_eq!(metrics.len(), 5);
//! assert!(metrics.values().all(|g| g.len() == 1));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use medshield_core::dht::GeneralizationSet;
use medshield_core::metrics::{table_info_loss, ColumnGeneralization};
use medshield_core::{ProtectedRelease, ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

/// Number of tuples used by the experiments: `MEDSHIELD_TUPLES` or the
/// paper's 20,000.
pub fn experiment_tuples() -> usize {
    std::env::var("MEDSHIELD_TUPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000)
}

/// The seed shared by all experiments so that every figure is generated from
/// the same synthetic hospital table.
pub const EXPERIMENT_SEED: u64 = 0x1CDE_2005;

/// Generate the experiment data set.
pub fn experiment_dataset() -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig {
        num_tuples: experiment_tuples(),
        seed: EXPERIMENT_SEED,
        zipf_exponent: 0.8,
    })
}

/// Build the standard sequential engine used by the watermarking experiments.
pub fn experiment_pipeline(k: usize, eta: u64) -> ProtectionEngine {
    ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(k)
            .epsilon(2)
            .eta(eta)
            .duplication(4)
            .mark_len(20)
            .mark_text("MedShield experiment owner")
            .build(),
    )
}

/// Protect the experiment data set with the standard pipeline (full
/// multi-attribute k-anonymity).
pub fn protect(
    dataset: &MedicalDataset,
    k: usize,
    eta: u64,
) -> (ProtectionEngine, ProtectedRelease) {
    let pipeline = experiment_pipeline(k, eta);
    let release = pipeline
        .protect(&dataset.table, &dataset.trees)
        .expect("the synthetic experiment data are binnable");
    (pipeline, release)
}

/// Protect the experiment data set enforcing k-anonymity per attribute only —
/// the granularity at which the paper's §6 analysis and its Fig. 12–14
/// experiments operate (each attribute's bins hold ≥ k records). This leaves
/// the watermark the wide bandwidth channel the paper's robustness numbers
/// assume.
pub fn protect_per_attribute(
    dataset: &MedicalDataset,
    k: usize,
    eta: u64,
) -> (ProtectionEngine, ProtectedRelease) {
    let pipeline = experiment_pipeline(k, eta);
    let release = pipeline
        .protect_per_attribute(&dataset.table, &dataset.trees)
        .expect("the synthetic experiment data are binnable per attribute");
    (pipeline, release)
}

/// Normalized information loss (Eq. 3) of a set of per-column generalizations
/// measured against the original table.
pub fn info_loss_of(dataset: &MedicalDataset, columns: &[(String, GeneralizationSet)]) -> f64 {
    let cgs: Vec<ColumnGeneralization<'_>> = columns
        .iter()
        .map(|(name, g)| ColumnGeneralization {
            column: name,
            tree: &dataset.trees[name],
            generalization: g,
        })
        .collect();
    table_info_loss(&dataset.table, &cgs).expect("experiment columns are measurable")
}

/// Print a two-column header for a figure reproduction.
pub fn print_figure_header(figure: &str, caption: &str) {
    println!("==================================================================");
    println!("{figure}: {caption}");
    println!("dataset: {} tuples (seed {EXPERIMENT_SEED:#x})", experiment_tuples());
    println!("==================================================================");
}

/// The table layout the benches run against, recorded as the `layout` axis
/// of every `BENCH_*.json` so regression checks never compare columnar
/// numbers against a row-major baseline (or vice versa).
pub const TABLE_LAYOUT: &str = "columnar";

/// Peak resident set size of this process in KiB, read from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable
/// (non-Linux hosts); the benches then omit the field.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minimal readers for the `BENCH_*.json` files the bench binaries emit.
///
/// The workspace is hermetic (no serde_json), and the files are produced by
/// our own binaries in a fixed shape, so a small field scanner is all the
/// regression guard (`bench --bin check-regression`) needs.
pub mod benchjson {
    /// The numeric value of `"field": <number>` inside `block`.
    fn field_number(block: &str, field: &str) -> Option<f64> {
        let needle = format!("\"{field}\":");
        let at = block.find(&needle)? + needle.len();
        let rest = block[at..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// The value of `field` in the object of the top-level `"<axis>": [...]`
    /// array whose `"<axis>"` key equals `key` — the `"threads"` array is
    /// keyed by worker count, the serving bench's `"connections"` array by
    /// connection count.
    pub fn axis_metric(json: &str, axis: &str, key: usize, field: &str) -> Option<f64> {
        let needle = format!("\"{axis}\": [");
        let start = json.find(&needle)?;
        let array = &json[start..];
        let end = array.find(']')?;
        let array = &array[..end];
        let mut rest = array;
        while let Some(open) = rest.find('{') {
            let close = rest[open..].find('}')? + open;
            let block = &rest[open..=close];
            if field_number(block, axis) == Some(key as f64) {
                return field_number(block, field);
            }
            rest = &rest[close + 1..];
        }
        None
    }

    /// The value of `field` in the object of the top-level `"threads": [...]`
    /// array whose `"threads"` count equals `threads`.
    pub fn thread_metric(json: &str, threads: usize, field: &str) -> Option<f64> {
        axis_metric(json, "threads", threads, field)
    }

    /// A top-level numeric field (e.g. `"rows"`, `"k"`, `"candidates"`),
    /// read from the prefix before the `"threads"` array so per-thread
    /// fields can never shadow it.
    pub fn top_metric(json: &str, field: &str) -> Option<f64> {
        let end = json.find("\"threads\": [").unwrap_or(json.len());
        field_number(&json[..end], field)
    }

    /// A top-level string field (e.g. `"layout"`), read from the prefix
    /// before the `"threads"` array so per-thread fields can never shadow
    /// it.
    pub fn top_string<'a>(json: &'a str, field: &str) -> Option<&'a str> {
        let end = json.find("\"threads\": [").unwrap_or(json.len());
        let head = &json[..end];
        let needle = format!("\"{field}\":");
        let at = head.find(&needle)? + needle.len();
        let rest = head[at..].trim_start().strip_prefix('"')?;
        rest.split('"').next()
    }

    /// The benchmark name (`"benchmark": "..."`), for log messages.
    pub fn benchmark_name(json: &str) -> Option<&str> {
        let at = json.find("\"benchmark\":")? + "\"benchmark\":".len();
        let rest = json[at..].trim_start().strip_prefix('"')?;
        rest.split('"').next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_tuples_honours_env_override() {
        // Not setting the variable yields the paper default.
        std::env::remove_var("MEDSHIELD_TUPLES");
        assert_eq!(experiment_tuples(), 20_000);
    }

    #[test]
    fn root_usage_metrics_cover_every_quasi_column() {
        let ds = MedicalDataset::generate(&DatasetConfig::small(50));
        let m = experiment_pipeline(10, 50).default_maximal(&ds.trees);
        assert_eq!(m.len(), 5);
        for (name, g) in &m {
            assert_eq!(g, &GeneralizationSet::root_only(&ds.trees[name]));
        }
    }

    #[test]
    fn info_loss_of_root_generalization_is_high() {
        let ds = MedicalDataset::generate(&DatasetConfig::small(200));
        let columns: Vec<(String, GeneralizationSet)> =
            ds.trees.iter().map(|(n, t)| (n.clone(), GeneralizationSet::root_only(t))).collect();
        let loss = info_loss_of(&ds, &columns);
        assert!(loss > 0.9);
    }

    #[test]
    fn benchjson_reads_the_emitted_shape() {
        let json = r#"{
  "benchmark": "binning-search-throughput",
  "layout": "columnar",
  "rows": 2000,
  "threads": [
    {"threads": 1, "rows_per_sec": 700.5, "candidates_per_sec": 17000.0},
    {"threads": 4, "rows_per_sec": 2800.0, "candidates_per_sec": 68000.0}
  ],
  "connections": [
    {"connections": 64, "requests_per_sec": 410.0},
    {"connections": 1024, "requests_per_sec": 395.5}
  ],
  "speedup_4t_vs_1t": 4.00
}
"#;
        assert_eq!(benchjson::benchmark_name(json), Some("binning-search-throughput"));
        // A second axis keyed by its own field resolves independently of the
        // threads array.
        assert_eq!(
            benchjson::axis_metric(json, "connections", 1024, "requests_per_sec"),
            Some(395.5)
        );
        assert_eq!(
            benchjson::axis_metric(json, "connections", 64, "requests_per_sec"),
            Some(410.0)
        );
        assert_eq!(benchjson::axis_metric(json, "connections", 2, "requests_per_sec"), None);
        assert_eq!(benchjson::axis_metric(json, "nope", 1, "requests_per_sec"), None);
        // Top-level fields resolve from the prefix only: "rows" is found,
        // while the per-thread "rows_per_sec" entries cannot shadow it.
        assert_eq!(benchjson::top_metric(json, "rows"), Some(2000.0));
        assert_eq!(benchjson::top_metric(json, "k"), None);
        assert_eq!(benchjson::thread_metric(json, 1, "rows_per_sec"), Some(700.5));
        assert_eq!(benchjson::thread_metric(json, 4, "candidates_per_sec"), Some(68000.0));
        assert_eq!(benchjson::thread_metric(json, 2, "rows_per_sec"), None);
        assert_eq!(benchjson::thread_metric(json, 1, "nope"), None);
        assert_eq!(benchjson::thread_metric("not json", 1, "rows_per_sec"), None);
        assert_eq!(benchjson::benchmark_name("{}"), None);
        // String fields resolve from the prefix only, like top_metric.
        assert_eq!(benchjson::top_string(json, "layout"), Some("columnar"));
        assert_eq!(benchjson::top_string(json, "benchmark"), Some("binning-search-throughput"));
        assert_eq!(benchjson::top_string(json, "rows"), None);
        assert_eq!(benchjson::top_string(json, "nope"), None);
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // The CI hosts are Linux, where /proc/self/status always carries a
        // VmHWM line; elsewhere the benches simply omit the field.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kib().unwrap() > 0);
        }
    }
}
