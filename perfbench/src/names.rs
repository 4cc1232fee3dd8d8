//! Workload and metric names, with their units. `BENCHMARK.json` at the
//! repository root must list exactly these (a self-test checks it).

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["ingest", "audit"];

/// End-to-end metrics (printed with tracing off).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (printed with tracing on). A layer that a workload
/// never runs reports 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("relation.csv_parse_ms", "ms"),
    ("relation.csv_encode_ms", "ms"),
    ("binning.search_ms", "ms"),
    ("binning.apply_ms", "ms"),
    ("watermark.embed_prepare_ms", "ms"),
    ("watermark.embed_run_ms", "ms"),
    ("watermark.embed_apply_ms", "ms"),
    ("watermark.detect_prepare_ms", "ms"),
    ("watermark.detect_run_ms", "ms"),
    ("watermark.fingerprint_derive_us", "us"),
    ("watermark.fingerprint_score_us", "us"),
    ("watermark.selected_share", "ratio"),
    ("store.append_ms", "ms"),
    ("store.sync_ms", "ms"),
    ("store.recover_s", "s"),
    ("store.wal_bytes_per_input_byte", "ratio"),
    ("serve.overhead_ms", "ms"),
    ("serve.ping_rtt_ms", "ms"),
    ("serve.batched_detect_share", "ratio"),
    ("attacks.alteration_ms", "ms"),
    ("attacks.addition_ms", "ms"),
    ("attacks.deletion_ms", "ms"),
    ("attacks.generalization_ms", "ms"),
    ("engine.protect_ms", "ms"),
    ("engine.detect_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The unit of a metric, or `None` for an unknown name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, unit)| *unit)
}
