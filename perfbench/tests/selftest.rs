//! Self-tests of the benchmark harness: seeded request streams are
//! reproducible, the correctness gates fire on corrupted replies, and the
//! names the harness prints match `BENCHMARK.json`.

use medshield_perfbench::served::{self, Reply};
use medshield_perfbench::{audit, gen, ingest, names};
use medshield_serve::{serve, Client, ServeConfig};

const INGEST: ingest::Shape =
    ingest::Shape { pool: 6, rows: (120, 240), bases: 2, base_rows: (120, 200), recipients: 3 };

const AUDIT: audit::Shape = audit::Shape {
    releases: 3,
    rows: (150, 300),
    recipients: 4,
    resolves_per_cycle: 2,
    lists_per_cycle: 1,
};

/// The bytes of the first `n` requests a workload would send.
fn stream_bytes(ops: &[served::Op], stream: &[usize], n: usize) -> Vec<u8> {
    stream.iter().take(n).flat_map(|&op| ops[op].payload()).collect()
}

fn ingest_stream(seed: u64) -> Vec<u8> {
    let inputs = ingest::build_inputs(seed, INGEST);
    stream_bytes(&inputs.ops, &inputs.stream, 40)
}

fn audit_stream(seed: u64) -> Vec<u8> {
    let inputs = audit::build_inputs(seed, AUDIT, 2);
    stream_bytes(&inputs.ops, &inputs.stream, 40)
}

#[test]
fn same_seed_yields_byte_identical_request_streams() {
    assert_eq!(ingest_stream(7), ingest_stream(7));
    assert_eq!(audit_stream(7), audit_stream(7));
}

#[test]
fn a_different_seed_changes_the_request_streams() {
    assert_ne!(ingest_stream(7), ingest_stream(8));
    assert_ne!(audit_stream(7), audit_stream(8));
}

#[test]
fn stratified_sizes_cover_every_stratum() {
    let sizes = gen::stratified_log_uniform(&mut gen::Rng::new(3), 8, 250, 8_000);
    for (i, &rows) in sizes.iter().enumerate() {
        let lo = 250.0 * 32f64.powf(i as f64 / 8.0);
        let hi = 250.0 * 32f64.powf((i + 1) as f64 / 8.0);
        assert!(
            (lo.floor() as usize..=hi.ceil() as usize).contains(&rows),
            "{rows} in stratum {i}"
        );
    }
}

#[test]
fn the_ingest_gate_fires_on_a_corrupted_reply() {
    let inputs = ingest::build_inputs(5, INGEST);
    let mut report = medshield_perfbench::report::Report::default();
    let expected = ingest::expectations(&inputs, &mut report, 2);
    assert!(report.totals().failed == 0, "the small inputs meet every guarantee");

    let config =
        ServeConfig { engine: served::engine_config(), workers: 1, ..ServeConfig::default() };
    let handle = serve(config, "127.0.0.1:0").expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let response = client.request_raw(&inputs.ops[0].payload()).expect("protect reply");
    handle.shutdown();
    let body = response.body.clone().unwrap_or_default();
    let reply = Reply { json: response.json.clone(), body_hash: gen::fnv1a(body.as_bytes()) };
    assert!(ingest::check(&expected[0], &reply), "the served reply matches the engine");

    let flipped_body = Reply { body_hash: reply.body_hash ^ 1, ..reply.clone() };
    assert!(!ingest::check(&expected[0], &flipped_body));
    let wrong_mark = Reply { json: reply.json.replace("\"mark\":\"", "\"mark\":\"1"), ..reply };
    assert!(!ingest::check(&expected[0], &wrong_mark));
}

/// The `"name"` (and `"unit"`) values of one array in `BENCHMARK.json`.
fn declared(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    let field = |entry: &str, name: &str| {
        let at = entry.find(&format!("\"{name}\""))?;
        let rest = &entry[at + name.len() + 2..];
        let value = &rest[rest.find('"')? + 1..];
        Some(value[..value.find('"')?].to_string())
    };
    json[open + 1..close]
        .split('}')
        .filter_map(|entry| field(entry, "name").map(|n| (n, field(entry, "unit"))))
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = declared(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, names::WORKLOADS);
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
    };
    assert_eq!(declared(&json, "end_to_end"), pairs(&names::END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(&names::PER_LAYER));
}

#[test]
fn the_result_line_carries_exactly_the_declared_metrics() {
    let mut report = medshield_perfbench::report::Report::default();
    report.record("detect", true);
    for trace in [false, true] {
        let line = report.result_line(trace);
        let declared: &[(&str, &str)] = if trace { &names::PER_LAYER } else { &names::END_TO_END };
        for (name, unit) in declared {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name} missing");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
    }
}

/// A reply whose last digit is changed (a mark bit, a loss, a recipient).
fn corrupt(reply: &Reply) -> Reply {
    let mut json = reply.json.clone().into_bytes();
    let last = json.iter().rposition(u8::is_ascii_digit).expect("the report has a digit");
    json[last] = if json[last] == b'9' { b'0' } else { json[last] + 1 };
    Reply { json: String::from_utf8(json).expect("ASCII edit"), body_hash: reply.body_hash }
}

#[test]
fn the_audit_gate_fires_on_corrupted_replies() {
    let inputs = audit::build_inputs(5, AUDIT, 2);
    let mut report = medshield_perfbench::report::Report::default();
    let expected = audit::expectations(&inputs, &mut report, 2);
    assert!(report.totals().failed == 0, "clean releases keep their mark, leakers rank first");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit-gate-store");
    served::write_history(&dir, &inputs.releases, 0).expect("store written");
    let handle = serve(served::serve_config(&dir, 0), "127.0.0.1:0").expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for (i, op) in inputs.ops.iter().enumerate() {
        let response = client.request_raw(&op.payload()).expect("reply");
        let reply = Reply { json: response.json, body_hash: 0 };
        assert!(audit::check(&expected[i], &reply), "{} reply {i} matches", op.command);
        assert!(
            !audit::check(&expected[i], &corrupt(&reply)),
            "{} corruption {i} caught",
            op.command
        );
    }
    handle.shutdown();
}
