//! Loopback integration suite for the serving layer.
//!
//! Every test starts a real server on an ephemeral loopback port, talks to
//! it over TCP with the crate's own client, and asserts two things above
//! all: served results are **byte-identical** to calling the engine
//! in-process, and no malformed, oversized, empty or ill-timed submission
//! ever gets anything other than a structured error reply.

use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{ontology, DatasetConfig, MedicalDataset};
use medshield_relation::{csv, Schema, Table};
use medshield_serve::protocol::{encode_frame, read_frame, DEFAULT_MAX_FRAME_LEN};
use medshield_serve::{serve, Client, Command, Request, Response, ServeConfig, MEDICAL_ROLES};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn engine_config() -> ProtectionConfig {
    ProtectionConfig::builder().k(4).eta(5).duplication(2).mark_from_statistic(true).build()
}

fn serve_config() -> ServeConfig {
    ServeConfig { engine: engine_config(), workers: 2, ..ServeConfig::default() }
}

fn dataset(n: usize) -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig::small(n))
}

/// Drop the last `n` data rows of a CSV (a crude subset-deletion attack).
fn drop_tail_rows(table_csv: &str, n: usize) -> String {
    let mut lines: Vec<&str> = table_csv.lines().collect();
    let keep = lines.len().saturating_sub(n).max(1);
    lines.truncate(keep);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Drop the column `name` from a CSV table.
fn drop_column(table_csv: &str, name: &str) -> String {
    let table = csv::from_csv(table_csv, &MEDICAL_ROLES).unwrap();
    let schema = table.schema();
    let keep: Vec<usize> =
        (0..schema.arity()).filter(|&i| schema.column(i).unwrap().name != name).collect();
    let defs = keep.iter().map(|&i| schema.column(i).unwrap().clone()).collect();
    let mut out = Table::new(Schema::new(defs).unwrap());
    for row in 0..table.len() {
        out.insert(keep.iter().map(|&i| table.value_at(row, i).unwrap().clone()).collect())
            .unwrap();
    }
    csv::to_csv(&out)
}

#[test]
fn served_protect_detect_resolve_match_in_process() {
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let ds = dataset(400);
    let table_csv = csv::to_csv(&ds.table);
    let trees = ontology::all_trees();
    let engine = ProtectionEngine::new(engine_config(), 1).unwrap();

    for per_attribute in [true, false] {
        // protect: the served release must be the in-process bytes.
        let reply = client.protect_mode(&table_csv, per_attribute).unwrap();
        assert!(reply.is_ok(), "{}", reply.json);
        let expected = if per_attribute {
            engine.protect_per_attribute(&ds.table, &ds.trees).unwrap()
        } else {
            engine.protect(&ds.table, &ds.trees).unwrap()
        };
        assert_eq!(
            reply.body.as_deref(),
            Some(csv::to_csv(&expected.table).as_str()),
            "served release must be byte-identical to the in-process engine"
        );
        assert_eq!(reply.u64_field("rows"), Some(expected.table.len() as u64));
        assert_eq!(
            reply.u64_field("selected_tuples"),
            Some(expected.embedding.selected_tuples as u64)
        );
        assert_eq!(reply.str_field("mark").as_deref(), Some(expected.mark.to_string().as_str()));
        assert_eq!(reply.bool_field("has_ownership_proof"), Some(true));
        let release_id = reply.release_id().unwrap();

        // detect on the clean release: full mark, zero loss.
        let detect = client.detect(&release_id, reply.body.as_deref().unwrap()).unwrap();
        assert!(detect.is_ok(), "{}", detect.json);
        let expected_detection =
            engine.detect(&expected.table, &expected.binning.columns, &trees).unwrap();
        assert_eq!(
            detect.str_field("mark").as_deref(),
            Some(
                medshield_core::watermark::Mark::from_bits(expected_detection.mark.clone())
                    .to_string()
                    .as_str()
            )
        );
        assert_eq!(detect.f64_field("mark_loss"), Some(0.0));
        assert_eq!(detect.bool_field("carries_mark"), Some(true));

        // detect on an attacked (tail-deleted) suspect still matches the
        // in-process report.
        let attacked_csv = drop_tail_rows(reply.body.as_deref().unwrap(), 40);
        let attacked = csv::from_csv(&attacked_csv, &medshield_serve::MEDICAL_ROLES).unwrap();
        let served = client.detect(&release_id, &attacked_csv).unwrap();
        assert!(served.is_ok(), "{}", served.json);
        let expected_attacked =
            engine.detect(&attacked, &expected.binning.columns, &trees).unwrap();
        assert_eq!(
            served.u64_field("selected_tuples"),
            Some(expected_attacked.selected_tuples as u64)
        );
        assert_eq!(
            served.str_field("mark").as_deref(),
            Some(
                medshield_core::watermark::Mark::from_bits(expected_attacked.mark.clone())
                    .to_string()
                    .as_str()
            )
        );

        // embed: re-marking the retained binning state is byte-identical.
        let binned_csv = csv::to_csv(&expected.binning.table);
        let embed = client.embed(&release_id, &binned_csv).unwrap();
        assert!(embed.is_ok(), "{}", embed.json);
        let (expected_marked, _) = engine
            .embed(&expected.binning.table, &expected.binning.columns, &trees, &expected.mark)
            .unwrap();
        assert_eq!(embed.body.as_deref(), Some(csv::to_csv(&expected_marked).as_str()));

        // resolve-ownership: the rightful owner wins the dispute over the
        // leaked release (tail-deletion shifts the identifying-column mean,
        // so the statistic test is run over the full leaked copy — exactly
        // the table a court would be shown)...
        let verdict =
            client.resolve_ownership(&release_id, reply.body.as_deref().unwrap()).unwrap();
        assert!(verdict.is_ok(), "{}", verdict.json);
        assert_eq!(verdict.bool_field("statistic_consistent"), Some(true), "{}", verdict.json);
        assert_eq!(verdict.bool_field("accepted"), Some(true), "{}", verdict.json);
        // ...and a thief presenting a fabricated statistic loses.
        let thief = client
            .call(
                &Request::new(Command::ResolveOwnership)
                    .param("release", release_id.as_str())
                    .param("statistic", "99999999.0")
                    .body(reply.body.as_deref().unwrap()),
            )
            .unwrap();
        assert!(thief.is_ok(), "{}", thief.json);
        assert_eq!(thief.bool_field("accepted"), Some(false), "{}", thief.json);
    }
    handle.shutdown();
}

#[test]
fn empty_submissions_get_clean_replies_never_panics() {
    // mark_text mode: a 0-row protect legitimately yields an empty release.
    let config = ServeConfig {
        engine: ProtectionConfig::builder().k(3).eta(4).duplication(2).mark_text("owner").build(),
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let header = "ssn,age,zip_code,doctor,symptom,prescription\n";
    let reply = client.protect(header).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    assert_eq!(reply.u64_field("rows"), Some(0));
    assert_eq!(reply.u64_field("selected_tuples"), Some(0));
    let release_id = reply.release_id().unwrap();
    // A fully-deleted (0-row) suspect detects cleanly with zero votes.
    let detect = client.detect(&release_id, header).unwrap();
    assert!(detect.is_ok(), "{}", detect.json);
    assert_eq!(detect.u64_field("selected_tuples"), Some(0));
    assert_eq!(detect.u64_field("covered_positions"), Some(0));
    // embed into the empty binned table: empty report, no panic.
    let embed = client.embed(&release_id, header).unwrap();
    assert!(embed.is_ok(), "{}", embed.json);
    assert_eq!(embed.u64_field("selected_tuples"), Some(0));
    handle.shutdown();

    // mark-from-statistic mode: a 0-row protect cannot derive the statistic
    // and must fail with a structured engine error, not a panic.
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client.protect(header).unwrap();
    assert!(!reply.is_ok(), "{}", reply.json);
    assert_eq!(reply.code().as_deref(), Some("engine"));
    handle.shutdown();
}

#[test]
fn malformed_inputs_get_structured_errors() {
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Malformed CSV body (unterminated quote).
    let reply = client.protect("ssn,age\n\"oops,1\n").unwrap();
    assert_eq!(reply.code().as_deref(), Some("malformed-csv"), "{}", reply.json);

    // Unknown command.
    let reply = client.request_raw(b"nuke --all\n").unwrap();
    assert_eq!(reply.code().as_deref(), Some("unknown-command"), "{}", reply.json);

    // Empty header line.
    let reply = client.request_raw(b"\n").unwrap();
    assert_eq!(reply.code().as_deref(), Some("bad-request"), "{}", reply.json);

    // Non-UTF-8 payload.
    let reply = client.request_raw(&[0xff, 0xfe, 0x00]).unwrap();
    assert_eq!(reply.code().as_deref(), Some("bad-request"), "{}", reply.json);

    // Malformed header parameter.
    let reply = client.request_raw(b"detect release\n").unwrap();
    assert_eq!(reply.code().as_deref(), Some("bad-request"), "{}", reply.json);

    // Missing release parameter.
    let reply = client.call(&Request::new(Command::Detect).body("ssn,age\n")).unwrap();
    assert_eq!(reply.code().as_deref(), Some("missing-parameter"), "{}", reply.json);

    // Unknown release id.
    let reply = client.detect("r999", "ssn,age\n1,2\n").unwrap();
    assert_eq!(reply.code().as_deref(), Some("unknown-release"), "{}", reply.json);

    // The connection stays alive and useful through all of the above.
    let pong = client.ping().unwrap();
    assert!(pong.is_ok());
    handle.shutdown();
}

#[test]
fn oversized_frames_get_a_structured_reply() {
    let config = ServeConfig { max_frame_len: 1024, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let huge = Request::new(Command::Protect).body("x".repeat(10_000));
    let reply = client.call(&huge).unwrap();
    assert_eq!(reply.code().as_deref(), Some("oversized-frame"), "{}", reply.json);
    assert!(reply.message().unwrap().contains("1024"), "{}", reply.json);
    handle.shutdown();
}

/// Send `payload` as one raw v1 frame and read the reply, which must be a
/// v1 frame too.
fn v1_call(stream: &mut TcpStream, payload: &[u8]) -> Response {
    stream.write_all(&encode_frame(None, payload).unwrap()).unwrap();
    let frame = read_frame(stream, DEFAULT_MAX_FRAME_LEN).unwrap().expect("a v1 reply frame");
    assert_eq!(frame.request_id, None, "a v1 request got a v2 reply");
    Response::decode(&frame.payload).unwrap()
}

#[test]
fn v1_frames_get_the_replies_the_client_gets() {
    // Two fresh servers, so both hand out the same release ids: one is
    // spoken to in raw v1 frames, the other through the v2 `Client`.
    let max_frame_len = 64 * 1024;
    let config = || ServeConfig { max_frame_len, ..serve_config() };
    let (v1_server, v2_server) =
        (serve(config(), "127.0.0.1:0").unwrap(), serve(config(), "127.0.0.1:0").unwrap());
    let mut v1 = TcpStream::connect(v1_server.addr()).unwrap();
    let mut client = Client::connect(v2_server.addr()).unwrap();

    let protect = Request::new(Command::Protect).body(csv::to_csv(&dataset(300).table)).encode();
    assert!(protect.len() < max_frame_len);
    let protected = v1_call(&mut v1, &protect);
    assert!(protected.is_ok(), "{}", protected.json);
    assert_eq!(protected, client.request_raw(&protect).unwrap());

    let suspect = drop_tail_rows(protected.body.as_deref().unwrap(), 40);
    let detect = Request::new(Command::Detect)
        .param("release", protected.release_id().unwrap())
        .body(suspect)
        .encode();
    assert!(detect.len() < max_frame_len);
    let detected = v1_call(&mut v1, &detect);
    assert_eq!(detected.bool_field("carries_mark"), Some(true), "{}", detected.json);
    assert_eq!(detected, client.request_raw(&detect).unwrap());

    // The oversized frame goes last: the server closes the connection after
    // refusing it.
    let refusals = [
        (b"nuke --all\n".to_vec(), "unknown-command"),
        (b"\n".to_vec(), "bad-request"),
        (vec![b'x'; max_frame_len + 1], "oversized-frame"),
    ];
    for (payload, code) in refusals {
        let refused = v1_call(&mut v1, &payload);
        assert_eq!(refused.code().as_deref(), Some(code), "{}", refused.json);
        assert_eq!(refused, client.request_raw(&payload).unwrap());
    }
    v1_server.shutdown();
    v2_server.shutdown();
}

#[test]
fn queue_full_and_timeout_are_structured_errors() {
    // One worker, a queue of one, and the debug sleep command to hold the
    // worker deterministically.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        request_timeout: Duration::from_millis(150),
        debug_hooks: true,
        ..serve_config()
    };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Occupy the worker...
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::new(Command::Sleep).param("ms", "600")).unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...fill the queue with a request that will overstay its deadline...
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::new(Command::Ping).body("")).unwrap(); // warm up
        c.call(&Request::new(Command::Sleep).param("ms", "1")).unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...and the next request bounces off the full queue immediately.
    let mut c = Client::connect(addr).unwrap();
    let reply = c.call(&Request::new(Command::Sleep).param("ms", "1")).unwrap();
    assert_eq!(reply.code().as_deref(), Some("queue-full"), "{}", reply.json);
    // Ping still answers inline while the pool is saturated.
    let pong = c.ping().unwrap();
    assert!(pong.is_ok(), "{}", pong.json);

    let slept = sleeper.join().unwrap();
    assert!(slept.is_ok(), "{}", slept.json);
    // The queued request waited ~600ms against a 150ms deadline: timeout.
    let timed_out = waiter.join().unwrap();
    assert_eq!(timed_out.code().as_deref(), Some("timeout"), "{}", timed_out.json);
    handle.shutdown();
}

#[test]
fn small_detects_are_micro_batched_with_identical_results() {
    let config = ServeConfig { workers: 1, debug_hooks: true, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let ds = dataset(240);
    let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    let release_id = reply.release_id().unwrap();
    let release_csv = reply.body.clone().unwrap();

    // Expected report, in-process.
    let engine = ProtectionEngine::new(engine_config(), 1).unwrap();
    let expected_release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
    let trees = ontology::all_trees();
    let expected =
        engine.detect(&expected_release.table, &expected_release.binning.columns, &trees).unwrap();

    // Hold the single worker so concurrent detects pile up in the queue and
    // get drained as one micro-batch.
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::new(Command::Sleep).param("ms", "400")).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let detectors: Vec<_> = (0..4)
        .map(|_| {
            let release_id = release_id.clone();
            let release_csv = release_csv.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.detect(&release_id, &release_csv).unwrap()
            })
        })
        .collect();
    for d in detectors {
        let served = d.join().unwrap();
        assert!(served.is_ok(), "{}", served.json);
        assert_eq!(served.u64_field("selected_tuples"), Some(expected.selected_tuples as u64));
        assert_eq!(
            served.str_field("mark").as_deref(),
            Some(
                medshield_core::watermark::Mark::from_bits(expected.mark.clone())
                    .to_string()
                    .as_str()
            )
        );
        assert_eq!(served.f64_field("mark_loss"), Some(0.0));
    }
    sleeper.join().unwrap();
    let pong = client.ping().unwrap();
    assert!(
        pong.u64_field("batched_detects").unwrap_or(0) >= 2,
        "expected a micro-batch of detects, got {}",
        pong.json
    );
    handle.shutdown();
}

/// One micro-batch that mixes a valid suspect, a suspect missing a quasi
/// column, a malformed body and a header-only body answers every detect
/// exactly as the same detect sent alone: whichever suspect the shared plan
/// is built from, with the engine sharded or not.
#[test]
fn a_mixed_micro_batch_answers_each_detect_as_if_sent_alone() {
    for engine_threads in [1, 2] {
        let config =
            ServeConfig { workers: 1, engine_threads, debug_hooks: true, ..serve_config() };
        let handle = serve(config, "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();
        let reply = client.protect(&csv::to_csv(&dataset(240).table)).unwrap();
        let release_id = reply.release_id().unwrap();
        let valid = reply.body.unwrap();
        let suspects = [
            "ssn,age\n\"oops,1\n".to_string(),
            valid.clone(),
            drop_column(&valid, "symptom"),
            format!("{}\n", valid.lines().next().unwrap()),
        ];
        let alone: Vec<Response> =
            suspects.iter().map(|s| client.detect(&release_id, s).unwrap()).collect();
        assert_eq!(alone[0].code().as_deref(), Some("malformed-csv"), "{}", alone[0].json);
        assert_eq!(alone[1].f64_field("mark_loss"), Some(0.0), "{}", alone[1].json);
        assert!(alone[2].is_ok(), "{}", alone[2].json);
        assert_eq!(alone[3].u64_field("rows"), Some(0), "{}", alone[3].json);

        // The shared plan comes from the full schema, then from the reduced
        // one; the other schema takes the engine's own plan.
        for order in [[0, 1, 2, 3], [0, 2, 3, 1]] {
            let before = client.ping().unwrap().u64_field("batched_detects").unwrap();
            // Hold the single worker so the detects queue up behind the
            // sleep on the same connection and are drained as one batch.
            let mut pipelined = Client::connect(addr).unwrap();
            let sleep = pipelined.submit(&Request::new(Command::Sleep).param("ms", "400")).unwrap();
            let ids: Vec<u64> = order
                .iter()
                .map(|&i| {
                    let request = Request::new(Command::Detect)
                        .param("release", release_id.as_str())
                        .body(suspects[i].as_str());
                    pipelined.submit(&request).unwrap()
                })
                .collect();
            for (&i, id) in order.iter().zip(ids) {
                assert_eq!(
                    pipelined.wait(id).unwrap(),
                    alone[i],
                    "suspect {i} in batch {order:?} ({engine_threads} engine threads)"
                );
            }
            assert!(pipelined.wait(sleep).unwrap().is_ok());
            let after = client.ping().unwrap().u64_field("batched_detects").unwrap();
            assert_eq!(after - before, 4, "the four detects form one micro-batch");
        }
        handle.shutdown();
    }
}

#[test]
fn shutdown_is_not_wedged_by_a_stalled_partial_frame() {
    use std::io::Write;
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    // A misbehaving client: send half a length prefix, then go silent
    // without closing the socket.
    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(&[0u8, 0]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // Shutdown must still complete within the connection grace period.
    let start = std::time::Instant::now();
    handle.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} — wedged on the stalled connection",
        start.elapsed()
    );
    drop(stalled);
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    let ds = dataset(150);
    let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    handle.shutdown();
    // After shutdown the port no longer serves: either the connection is
    // refused outright or the request fails.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "the server must be gone after shutdown"),
    }
}

#[test]
fn resolve_without_an_ownership_proof_is_a_structured_code() {
    // Protect WITHOUT mark-from-statistic: the release carries no proof, so
    // the dispute protocol cannot run — the claimant must get the dedicated
    // machine-readable code, not a panic, an empty body or a generic
    // bad-request.
    let config = ServeConfig {
        engine: ProtectionConfig::builder().k(4).eta(5).duplication(2).build(),
        workers: 1,
        ..ServeConfig::default()
    };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let ds = dataset(200);
    let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    assert_eq!(reply.bool_field("has_ownership_proof"), Some(false), "{}", reply.json);
    let release_id = reply.release_id().unwrap();

    let verdict = client.resolve_ownership(&release_id, reply.body.as_deref().unwrap()).unwrap();
    assert!(!verdict.is_ok(), "{}", verdict.json);
    assert_eq!(verdict.code().as_deref(), Some("no-ownership-proof"), "{}", verdict.json);
    assert!(verdict.message().unwrap().contains("mark-from-statistic"), "{}", verdict.json);
    // The connection survives and the release still answers detect.
    let detect = client.detect(&release_id, reply.body.as_deref().unwrap()).unwrap();
    assert!(detect.is_ok(), "{}", detect.json);
    handle.shutdown();
}

#[test]
fn a_poisoned_store_lock_does_not_cascade_to_other_requests() {
    // The debug `panic poison=store` command panics *while holding the
    // release-store lock*, poisoning it. Before the serving layer recovered
    // poisoned locks with `into_inner`, every later request touching the
    // store would die in `.expect("poisoned")` — one sick worker taking
    // down unrelated connections.
    let config = ServeConfig { workers: 2, debug_hooks: true, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let poisoned = client.call(&Request::new(Command::Panic).param("poison", "store")).unwrap();
    assert_eq!(poisoned.code().as_deref(), Some("engine"), "{}", poisoned.json);

    // A fresh connection still protects, pings and detects: the store's
    // plain-map state is consistent, so the poison is recovered, not fatal.
    let mut second = Client::connect(handle.addr()).unwrap();
    let ds = dataset(150);
    let reply = second.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "protect after poison failed: {}", reply.json);
    let release_id = reply.release_id().unwrap();
    let detect = second.detect(&release_id, reply.body.as_deref().unwrap()).unwrap();
    assert!(detect.is_ok(), "detect after poison failed: {}", detect.json);
    let pong = second.ping().unwrap();
    assert_eq!(pong.u64_field("releases"), Some(1), "{}", pong.json);

    // A bare panic (no lock held) is likewise absorbed by the guard.
    let plain = second.call(&Request::new(Command::Panic)).unwrap();
    assert_eq!(plain.code().as_deref(), Some("engine"), "{}", plain.json);
    assert!(second.ping().unwrap().is_ok());
    handle.shutdown();
}

#[test]
fn debug_commands_stay_disabled_by_default() {
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for request in
        [Request::new(Command::Panic).param("poison", "store"), Request::new(Command::Sleep)]
    {
        let reply = client.call(&request).unwrap();
        assert_eq!(reply.code().as_deref(), Some("unknown-command"), "{}", reply.json);
    }
    handle.shutdown();
}

#[test]
fn protect_for_list_recipients_and_resolve_leaker_trace_the_leak() {
    use medshield_attacks::{Attack, CollusionAttack, SubsetAlteration};

    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let ds = dataset(400);
    let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    let release_id = reply.release_id().unwrap();
    let release_csv = reply.body.clone().unwrap();

    // Before any copy is issued, tracing has nothing to rank against.
    let bare = client.resolve_leaker(&release_id, &release_csv).unwrap();
    assert_eq!(bare.code().as_deref(), Some("no-recipients"), "{}", bare.json);
    let list = client.list_recipients(&release_id).unwrap();
    assert_eq!(list.u64_field("count"), Some(0), "{}", list.json);

    // Issue three per-recipient copies of the same release.
    let names = ["clinic-a", "clinic-b", "clinic-c"];
    let mut copies = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let copy = client.protect_for_release(&release_id, name, &release_csv).unwrap();
        assert!(copy.is_ok(), "{}", copy.json);
        assert_eq!(copy.str_field("recipient").as_deref(), Some(*name), "{}", copy.json);
        assert_eq!(copy.u64_field("recipients"), Some(i as u64 + 1), "{}", copy.json);
        copies.push(copy.body.clone().unwrap());
    }
    for i in 0..copies.len() {
        for j in i + 1..copies.len() {
            assert_ne!(copies[i], copies[j], "copies {i} and {j} are identical");
        }
    }
    // Re-issuing to a known recipient is idempotent: same copy, same count.
    let again = client.protect_for_release(&release_id, "clinic-a", &release_csv).unwrap();
    assert!(again.is_ok(), "{}", again.json);
    assert_eq!(again.u64_field("recipients"), Some(3), "{}", again.json);
    assert_eq!(again.body.as_deref(), Some(copies[0].as_str()));
    let list = client.list_recipients(&release_id).unwrap();
    assert_eq!(list.u64_field("count"), Some(3), "{}", list.json);
    assert_eq!(
        list.str_array_field("recipients"),
        Some(names.iter().map(std::string::ToString::to_string).collect()),
        "{}",
        list.json
    );

    // A clean leak of clinic-b's copy traces to clinic-b exactly.
    let verdict = client.resolve_leaker(&release_id, &copies[1]).unwrap();
    assert!(verdict.is_ok(), "{}", verdict.json);
    assert_eq!(verdict.str_field("leaker").as_deref(), Some("clinic-b"), "{}", verdict.json);
    assert_eq!(verdict.f64_field("leaker_score"), Some(1.0), "{}", verdict.json);
    assert_eq!(verdict.u64_field("candidates"), Some(3), "{}", verdict.json);
    assert_eq!(
        verdict.str_array_field("ranking").and_then(|r| r.first().cloned()).as_deref(),
        Some("clinic-b")
    );

    // …and still traces after a subset deletion of the leaked copy…
    let deleted = drop_tail_rows(&copies[1], 80);
    let verdict = client.resolve_leaker(&release_id, &deleted).unwrap();
    assert!(verdict.is_ok(), "{}", verdict.json);
    assert_eq!(verdict.str_field("leaker").as_deref(), Some("clinic-b"), "{}", verdict.json);

    // …and after a subset alteration.
    let copy_b = csv::from_csv(&copies[1], &medshield_serve::MEDICAL_ROLES).unwrap();
    let altered = SubsetAlteration::new(0.15, 7).apply(&copy_b);
    let verdict = client.resolve_leaker(&release_id, &csv::to_csv(&altered)).unwrap();
    assert!(verdict.is_ok(), "{}", verdict.json);
    assert_eq!(verdict.str_field("leaker").as_deref(), Some("clinic-b"), "{}", verdict.json);

    // A 2-party collusion of clinic-b and clinic-c majority-mixing their
    // copies must still convict a member of the colluding set, never the
    // innocent clinic-a.
    let copy_c = csv::from_csv(&copies[2], &medshield_serve::MEDICAL_ROLES).unwrap();
    let mixed = CollusionAttack::new(vec![copy_c], 11).apply(&copy_b);
    let verdict = client.resolve_leaker(&release_id, &csv::to_csv(&mixed)).unwrap();
    assert!(verdict.is_ok(), "{}", verdict.json);
    let leaker = verdict.str_field("leaker").unwrap();
    assert!(
        leaker == "clinic-b" || leaker == "clinic-c",
        "collusion must convict a colluder, got {leaker}: {}",
        verdict.json
    );

    // The suspects filter narrows the candidate set…
    let verdict = client
        .call(
            &Request::new(Command::ResolveLeaker)
                .param("release", release_id.as_str())
                .param("suspects", "clinic-a,clinic-b")
                .body(copies[1].as_str()),
        )
        .unwrap();
    assert!(verdict.is_ok(), "{}", verdict.json);
    assert_eq!(verdict.u64_field("candidates"), Some(2), "{}", verdict.json);
    assert_eq!(verdict.str_field("leaker").as_deref(), Some("clinic-b"), "{}", verdict.json);
    // …and an unregistered suspect is a structured error.
    let unknown = client
        .call(
            &Request::new(Command::ResolveLeaker)
                .param("release", release_id.as_str())
                .param("suspects", "clinic-z")
                .body(copies[1].as_str()),
        )
        .unwrap();
    assert_eq!(unknown.code().as_deref(), Some("unknown-recipient"), "{}", unknown.json);

    // A missing recipient parameter on protect-for is a structured error too.
    let missing = client
        .call(
            &Request::new(Command::ProtectFor)
                .param("release", release_id.as_str())
                .body(release_csv.as_str()),
        )
        .unwrap();
    assert_eq!(missing.code().as_deref(), Some("missing-parameter"), "{}", missing.json);
    handle.shutdown();
}

#[test]
fn one_shot_protect_for_creates_the_release_and_registers_the_recipient() {
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let ds = dataset(300);
    let reply = client.protect_for("clinic-x", &csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    let release_id = reply.release_id().unwrap();
    assert_eq!(reply.str_field("recipient").as_deref(), Some("clinic-x"), "{}", reply.json);
    assert_eq!(reply.u64_field("recipients"), Some(1), "{}", reply.json);
    assert_eq!(reply.bool_field("has_ownership_proof"), Some(true), "{}", reply.json);
    let copy_csv = reply.body.clone().unwrap();

    // The copy carries clinic-x's fingerprint: tracing names it.
    let verdict = client.resolve_leaker(&release_id, &copy_csv).unwrap();
    assert!(verdict.is_ok(), "{}", verdict.json);
    assert_eq!(verdict.str_field("leaker").as_deref(), Some("clinic-x"), "{}", verdict.json);
    assert_eq!(verdict.f64_field("leaker_score"), Some(1.0), "{}", verdict.json);

    // The detection structure over the copy matches the owner's release: the
    // same tuples are selected by the owner key.
    let detect = client.detect(&release_id, &copy_csv).unwrap();
    assert!(detect.is_ok(), "{}", detect.json);
    assert!(detect.u64_field("selected_tuples").unwrap_or(0) > 0, "{}", detect.json);
    handle.shutdown();
}

#[test]
fn durable_server_restart_serves_byte_identical_replies_and_fresh_ids() {
    let dir =
        std::env::temp_dir().join(format!("medshield-loopback-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable_config = || ServeConfig {
        data_dir: Some(dir.clone()),
        // Large interval: the releases live in the WAL only, modelling a
        // death between append and snapshot.
        snapshot_every: 10_000,
        ..serve_config()
    };

    // First server lifetime: protect two tables, capture the exact replies
    // a client saw.
    let handle = serve(durable_config(), "127.0.0.1:0").unwrap();
    assert!(handle.is_durable());
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut stored = Vec::new();
    for n in [160usize, 220] {
        let ds = dataset(n);
        let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
        assert!(reply.is_ok(), "{}", reply.json);
        let id = reply.release_id().unwrap();
        let release_csv = reply.body.clone().unwrap();
        let detect = client.detect(&id, &release_csv).unwrap();
        assert!(detect.is_ok(), "{}", detect.json);
        let resolve = client.resolve_ownership(&id, &release_csv).unwrap();
        assert!(resolve.is_ok(), "{}", resolve.json);
        // Register a recipient copy: the recipient record must survive the
        // restart exactly like the release record.
        let copy = client.protect_for_release(&id, "clinic-durable", &release_csv).unwrap();
        assert!(copy.is_ok(), "{}", copy.json);
        stored.push((id, release_csv, detect, resolve, copy.body.clone().unwrap()));
    }
    // Drop WITHOUT graceful shutdown semantics mattering for the store: the
    // replies above were only released after their records were fsynced.
    handle.shutdown();

    // Second lifetime, same data dir: every stored release answers with the
    // byte-identical reply, and new ids never collide with old ones.
    let handle = serve(durable_config(), "127.0.0.1:0").unwrap();
    assert_eq!(handle.releases(), 2, "recovery must restore both releases");
    let mut client = Client::connect(handle.addr()).unwrap();
    for (id, release_csv, detect_before, resolve_before, copy_csv) in &stored {
        let detect_after = client.detect(id, release_csv).unwrap();
        assert_eq!(&detect_after, detect_before, "detect reply changed across restart");
        let resolve_after = client.resolve_ownership(id, release_csv).unwrap();
        assert_eq!(&resolve_after, resolve_before, "resolve reply changed across restart");
        // Recipient records recovered: listing and tracing still work.
        let list = client.list_recipients(id).unwrap();
        assert_eq!(list.u64_field("count"), Some(1), "{}", list.json);
        let verdict = client.resolve_leaker(id, copy_csv).unwrap();
        assert!(verdict.is_ok(), "{}", verdict.json);
        assert_eq!(
            verdict.str_field("leaker").as_deref(),
            Some("clinic-durable"),
            "{}",
            verdict.json
        );
    }
    let ds = dataset(140);
    let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    let new_id = reply.release_id().unwrap();
    assert!(stored.iter().all(|(id, ..)| id != &new_id), "restart reissued release id {new_id}");
    let pong = client.ping().unwrap();
    assert_eq!(pong.bool_field("durable"), Some(true), "{}", pong.json);
    assert_eq!(pong.u64_field("releases"), Some(3), "{}", pong.json);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_releases_serve_byte_identical_replies_after_compaction_and_restart() {
    let dir =
        std::env::temp_dir().join(format!("medshield-loopback-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable_config =
        || ServeConfig { data_dir: Some(dir.clone()), snapshot_every: 0, ..serve_config() };

    // Every reply a stored release answers, for each release, with its
    // records still in the WAL.
    let replies = |client: &mut Client, releases: &[(String, String, String)]| {
        let mut out = Vec::new();
        for (id, release_csv, copy_csv) in releases {
            out.push(client.detect(id, release_csv).unwrap());
            out.push(client.resolve_ownership(id, release_csv).unwrap());
            out.push(client.list_recipients(id).unwrap());
            out.push(client.resolve_leaker(id, copy_csv).unwrap());
        }
        assert!(out.iter().all(Response::is_ok), "{out:?}");
        out
    };
    let handle = serve(durable_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut releases = Vec::new();
    for n in [160usize, 220] {
        let reply = client.protect(&csv::to_csv(&dataset(n).table)).unwrap();
        assert!(reply.is_ok(), "{}", reply.json);
        let id = reply.release_id().unwrap();
        let release_csv = reply.body.unwrap();
        let mut copy_csv = String::new();
        for recipient in ["clinic-a", "clinic-b"] {
            let copy = client.protect_for_release(&id, recipient, &release_csv).unwrap();
            assert!(copy.is_ok(), "{}", copy.json);
            copy_csv = copy.body.unwrap();
        }
        releases.push((id, release_csv, copy_csv));
    }
    let before = replies(&mut client, &releases);
    handle.shutdown();

    // Fold everything into a snapshot, then serve from it.
    medshield_serve::DurableStore::open(&dir, 0).unwrap().compact().unwrap();
    let handle = serve(durable_config(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(replies(&mut client, &releases), before);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stored_record_that_fails_its_checksum_answers_storage_for_its_release_only() {
    let dir =
        std::env::temp_dir().join(format!("medshield-loopback-bitrot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig { data_dir: Some(dir.clone()), snapshot_every: 0, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut releases = Vec::new();
    for n in [160usize, 220] {
        let reply = client.protect(&csv::to_csv(&dataset(n).table)).unwrap();
        assert!(reply.is_ok(), "{}", reply.json);
        releases.push((reply.release_id().unwrap(), reply.body.unwrap()));
    }
    // Flip a byte inside the first release's record: the v1 WAL's 8-byte
    // magic, then the record's 8-byte frame header, then its payload.
    {
        use std::os::unix::fs::FileExt;
        let wal = std::fs::OpenOptions::new().read(true).write(true).open(dir.join("wal.log"));
        let wal = wal.unwrap();
        let mut byte = [0u8];
        wal.read_exact_at(&mut byte, 40).unwrap();
        wal.write_all_at(&[byte[0] ^ 0x40], 40).unwrap();
    }
    let (damaged, damaged_csv) = &releases[0];
    let storage = |reply: Response| {
        assert_eq!(reply.code().as_deref(), Some("storage"), "{}", reply.json);
    };
    storage(client.detect(damaged, damaged_csv).unwrap());
    storage(client.resolve_ownership(damaged, damaged_csv).unwrap());
    storage(client.list_recipients(damaged).unwrap());
    storage(client.resolve_leaker(damaged, damaged_csv).unwrap());
    storage(client.protect_for_release(damaged, "clinic-a", damaged_csv).unwrap());
    // The other release, and the server, carry on.
    let (intact, intact_csv) = &releases[1];
    let detect = client.detect(intact, intact_csv).unwrap();
    assert!(detect.is_ok(), "{}", detect.json);
    let copy = client.protect_for_release(intact, "clinic-a", intact_csv).unwrap();
    assert!(copy.is_ok(), "{}", copy.json);
    assert!(client.ping().unwrap().is_ok());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
