//! Pipelining integration suite: many requests in flight on one
//! connection, replies matched to request ids in whatever order the
//! workers finish, v1 frames still answered, and the I/O core surviving slow
//! readers and byte-at-a-time writers.

use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{ontology, DatasetConfig, MedicalDataset};
use medshield_relation::csv;
use medshield_serve::protocol::{encode_frame, read_frame};
use medshield_serve::{serve, Client, Command, Request, ServeConfig, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

#[test]
fn ping_reports_protocol_version_and_server_limits() {
    let config = ServeConfig { queue_depth: 32, max_connections: 77, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let pong = client.ping().unwrap();
    assert!(pong.is_ok(), "{}", pong.json);
    assert_eq!(pong.u64_field("protocol"), Some(PROTOCOL_VERSION), "{}", pong.json);
    assert_eq!(
        pong.u64_field("max_frame_len"),
        Some(medshield_serve::protocol::DEFAULT_MAX_FRAME_LEN as u64),
        "{}",
        pong.json
    );
    assert_eq!(pong.u64_field("queue_depth"), Some(32), "{}", pong.json);
    assert_eq!(pong.u64_field("max_connections"), Some(77), "{}", pong.json);
    assert_eq!(pong.u64_field("connections"), Some(1), "{}", pong.json);
    handle.shutdown();
}

#[test]
fn replies_arrive_out_of_order_and_match_their_ids() {
    // Two workers, two sleeps of very different lengths pipelined on ONE
    // connection: the short one must come back first, each reply tagged
    // with its own id.
    let config = ServeConfig { debug_hooks: true, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let slow = client.submit(&Request::new(Command::Sleep).param("ms", "400")).unwrap();
    let fast = client.submit(&Request::new(Command::Sleep).param("ms", "1")).unwrap();
    assert_eq!(client.pending(), 2);

    let (first_id, first) = loop {
        if let Some(got) = client.poll_reply(Duration::from_millis(100)).unwrap() {
            break got;
        }
    };
    assert_eq!(first_id, fast, "the 1ms sleep must complete before the 400ms one");
    assert_eq!(first.u64_field("slept_ms"), Some(1), "{}", first.json);

    let second = client.wait(slow).unwrap();
    assert_eq!(second.u64_field("slept_ms"), Some(400), "{}", second.json);
    assert_eq!(client.pending(), 0);
    handle.shutdown();
}

#[test]
fn interleaved_pipelined_detects_are_byte_identical_to_in_process() {
    // N requests in flight on one connection, alternating between two
    // *different* suspect tables: every reply must carry the exact
    // in-process bytes for ITS OWN request — proof that ids route replies,
    // not arrival order.
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut setup = Client::connect(handle.addr()).unwrap();
    let ds = dataset(300);
    let reply = setup.protect(&csv::to_csv(&ds.table)).unwrap();
    assert!(reply.is_ok(), "{}", reply.json);
    let release_id = reply.release_id().unwrap();
    let clean_csv = reply.body.clone().unwrap();
    let attacked_csv = drop_tail_rows(&clean_csv, 60);

    // The expected replies, served once by blocking calls (themselves
    // gated byte-identical to the in-process engine by the loopback suite).
    let expected_clean = setup.detect(&release_id, &clean_csv).unwrap();
    let expected_attacked = setup.detect(&release_id, &attacked_csv).unwrap();
    assert!(expected_clean.is_ok() && expected_attacked.is_ok());
    assert_ne!(expected_clean.json, expected_attacked.json, "the two suspects must differ");

    const IN_FLIGHT: usize = 16;
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut submitted = Vec::new();
    for i in 0..IN_FLIGHT {
        let suspect = if i % 2 == 0 { &clean_csv } else { &attacked_csv };
        let id = client
            .submit(&Request::new(Command::Detect).param("release", &release_id).body(suspect))
            .unwrap();
        submitted.push((id, i % 2 == 0));
    }
    assert_eq!(client.pending(), IN_FLIGHT);
    // Collect in reverse submission order: `wait` must park and re-match
    // replies that arrive while it waits for a later id.
    for (id, clean) in submitted.iter().rev() {
        let served = client.wait(*id).unwrap();
        let expected = if *clean { &expected_clean } else { &expected_attacked };
        assert_eq!(served.json, expected.json, "reply for id {id} carries the wrong report");
        assert_eq!(served.body, expected.body);
    }
    assert_eq!(client.pending(), 0);
    handle.shutdown();
}

#[test]
fn v1_and_v2_frames_interleave_on_one_connection() {
    // A raw stream mixing both encodings: the server must answer each frame
    // in its own encoding — v2 replies echo the id, v1 replies carry none.
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let ping = Request::new(Command::Ping).encode();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&encode_frame(Some(7), &ping).unwrap());
    bytes.extend_from_slice(&encode_frame(None, &ping).unwrap());
    bytes.extend_from_slice(&encode_frame(Some(u64::MAX), &ping).unwrap());
    stream.write_all(&bytes).unwrap();

    let max = medshield_serve::protocol::DEFAULT_MAX_FRAME_LEN;
    // Inline pings on one connection are handled in arrival order.
    let first = read_frame(&mut stream, max).unwrap().unwrap();
    assert_eq!(first.request_id, Some(7));
    let second = read_frame(&mut stream, max).unwrap().unwrap();
    assert_eq!(second.request_id, None);
    let third = read_frame(&mut stream, max).unwrap().unwrap();
    assert_eq!(third.request_id, Some(u64::MAX));
    // All three carry the same well-formed pong.
    for frame in [first, second, third] {
        let response = medshield_serve::Response::decode(&frame.payload).unwrap();
        assert!(response.is_ok(), "{}", response.json);
    }
    handle.shutdown();
}

#[test]
fn byte_at_a_time_writer_and_slow_reader_survive_the_readiness_loop() {
    // A v2 ping frame trickled to the server a byte at a time (the reader
    // must hold partial header/id/payload state across passes), and the
    // reply read back in 3-byte sips (the core's write buffer must survive
    // partial flushes).
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let frame = encode_frame(Some(0xDEAD_BEEF), &Request::new(Command::Ping).encode()).unwrap();
    for byte in &frame {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    // Sip the reply through a 3-byte straw.
    struct Sip<'a>(&'a mut TcpStream);
    impl Read for Sip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let cap = buf.len().min(3);
            std::thread::sleep(Duration::from_millis(1));
            self.0.read(&mut buf[..cap])
        }
    }
    let reply = read_frame(&mut Sip(&mut stream), medshield_serve::protocol::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    assert_eq!(reply.request_id, Some(0xDEAD_BEEF));
    let response = medshield_serve::Response::decode(&reply.payload).unwrap();
    assert!(response.is_ok(), "{}", response.json);
    handle.shutdown();
}

#[test]
fn unread_replies_back_up_without_loss_while_the_client_stalls() {
    // Pipeline several protects (large CSV replies) and read NOTHING until
    // all are submitted and the server has had time to buffer replies: the
    // write backlog must hold every frame intact.
    let handle = serve(serve_config(), "127.0.0.1:0").unwrap();
    let ds = dataset(250);
    let table_csv = csv::to_csv(&ds.table);
    let engine = ProtectionEngine::new(engine_config(), 1).unwrap();
    let expected = engine.protect_per_attribute(&ds.table, &ontology::all_trees()).unwrap();
    let expected_body = csv::to_csv(&expected.table);

    let mut client = Client::connect(handle.addr()).unwrap();
    let ids: Vec<u64> = (0..6)
        .map(|_| client.submit(&Request::new(Command::Protect).body(&table_csv)).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    for id in ids {
        let served = client.wait(id).unwrap();
        assert!(served.is_ok(), "{}", served.json);
        assert_eq!(
            served.body.as_deref(),
            Some(expected_body.as_str()),
            "buffered reply for id {id} lost its byte-identity"
        );
    }
    handle.shutdown();
}

#[test]
fn connections_past_the_limit_get_a_structured_refusal() {
    let config = ServeConfig { max_connections: 2, ..serve_config() };
    let handle = serve(config, "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    // Fill the limit, proving both connections are registered.
    let mut first = Client::connect(addr).unwrap();
    let mut second = Client::connect(addr).unwrap();
    assert!(first.ping().unwrap().is_ok());
    assert!(second.ping().unwrap().is_ok());

    // The third connection is told why before it is closed.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let frame = read_frame(&mut refused, medshield_serve::protocol::DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .expect("the refusal must be a frame, not a silent close");
    let response = medshield_serve::Response::decode(&frame.payload).unwrap();
    assert_eq!(response.code().as_deref(), Some("connection-limit"), "{}", response.json);

    // Freeing a slot lets a new connection in (the core reaps the closed
    // socket on a later pass, so allow a few retries).
    drop(second);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = Client::connect(addr).unwrap();
        match retry.ping() {
            Ok(pong) if pong.is_ok() => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("no slot freed after the limit cleared: {other:?}"),
        }
    }
    assert!(first.ping().unwrap().is_ok(), "the surviving connection must be unaffected");
    handle.shutdown();
}
