//! Serving-layer throughput: requests/sec through the loopback TCP stack at
//! 1, 2, 4 and 8 pool workers, written to `BENCH_serve.json`.
//!
//! The workload is the paper's deployment model in miniature: many small
//! hospital submissions (`protect`) followed by detection traffic
//! (`detect`) against the stored releases. Before any timing, **every**
//! served protect response is checked byte-for-byte against the in-process
//! `ProtectionEngine` on the same table, and every served detect report
//! against the in-process detection — the numbers can never come from a
//! divergent fast path.
//!
//! Each worker count is measured on **two persistence axes**: the in-memory
//! release store (`requests_per_sec`, the committed trajectory metric) and
//! the durable WAL-backed store (`durable_requests_per_sec`), which prices
//! the fsync-per-protect barrier and its cross-worker group commit. The
//! durable axis carries its own gate: the server is shut down and reopened
//! on the same data directory before timing, and the recovered store must
//! answer a detect byte-identically to the pre-restart reply.
//!
//! After the worker axis, a **connections axis** prices the readiness loop
//! at scale: one fixed-pool server answers the same fixed number of
//! pipelined `detect` requests driven through 1, 64 and 1024 concurrent
//! connections. The promise of the multiplexed I/O core is *flatness* —
//! 1024 mostly-idle connections must not tax the 64-connection figure —
//! reported as `flatness_1024_vs_64` and guarded by `check-regression`.
//!
//! After the connections axis, a **recipients axis** prices the
//! traitor-tracing path: one release with 1, 4 and 16 registered
//! recipients, measuring `protect-for` (fingerprinted copy issuance) and
//! `resolve-leaker` (ranking every recipient against a leaked copy)
//! throughput at each count. Before any timing, a leaked copy must resolve
//! to its true recipient — the numbers can never come from a tracer that
//! stopped tracing. The 16-recipient point is guarded by
//! `check-regression`.
//!
//! Environment:
//!
//! * `MEDSHIELD_SERVE_TABLES` — number of submitted tables (default 12,
//!   matching the committed baseline so the local `check-regression` flow
//!   works without env vars).
//! * `MEDSHIELD_SERVE_ROWS` — rows per table (default 120, same reason).
//! * `MEDSHIELD_SERVE_DETECT_ROUNDS` — detect requests per release in the
//!   timed phase (default 2).
//! * `MEDSHIELD_SERVE_CONN_REQUESTS` — total detect requests per point of
//!   the connections axis (default 4096: enough steady state that the
//!   one-time cost of reading the initial burst amortizes away).
//! * `MEDSHIELD_SERVE_RECIPIENT_REQUESTS` — timed requests per command per
//!   point of the recipients axis (default 48).
//! * `MEDSHIELD_BENCH_OUT` — output path (default `BENCH_serve.json`).

#![forbid(unsafe_code)]

use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use medshield_relation::csv;
use medshield_serve::{serve, Client, Command, Request, ServeConfig};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// One timed client request.
type BenchJob = Box<dyn FnOnce(&mut Client) + Send>;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn engine_config() -> ProtectionConfig {
    ProtectionConfig::builder()
        .k(4)
        .eta(5)
        .duplication(2)
        .mark_text("serve-benchmark-owner")
        .build()
}

/// Per-connection pipeline depth in the connections axis: enough to keep
/// the worker pool busy from a single connection, small enough that 1024
/// connections cannot flood the request queue.
const CONN_PIPELINE_DEPTH: usize = 4;

/// Driver threads for the connections axis; each owns a fleet of pipelined
/// connections and round-robins submissions and reply polling across them.
const CONN_DRIVER_THREADS: usize = 16;

struct ConnResult {
    connections: usize,
    requests_per_sec: f64,
}

struct RecipientResult {
    recipients: usize,
    protect_for_per_sec: f64,
    resolve_leaker_per_sec: f64,
}

struct WorkerResult {
    workers: usize,
    protect_requests_per_sec: f64,
    detect_requests_per_sec: f64,
    requests_per_sec: f64,
    durable_protect_requests_per_sec: f64,
    durable_detect_requests_per_sec: f64,
    durable_requests_per_sec: f64,
}

/// Fan `jobs` out over `clients` connections, one thread per connection.
/// Returns the wall-clock seconds for the whole fan-out.
fn run_phase(addr: std::net::SocketAddr, clients: usize, jobs: Vec<BenchJob>) -> f64 {
    let mut shards: Vec<Vec<BenchJob>> = (0..clients).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        shards[i % clients].push(job);
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for shard in shards {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to the bench server");
                for job in shard {
                    job(&mut client);
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// One point of the connections axis: drive `total` detect requests against
/// the gated releases through `connections` pipelined v2 connections, at
/// most [`CONN_PIPELINE_DEPTH`] in flight per connection. Every reply is
/// checked against the in-process mark for its own release — a reply routed
/// to the wrong request id cannot go unnoticed. Before the clock starts,
/// every socket is connected AND answered a warm-up ping (so the I/O core
/// has registered all of them): the axis measures steady-state
/// multiplexing, not the connect storm. Returns the wall-clock seconds of
/// the drive.
fn run_connections_phase(
    addr: std::net::SocketAddr,
    connections: usize,
    total: usize,
    release_ids: &[String],
    expectations: &[(String, String)],
) -> f64 {
    // Job i targets release i % tables; jobs round-robin over connections.
    // With fewer jobs than connections the surplus sockets stay connected
    // but idle — exactly the load shape the readiness loop must not tax.
    let mut shards: Vec<VecDeque<usize>> = (0..connections).map(|_| VecDeque::new()).collect();
    for i in 0..total {
        shards[i % connections].push_back(i % release_ids.len());
    }
    let drivers = connections.min(CONN_DRIVER_THREADS);
    let mut fleet_shards: Vec<Vec<VecDeque<usize>>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, jobs) in shards.into_iter().enumerate() {
        fleet_shards[i % drivers].push(jobs);
    }
    // Drivers connect and warm up their fleets, then meet the timing thread
    // at the barrier; only the drive itself is on the clock.
    let barrier = std::sync::Barrier::new(drivers + 1);
    let mut start = Instant::now();
    std::thread::scope(|scope| {
        for jobs_list in fleet_shards {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut fleet: Vec<(Client, VecDeque<usize>)> = jobs_list
                    .into_iter()
                    .map(|jobs| (Client::connect(addr).expect("connect a pipelined client"), jobs))
                    .collect();
                let warm_ups: Vec<u64> = fleet
                    .iter_mut()
                    .map(|(client, _)| {
                        client.submit(&Request::new(Command::Ping)).expect("submit a warm-up ping")
                    })
                    .collect();
                for ((client, _), id) in fleet.iter_mut().zip(warm_ups) {
                    let pong = client.wait(id).expect("warm-up pong");
                    assert!(pong.is_ok(), "warm-up ping failed: {}", pong.json);
                }
                barrier.wait();
                // Round-robin the fleet: keep every connection filled to
                // depth, claim exactly one reply per visit with a BLOCKING
                // wait. Blocking (rather than timeout-polling) costs the
                // driver no CPU while replies are in the server — the drive
                // measures the I/O core, not driver scheduling.
                let mut in_flight: Vec<BTreeMap<u64, usize>> =
                    (0..fleet.len()).map(|_| BTreeMap::new()).collect();
                let mut outstanding = 0usize;
                let mut remaining: usize = fleet.iter().map(|(_, jobs)| jobs.len()).sum();
                while outstanding > 0 || remaining > 0 {
                    for (slot, (client, jobs)) in fleet.iter_mut().enumerate() {
                        while in_flight[slot].len() < CONN_PIPELINE_DEPTH {
                            let Some(job) = jobs.pop_front() else { break };
                            let id = client
                                .submit(
                                    &Request::new(Command::Detect)
                                        .param("release", &release_ids[job])
                                        .body(&expectations[job].0),
                                )
                                .expect("submit a pipelined detect");
                            in_flight[slot].insert(id, job);
                            outstanding += 1;
                            remaining -= 1;
                        }
                        let Some((&id, &job)) = in_flight[slot].first_key_value() else {
                            continue;
                        };
                        // `wait` parks replies for this connection's other
                        // ids; later visits claim them without touching the
                        // wire.
                        let reply = client.wait(id).expect("pipelined detect reply");
                        in_flight[slot].remove(&id);
                        assert!(reply.is_ok(), "connections-axis detect failed: {}", reply.json);
                        assert_eq!(
                            reply.str_field("mark").as_deref(),
                            Some(expectations[job].1.as_str()),
                            "connections-axis reply for id {id} diverged from the \
                             in-process mark of its own release"
                        );
                        outstanding -= 1;
                    }
                }
            });
        }
        barrier.wait();
        start = Instant::now();
    });
    start.elapsed().as_secs_f64()
}

fn main() {
    let tables = env_usize("MEDSHIELD_SERVE_TABLES", 12).max(1);
    let rows = env_usize("MEDSHIELD_SERVE_ROWS", 120).max(1);
    let detect_rounds = env_usize("MEDSHIELD_SERVE_DETECT_ROUNDS", 2).max(1);
    let conn_requests = env_usize("MEDSHIELD_SERVE_CONN_REQUESTS", 4096).max(1);
    let recipient_requests = env_usize("MEDSHIELD_SERVE_RECIPIENT_REQUESTS", 48).max(1);
    let out_path =
        std::env::var("MEDSHIELD_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());

    eprintln!("generating {tables} tables of {rows} rows…");
    let datasets: Vec<MedicalDataset> = (0..tables)
        .map(|i| {
            MedicalDataset::generate(&DatasetConfig {
                num_tuples: rows,
                seed: 0x5E12_7E00 + i as u64,
                zipf_exponent: 0.8,
            })
        })
        .collect();
    let submissions: Vec<String> = datasets.iter().map(|ds| csv::to_csv(&ds.table)).collect();

    // In-process expectations: the byte-equivalence gate compares every
    // served response against these.
    let engine = ProtectionEngine::new(engine_config(), 1).expect("1 thread is valid");
    eprintln!("computing in-process reference releases…");
    let expectations: Vec<(String, String)> = datasets
        .iter()
        .map(|ds| {
            let release =
                engine.protect_per_attribute(&ds.table, &ds.trees).expect("binnable table");
            let detection = engine
                .detect(&release.table, &release.binning.columns, &ds.trees)
                .expect("detection succeeds");
            (
                csv::to_csv(&release.table),
                medshield_core::watermark::Mark::from_bits(detection.mark).to_string(),
            )
        })
        .collect();

    // Untimed equivalence gate: every served release must be the in-process
    // bytes and every detection the in-process mark. Returns the release
    // ids the gate stored.
    let gate_equivalence = |addr: std::net::SocketAddr, workers: usize, axis: &str| {
        let mut gate = Client::connect(addr).expect("connect");
        let mut release_ids = Vec::with_capacity(tables);
        for (submission, (expected_csv, expected_mark)) in
            submissions.iter().zip(expectations.iter())
        {
            let reply = gate.protect(submission).expect("protect reply");
            assert!(reply.is_ok(), "served protect failed: {}", reply.json);
            assert_eq!(
                reply.body.as_deref(),
                Some(expected_csv.as_str()),
                "{workers}-worker {axis} served release diverged from the in-process bytes"
            );
            let release_id = reply.release_id().expect("release id");
            let detect = gate.detect(&release_id, expected_csv).expect("detect reply");
            assert!(detect.is_ok(), "served detect failed: {}", detect.json);
            assert_eq!(
                detect.str_field("mark").as_deref(),
                Some(expected_mark.as_str()),
                "{workers}-worker {axis} served detection diverged from the in-process mark"
            );
            release_ids.push(release_id);
        }
        release_ids
    };

    // Timed phases shared by both persistence axes: protect traffic, then
    // detect traffic against the gated releases. Returns
    // (protect_secs, detect_secs, detect_count).
    let timed_phases = |addr: std::net::SocketAddr, clients: usize, release_ids: &[String]| {
        let protect_jobs: Vec<BenchJob> = submissions
            .iter()
            .map(|submission| {
                let submission = submission.clone();
                Box::new(move |client: &mut Client| {
                    let reply = client.protect(&submission).expect("protect reply");
                    assert!(reply.is_ok(), "timed protect failed: {}", reply.json);
                }) as BenchJob
            })
            .collect();
        let protect_secs = run_phase(addr, clients, protect_jobs);

        let detect_jobs: Vec<BenchJob> = (0..detect_rounds)
            .flat_map(|_| {
                release_ids.iter().zip(expectations.iter()).map(|(id, (expected_csv, _))| {
                    let id = id.clone();
                    let suspect = expected_csv.clone();
                    Box::new(move |client: &mut Client| {
                        let reply = client.detect(&id, &suspect).expect("detect reply");
                        assert!(reply.is_ok(), "timed detect failed: {}", reply.json);
                    }) as BenchJob
                })
            })
            .collect();
        let detect_count = detect_jobs.len();
        let detect_secs = run_phase(addr, clients, detect_jobs);
        (protect_secs, detect_secs, detect_count)
    };

    let worker_counts = [1usize, 2, 4, 8];
    let mut results = Vec::new();
    for &workers in &worker_counts {
        let clients = workers.max(1);

        // Axis 1: the in-memory store (the committed trajectory metric).
        let config = ServeConfig { engine: engine_config(), workers, ..ServeConfig::default() };
        let handle = serve(config, "127.0.0.1:0").expect("bind the bench server");
        let addr = handle.addr();
        // The releases the timed protects store land alongside the gate's,
        // which is fine — ids are never reused.
        let release_ids = gate_equivalence(addr, workers, "in-memory");
        let (protect_secs, detect_secs, detect_count) = timed_phases(addr, clients, &release_ids);
        handle.shutdown();

        // Axis 2: the durable WAL-backed store, on a fresh data directory.
        let data_dir = std::env::temp_dir()
            .join(format!("medshield-bench-serve-{}-{workers}w", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let durable_config = || ServeConfig {
            engine: engine_config(),
            workers,
            data_dir: Some(data_dir.clone()),
            ..ServeConfig::default()
        };
        let handle = serve(durable_config(), "127.0.0.1:0").expect("bind the durable server");
        let addr = handle.addr();
        let release_ids = gate_equivalence(addr, workers, "durable");
        // Recovery gate: reopen the same data directory and require a
        // byte-identical detect reply from the recovered store before any
        // durable timing is trusted.
        let mut gate = Client::connect(addr).expect("connect");
        let before = gate.detect(&release_ids[0], &expectations[0].0).expect("pre-restart detect");
        assert!(before.is_ok(), "pre-restart detect failed: {}", before.json);
        drop(gate);
        handle.shutdown();
        let handle = serve(durable_config(), "127.0.0.1:0").expect("reopen the durable server");
        let addr = handle.addr();
        let mut gate = Client::connect(addr).expect("reconnect");
        let after = gate.detect(&release_ids[0], &expectations[0].0).expect("post-restart detect");
        assert_eq!(after, before, "{workers}-worker durable detect diverged across the restart");
        drop(gate);
        let (durable_protect_secs, durable_detect_secs, durable_detect_count) =
            timed_phases(addr, clients, &release_ids);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&data_dir);

        let result = WorkerResult {
            workers,
            protect_requests_per_sec: tables as f64 / protect_secs,
            detect_requests_per_sec: detect_count as f64 / detect_secs,
            requests_per_sec: (tables + detect_count) as f64 / (protect_secs + detect_secs),
            durable_protect_requests_per_sec: tables as f64 / durable_protect_secs,
            durable_detect_requests_per_sec: durable_detect_count as f64 / durable_detect_secs,
            durable_requests_per_sec: (tables + durable_detect_count) as f64
                / (durable_protect_secs + durable_detect_secs),
        };
        eprintln!(
            "{:>2} worker(s): protect {:>8.1} req/s, detect {:>8.1} req/s \
             (durable: {:>8.1} / {:>8.1})",
            workers,
            result.protect_requests_per_sec,
            result.detect_requests_per_sec,
            result.durable_protect_requests_per_sec,
            result.durable_detect_requests_per_sec,
        );
        results.push(result);
    }

    // Connections axis: one fixed-pool server, the same request total driven
    // through 1, 64 and 1024 pipelined connections. The queue is deepened and
    // the connection limit raised so the axis measures the I/O core, not the
    // backpressure replies.
    let conn_counts = [1usize, 64, 1024];
    let conn_workers = 4usize;
    let config = ServeConfig {
        engine: engine_config(),
        workers: conn_workers,
        queue_depth: 8192,
        max_connections: 2048,
        ..ServeConfig::default()
    };
    let handle = serve(config, "127.0.0.1:0").expect("bind the connections-axis server");
    let addr = handle.addr();
    let release_ids = gate_equivalence(addr, conn_workers, "connections-axis");
    let mut conn_results = Vec::new();
    for &connections in &conn_counts {
        let secs =
            run_connections_phase(addr, connections, conn_requests, &release_ids, &expectations);
        let requests_per_sec = conn_requests as f64 / secs;
        eprintln!("{connections:>4} connection(s): {requests_per_sec:>8.1} detect req/s");
        conn_results.push(ConnResult { connections, requests_per_sec });
    }
    handle.shutdown();
    let conn_metric = |count: usize| {
        conn_results
            .iter()
            .find(|r| r.connections == count)
            .map(|r| r.requests_per_sec)
            .unwrap_or(f64::NAN)
    };
    let flatness_1024_vs_64 = conn_metric(1024) / conn_metric(64);

    // Recipients axis: the traitor-tracing path at 1, 4 and 16 registered
    // recipients of one release. protect-for prices fingerprinted copy
    // issuance (roughly flat in the recipient count: one derivation + one
    // embed per request), resolve-leaker prices the full trace (one detect
    // plus a fingerprint scoring per registered recipient, so the candidate
    // set is the load knob). Each point gates on correctness before the
    // clock starts: a leaked copy must resolve to its true recipient.
    let recipient_counts = [1usize, 4, 16];
    let recipient_workers = 4usize;
    let mut recipient_results = Vec::new();
    for &recipients in &recipient_counts {
        let config = ServeConfig {
            engine: engine_config(),
            workers: recipient_workers,
            ..ServeConfig::default()
        };
        let handle = serve(config, "127.0.0.1:0").expect("bind the recipients-axis server");
        let addr = handle.addr();
        let mut setup = Client::connect(addr).expect("connect");
        let reply = setup.protect(&submissions[0]).expect("protect reply");
        assert!(reply.is_ok(), "recipients-axis protect failed: {}", reply.json);
        let release_id = reply.release_id().expect("release id");
        let released_csv = reply.body.clone().expect("release body");
        // Register the N recipients (untimed) and keep each copy's bytes —
        // re-issuing a registered recipient's copy is idempotent, so the
        // timed protect-for phase below holds the recipient set at exactly N.
        let names: Vec<String> = (0..recipients).map(|i| format!("clinic-{i:02}")).collect();
        let mut copies = Vec::with_capacity(recipients);
        for name in &names {
            let issued = setup
                .protect_for_release(&release_id, name, &released_csv)
                .expect("protect-for reply");
            assert!(issued.is_ok(), "recipients-axis protect-for failed: {}", issued.json);
            copies.push(issued.body.clone().expect("copy body"));
        }
        // Correctness gate: a leaked copy traces to its true recipient.
        let leaked_index = recipients / 2;
        let verdict =
            setup.resolve_leaker(&release_id, &copies[leaked_index]).expect("resolve-leaker reply");
        assert!(verdict.is_ok(), "recipients-axis resolve-leaker failed: {}", verdict.json);
        assert_eq!(
            verdict.str_field("leaker").as_deref(),
            Some(names[leaked_index].as_str()),
            "{recipients}-recipient axis traced the wrong leaker"
        );
        drop(setup);

        let protect_for_jobs: Vec<BenchJob> = (0..recipient_requests)
            .map(|i| {
                let release_id = release_id.clone();
                let name = names[i % names.len()].clone();
                let released = released_csv.clone();
                Box::new(move |client: &mut Client| {
                    let reply = client
                        .protect_for_release(&release_id, &name, &released)
                        .expect("timed protect-for reply");
                    assert!(reply.is_ok(), "timed protect-for failed: {}", reply.json);
                }) as BenchJob
            })
            .collect();
        let protect_for_secs = run_phase(addr, recipient_workers, protect_for_jobs);

        let resolve_jobs: Vec<BenchJob> = (0..recipient_requests)
            .map(|i| {
                let release_id = release_id.clone();
                let leaked = copies[i % copies.len()].clone();
                let expected = names[i % names.len()].clone();
                Box::new(move |client: &mut Client| {
                    let reply = client
                        .resolve_leaker(&release_id, &leaked)
                        .expect("timed resolve-leaker reply");
                    assert!(reply.is_ok(), "timed resolve-leaker failed: {}", reply.json);
                    assert_eq!(
                        reply.str_field("leaker").as_deref(),
                        Some(expected.as_str()),
                        "timed resolve-leaker traced the wrong recipient"
                    );
                }) as BenchJob
            })
            .collect();
        let resolve_secs = run_phase(addr, recipient_workers, resolve_jobs);
        handle.shutdown();

        let result = RecipientResult {
            recipients,
            protect_for_per_sec: recipient_requests as f64 / protect_for_secs,
            resolve_leaker_per_sec: recipient_requests as f64 / resolve_secs,
        };
        eprintln!(
            "{:>2} recipient(s): protect-for {:>8.1} req/s, resolve-leaker {:>8.1} req/s",
            recipients, result.protect_for_per_sec, result.resolve_leaker_per_sec,
        );
        recipient_results.push(result);
    }

    let speedup_4w = results
        .iter()
        .find(|r| r.workers == 4)
        .map(|r| r.requests_per_sec / results[0].requests_per_sec)
        .unwrap_or(f64::NAN);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"serve-throughput\",\n");
    json.push_str(&format!("  \"tables\": {tables},\n"));
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str(&format!("  \"detect_rounds\": {detect_rounds},\n"));
    json.push_str(&format!("  \"conn_requests\": {conn_requests},\n"));
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
    ));
    json.push_str("  \"equivalence_checked\": true,\n");
    json.push_str("  \"persistence_axis\": true,\n");
    json.push_str("  \"threads\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"requests_per_sec\": {:.1}, \"protect_requests_per_sec\": {:.1}, \"detect_requests_per_sec\": {:.1}, \"durable_requests_per_sec\": {:.1}, \"durable_protect_requests_per_sec\": {:.1}, \"durable_detect_requests_per_sec\": {:.1}}}{}\n",
            r.workers,
            r.requests_per_sec,
            r.protect_requests_per_sec,
            r.detect_requests_per_sec,
            r.durable_requests_per_sec,
            r.durable_protect_requests_per_sec,
            r.durable_detect_requests_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"connections\": [\n");
    for (i, r) in conn_results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"connections\": {}, \"requests_per_sec\": {:.1}}}{}\n",
            r.connections,
            r.requests_per_sec,
            if i + 1 == conn_results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"recipients\": [\n");
    for (i, r) in recipient_results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"recipients\": {}, \"protect_for_per_sec\": {:.1}, \"resolve_leaker_per_sec\": {:.1}}}{}\n",
            r.recipients,
            r.protect_for_per_sec,
            r.resolve_leaker_per_sec,
            if i + 1 == recipient_results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"flatness_1024_vs_64\": {flatness_1024_vs_64:.3},\n"));
    json.push_str(&format!("  \"speedup_4w_vs_1w\": {speedup_4w:.2}\n"));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("4-worker speedup over 1 worker: {speedup_4w:.2}x");
    eprintln!("1024-connection flatness vs 64 connections: {flatness_1024_vs_64:.3}");
    eprintln!("wrote {out_path}");
}
