//! What the two served workloads share: the server configuration, the
//! pre-written release history, timed restarts, the load generators, and
//! the function that measures a workload untraced or traced ([`measure`]).
//!
//! Flush policy: the store lives in the run's work directory inside the
//! checkout (the benchmark writes nowhere else), so `fdatasync` reaches
//! whatever device backs the checkout. The server group-commits: one
//! `fdatasync` per worker queue drain covers every protect it answered.

use crate::gen::fnv1a;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{RunOptions, StealSampler};
use medshield_core::ProtectionConfig;
use medshield_serve::store::StoredRecipient;
use medshield_serve::{
    serve, Client, Command, DurableStore, PipelinedClient, ReleaseStore, Request, Response,
    ServeConfig, StoreError, StoredRelease,
};
use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool workers of the served workloads.
pub const WORKERS: usize = 2;

/// Older releases recovered on every start on top of the workload's own
/// releases. Recovering them takes on the order of 0.1 s, so `setup_s` is a
/// restart cost rather than a number the host's jitter dominates.
pub const HISTORY_RELEASES: usize = 10_000;

/// The store compacts after this many appends, so several snapshots land
/// in each `ingest` run (it appends about 30 times a second). Each
/// snapshot rewrites the whole store, history included, while both
/// workers wait, so a shorter cadence would turn the rates into a measure
/// of the device that backs the work directory.
pub const SNAPSHOT_EVERY: usize = 400;

/// Server starts per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Seconds of traffic that warm the server up before timing.
const WARM_UP_S: f64 = 1.0;

/// Segments of a traced run, alternately untraced and traced, so that a
/// drift of the host's speed over the run falls on both kinds alike.
const TRACE_SEGMENTS: usize = 4;

/// The engine configuration every served release is protected with.
pub fn engine_config() -> ProtectionConfig {
    ProtectionConfig::builder()
        .k(5)
        .epsilon(5)
        .eta(10)
        .duplication(4)
        .mark_text("perfbench-owner")
        .build()
}

/// The server configuration: `WORKERS` workers, one engine thread each, a
/// durable store in `data_dir` compacting every `snapshot_every` appends.
pub fn serve_config(data_dir: &Path, snapshot_every: usize) -> ServeConfig {
    ServeConfig {
        engine: engine_config(),
        engine_threads: 1,
        workers: WORKERS,
        data_dir: Some(data_dir.to_path_buf()),
        snapshot_every,
        ..ServeConfig::default()
    }
}

/// Write the store a run starts from: `releases` first (ids `1..=n`, each
/// with its recipients), then `HISTORY_RELEASES` older records cycling over
/// the same binning states, every fourth with one archived recipient.
pub fn write_history(
    dir: &Path,
    releases: &[StoredRelease],
    history: usize,
) -> Result<(), StoreError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let store = DurableStore::open(dir, 0)?;
    for release in releases {
        let recipients = release.recipients.clone();
        let id = store.append(StoredRelease { recipients: Vec::new(), ..release.clone() })?;
        for recipient in recipients {
            store.add_recipient(id, recipient)?;
        }
    }
    for i in 0..history {
        let template = &releases[i % releases.len()];
        let id = store.append(StoredRelease { recipients: Vec::new(), ..template.clone() })?;
        if i % 4 == 0 {
            let mark = template.mark.clone();
            store.add_recipient(id, StoredRecipient { name: format!("archive-{i}"), mark })?;
        }
    }
    store.sync()
}

/// A benchmark server in a child process of its own: this binary run as
/// `perfbench --serve <store>` (see
/// [`serve_until_stdin_closes`]). Its memory is measured apart from the
/// harness's request pool and expectations. Dropping it closes the child's
/// standard input, which shuts the server down, and waits for the child
/// to exit.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Start a server on `store` and wait until it answers a `ping`.
    pub fn start(store: &Path) -> ServerProcess {
        let exe = std::env::current_exe().expect("the harness finds its own binary");
        let mut child = std::process::Command::new(exe)
            .arg("--serve")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the benchmark server process starts");
        let mut line = String::new();
        let stdout = child.stdout.as_mut().expect("the server's stdout is piped");
        BufReader::new(stdout).read_line(&mut line).expect("the server prints its address");
        let server = ServerProcess {
            addr: line.trim().parse().expect("the server prints a socket address"),
            child,
        };
        let mut client = Client::connect(server.addr).expect("connect to the benchmark server");
        assert!(client.ping().expect("ping the benchmark server").is_ok());
        server
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server process's id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// The server side of [`ServerProcess`]: serve on `store`, print the bound
/// address on standard output, and shut down once standard input closes.
pub fn serve_until_stdin_closes(store: &Path) -> Result<(), String> {
    let handle = serve(serve_config(store, SNAPSHOT_EVERY), "127.0.0.1:0")
        .map_err(|e| format!("the benchmark server does not start: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{}", handle.addr())
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
    Ok(())
}

/// Start the server `SETUP_REPEATS` times on the same store, timing each
/// start until the first `ping` is answered; all but the last are shut
/// down again. Returns the running server and each start's seconds, less
/// stolen CPU time (see [`StealSampler`]).
fn timed_setups(store: &Path) -> (ServerProcess, Vec<f64>) {
    let steal = StealSampler::start();
    let mut intervals = Vec::with_capacity(SETUP_REPEATS);
    let server = loop {
        let start = Instant::now();
        let server = ServerProcess::start(store);
        intervals.push((start, Instant::now()));
        if intervals.len() == SETUP_REPEATS {
            break server;
        }
        drop(server);
    };
    let steal = steal.finish();
    (server, intervals.iter().map(|&(start, end)| steal.seconds(start, end)).collect())
}

/// Time `DurableStore::open` on `dir` (no server running on it).
fn time_recovery(dir: &Path) -> f64 {
    let start = Instant::now();
    let store = DurableStore::open(dir, 0).expect("the benchmark store recovers");
    let seconds = start.elapsed().as_secs_f64();
    drop(store);
    seconds
}

/// An integer counter from the server's `ping` reply.
fn ping_counter(addr: SocketAddr, key: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect to the benchmark server");
    client.ping().expect("ping the benchmark server").u64_field(key).unwrap_or(0)
}

/// One distinct request of a workload: its encoded header, its body, and
/// what the metrics need to know about it.
#[derive(Debug, Clone)]
pub struct Op {
    /// Wire command name (`protect`, `detect`, ...).
    pub command: &'static str,
    /// The encoded header line (command and parameters).
    header: Vec<u8>,
    /// The CSV body (empty for body-less commands), shared by every op
    /// that sends the same table.
    pub body: Arc<str>,
    /// Rows of the table the request carries (0 without a body).
    pub rows: usize,
}

impl Op {
    /// `request` (built without a body) carrying `body` of `rows` rows.
    pub fn new(request: &Request, body: Arc<str>, rows: usize) -> Op {
        Op { command: request.command.name(), header: request.encode(), body, rows }
    }

    /// Bytes of the frame payload.
    pub fn payload_len(&self) -> usize {
        self.header.len() + self.body.len()
    }

    /// The frame payload the client sends: the header line, then the body.
    pub fn payload(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.payload_len());
        payload.extend_from_slice(&self.header);
        payload.extend_from_slice(self.body.as_bytes());
        payload
    }
}

/// The requests of a served workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload<'a> {
    /// Distinct requests.
    pub ops: &'a [Op],
    /// The order they are sent in (indices into `ops`).
    pub stream: &'a [usize],
    /// Length of one cycle of the pool in `stream`.
    pub cycle: usize,
}

/// What came back for one request, reduced to what the checks need.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The JSON report line.
    pub json: String,
    /// FNV-1a of the CSV body (0 without one).
    pub body_hash: u64,
}

impl Reply {
    fn from_response(response: &Response) -> Reply {
        let body_hash = response.body.as_deref().map_or(0, |b| fnv1a(b.as_bytes()));
        Reply { json: response.json.clone(), body_hash }
    }

    /// A field of the JSON report, via the serving layer's own accessors.
    pub fn response(&self) -> Response {
        Response { json: self.json.clone(), body: None }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the request stream.
    pub position: usize,
    /// Index into the workload's distinct ops.
    pub op: usize,
    /// When it was sent.
    pub sent: Instant,
    /// Send-to-reply time in milliseconds, less stolen CPU time (see
    /// [`StealSampler`]).
    pub latency_ms: f64,
    /// The reply, or `None` when the connection failed.
    pub reply: Option<Reply>,
}

/// The outcome of one timed phase (or of several, see [`Phase::absorb`]).
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request sent, in stream order.
    pub samples: Vec<Sample>,
    /// Time from the first send to the last reply, less stolen CPU time
    /// (see [`StealSampler`]).
    pub elapsed_s: f64,
    /// The same interval in wall time.
    pub wall_s: f64,
    /// Round trips of the inline `ping`s sampled under load.
    pub pings_ms: Vec<f64>,
}

impl Phase {
    /// The stream position after the last request of the phase.
    pub fn end(&self) -> usize {
        self.samples.last().map_or(0, |s| s.position + 1)
    }

    /// Requests completed per measured second.
    pub fn rate(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s
    }

    /// The stolen share of the phase's wall time.
    pub fn stolen_share(&self) -> f64 {
        1.0 - self.elapsed_s / self.wall_s
    }

    /// Add a later phase's requests and time to this one.
    pub fn absorb(&mut self, later: Phase) {
        self.samples.extend(later.samples);
        self.elapsed_s += later.elapsed_s;
        self.wall_s += later.wall_s;
        self.pings_ms.extend(later.pings_ms);
    }
}

/// Hands out stream positions to the client threads of one phase. Once the
/// time budget is spent it closes at the end of the cycle in progress, so
/// a phase always measures whole cycles of the request pool and its mix
/// does not depend on where the clock ran out.
struct Dispenser {
    /// The next position, and the stop position once the budget is spent.
    state: Mutex<(usize, Option<usize>)>,
    cycle: usize,
    began: Instant,
    budget: Duration,
}

impl Dispenser {
    fn new(start: usize, cycle: usize, seconds: f64) -> Dispenser {
        Dispenser {
            state: Mutex::new((start, None)),
            cycle,
            began: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
        }
    }

    /// The next position to send, or `None` once the phase is over. The
    /// stop position is decided under the same lock that hands out
    /// positions, so no client can send past it.
    fn take(&self) -> Option<usize> {
        let mut state = self.state.lock().expect("no client panicked");
        let (next, stop) = &mut *state;
        if stop.is_none() && self.began.elapsed() >= self.budget {
            *stop = Some(next.div_ceil(self.cycle) * self.cycle);
        }
        if stop.is_some_and(|stop| *next >= stop) {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }
}

/// The samples and pings the client threads of one phase collect.
#[derive(Debug, Default)]
struct Collected {
    samples: Mutex<Vec<Sample>>,
    pings: Mutex<Vec<f64>>,
}

impl Collected {
    fn add(&self, samples: Vec<Sample>, pings: Vec<f64>) {
        self.samples.lock().expect("no client panicked").extend(samples);
        self.pings.lock().expect("no client panicked").extend(pings);
    }

    /// The phase that began at `began`, its times less the CPU time stolen
    /// while it ran.
    fn into_phase(self, began: Instant, steal: StealSampler) -> Phase {
        let ended = Instant::now();
        let steal = steal.finish();
        let mut samples = self.samples.into_inner().expect("no client panicked");
        samples.sort_by_key(|s| s.position);
        for s in &mut samples {
            if s.latency_ms.is_finite() {
                let end = s.sent + Duration::from_secs_f64(s.latency_ms / 1e3);
                s.latency_ms = steal.seconds(s.sent, end) * 1e3;
            }
        }
        Phase {
            samples,
            elapsed_s: steal.seconds(began, ended),
            wall_s: (ended - began).as_secs_f64(),
            pings_ms: self.pings.into_inner().expect("no client panicked"),
        }
    }
}

/// Drive `connections` closed-loop clients (one request in flight each) for
/// `seconds` plus the rest of the cycle in progress, taking requests from
/// `stream` starting at `start` (a cycle boundary). With `ping_every > 0`,
/// the first client sends an inline `ping` after every `ping_every`-th
/// request.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    seconds: f64,
    workload: &Workload<'_>,
    start: usize,
    ping_every: usize,
) -> Phase {
    let Workload { ops, stream, cycle } = *workload;
    let collected = Collected::default();
    let steal = StealSampler::start();
    let began = Instant::now();
    let dispenser = Dispenser::new(start, cycle, seconds);
    std::thread::scope(|scope| {
        for conn in 0..connections {
            let (dispenser, collected) = (&dispenser, &collected);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to the benchmark server");
                let mut local = Vec::new();
                let mut local_pings = Vec::new();
                while let Some(position) = dispenser.take() {
                    let op = stream[position % stream.len()];
                    let payload = ops[op].payload();
                    let sent = Instant::now();
                    let Ok(reply) = client.request_raw(&payload) else {
                        let latency_ms = f64::INFINITY;
                        local.push(Sample { position, op, sent, latency_ms, reply: None });
                        break;
                    };
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    let reply = Some(Reply::from_response(&reply));
                    local.push(Sample { position, op, sent, latency_ms, reply });
                    if ping_every > 0 && conn == 0 && local.len() % ping_every == 0 {
                        let sent = Instant::now();
                        if client.ping().is_ok_and(|r| r.is_ok()) {
                            local_pings.push(sent.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                }
                collected.add(local, local_pings);
            });
        }
    });
    collected.into_phase(began, steal)
}

/// Drive `connections` pipelined clients with `depth` requests in flight
/// each for `seconds` plus the rest of the cycle in progress, then drain.
/// With `ping_every > 0`, the first client also keeps an inline `ping` in
/// its pipeline every `ping_every` requests.
pub fn pipelined(
    addr: SocketAddr,
    connections: usize,
    depth: usize,
    seconds: f64,
    workload: &Workload<'_>,
    start: usize,
    ping_every: usize,
) -> Phase {
    const PING: usize = usize::MAX;
    let Workload { ops, stream, cycle } = *workload;
    let ping_payload = Request::new(Command::Ping).encode();
    let collected = Collected::default();
    let steal = StealSampler::start();
    let began = Instant::now();
    let dispenser = Dispenser::new(start, cycle, seconds);
    std::thread::scope(|scope| {
        for conn in 0..connections {
            let (dispenser, collected, ping_payload) = (&dispenser, &collected, &ping_payload);
            scope.spawn(move || {
                let mut client =
                    PipelinedClient::connect(addr).expect("connect to the benchmark server");
                let mut in_flight: HashMap<u64, (usize, usize, Instant)> = HashMap::new();
                let mut local = Vec::new();
                let mut local_pings = Vec::new();
                let mut sent_count = 0usize;
                let mut open = true;
                loop {
                    while open && in_flight.len() < depth {
                        let (position, op, payload) = if ping_every > 0
                            && conn == 0
                            && sent_count % ping_every == ping_every - 1
                            && !in_flight.values().any(|(p, _, _)| *p == PING)
                        {
                            (PING, PING, ping_payload.clone())
                        } else {
                            let Some(position) = dispenser.take() else {
                                open = false;
                                break;
                            };
                            let op = stream[position % stream.len()];
                            (position, op, ops[op].payload())
                        };
                        sent_count += 1;
                        let id = client.submit_raw(&payload).expect("send to the benchmark server");
                        in_flight.insert(id, (position, op, Instant::now()));
                    }
                    if in_flight.is_empty() {
                        break;
                    }
                    let (id, response) = match client.poll_reply(Duration::from_millis(200)) {
                        Ok(Some(reply)) => reply,
                        Ok(None) => continue,
                        Err(_) => {
                            // The connection is gone: every request still in
                            // flight failed.
                            for (_, (position, op, sent)) in in_flight.drain() {
                                if position != PING {
                                    let latency_ms = f64::INFINITY;
                                    local.push(Sample {
                                        position,
                                        op,
                                        sent,
                                        latency_ms,
                                        reply: None,
                                    });
                                }
                            }
                            break;
                        }
                    };
                    let Some((position, op, sent)) = in_flight.remove(&id) else {
                        continue;
                    };
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    if position == PING {
                        local_pings.push(latency_ms);
                        continue;
                    }
                    let reply = Some(Reply::from_response(&response));
                    local.push(Sample { position, op, sent, latency_ms, reply });
                }
                collected.add(local, local_pings);
            });
        }
    });
    collected.into_phase(began, steal)
}

/// One phase of a served workload against the server at an address:
/// `(addr, seconds, start position, ping_every)`, as [`closed_loop`] and
/// [`pipelined`] take them.
pub type Drive<'a> = dyn Fn(SocketAddr, f64, usize, usize) -> Phase + 'a;

/// How a served workload is started and measured.
pub struct Plan<'a> {
    /// The workload's name (it names the span file).
    pub name: &'static str,
    /// The requests.
    pub workload: Workload<'a>,
    /// The store the server recovers on every start.
    pub store: &'a Path,
    /// How one phase drives the server.
    pub drive: &'a Drive<'a>,
    /// Inline `ping` cadence of the traced segments.
    pub ping_every: usize,
}

/// Measure a served workload. The server starts `SETUP_REPEATS` times on
/// the plan's store (`setup_s`), then traffic warms it up and the peak
/// memory count restarts. Untraced, one phase of `opts.seconds` gives the
/// end-to-end metrics. Traced, `TRACE_SEGMENTS` phases alternate between
/// untraced and traced (inline pings and client round-trip spans), then
/// `replay` re-runs the traced requests in-process, layer by layer, for at
/// most the given seconds. `check(op, reply)` gates every reply.
pub fn measure(
    opts: &RunOptions,
    report: &mut Report,
    plan: &Plan<'_>,
    check: impl Fn(usize, &Reply) -> bool,
    replay: impl FnOnce(&Phase, &mut Tracer, &mut Report, f64),
) {
    let ops = plan.workload.ops;
    let recoveries: Vec<f64> = if opts.trace {
        (0..SETUP_REPEATS).map(|_| time_recovery(plan.store)).collect()
    } else {
        Vec::new()
    };
    let (server, setups) = timed_setups(plan.store);
    let addr = server.addr();
    let mut start = (plan.drive)(addr, WARM_UP_S, 0, 0).end();
    let rss_at_reset = crate::reset_peak_rss(server.pid());
    report.info("server_rss_at_timing_mib", format!("{rss_at_reset:.1}"));

    if !opts.trace {
        let phase = (plan.drive)(addr, opts.seconds, start, 0);
        report.metric("peak_rss_mib", crate::peak_rss_mib(server.pid()));
        drop(server);
        let ok = check_phase(report, &phase, ops, &check);
        end_to_end(report, &phase, ops, plan.workload.cycle, &ok, &setups);
        return;
    }

    let mut tracer = Tracer::new(Instant::now());
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let batched_before = ping_counter(addr, "batched_detects");
    for segment in 0..TRACE_SEGMENTS {
        let is_traced = segment % 2 == 1;
        let ping_every = if is_traced { plan.ping_every } else { 0 };
        let phase = (plan.drive)(addr, opts.seconds / TRACE_SEGMENTS as f64, start, ping_every);
        start = phase.end();
        if is_traced { &mut traced } else { &mut untraced }.absorb(phase);
    }
    let batched = ping_counter(addr, "batched_detects") - batched_before;
    drop(server);
    for phase in [&untraced, &traced] {
        check_phase(report, phase, ops, &check);
    }
    let detects = [&untraced, &traced]
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| ops[s.op].command == "detect")
        .count();
    trace_round_trips(&mut tracer, &traced);
    replay(&traced, &mut tracer, report, opts.seconds / 2.0);
    crate::replay::layer_metrics(&tracer, report);
    report.metric("store.recover_s", median(&recoveries));
    report.metric("serve.ping_rtt_ms", median(&traced.pings_ms));
    report.metric("serve.batched_detect_share", batched as f64 / detects.max(1) as f64);
    report.metric("trace.overhead_ratio", untraced.rate() / traced.rate());
    let spans = opts.trace_dir.join(format!("trace-{}.jsonl", plan.name));
    tracer.write_jsonl(&spans).expect("the span file is written");
    report.info("spans", format!("\"{}\"", spans.display()));
}

/// Record the samples of a phase as client round-trip spans (one request
/// id per stream position).
fn trace_round_trips(tracer: &mut Tracer, phase: &Phase) {
    for s in &phase.samples {
        let end = s.sent + Duration::from_secs_f64(s.latency_ms / 1e3);
        tracer.record(s.position as u64, "client.round_trip", s.sent, end);
    }
}

/// Check every sample of `phase` with `check(op, reply)`, count each as a
/// succeeded or failed operation of its command, and return the verdicts.
fn check_phase(
    report: &mut Report,
    phase: &Phase,
    ops: &[Op],
    check: impl Fn(usize, &Reply) -> bool,
) -> Vec<bool> {
    phase
        .samples
        .iter()
        .map(|sample| {
            let ok = sample.reply.as_ref().is_some_and(|reply| check(sample.op, reply));
            report.record(ops[sample.op].command, ok);
            ok
        })
        .collect()
}

/// Set the end-to-end metrics of a served phase and describe its latency
/// distribution. A failed request counts as missing every latency limit.
fn end_to_end(
    report: &mut Report,
    phase: &Phase,
    ops: &[Op],
    cycle: usize,
    ok: &[bool],
    setups: &[f64],
) {
    let latencies: Vec<f64> = phase
        .samples
        .iter()
        .zip(ok)
        .map(|(s, &ok)| if ok { s.latency_ms } else { f64::INFINITY })
        .collect();
    let rows: usize = phase.samples.iter().map(|s| ops[s.op].rows).sum();
    report.metric("setup_s", median(setups));
    report.metric("throughput_rps", phase.rate());
    report.metric("rows_per_s", rows as f64 / phase.elapsed_s);
    report.metric("latency_p50_ms", median(&latencies));
    let mut by_command: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (s, latency) in phase.samples.iter().zip(&latencies) {
        by_command.entry(ops[s.op].command).or_default().push(*latency);
    }
    let per_command: Vec<String> = by_command
        .iter()
        .map(|(cmd, l)| {
            format!("\"{cmd}\":{{\"samples\":{},\"p50_ms\":{:.3}}}", l.len(), median(l))
        })
        .collect();
    // The p90 has at least ten samples beyond it only from 100 samples on.
    let p90 = if latencies.len() >= 100 {
        format!("{:.3}", crate::stats::quantile(&latencies, 0.9))
    } else {
        "null".to_string()
    };
    report.info(
        "latency",
        format!(
            "{{\"samples\":{},\"p50_ms\":{:.3},\"p90_ms\":{p90},\"elapsed_s\":{:.3},\"stolen_share\":{:.4},\"per_command\":{{{}}}}}",
            latencies.len(),
            median(&latencies),
            phase.elapsed_s,
            phase.stolen_share(),
            per_command.join(",")
        ),
    );
    let setups: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    report.info("setup_runs_s", format!("[{}]", setups.join(",")));
    let rates: Vec<String> = cycle_rates(phase, cycle).iter().map(|r| format!("{r:.2}")).collect();
    report.info("cycle_rates_rps", format!("[{}]", rates.join(",")));
}

/// Requests per second of each whole cycle in `phase`, from the first send
/// of the cycle to its last reply (wall time).
fn cycle_rates(phase: &Phase, cycle: usize) -> Vec<f64> {
    let mut spans: std::collections::BTreeMap<usize, (Instant, Instant, usize)> =
        Default::default();
    for s in &phase.samples {
        let end = s.sent + Duration::from_secs_f64(s.latency_ms.min(1e9) / 1e3);
        let e = spans.entry(s.position / cycle).or_insert((s.sent, end, 0));
        e.0 = e.0.min(s.sent);
        e.1 = e.1.max(end);
        e.2 += 1;
    }
    spans
        .values()
        .filter(|v| v.2 == cycle)
        .map(|(a, b, n)| *n as f64 / (*b - *a).as_secs_f64())
        .collect()
}
