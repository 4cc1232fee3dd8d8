//! The multiplexed serving layer: a non-blocking I/O core, bounded request
//! queue, worker pool, release store.
//!
//! Architecture (the paper's Fig. 2 deployment model as a long-lived
//! service):
//!
//! ```text
//! clients ──TCP──▶ I/O core (readiness loop, owns every socket) ──▶ bounded queue
//!                      ▲                                                │
//!                      └── completions ◀── workers (one engine each) ◀──┘
//!                                              │
//!                                     release store (columns, mark, proof)
//! ```
//!
//! * The **I/O core** is one thread that owns the listener and every
//!   accepted socket, all non-blocking. Each pass of its readiness loop
//!   accepts new connections (up to [`ServeConfig::max_connections`]),
//!   drains worker completions into per-connection write buffers, flushes
//!   writes, and read-scans a bounded rotating slice of connections — so
//!   the per-pass cost is constant no matter how many connections are
//!   open, which is what keeps throughput flat from 1 to thousands of
//!   clients. Header parse errors, oversized frames, `ping` and
//!   queue-full conditions are answered inline; nothing sick ever reaches
//!   the pool. (A true `epoll` readiness API needs `unsafe` syscalls the
//!   workspace forbids; the bounded scan is the hermetic, `std`-only
//!   equivalent and is the single swap point if that ever changes.)
//! * **Pipelining**: v2 frames ([`crate::protocol`]) carry a request id,
//!   so one connection can keep many requests in flight; replies are
//!   written the moment their job completes, tagged with the id —
//!   **out of order** is normal. v1 frames get per-connection sequence
//!   numbers and their replies are reordered back into request order, so
//!   a legacy one-at-a-time client sees exactly the old contract.
//! * The **bounded queue** ([`ServeConfig::queue_depth`]) applies
//!   back-pressure: when it is full the client gets a structured
//!   `queue-full` reply immediately instead of an ever-growing buffer. A
//!   connection whose peer stops reading its replies accumulates a write
//!   buffer; past a bound the core stops reading new requests from it
//!   until the backlog drains (per-connection backpressure).
//! * Each **worker** owns one [`ProtectionEngine`] built at startup — the
//!   binning agent (with its AES key schedule), the watermarker and the
//!   domain hierarchy trees are reused across every request the worker
//!   serves, which is what amortizes per-request setup. Small `detect`
//!   requests are **micro-batched**: a worker drains up to
//!   [`ServeConfig::batch_max`] consecutive small detects in one queue
//!   wake-up and shares one detection plan per release across the batch —
//!   with pipelined clients, many connections' small detects coalesce
//!   into one plan. The engine runs every suspect
//!   ([`ProtectionEngine::detect_with_plan`], sharded over
//!   [`ServeConfig::engine_threads`] like any detect); a suspect whose
//!   schema differs from the plan's gets its own through
//!   [`ProtectionEngine::detect`]. A lone detect is a batch of one.
//! * The **release store** ([`crate::store`]) retains what the data holder
//!   keeps after `protect` (per-column binning state, the mark, the
//!   ownership proof) so later `detect` / `resolve-ownership` calls need
//!   only name the release. With [`ServeConfig::data_dir`] set the store is
//!   the durable WAL + snapshot [`DurableStore`]: a `protect` reply is
//!   released only after its release record is fsynced (one group-commit
//!   sync per mutating queue drain), and on restart recovery replays the
//!   log, stops at a torn tail and restores the next release id so ids
//!   handed to clients are never reused.
//!
//! Every worker computes with the same chunk-parallel engine the in-process
//! API exposes, so a served response is byte-identical to calling the engine
//! directly — the serve benchmark gates on exactly that.

use crate::json::{obj, str_arr, Json};
use crate::protocol::{
    encode_frame, Command, ErrorCode, Frame, FrameError, FrameReader, ReadStep, Request,
    RequestError, Response, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::store::{
    lock_unpoisoned, DurableStore, MemoryStore, ReleaseStore, StoreError, StoredRecipient,
    StoredRelease,
};
use medshield_core::{ProtectedRelease, ProtectionConfig, ProtectionEngine};
use medshield_datagen::ontology;
use medshield_dht::DomainHierarchyTree;
use medshield_metrics::mark_loss;
use medshield_relation::{csv, ColumnRole, Table};
use medshield_watermark::{
    derive_recipient_mark, score_recipients, DetectionReport, EmbeddingReport, Mark, OwnershipProof,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Column roles of the medical schema `R(ssn, age, zip_code, doctor,
/// symptom, prescription)` used to import CSV submissions.
pub const MEDICAL_ROLES: [(&str, ColumnRole); 6] = [
    ("ssn", ColumnRole::Identifying),
    ("age", ColumnRole::QuasiNumeric),
    ("zip_code", ColumnRole::QuasiNumeric),
    ("doctor", ColumnRole::QuasiCategorical),
    ("symptom", ColumnRole::QuasiCategorical),
    ("prescription", ColumnRole::QuasiCategorical),
];

/// Mark-loss threshold under which a detect reply claims `carries_mark`
/// (the CLI's verdict uses the same bound).
pub const CARRIES_MARK_THRESHOLD: f64 = 0.25;

/// Configuration of the serving layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The protection-engine configuration every worker is built from.
    pub engine: ProtectionConfig,
    /// Worker threads *inside* each engine (the chunk-parallel `--threads`
    /// knob). Defaults to 1: the pool parallelizes across requests, so
    /// intra-request sharding only pays off for very large submissions.
    pub engine_threads: usize,
    /// Number of pool workers (parallel requests). Zero is rejected.
    pub workers: usize,
    /// Capacity of the bounded request queue; a full queue answers
    /// `queue-full` instead of buffering without bound. Zero is rejected.
    pub queue_depth: usize,
    /// Largest accepted frame payload.
    pub max_frame_len: usize,
    /// How long a request may wait in the queue before it is answered with
    /// a `timeout` error instead of being processed. (Processing itself is
    /// not preempted; the deadline bounds queue wait.)
    pub request_timeout: Duration,
    /// Upper bound on how many small `detect` requests one worker drains
    /// per queue wake-up (micro-batching). 1 disables batching.
    pub batch_max: usize,
    /// Body-size bound (bytes) under which a `detect` request counts as
    /// "small" and may join a micro-batch.
    pub batch_small_bytes: usize,
    /// Most connections the I/O core keeps open at once. A connection
    /// accepted past the limit is sent one structured `connection-limit`
    /// error frame (best effort) and closed. Zero is rejected.
    pub max_connections: usize,
    /// Default binning mode when a `protect` request does not say
    /// (`per-attribute=true|false`): per-attribute matches the CLI default.
    pub per_attribute_default: bool,
    /// Directory for the durable release store (WAL + snapshots). `None`
    /// keeps releases in memory — the default, and what tests use. Set, the
    /// server recovers every previously stored release on startup and a
    /// `protect` reply is only released once its record is fsynced.
    pub data_dir: Option<PathBuf>,
    /// Snapshot + compact the write-ahead log after this many appends
    /// (durable store only). 0 disables snapshots; the WAL alone still
    /// recovers everything, it just replays longer.
    pub snapshot_every: usize,
    /// Honor the test-only `sleep` and `panic` commands (integration tests
    /// use them to fill the queue deterministically and to exercise the
    /// mutex-poison recovery path). Never enable in production.
    pub debug_hooks: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: ProtectionConfig::default(),
            engine_threads: 1,
            workers: 4,
            queue_depth: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            request_timeout: Duration::from_secs(30),
            batch_max: 8,
            batch_small_bytes: 64 * 1024,
            max_connections: 1024,
            per_attribute_default: true,
            data_dir: None,
            snapshot_every: 256,
            debug_hooks: false,
        }
    }
}

/// Errors from starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration is unusable (zero workers, zero queue depth, or an
    /// engine configuration the engine rejects).
    InvalidConfig(String),
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The durable release store could not be opened or recovered.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(m) => write!(f, "invalid serve configuration: {m}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Store(e) => write!(f, "release store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Counters exposed by `ping` (and useful to tests).
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    batched_detects: AtomicU64,
}

/// State shared by the acceptor, connections and workers.
struct Shared {
    config: ServeConfig,
    trees: BTreeMap<String, DomainHierarchyTree>,
    store: Box<dyn ReleaseStore>,
    shutdown: AtomicBool,
    counters: Counters,
}

/// How a reply is correlated back to its request on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyTag {
    /// A v1 frame: no wire id. The core assigned a per-connection sequence
    /// number so replies can be put back into request order before writing.
    V1 {
        /// Position of the request in the connection's v1 request stream.
        seq: u64,
    },
    /// A v2 frame: the reply echoes the client-chosen request id and may be
    /// written as soon as it is ready, in any order.
    V2 {
        /// The client's request id.
        id: u64,
    },
}

/// A finished request on its way back to the I/O core.
struct Completion {
    conn: u64,
    tag: ReplyTag,
    response: Response,
}

/// One queued request: the parsed request plus where its reply goes.
struct Job {
    request: Request,
    conn: u64,
    tag: ReplyTag,
    enqueued: Instant,
    reply: mpsc::Sender<Completion>,
}

impl Job {
    /// Send the reply back to the I/O core (a no-op if the core is gone).
    fn respond(&self, response: Response) {
        let _ = self.reply.send(Completion { conn: self.conn, tag: self.tag, response });
    }
}

/// A bounded MPMC queue: `try_push` fails fast when full (back-pressure),
/// `pop_batch` blocks until work arrives and opportunistically drains a
/// micro-batch of consecutive jobs matching a predicate.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

enum TryPushError<T> {
    Full(T),
    Closed(T),
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block (up to `timeout`) for at least one item; when the first item
    /// matches `batch`, keep draining immediately-available matching items
    /// up to `max`. Returns `None` once the queue is closed **and** drained
    /// (workers exit), `Some(vec![])` on a timeout tick.
    fn pop_batch(
        &self,
        max: usize,
        timeout: Duration,
        batch: impl Fn(&T) -> bool,
    ) -> Option<Vec<T>> {
        let mut inner = lock_unpoisoned(&self.inner);
        while inner.items.is_empty() {
            if inner.closed {
                return None;
            }
            // Poison recovery mirrors `lock_unpoisoned`: the queue is a
            // plain deque + flag, consistent after any panic.
            let (guard, wait) =
                self.not_empty.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            if wait.timed_out() && inner.items.is_empty() {
                return if inner.closed { None } else { Some(Vec::new()) };
            }
        }
        let Some(first) = inner.items.pop_front() else {
            // Unreachable: the wait loop above only exits with a non-empty
            // queue — but an empty batch is a safe answer if it ever isn't.
            return Some(Vec::new());
        };
        let batchable = batch(&first);
        let mut out = vec![first];
        while batchable && out.len() < max {
            if !inner.items.front().is_some_and(&batch) {
                break;
            }
            match inner.items.pop_front() {
                Some(next) => out.push(next),
                None => break,
            }
        }
        Some(out)
    }

    fn close(&self) {
        lock_unpoisoned(&self.inner).closed = true;
        self.not_empty.notify_all();
    }
}

/// A running server. Dropping the handle (or calling
/// [`ServeHandle::shutdown`]) shuts the server down gracefully: the
/// listener stops accepting, queued requests are drained and answered, and
/// every thread is joined.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<Job>>,
    io_core: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The address the listener is actually bound to (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of releases currently in the store (after a durable restart
    /// this includes everything recovery restored).
    pub fn releases(&self) -> usize {
        self.shared.store.len()
    }

    /// True when the server persists releases across restarts.
    pub fn is_durable(&self) -> bool {
        self.shared.store.is_durable()
    }

    /// Shut the server down gracefully and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Block the current thread until the server stops (i.e. until another
    /// thread triggers shutdown or the I/O core dies). The CLI `serve`
    /// command parks here.
    pub fn wait(mut self) {
        if let Some(io_core) = self.io_core.take() {
            let _ = io_core.join();
        }
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Closing the queue lets the workers drain what is queued and exit;
        // their completions still flow to the I/O core, which stops reading,
        // flushes every pending reply and only then exits. A push racing the
        // close gets a structured shutting-down reply from the core.
        self.queue.close();
        if let Some(io_core) = self.io_core.take() {
            let _ = io_core.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Bind and start a server. Returns once the listener is accepting.
pub fn serve(config: ServeConfig, addr: impl ToSocketAddrs) -> Result<ServeHandle, ServeError> {
    if config.workers == 0 {
        return Err(ServeError::InvalidConfig("workers must be at least 1".into()));
    }
    if config.queue_depth == 0 {
        return Err(ServeError::InvalidConfig("queue depth must be at least 1".into()));
    }
    if config.batch_max == 0 {
        return Err(ServeError::InvalidConfig("batch max must be at least 1".into()));
    }
    if config.max_connections == 0 {
        return Err(ServeError::InvalidConfig("max connections must be at least 1".into()));
    }
    // Fail fast on an engine configuration the workers could not build
    // (e.g. engine_threads = 0 — the unified thread-count contract).
    let engine = ProtectionEngine::new(config.engine.clone(), config.engine_threads)
        .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;

    // Open (and recover) the release store before binding: a server that
    // cannot reach its durable evidence must not accept traffic.
    let store: Box<dyn ReleaseStore> = match &config.data_dir {
        None => Box::new(MemoryStore::new()),
        Some(dir) => {
            Box::new(DurableStore::open(dir, config.snapshot_every).map_err(ServeError::Store)?)
        }
    };

    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        trees: ontology::all_trees(),
        store,
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        config,
    });
    let queue = Arc::new(BoundedQueue::new(shared.config.queue_depth));

    let workers = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            let engine = engine.clone();
            thread::Builder::new()
                .name(format!("medshield-worker-{i}"))
                .spawn(move || worker_loop(&shared, &queue, &engine))
                .map_err(ServeError::Io)
        })
        .collect::<Result<_, _>>();
    // On any spawn failure, close the queue so the workers that did start
    // drain out instead of leaking blocked on an abandoned queue.
    let workers: Vec<JoinHandle<()>> = match workers {
        Ok(workers) => workers,
        Err(e) => {
            queue.close();
            return Err(e);
        }
    };

    let io_core = {
        let shared = Arc::clone(&shared);
        let queue_for_core = Arc::clone(&queue);
        let spawned = thread::Builder::new()
            .name("medshield-io".into())
            .spawn(move || IoCore::new(listener, shared, queue_for_core).run());
        match spawned {
            Ok(handle) => handle,
            Err(e) => {
                queue.close();
                return Err(ServeError::Io(e));
            }
        }
    };

    Ok(ServeHandle { addr, shared, queue, io_core: Some(io_core), workers })
}

// Tuning constants of the readiness loop. The quotas bound the work of one
// pass so its cost stays constant no matter how many connections are open —
// the property that keeps throughput flat as connections grow.

/// Most connections accepted in one pass.
const ACCEPT_QUOTA: usize = 128;
/// Connections read-scanned per pass (rotating, so every open connection is
/// visited within `ceil(open / READ_SCAN_QUOTA)` passes).
const READ_SCAN_QUOTA: usize = 64;
/// Frames decoded from one connection per visit, so one firehose client
/// cannot starve the rest of the scan slice.
const FRAMES_PER_CONN_PER_VISIT: usize = 32;
/// Per-connection backpressure: past this many unflushed reply bytes the
/// core stops reading new requests from the connection until the peer
/// drains its replies.
const WRITE_BACKLOG_PAUSE: usize = 4 * 1024 * 1024;
/// Fruitless passes the core burns (yielding) before it starts sleeping;
/// covers a request/reply round trip so a ping-pong client never waits out
/// a sleep.
const SPIN_PASSES: u32 = 256;
/// How long the idle core blocks on the completions channel between scans
/// once the spin budget is exhausted.
const IDLE_TICK: Duration = Duration::from_millis(1);
/// At shutdown, once every in-flight job has completed, how long slow
/// readers get to drain their buffered replies before the core gives up.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_millis(500);

/// One accepted socket and the state the I/O core keeps for it.
struct Connection {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded reply frames awaiting the socket; `written` marks how much
    /// of the front has already left.
    write_buf: Vec<u8>,
    written: usize,
    /// Sequence number the next v1 request on this connection will get.
    next_v1_seq: u64,
    /// Sequence number of the v1 reply that must be written next.
    next_v1_write: u64,
    /// v1 replies that completed out of order, parked until their turn.
    pending_v1: BTreeMap<u64, Vec<u8>>,
    /// Requests of this connection currently queued or on a worker.
    in_flight: usize,
    /// The stream can no longer be read (EOF, or an unsyncable frame
    /// error); kept only until the buffered replies flush.
    closing: bool,
}

impl Connection {
    fn new(stream: TcpStream) -> io::Result<Connection> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            reader: FrameReader::new(),
            write_buf: Vec::new(),
            written: 0,
            next_v1_seq: 0,
            next_v1_write: 0,
            pending_v1: BTreeMap::new(),
            in_flight: 0,
            closing: false,
        })
    }

    /// Unflushed reply bytes.
    fn backlog(&self) -> usize {
        self.write_buf.len().saturating_sub(self.written)
    }

    /// Append one encoded reply. v2 replies go out in completion order; a
    /// v1 reply is parked until every earlier v1 reply has been appended,
    /// restoring the request order legacy clients rely on.
    fn enqueue_reply(&mut self, tag: ReplyTag, response: &Response) {
        match tag {
            ReplyTag::V2 { id } => append_reply(&mut self.write_buf, Some(id), response),
            ReplyTag::V1 { seq } if seq == self.next_v1_write => {
                append_reply(&mut self.write_buf, None, response);
                self.next_v1_write = self.next_v1_write.wrapping_add(1);
                while let Some(next) = self.pending_v1.remove(&self.next_v1_write) {
                    self.write_buf.extend_from_slice(&next);
                    self.next_v1_write = self.next_v1_write.wrapping_add(1);
                }
            }
            ReplyTag::V1 { seq } => {
                let mut frame = Vec::new();
                append_reply(&mut frame, None, response);
                self.pending_v1.insert(seq, frame);
            }
        }
    }

    /// Write as much of the backlog as the socket accepts right now.
    /// Returns whether any bytes moved; an error means the peer is gone.
    fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while let Some(rest) = self.write_buf.get(self.written..) {
            if rest.is_empty() {
                break;
            }
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written = self.written.saturating_add(n);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.written > 0 && self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        }
        Ok(progressed)
    }
}

/// The readiness loop: one thread owning the listener and every accepted
/// socket, feeding parsed requests to the bounded queue and muxing worker
/// completions back onto the right connections.
struct IoCore {
    shared: Arc<Shared>,
    queue: Arc<BoundedQueue<Job>>,
    listener: TcpListener,
    completions_tx: mpsc::Sender<Completion>,
    completions_rx: mpsc::Receiver<Completion>,
    conns: BTreeMap<u64, Connection>,
    next_conn_id: u64,
    /// Where the rotating read scan resumes on the next pass.
    cursor: u64,
    /// Jobs handed to the queue whose completions have not come back yet.
    jobs_in_flight: usize,
}

impl IoCore {
    fn new(listener: TcpListener, shared: Arc<Shared>, queue: Arc<BoundedQueue<Job>>) -> IoCore {
        let (completions_tx, completions_rx) = mpsc::channel();
        IoCore {
            shared,
            queue,
            listener,
            completions_tx,
            completions_rx,
            conns: BTreeMap::new(),
            next_conn_id: 0,
            cursor: 0,
            jobs_in_flight: 0,
        }
    }

    fn run(&mut self) {
        let mut flush_deadline: Option<Instant> = None;
        let mut fruitless: u32 = 0;
        loop {
            let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
            let mut progressed = false;
            if !shutting_down {
                progressed |= self.accept_new();
            }
            progressed |= self.drain_completions();
            progressed |= self.pump_connections(shutting_down);
            if shutting_down && self.jobs_in_flight == 0 {
                // Every accepted request has been answered; what remains is
                // pushing buffered replies to slow readers, bounded by the
                // flush grace so one stalled peer cannot wedge shutdown.
                let deadline =
                    *flush_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_FLUSH_GRACE);
                if self.conns.values().all(|c| c.backlog() == 0) || Instant::now() >= deadline {
                    break;
                }
            }
            if progressed {
                fruitless = 0;
            } else {
                fruitless = fruitless.saturating_add(1);
                if fruitless < SPIN_PASSES {
                    thread::yield_now();
                } else if let Ok(completion) = self.completions_rx.recv_timeout(IDLE_TICK) {
                    // A finished job wakes the core immediately; a timeout
                    // just re-scans the sockets.
                    self.route(completion);
                    fruitless = 0;
                }
            }
        }
    }

    /// Accept up to a quota of new connections; past the configured limit a
    /// connection gets one best-effort `connection-limit` error frame and
    /// is closed.
    fn accept_new(&mut self) -> bool {
        let mut progressed = false;
        for _ in 0..ACCEPT_QUOTA {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if self.conns.len() >= self.shared.config.max_connections {
                        refuse_connection(stream);
                        continue;
                    }
                    if let Ok(conn) = Connection::new(stream) {
                        self.conns.insert(self.next_conn_id, conn);
                        self.next_conn_id = self.next_conn_id.wrapping_add(1);
                    }
                }
                // WouldBlock (no pending connection) or a transient accept
                // error: either way, retry on the next pass.
                Err(_) => break,
            }
        }
        progressed
    }

    fn drain_completions(&mut self) -> bool {
        let mut progressed = false;
        while let Ok(completion) = self.completions_rx.try_recv() {
            progressed = true;
            self.route(completion);
        }
        progressed
    }

    /// Deliver one finished job to its connection's write buffer.
    fn route(&mut self, completion: Completion) {
        self.jobs_in_flight = self.jobs_in_flight.saturating_sub(1);
        let Some(conn) = self.conns.get_mut(&completion.conn) else {
            return; // the connection went away while its request was in flight
        };
        conn.in_flight = conn.in_flight.saturating_sub(1);
        conn.enqueue_reply(completion.tag, &completion.response);
        if conn.flush().is_err() {
            self.conns.remove(&completion.conn);
        }
    }

    /// One rotating pass over (a bounded slice of) the connections: flush
    /// backlogs, read and handle new frames, drop dead sockets.
    fn pump_connections(&mut self, shutting_down: bool) -> bool {
        if self.conns.is_empty() {
            return false;
        }
        let mut ids: Vec<u64> =
            self.conns.range(self.cursor..).map(|(&id, _)| id).take(READ_SCAN_QUOTA).collect();
        if ids.len() < READ_SCAN_QUOTA {
            let wrap = READ_SCAN_QUOTA - ids.len();
            ids.extend(self.conns.range(..self.cursor).map(|(&id, _)| id).take(wrap));
        }
        self.cursor = ids.last().map_or(0, |&id| id.wrapping_add(1));
        let mut progressed = false;
        for id in ids {
            progressed |= self.pump_one(id, shutting_down);
        }
        progressed
    }

    /// Flush + read one connection. Returns whether anything moved.
    fn pump_one(&mut self, id: u64, shutting_down: bool) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        let Ok(mut progressed) = conn.flush() else {
            self.conns.remove(&id);
            return true;
        };
        if conn.closing {
            if conn.in_flight == 0 && conn.backlog() == 0 {
                self.conns.remove(&id);
                progressed = true;
            }
            return progressed;
        }
        // Reading pauses while shutdown drains, and while the peer lets its
        // replies pile up past the backlog bound (per-connection
        // backpressure); unread bytes stay in the kernel buffer.
        if shutting_down || conn.backlog() > WRITE_BACKLOG_PAUSE {
            return progressed;
        }
        let max_len = self.shared.config.max_frame_len;
        let mut frames = Vec::new();
        for _ in 0..FRAMES_PER_CONN_PER_VISIT {
            match conn.reader.step(&mut conn.stream, max_len) {
                Ok(ReadStep::Frame(frame)) => frames.push(frame),
                Ok(ReadStep::Idle) => break,
                Ok(ReadStep::Eof) => {
                    // The peer is done sending; keep the connection until
                    // its in-flight replies are written, read nothing more.
                    conn.closing = true;
                    break;
                }
                Err(FrameError::Oversized { len, max }) => {
                    // A structured reply, then stop reading: the announced
                    // payload was never read, so the stream cannot be
                    // resynchronized.
                    let response = error_response(
                        ErrorCode::OversizedFrame,
                        &format!("frame of {len} bytes exceeds the {max}-byte limit"),
                    );
                    let seq = conn.next_v1_seq;
                    conn.next_v1_seq = conn.next_v1_seq.wrapping_add(1);
                    conn.enqueue_reply(ReplyTag::V1 { seq }, &response);
                    conn.closing = true;
                    break;
                }
                Err(_) => {
                    self.conns.remove(&id);
                    return true;
                }
            }
        }
        progressed |= !frames.is_empty();
        for frame in frames {
            self.handle_frame(id, frame);
        }
        progressed
    }

    /// Parse one request frame and either answer it inline (parse errors,
    /// `ping`, backpressure) or queue it for the worker pool.
    fn handle_frame(&mut self, conn_id: u64, frame: Frame) {
        let tag = match frame.request_id {
            Some(id) => ReplyTag::V2 { id },
            None => {
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return;
                };
                let seq = conn.next_v1_seq;
                conn.next_v1_seq = conn.next_v1_seq.wrapping_add(1);
                ReplyTag::V1 { seq }
            }
        };
        let request = match Request::from_payload(frame.payload) {
            Ok(request) => request,
            Err(RequestError::UnknownCommand(name)) => {
                let response =
                    error_response(ErrorCode::UnknownCommand, &format!("unknown command: {name}"));
                return self.reply_inline(conn_id, tag, &response);
            }
            Err(e) => {
                let response = error_response(ErrorCode::BadRequest, &e.to_string());
                return self.reply_inline(conn_id, tag, &response);
            }
        };
        if request.command == Command::Ping {
            // Answered inline so health checks work even when the queue is
            // full; reports the protocol version and the server's limits so
            // clients can negotiate instead of discovering them via errors.
            let response = self.ping_response();
            return self.reply_inline(conn_id, tag, &response);
        }
        if self.shared.shutdown.load(Ordering::SeqCst) {
            let response = error_response(ErrorCode::ShuttingDown, "the server is shutting down");
            return self.reply_inline(conn_id, tag, &response);
        }
        let job = Job {
            request,
            conn: conn_id,
            tag,
            enqueued: Instant::now(),
            reply: self.completions_tx.clone(),
        };
        match self.queue.try_push(job) {
            Ok(()) => {
                self.jobs_in_flight = self.jobs_in_flight.saturating_add(1);
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.in_flight = conn.in_flight.saturating_add(1);
                }
            }
            Err(TryPushError::Full(_)) => {
                let response = error_response(
                    ErrorCode::QueueFull,
                    &format!(
                        "the request queue is full ({} pending); retry later",
                        self.shared.config.queue_depth
                    ),
                );
                self.reply_inline(conn_id, tag, &response);
            }
            Err(TryPushError::Closed(_)) => {
                let response =
                    error_response(ErrorCode::ShuttingDown, "the server is shutting down");
                self.reply_inline(conn_id, tag, &response);
            }
        }
    }

    /// Write a reply the core produced itself (no worker involved).
    fn reply_inline(&mut self, conn_id: u64, tag: ReplyTag, response: &Response) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        conn.enqueue_reply(tag, response);
        if conn.flush().is_err() {
            self.conns.remove(&conn_id);
        }
    }

    /// The inline `ping` reply: liveness, protocol version, the server's
    /// limits, live counters.
    fn ping_response(&self) -> Response {
        let shared = &self.shared;
        ok_response(
            vec![
                ("pong", true.into()),
                ("protocol", Json::Int(PROTOCOL_VERSION as i64)),
                ("workers", shared.config.workers.into()),
                ("queue_depth", shared.config.queue_depth.into()),
                ("max_frame_len", shared.config.max_frame_len.into()),
                ("max_connections", shared.config.max_connections.into()),
                ("connections", self.conns.len().into()),
                ("releases", shared.store.len().into()),
                ("durable", shared.store.is_durable().into()),
                ("served", Json::Int(shared.counters.served.load(Ordering::Relaxed) as i64)),
                (
                    "batched_detects",
                    Json::Int(shared.counters.batched_detects.load(Ordering::Relaxed) as i64),
                ),
                ("compactions_failed", Json::Int(shared.store.compactions_failed() as i64)),
            ],
            None,
        )
    }
}

/// Append `response` to `out` as one frame. A reply past the 31-bit frame
/// bound (a > 2 GiB payload) becomes a small structured error instead, so
/// the client is not left waiting forever; encoding *that* cannot fail.
fn append_reply(out: &mut Vec<u8>, request_id: Option<u64>, response: &Response) {
    if response.encode_frame_into(request_id, out).is_err() {
        let fallback =
            error_response(ErrorCode::Engine, "the reply exceeds the frame length bound");
        let _ = fallback.encode_frame_into(request_id, out);
    }
}

/// Tell a connection refused at the limit why, best effort, then close it.
fn refuse_connection(mut stream: TcpStream) {
    let response = error_response(
        ErrorCode::ConnectionLimit,
        "the server is at its connection limit; retry later",
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(50)));
    if let Ok(frame) = encode_frame(None, &response.encode()) {
        let _ = stream.write_all(&frame);
    }
}

fn worker_loop(shared: &Arc<Shared>, queue: &Arc<BoundedQueue<Job>>, engine: &ProtectionEngine) {
    let small = shared.config.batch_small_bytes;
    let is_small_detect =
        |job: &Job| job.request.command == Command::Detect && job.request.body.len() <= small;
    loop {
        let Some(batch) =
            queue.pop_batch(shared.config.batch_max, Duration::from_millis(100), is_small_detect)
        else {
            break; // closed and drained
        };
        if batch.is_empty() {
            continue; // timeout tick; loop re-checks for closure
        }
        process_batch(shared, engine, batch);
    }
}

/// Answer every job of a drained batch. Detect jobs that share a release
/// also share one detection plan (the batching win); everything else is
/// handled one by one in pop order.
fn process_batch(shared: &Arc<Shared>, engine: &ProtectionEngine, batch: Vec<Job>) {
    let detect_batch =
        batch.len() > 1 && batch.iter().all(|j| j.request.command == Command::Detect);
    if detect_batch {
        shared.counters.batched_detects.fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    // Group consecutive same-release detects so one plan serves the group.
    let mut pending: Vec<Job> = Vec::new();
    let mut pending_release: Option<String> = None;
    let flush = |jobs: &mut Vec<Job>| {
        if jobs.is_empty() {
            return;
        }
        let group = std::mem::take(jobs);
        handle_detect_group(shared, engine, group);
    };
    for job in batch {
        if expired(shared, &job) {
            continue;
        }
        if job.request.command == Command::Detect {
            let release = job.request.params.get("release").cloned().unwrap_or_default();
            if pending_release.as_deref() != Some(release.as_str()) {
                flush(&mut pending);
                pending_release = Some(release);
            }
            pending.push(job);
        } else {
            flush(&mut pending);
            pending_release = None;
            let mut response = guarded(shared, engine, &job);
            // Durability barrier, batched per queue drain: a *successful*
            // protect reply leaves the worker only after its release record
            // is fsynced (group commit shares the fsync with concurrently
            // draining workers). A protect that failed before appending —
            // malformed CSV, engine rejection — has nothing to sync and
            // keeps its own error. The in-memory store's sync is a no-op.
            if matches!(job.request.command, Command::Protect | Command::ProtectFor)
                && response.is_ok()
            {
                if let Err(e) = shared.store.sync() {
                    // The durable store fail-stops on an fsync failure:
                    // whether this record reached disk is unknowable until a
                    // restart replays the log, and no further protect will
                    // be accepted — say so instead of claiming the release
                    // was stored.
                    response = error_response(
                        ErrorCode::Storage,
                        &format!(
                            "durability of the release is unconfirmed and the store has \
                             fail-stopped; restart the server and re-check before retrying: {e}"
                        ),
                    );
                }
            }
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            job.respond(response);
        }
    }
    flush(&mut pending);
}

/// Reply `timeout` (and consume the job) when it overstayed its queue
/// deadline.
fn expired(shared: &Arc<Shared>, job: &Job) -> bool {
    let waited = job.enqueued.elapsed();
    if waited <= shared.config.request_timeout {
        return false;
    }
    job.respond(error_response(
        ErrorCode::Timeout,
        &format!(
            "request waited {}ms in the queue (limit {}ms)",
            waited.as_millis(),
            shared.config.request_timeout.as_millis()
        ),
    ));
    true
}

/// Run one non-detect job with a panic guard: a served endpoint must never
/// take the worker down, whatever the submission.
fn guarded(shared: &Arc<Shared>, engine: &ProtectionEngine, job: &Job) -> Response {
    catch_unwind(AssertUnwindSafe(|| handle_request(shared, engine, &job.request))).unwrap_or_else(
        |_| error_response(ErrorCode::Engine, "internal error: the request handler panicked"),
    )
}

/// Handle a group of consecutive `detect` jobs naming the same release:
/// resolve the release once, build one detection plan, run every suspect
/// table against it.
fn handle_detect_group(shared: &Arc<Shared>, engine: &ProtectionEngine, group: Vec<Job>) {
    let outcome = catch_unwind(AssertUnwindSafe(|| detect_group_responses(shared, engine, &group)));
    let responses = outcome.unwrap_or_else(|_| {
        group
            .iter()
            .map(|_| {
                error_response(ErrorCode::Engine, "internal error: the detect handler panicked")
            })
            .collect()
    });
    debug_assert_eq!(responses.len(), group.len());
    for (job, response) in group.iter().zip(responses) {
        shared.counters.served.fetch_add(1, Ordering::Relaxed);
        job.respond(response);
    }
}

fn detect_group_responses(
    shared: &Arc<Shared>,
    engine: &ProtectionEngine,
    group: &[Job],
) -> Vec<Response> {
    // Resolve the release once for the whole group.
    let Some(first) = group.first() else {
        return Vec::new();
    };
    let stored = match release_param(shared, &first.request) {
        Ok(stored) => stored,
        Err(response) => return group.iter().map(|_| response.clone()).collect(),
    };
    // Parse all bodies first so the plan can be built from the first valid
    // schema and shared across every suspect that matches it; any other
    // suspect gets its own plan from `engine.detect`.
    let tables: Vec<Result<Table, Response>> =
        group.iter().map(|job| parse_body(&job.request)).collect();
    let (watermarker, mark_len) = (engine.watermarker(), engine.config().mark_len);
    let plan = tables.iter().find_map(|t| t.as_ref().ok()).and_then(|table| {
        watermarker.plan_detect(table.schema(), &stored.columns, &shared.trees, mark_len).ok()
    });
    tables
        .iter()
        .map(|table| {
            let table = match table {
                Ok(table) => table,
                Err(response) => return response.clone(),
            };
            let report = match &plan {
                Some(plan) if plan.schema() == table.schema() => {
                    engine.detect_with_plan(plan, table)
                }
                _ => engine.detect(table, &stored.columns, &shared.trees),
            };
            match report {
                Ok(report) => detect_response(&stored, table.len(), &report),
                Err(e) => error_response(ErrorCode::Engine, &e.to_string()),
            }
        })
        .collect()
}

fn detect_response(stored: &StoredRelease, rows: usize, report: &DetectionReport) -> Response {
    let loss = mark_loss(stored.mark.bits(), &report.mark);
    ok_response(
        vec![
            ("rows", rows.into()),
            ("selected_tuples", report.selected_tuples.into()),
            ("covered_positions", report.covered_positions.into()),
            ("wmd_len", report.wmd_len.into()),
            ("mark", Mark::from_bits(report.mark.clone()).to_string().into()),
            ("mark_loss", loss.into()),
            ("carries_mark", (loss <= CARRIES_MARK_THRESHOLD).into()),
        ],
        None,
    )
}

/// Handle one non-detect request on a worker.
fn handle_request(shared: &Arc<Shared>, engine: &ProtectionEngine, request: &Request) -> Response {
    match request.command {
        Command::Protect => handle_protect(shared, engine, request),
        Command::ProtectFor => handle_protect_for(shared, engine, request),
        Command::ListRecipients => handle_list_recipients(shared, request),
        Command::ResolveLeaker => handle_resolve_leaker(shared, engine, request),
        Command::Embed => handle_embed(shared, engine, request),
        // `process_batch` sends every detect to `handle_detect_group`.
        Command::Detect => {
            error_response(ErrorCode::Engine, "internal error: detect bypassed its group path")
        }
        Command::ResolveOwnership => handle_resolve(shared, engine, request),
        Command::Sleep if shared.config.debug_hooks => {
            let ms: u64 = match param(request, "ms", 100) {
                Ok(ms) => ms,
                Err(response) => return response,
            };
            thread::sleep(Duration::from_millis(ms));
            ok_response(vec![("slept_ms", Json::Int(ms as i64))], None)
        }
        Command::Panic if shared.config.debug_hooks => {
            // Exercises the worker panic guard; with `poison=store`, the
            // panic unwinds while the release-store lock is held, which is
            // exactly the cascade the poison-recovering locks must absorb.
            if request.params.get("poison").map(String::as_str) == Some("store") {
                shared.store.poison_for_tests();
            }
            // medlint::allow(no-panic, the panic IS the feature: this debug-hooks-gated command exercises the worker panic guard)
            panic!("debug panic command");
        }
        Command::Sleep | Command::Panic => {
            error_response(ErrorCode::UnknownCommand, "debug commands are not enabled")
        }
        // Ping is answered inline by the connection thread.
        Command::Ping => ok_response(vec![("pong", true.into())], None),
    }
}

fn handle_protect(shared: &Arc<Shared>, engine: &ProtectionEngine, request: &Request) -> Response {
    let release = match protect_body(shared, engine, request) {
        Ok(release) => release,
        Err(response) => return response,
    };
    let id = match store_release(shared, &release) {
        Ok(id) => id,
        Err(response) => return response,
    };
    let mut fields =
        vec![("release", format!("r{id}").into()), ("rows", release.table.len().into())];
    fields.extend(embedding_fields(&release.embedding));
    fields.extend([
        ("satisfied", release.binning.satisfied.into()),
        ("mark", release.mark.to_string().into()),
        ("has_ownership_proof", release.ownership.is_some().into()),
        ("warnings", str_arr(&release.binning.warnings)),
    ]);
    ok_response(fields, Some(csv::to_csv(&release.table)))
}

/// Parse the CSV body and protect it in the binning mode the
/// `per-attribute` parameter selects (the server default when absent).
fn protect_body(
    shared: &Arc<Shared>,
    engine: &ProtectionEngine,
    request: &Request,
) -> Result<ProtectedRelease, Response> {
    let table = parse_body(request)?;
    let per_attribute = param(request, "per-attribute", shared.config.per_attribute_default)?;
    let result = if per_attribute {
        engine.protect_per_attribute(&table, &shared.trees)
    } else {
        engine.protect(&table, &shared.trees)
    };
    result.map_err(|e| error_response(ErrorCode::Engine, &e.to_string()))
}

/// Append the record of a freshly protected release (no recipients yet) to
/// the store, returning its id.
fn store_release(shared: &Arc<Shared>, release: &ProtectedRelease) -> Result<u64, Response> {
    let stored = StoredRelease {
        columns: release.binning.columns.clone(),
        mark: release.mark.clone(),
        ownership: release.ownership.clone(),
        recipients: Vec::new(),
    };
    shared.store.append(stored).map_err(|e| {
        error_response(ErrorCode::Storage, &format!("the release could not be stored: {e}"))
    })
}

/// The embedding-report fields of every reply that embeds a mark.
fn embedding_fields(report: &EmbeddingReport) -> [(&'static str, Json); 5] {
    [
        ("selected_tuples", report.selected_tuples.into()),
        ("embedded_cells", report.embedded_cells.into()),
        ("changed_cells", report.changed_cells.into()),
        ("skipped_cells", report.skipped_cells.into()),
        ("wmd_len", report.wmd_len.into()),
    ]
}

/// `protect-for`: produce a per-recipient fingerprinted copy of a release.
///
/// Without a `release` parameter the body is an original table: it is
/// protected exactly like `protect` (creating the release record), then the
/// recipient's fingerprint — derived from the owner key with the recipient id
/// as PRF label — is embedded over the released table and the reply body is
/// that copy. With `release=rN` the body is the already-released (binned)
/// table and only the recipient copy is produced. Selection depends only on
/// tuple identity, so re-embedding overwrites the owner's bits cell for cell
/// and all copies stay detection-equivalent for the owner.
fn handle_protect_for(
    shared: &Arc<Shared>,
    engine: &ProtectionEngine,
    request: &Request,
) -> Response {
    let Some(recipient_name) = request.params.get("recipient").cloned() else {
        return error_response(ErrorCode::MissingParameter, "the recipient parameter is required");
    };
    if recipient_name.is_empty() {
        return error_response(ErrorCode::MissingParameter, "the recipient name must not be empty");
    }
    let recipient_mark = derive_recipient_mark(
        &engine.watermarker().config().key,
        &recipient_name,
        engine.config().mark_len,
    );
    // Either fingerprint another copy of a stored release, or protect the
    // body like `protect` and fingerprint the fresh release (kept for the
    // reply's binning fields).
    let (id, copy, report, fresh) = if request.params.contains_key("release") {
        let stored = match release_param(shared, request) {
            Ok(stored) => stored,
            Err(response) => return response,
        };
        let id = match release_id_param(request) {
            Ok(id) => id,
            Err(response) => return response,
        };
        let table = match parse_body(request) {
            Ok(table) => table,
            Err(response) => return response,
        };
        match engine.embed(&table, &stored.columns, &shared.trees, &recipient_mark) {
            Ok((copy, report)) => (id, copy, report, None),
            Err(e) => return error_response(ErrorCode::Engine, &e.to_string()),
        }
    } else {
        let release = match protect_body(shared, engine, request) {
            Ok(release) => release,
            Err(response) => return response,
        };
        let copied =
            engine.embed(&release.table, &release.binning.columns, &shared.trees, &recipient_mark);
        let (copy, report) = match copied {
            Ok(v) => v,
            Err(e) => return error_response(ErrorCode::Engine, &e.to_string()),
        };
        let id = match store_release(shared, &release) {
            Ok(id) => id,
            Err(response) => return response,
        };
        (id, copy, report, Some(release))
    };
    let recipients = match register_recipient(shared, id, &recipient_name, &recipient_mark) {
        Ok(count) => count,
        Err(response) => return response,
    };
    let mut fields = vec![
        ("release", format!("r{id}").into()),
        ("recipient", recipient_name.into()),
        ("recipients", recipients.into()),
        ("rows", copy.len().into()),
    ];
    fields.extend(embedding_fields(&report));
    if let Some(release) = fresh {
        fields.extend([
            ("satisfied", release.binning.satisfied.into()),
            ("has_ownership_proof", release.ownership.is_some().into()),
            ("warnings", str_arr(&release.binning.warnings)),
        ]);
    }
    ok_response(fields, Some(csv::to_csv(&copy)))
}

/// Register `name` as a recipient of release `id`, returning the recipient
/// count afterwards. Idempotent per name: re-issuing a copy to a recipient
/// already on file succeeds (the fingerprint is deterministic, so the copy is
/// identical).
fn register_recipient(
    shared: &Arc<Shared>,
    id: u64,
    name: &str,
    mark: &Mark,
) -> Result<usize, Response> {
    match shared
        .store
        .add_recipient(id, StoredRecipient { name: name.to_string(), mark: mark.clone() })
    {
        Ok(Some(stored)) => Ok(stored.recipients.len()),
        Ok(None) => Err(error_response(
            ErrorCode::UnknownRelease,
            &format!("no release named r{id} is stored"),
        )),
        Err(e) => Err(error_response(
            ErrorCode::Storage,
            &format!("the recipient could not be stored: {e}"),
        )),
    }
}

/// `list-recipients`: enumerate the recipients registered for a release, in
/// registration order.
fn handle_list_recipients(shared: &Arc<Shared>, request: &Request) -> Response {
    let stored = match release_param(shared, request) {
        Ok(stored) => stored,
        Err(response) => return response,
    };
    let names: Vec<String> = stored.recipients.iter().map(|r| r.name.clone()).collect();
    ok_response(vec![("count", names.len().into()), ("recipients", str_arr(&names))], None)
}

/// `resolve-leaker`: traitor tracing. Detect the mark carried by a leaked
/// table, rank every registered recipient (or the `suspects` subset) by
/// fingerprint agreement, and name the best match. Under collusion the top
/// rank is a member of the colluding set: positions where colluders agree
/// survive their mixing, so a colluder still outranks every innocent
/// recipient in expectation.
fn handle_resolve_leaker(
    shared: &Arc<Shared>,
    engine: &ProtectionEngine,
    request: &Request,
) -> Response {
    let stored = match release_param(shared, request) {
        Ok(stored) => stored,
        Err(response) => return response,
    };
    if stored.recipients.is_empty() {
        return error_response(
            ErrorCode::NoRecipients,
            "the release has no registered recipients (issue copies with protect-for)",
        );
    }
    let candidates: Vec<&StoredRecipient> = match request.params.get("suspects") {
        None => stored.recipients.iter().collect(),
        Some(raw) => {
            let mut suspects = Vec::new();
            for name in raw.split(',').filter(|s| !s.is_empty()) {
                match stored.recipient(name) {
                    Some(recipient) => suspects.push(recipient),
                    None => {
                        return error_response(
                            ErrorCode::UnknownRecipient,
                            &format!("no recipient named {name} is registered for the release"),
                        );
                    }
                }
            }
            if suspects.is_empty() {
                return error_response(
                    ErrorCode::NoRecipients,
                    "the suspects parameter names no recipients",
                );
            }
            suspects
        }
    };
    let table = match parse_body(request) {
        Ok(table) => table,
        Err(response) => return response,
    };
    let report = match engine.detect(&table, &stored.columns, &shared.trees) {
        Ok(report) => report,
        Err(e) => return error_response(ErrorCode::Engine, &e.to_string()),
    };
    let ranking =
        score_recipients(&report.mark, candidates.iter().map(|r| (r.name.as_str(), &r.mark)));
    let Some(top) = ranking.first() else {
        // Unreachable: the candidate list is non-empty by construction.
        return error_response(ErrorCode::Engine, "no candidate could be scored");
    };
    let names: Vec<String> = ranking.iter().map(|s| s.name.clone()).collect();
    let runner_up = ranking.get(1).map(|s| s.score).unwrap_or(0.0);
    ok_response(
        vec![
            ("rows", table.len().into()),
            ("selected_tuples", report.selected_tuples.into()),
            ("wmd_len", report.wmd_len.into()),
            ("candidates", ranking.len().into()),
            ("leaker", top.name.clone().into()),
            ("leaker_score", top.score.into()),
            ("runner_up_score", runner_up.into()),
            ("ranking", str_arr(&names)),
        ],
        None,
    )
}

fn handle_embed(shared: &Arc<Shared>, engine: &ProtectionEngine, request: &Request) -> Response {
    let stored = match release_param(shared, request) {
        Ok(stored) => stored,
        Err(response) => return response,
    };
    let table = match parse_body(request) {
        Ok(table) => table,
        Err(response) => return response,
    };
    match engine.embed(&table, &stored.columns, &shared.trees, &stored.mark) {
        Ok((marked, report)) => {
            let mut fields = vec![("rows", marked.len().into())];
            fields.extend(embedding_fields(&report));
            ok_response(fields, Some(csv::to_csv(&marked)))
        }
        Err(e) => error_response(ErrorCode::Engine, &e.to_string()),
    }
}

fn handle_resolve(shared: &Arc<Shared>, engine: &ProtectionEngine, request: &Request) -> Response {
    let stored = match release_param(shared, request) {
        Ok(stored) => stored,
        Err(response) => return response,
    };
    let Some(proof) = &stored.ownership else {
        // A structured, machine-readable code: a release stored without a
        // proof is a normal state (mark-from-statistic off), not a protocol
        // violation, and the claimant must be able to tell it apart from a
        // malformed request.
        return error_response(
            ErrorCode::NoOwnershipProof,
            "the release has no ownership proof (protect with mark-from-statistic enabled)",
        );
    };
    let table = match parse_body(request) {
        Ok(table) => table,
        Err(response) => return response,
    };
    // A claimant may present their own statistic (a thief presents a wrong
    // one); the default is the retained proof.
    let claimed = match param(request, "statistic", proof.statistic) {
        Ok(v) => v,
        Err(response) => return response,
    };
    let claim = OwnershipProof { statistic: claimed, mark_len: proof.mark_len };
    let tau = match param(request, "tau", proof.statistic.abs() * 0.05 + 1.0) {
        Ok(v) => v,
        Err(response) => return response,
    };
    let max_loss = match param(request, "max-mark-loss", CARRIES_MARK_THRESHOLD) {
        Ok(v) => v,
        Err(response) => return response,
    };
    let identifier = table
        .schema()
        .identifying_indices()
        .first()
        .and_then(|&i| table.schema().column(i))
        .map(|c| c.name.clone());
    let Some(identifier) = identifier else {
        return error_response(
            ErrorCode::Engine,
            "the disputed table exposes no identifying column",
        );
    };
    let extracted = match engine.detect(&table, &stored.columns, &shared.trees) {
        Ok(report) => report.mark,
        Err(e) => return error_response(ErrorCode::Engine, &e.to_string()),
    };
    let verdict = engine.resolve_ownership(&claim, &table, &identifier, &extracted, tau, max_loss);
    ok_response(
        vec![
            ("rows", table.len().into()),
            ("claimed_statistic", verdict.claimed_statistic.into()),
            ("recomputed_statistic", verdict.recomputed_statistic.into()),
            ("statistic_consistent", verdict.statistic_consistent.into()),
            ("mark_loss", verdict.mark_loss.into()),
            ("accepted", verdict.accepted.into()),
        ],
        None,
    )
}

fn parse_body(request: &Request) -> Result<Table, Response> {
    csv::from_csv(&request.body, &MEDICAL_ROLES).map_err(|e| {
        error_response(ErrorCode::MalformedCsv, &format!("cannot parse the CSV body: {e}"))
    })
}

fn release_id_param(request: &Request) -> Result<u64, Response> {
    let raw = request.params.get("release").ok_or_else(|| {
        error_response(ErrorCode::MissingParameter, "the release parameter is required")
    })?;
    raw.strip_prefix('r').unwrap_or(raw).parse().map_err(|_| {
        error_response(ErrorCode::MissingParameter, &format!("invalid release id: {raw}"))
    })
}

fn release_param(shared: &Arc<Shared>, request: &Request) -> Result<Arc<StoredRelease>, Response> {
    let id = release_id_param(request)?;
    match shared.store.get(id) {
        Ok(Some(stored)) => Ok(stored),
        Ok(None) => Err(error_response(
            ErrorCode::UnknownRelease,
            &format!("no release named r{id} is stored"),
        )),
        Err(e) => Err(error_response(
            ErrorCode::Storage,
            &format!("release r{id} could not be read: {e}"),
        )),
    }
}

fn param<T: std::str::FromStr>(request: &Request, name: &str, default: T) -> Result<T, Response> {
    match request.params.get(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            error_response(
                ErrorCode::MissingParameter,
                &format!("parameter {name} has an invalid value: {raw}"),
            )
        }),
    }
}

fn ok_response(fields: Vec<(&str, Json)>, body: Option<String>) -> Response {
    let mut pairs = vec![("status", Json::from("ok"))];
    pairs.extend(fields);
    Response { json: obj(pairs).to_string(), body }
}

fn error_response(code: ErrorCode, message: &str) -> Response {
    Response {
        json: obj(vec![
            ("status", "error".into()),
            ("code", code.as_str().into()),
            ("message", message.into()),
        ])
        .to_string(),
        body: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_encoded_into_the_write_buffer_as_encode_frame_gives_them() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Connection::new(listener.accept().unwrap().0).unwrap();
        let with_body = ok_response(vec![("rows", 2usize.into())], Some("a,b\n1,2\n".into()));
        let bare = error_response(ErrorCode::Timeout, "late");
        // v2 replies in completion order; v1 replies 1 and 2 complete out
        // of order and are written in request order.
        conn.enqueue_reply(ReplyTag::V2 { id: 7 }, &with_body);
        conn.enqueue_reply(ReplyTag::V1 { seq: 1 }, &with_body);
        conn.enqueue_reply(ReplyTag::V2 { id: u64::MAX }, &bare);
        conn.enqueue_reply(ReplyTag::V1 { seq: 0 }, &bare);
        let frames =
            [(Some(7), &with_body), (Some(u64::MAX), &bare), (None, &bare), (None, &with_body)];
        let expected: Vec<u8> = frames
            .iter()
            .flat_map(|(id, response)| encode_frame(*id, &response.encode()).unwrap())
            .collect();
        assert_eq!(conn.write_buf, expected);
        assert!(conn.pending_v1.is_empty());
    }

    #[test]
    fn bounded_queue_applies_backpressure_and_batches() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        q.try_push(1).ok().unwrap();
        q.try_push(2).ok().unwrap();
        assert!(matches!(q.try_push(3), Err(TryPushError::Full(3))));
        // Batch drain of matching items.
        let batch = q.pop_batch(8, Duration::from_millis(10), |_| true).unwrap();
        assert_eq!(batch, vec![1, 2]);
        // Timeout tick on an empty open queue.
        assert_eq!(q.pop_batch(8, Duration::from_millis(10), |_| true), Some(vec![]));
        q.close();
        assert!(matches!(q.try_push(4), Err(TryPushError::Closed(4))));
        assert_eq!(q.pop_batch(8, Duration::from_millis(10), |_| true), None);
    }

    #[test]
    fn bounded_queue_batches_only_consecutive_matches() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        for item in [2, 4, 5, 6] {
            q.try_push(item).ok().unwrap();
        }
        // First item even → drain even prefix only.
        let batch = q.pop_batch(8, Duration::from_millis(10), |n| n % 2 == 0).unwrap();
        assert_eq!(batch, vec![2, 4]);
        // Odd head is popped alone even though an even item follows.
        let batch = q.pop_batch(8, Duration::from_millis(10), |n| n % 2 == 0).unwrap();
        assert_eq!(batch, vec![5]);
        let batch = q.pop_batch(8, Duration::from_millis(10), |n| n % 2 == 0).unwrap();
        assert_eq!(batch, vec![6]);
    }

    #[test]
    fn serve_rejects_degenerate_configs() {
        let bad = ServeConfig { workers: 0, ..ServeConfig::default() };
        assert!(matches!(serve(bad, "127.0.0.1:0"), Err(ServeError::InvalidConfig(_))));
        let bad = ServeConfig { queue_depth: 0, ..ServeConfig::default() };
        assert!(matches!(serve(bad, "127.0.0.1:0"), Err(ServeError::InvalidConfig(_))));
        let bad = ServeConfig { max_connections: 0, ..ServeConfig::default() };
        assert!(matches!(serve(bad, "127.0.0.1:0"), Err(ServeError::InvalidConfig(_))));
        // The unified thread-count contract reaches the serving layer too.
        let bad = ServeConfig { engine_threads: 0, ..ServeConfig::default() };
        match serve(bad, "127.0.0.1:0") {
            Err(ServeError::InvalidConfig(m)) => assert!(m.contains("at least 1"), "{m}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|h| h.addr())),
        }
    }

    #[test]
    fn serve_refuses_an_unopenable_data_dir() {
        // Point the durable store at a path whose parent is a *file*: the
        // store cannot create the directory and the server must fail fast
        // with a Store error instead of accepting traffic it cannot make
        // durable.
        let blocker =
            std::env::temp_dir().join(format!("medshield-serve-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let bad = ServeConfig { data_dir: Some(blocker.join("store")), ..ServeConfig::default() };
        match serve(bad, "127.0.0.1:0") {
            Err(ServeError::Store(_)) => {}
            other => panic!("expected Store error, got {:?}", other.map(|h| h.addr())),
        }
        let _ = std::fs::remove_file(&blocker);
    }
}
