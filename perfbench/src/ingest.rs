//! `ingest` — the write path.
//!
//! Two closed-loop connections (one request in flight each) against a
//! durable server with two workers and one engine thread each. The mix is
//! `protect` over stratified log-uniform table sizes of 250–8,000 rows (a
//! quarter with full multi-attribute binning, `per-attribute=false`) plus
//! `protect-for` copies of stored releases for 16 recipients. Every reply
//! waits on a WAL append and the store's group-commit fsync, and the store
//! snapshots every `served::SNAPSHOT_EVERY` appends, so several compactions
//! land in each run. Binning dominates the engine time; nothing here is a
//! small `detect`, so micro-batching never engages.

use crate::gen::{self, fnv1a, Rng};
use crate::replay::{Layers, Trees};
use crate::report::Report;
use crate::served::{self, Op, Phase, Reply};
use crate::trace::Tracer;
use crate::{parallel_map, RunOptions};
use medshield_core::datagen::ontology;
use medshield_core::metrics::anonymity;
use medshield_core::relation::csv;
use medshield_core::watermark::fingerprint::derive_recipient_mark;
use medshield_core::ProtectionEngine;
use medshield_serve::{Command, DurableStore, ReleaseStore, Request, StoredRelease, MEDICAL_ROLES};
use std::sync::Arc;
use std::time::Instant;

/// How many inputs of each kind a run draws.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct `protect` tables.
    pub pool: usize,
    /// Smallest and largest `protect` table.
    pub rows: (usize, usize),
    /// Stored releases that `protect-for` copies.
    pub bases: usize,
    /// Rows range of those releases.
    pub base_rows: (usize, usize),
    /// Recipient names per stored release; each cycle copies every
    /// release once, for the next recipient in turn.
    pub recipients: usize,
}

impl Shape {
    /// The benchmark's inputs.
    pub const BENCH: Shape = Shape {
        pool: 24,
        rows: (250, 8_000),
        bases: 12,
        base_rows: (1_000, 3_000),
        recipients: 16,
    };
}

/// Cycles of the request stream; more than any run can send.
const CYCLES: usize = 64;

/// What a reply must carry.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `protect` reply.
    Protect {
        /// FNV-1a of the release CSV.
        body_hash: u64,
        /// Selected tuples of the embedding.
        selected: u64,
        /// Whether binning met k-anonymity.
        satisfied: bool,
        /// The owner's mark.
        mark: String,
    },
    /// A `protect-for` reply.
    ProtectFor {
        /// FNV-1a of the recipient copy.
        body_hash: u64,
        /// The recipient.
        recipient: String,
        /// Selected tuples of the embedding.
        selected: u64,
    },
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Distinct requests: the `protect` pool, then every `protect-for`.
    pub ops: Vec<Op>,
    /// Per `protect` op, whether it asks for full multi-attribute binning.
    pub multi: Vec<bool>,
    /// Per op, for `protect-for`, the release index and recipient name.
    pub targets: Vec<Option<(usize, String)>>,
    /// The stored releases, ids `1..=bases`.
    pub bases: Vec<StoredRelease>,
    /// The order requests are sent in (indices into `ops`).
    pub stream: Vec<usize>,
    /// Requests per cycle of the pool.
    pub cycle: usize,
}

impl Inputs {
    /// The requests as the load generators take them.
    pub fn workload(&self) -> served::Workload<'_> {
        served::Workload { ops: &self.ops, stream: &self.stream, cycle: self.cycle }
    }
}

/// Generate the inputs of `seed`.
pub fn build_inputs(seed: u64, shape: Shape) -> Inputs {
    let mut rng = Rng::new(gen::derive(seed, "ingest", 0));
    let engine = ProtectionEngine::new(served::engine_config(), 1).expect("valid engine");
    let trees = ontology::all_trees();
    let sizes = gen::stratified_log_uniform(&mut rng, shape.pool, shape.rows.0, shape.rows.1);
    let mut ops = Vec::new();
    let mut targets = Vec::new();
    let mut multi = Vec::new();
    for (i, &rows) in sizes.iter().enumerate() {
        let table = gen::hospital_table(rows, gen::derive(seed, "ingest.table", i as u64));
        // Every fourth stratum, the same ones for every seed.
        let per_attribute = i % 4 != 1;
        let request =
            Request::new(Command::Protect).param("per-attribute", per_attribute.to_string());
        ops.push(Op::new(&request, csv::to_csv(&table).into(), rows));
        targets.push(None);
        multi.push(!per_attribute);
    }
    let base_sizes =
        gen::stratified_log_uniform(&mut rng, shape.bases, shape.base_rows.0, shape.base_rows.1);
    let mut bases = Vec::new();
    for (b, &rows) in base_sizes.iter().enumerate() {
        let table = gen::hospital_table(rows, gen::derive(seed, "ingest.base", b as u64));
        let release = engine.protect_per_attribute(&table, &trees).expect("bases protect");
        // One copy of the release CSV, shared by every recipient's request.
        let release_csv: Arc<str> = csv::to_csv(&release.table).into();
        for j in 0..shape.recipients {
            let recipient = format!("hospital-{j:02}");
            let request = Request::new(Command::ProtectFor)
                .param("release", format!("r{}", b + 1))
                .param("recipient", recipient.clone());
            ops.push(Op::new(&request, Arc::clone(&release_csv), rows));
            targets.push(Some((b, recipient)));
        }
        bases.push(StoredRelease {
            columns: release.binning.columns,
            mark: release.mark,
            ownership: release.ownership,
            recipients: Vec::new(),
        });
    }
    // Every cycle holds the whole pool plus one copy of every release, so
    // all cycles cost the same; only the recipient names rotate.
    let mut stream = Vec::new();
    for c in 0..CYCLES {
        let mut cycle: Vec<usize> = (0..shape.pool).collect();
        cycle.extend(
            (0..shape.bases)
                .map(|b| shape.pool + b * shape.recipients + (c + b) % shape.recipients),
        );
        rng.shuffle(&mut cycle);
        stream.extend(cycle);
    }
    let cycle = shape.pool + shape.bases;
    Inputs { ops, multi, targets, bases, stream, cycle }
}

/// The expected reply of every op, computed in-process on `threads`
/// threads. Fails the gate for a release that claims k-anonymity it lacks.
pub fn expectations(inputs: &Inputs, report: &mut Report, threads: usize) -> Vec<Expect> {
    let engine = ProtectionEngine::new(served::engine_config(), 1).expect("valid engine");
    let trees = ontology::all_trees();
    let results =
        parallel_map(inputs.ops.len(), threads, |i| expect_one(inputs, i, &engine, &trees));
    results
        .into_iter()
        .enumerate()
        .map(|(i, (expect, anonymous))| {
            if !anonymous {
                report.gate_failure(&format!("protect op {i} is not k-anonymous yet claims so"));
            }
            expect
        })
        .collect()
}

fn expect_one(
    inputs: &Inputs,
    i: usize,
    engine: &ProtectionEngine,
    trees: &Trees,
) -> (Expect, bool) {
    let table = csv::from_csv(&inputs.ops[i].body, &MEDICAL_ROLES).expect("generated CSV parses");
    match &inputs.targets[i] {
        None => {
            let release = if inputs.multi[i] {
                engine.protect(&table, trees)
            } else {
                engine.protect_per_attribute(&table, trees)
            }
            .expect("generated tables protect");
            // The k the owner asked for; binning enforces k + ε so that the
            // watermark's bin permutations cannot push a bin below k.
            let k = engine.config().binning.spec.k;
            let anonymous =
                !release.binning.satisfied || is_k_anonymous(&release.table, k, inputs.multi[i]);
            let expect = Expect::Protect {
                body_hash: fnv1a(csv::to_csv(&release.table).as_bytes()),
                selected: release.embedding.selected_tuples as u64,
                satisfied: release.binning.satisfied,
                mark: release.mark.to_string(),
            };
            (expect, anonymous)
        }
        Some((b, recipient)) => {
            let stored = &inputs.bases[*b];
            let key = &engine.watermarker().config().key;
            let mark = derive_recipient_mark(key, recipient, engine.config().mark_len);
            let (copy, embedded) =
                engine.embed(&table, &stored.columns, trees, &mark).expect("copies embed");
            let expect = Expect::ProtectFor {
                body_hash: fnv1a(csv::to_csv(&copy).as_bytes()),
                recipient: recipient.clone(),
                selected: embedded.selected_tuples as u64,
            };
            (expect, true)
        }
    }
}

/// k-anonymity at the requested granularity: every quasi column on its own
/// (per-attribute binning) or their combination (multi-attribute).
fn is_k_anonymous(table: &medshield_core::relation::Table, k: usize, multi: bool) -> bool {
    if multi {
        return anonymity::satisfies_k_anonymity(table, &table.schema().quasi_names(), k)
            .unwrap_or(false);
    }
    table
        .schema()
        .quasi_names()
        .iter()
        .all(|column| anonymity::column_satisfies_k(table, column, k).unwrap_or(false))
}

/// Whether `reply` is what `expect` says.
pub fn check(expect: &Expect, reply: &Reply) -> bool {
    let r = reply.response();
    if !r.is_ok() {
        return false;
    }
    match expect {
        Expect::Protect { body_hash, selected, satisfied, mark } => {
            reply.body_hash == *body_hash
                && r.u64_field("selected_tuples") == Some(*selected)
                && r.bool_field("satisfied") == Some(*satisfied)
                && r.str_field("mark").as_deref() == Some(mark.as_str())
        }
        Expect::ProtectFor { body_hash, recipient, selected } => {
            reply.body_hash == *body_hash
                && r.str_field("recipient").as_deref() == Some(recipient.as_str())
                && r.u64_field("selected_tuples") == Some(*selected)
        }
    }
}

/// Run the workload.
pub fn run(opts: &RunOptions, report: &mut Report) {
    let threads = crate::host_parallelism();
    let connections = threads.min(2);
    let inputs = build_inputs(opts.seed, Shape::BENCH);
    let expected = expectations(&inputs, report, threads);
    let dir = opts.work_dir.join("ingest-store");
    served::write_history(&dir, &inputs.bases, served::HISTORY_RELEASES)
        .expect("history is written");
    describe_inputs(&inputs, report);
    let workload = inputs.workload();
    let drive = |addr, seconds, start, ping_every| {
        served::closed_loop(addr, connections, seconds, &workload, start, ping_every)
    };
    let plan = served::Plan { name: "ingest", workload, store: &dir, drive: &drive, ping_every: 4 };
    served::measure(
        opts,
        report,
        &plan,
        |op, reply| check(&expected[op], reply),
        |traced, tracer, report, budget_s| replay(opts, &inputs, traced, tracer, report, budget_s),
    );
}

/// Replay the traced requests in-process, layer by layer, for at most
/// `budget_s` seconds, checking each against the served reply.
fn replay(
    opts: &RunOptions,
    inputs: &Inputs,
    traced: &Phase,
    tracer: &mut Tracer,
    report: &mut Report,
    budget_s: f64,
) {
    let engine = ProtectionEngine::new(served::engine_config(), 1).expect("valid engine");
    let trees = ontology::all_trees();
    let dir = opts.work_dir.join("ingest-replay-store");
    let store = DurableStore::open(&dir, 0).expect("the replay store opens");
    for stored in &inputs.bases {
        store.append(stored.clone()).expect("the replay store appends");
    }
    let wal = dir.join("wal.log");
    let wal_before = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let (mut input_bytes, mut selected, mut rows) = (0usize, 0usize, 0usize);
    let mut overhead = Vec::new();
    let began = Instant::now();
    let mut layers = Layers { engine: &engine, trees: &trees, tracer };
    for sample in &traced.samples {
        if began.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let request = sample.position as u64;
        let body = &inputs.ops[sample.op].body;
        let handler_start = layers.tracer.spans().len();
        let out = match &inputs.targets[sample.op] {
            None => {
                let per_attribute = !inputs.multi[sample.op];
                let out = layers.protect(request, body, per_attribute, &store);
                let table = csv::from_csv(body, &MEDICAL_ROLES).expect("generated CSV parses");
                layers.engine_protect(request, &table, per_attribute);
                out
            }
            Some((b, recipient)) => {
                let columns = &inputs.bases[*b].columns;
                layers.protect_for(request, body, columns, recipient, &store, *b as u64 + 1)
            }
        };
        // The replay times the binning search on its own before binning,
        // which searches again; the served handler searches once.
        let handler_ms = layers.tracer.duration_ms(handler_start)
            - layers.tracer.children_ms(handler_start, "binning.search");
        if sample.reply.as_ref().map(|r| r.body_hash) != Some(fnv1a(out.csv.as_bytes())) {
            report.gate_failure(&format!("replay of request {request} differs from its reply"));
        }
        overhead.push(sample.latency_ms - handler_ms);
        input_bytes += body.len();
        selected += out.selected;
        rows += out.rows;
    }
    let wal_after = std::fs::metadata(&wal).map_or(0, |m| m.len());
    report.metric("serve.overhead_ms", crate::stats::median(&overhead));
    report.metric(
        "store.wal_bytes_per_input_byte",
        (wal_after - wal_before) as f64 / input_bytes.max(1) as f64,
    );
    report.metric("watermark.selected_share", selected as f64 / rows.max(1) as f64);
    report.info("replayed_requests", overhead.len().to_string());
}

/// Record the input properties next to the metrics.
fn describe_inputs(inputs: &Inputs, report: &mut Report) {
    let protects: Vec<usize> =
        inputs.ops.iter().filter(|o| o.command == "protect").map(|o| o.rows).collect();
    let multi = inputs.multi.iter().filter(|&&m| m).count();
    let per_cycle_fors = Shape::BENCH.bases;
    report.info(
        "inputs",
        format!(
            "{{\"protect_rows_histogram\":{},\"multi_attribute_share\":{:.4},\"protect_for_share\":{:.4},\"batchable_detect_share\":0,\"recipients_per_release\":{},\"stored_releases\":{},\"history_releases\":{},\"snapshot_every\":{},\"connections\":\"closed-loop, 1 in flight each\",\"host_parallelism\":{}}}",
            gen::size_histogram(protects.iter().copied()),
            multi as f64 / protects.len() as f64,
            per_cycle_fors as f64 / (protects.len() + per_cycle_fors) as f64,
            Shape::BENCH.recipients,
            inputs.bases.len(),
            served::HISTORY_RELEASES,
            served::SNAPSHOT_EVERY,
            crate::host_parallelism(),
        ),
    );
}
