//! `audit` — the read path.
//!
//! Two pipelined connections with four requests in flight each against a
//! server that recovers, as part of set-up, 32 releases of 500–4,000 rows
//! with 16 registered recipients each (plus the shared older history). The
//! mix is 80% `detect` over clean and attacked suspect copies, 15%
//! `resolve-leaker` over leaked recipient copies and 5% `list-recipients`.
//! The suspects are made with `medshield-attacks` before set-up timing. It
//! runs no binning and no fsync: CSV parse, the detect kernel, fingerprint
//! scoring, I/O-core framing and micro-batching carry it.

use crate::gen::{self, Rng};
use crate::replay::{Layers, Trees};
use crate::report::Report;
use crate::served::{self, Op, Phase, Reply};
use crate::trace::Tracer;
use crate::{parallel_map, RunOptions};
use medshield_core::attacks::{
    Attack, GeneralizationAttack, SubsetAddition, SubsetAlteration, SubsetDeletion,
};
use medshield_core::datagen::ontology;
use medshield_core::metrics::mark_loss;
use medshield_core::relation::{csv, Table};
use medshield_core::watermark::fingerprint::{derive_recipient_mark, score_recipients};
use medshield_core::watermark::Mark;
use medshield_core::ProtectionEngine;
use medshield_serve::store::StoredRecipient;
use medshield_serve::{
    Command, Request, ServeConfig, StoredRelease, CARRIES_MARK_THRESHOLD, MEDICAL_ROLES,
};
use std::sync::Arc;
use std::time::Instant;

/// How many inputs of each kind a run draws.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stored releases audited.
    pub releases: usize,
    /// Rows range of the releases.
    pub rows: (usize, usize),
    /// Registered recipients per release.
    pub recipients: usize,
    /// `resolve-leaker` requests per cycle (one cycle holds every detect).
    pub resolves_per_cycle: usize,
    /// `list-recipients` requests per cycle.
    pub lists_per_cycle: usize,
}

impl Shape {
    /// The benchmark's inputs: 96 detects, 18 resolves and 6 lists per
    /// cycle (80/15/5).
    pub const BENCH: Shape = Shape {
        releases: 32,
        rows: (500, 4_000),
        recipients: 16,
        resolves_per_cycle: 18,
        lists_per_cycle: 6,
    };
}

/// Cycles of the request stream; more than any run can send.
const CYCLES: usize = 400;
/// Requests in flight per connection.
const DEPTH: usize = 4;

/// What a reply must carry.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `detect` reply: the in-process detection of the same suspect.
    Detect {
        /// Selected tuples.
        selected: u64,
        /// Covered extended-mark positions.
        covered: u64,
        /// The recovered mark.
        mark: String,
        /// Loss against the owner's mark.
        loss: f64,
    },
    /// A `resolve-leaker` reply: the in-process ranking.
    Resolve {
        /// Recipients, best match first.
        ranking: Vec<String>,
    },
    /// A `list-recipients` reply.
    List {
        /// Recipients in registration order.
        names: Vec<String>,
    },
}

/// One suspect request before encoding.
#[derive(Debug, Clone)]
pub struct Suspect {
    /// Index of the release it targets.
    pub release: usize,
    /// The command.
    pub command: Command,
    /// CSV body (empty for `list-recipients`), shared with its op.
    pub body: Arc<str>,
    /// Rows of the body.
    pub rows: usize,
    /// For leaked copies, the recipient who leaked it.
    pub leaker: Option<String>,
    /// True for the release itself, unattacked.
    pub clean: bool,
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The stored releases (ids `1..=n`) with their recipients.
    pub releases: Vec<StoredRelease>,
    /// The released tables, parallel to `releases`, that the attacked
    /// suspects were made from.
    pub tables: Vec<Table>,
    /// Distinct requests, parallel to `ops`.
    pub suspects: Vec<Suspect>,
    /// Distinct requests, encoded.
    pub ops: Vec<Op>,
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

/// Generate the inputs of `seed`, protecting the releases on `threads`
/// threads.
pub fn build_inputs(seed: u64, shape: Shape, threads: usize) -> Inputs {
    let mut rng = Rng::new(gen::derive(seed, "audit", 0));
    let sizes = gen::stratified_log_uniform(&mut rng, shape.releases, shape.rows.0, shape.rows.1);
    let leakers: Vec<(usize, usize)> = (0..shape.releases)
        .map(|_| {
            let a = rng.below(shape.recipients);
            (a, (a + 1 + rng.below(shape.recipients - 1)) % shape.recipients)
        })
        .collect();
    let per_release: Vec<(StoredRelease, Table, Vec<Suspect>)> =
        parallel_map(shape.releases, threads, |i| {
            release_inputs(seed, i, sizes[i], leakers[i], shape.recipients)
        });
    let mut releases = Vec::new();
    let mut tables = Vec::new();
    let mut suspects = Vec::new();
    for (release, table, mut s) in per_release {
        releases.push(release);
        tables.push(table);
        suspects.append(&mut s);
    }
    let ops: Vec<Op> = suspects
        .iter()
        .map(|s| {
            let request = Request::new(s.command).param("release", format!("r{}", s.release + 1));
            Op::new(&request, Arc::clone(&s.body), s.rows)
        })
        .collect();
    let by = |c: Command| -> Vec<usize> {
        suspects.iter().enumerate().filter(|(_, s)| s.command == c).map(|(i, _)| i).collect()
    };
    let (detects, resolves, lists) =
        (by(Command::Detect), by(Command::ResolveLeaker), by(Command::ListRecipients));
    let mut stream = Vec::new();
    for c in 0..CYCLES {
        let mut cycle = detects.clone();
        // Evenly spaced over the pool (ordered by release size) with a
        // rotating offset, so every cycle costs about the same.
        let spread = |pool: &[usize], n: usize| -> Vec<usize> {
            (0..n).map(|t| pool[(t * pool.len() / n + c) % pool.len()]).collect()
        };
        cycle.extend(spread(&resolves, shape.resolves_per_cycle));
        cycle.extend(spread(&lists, shape.lists_per_cycle));
        rng.shuffle(&mut cycle);
        stream.extend(cycle);
    }
    let cycle = detects.len() + shape.resolves_per_cycle + shape.lists_per_cycle;
    Inputs { releases, tables, suspects, ops, stream, cycle }
}

/// The two attacks that make release `i`'s attacked suspects, with the
/// name of the span that times each: a 30% alteration, then an 80% random
/// deletion (even `i`) or a 50% addition (odd `i`).
fn suspect_attacks(seed: u64, i: usize) -> [(&'static str, Box<dyn Attack>); 2] {
    let attack_seed = |k: u64| gen::derive(seed, "audit.attack", i as u64 * 8 + k);
    [
        ("attacks.alteration", Box::new(SubsetAlteration::new(0.3, attack_seed(0)))),
        if i.is_multiple_of(2) {
            ("attacks.deletion", Box::new(SubsetDeletion::random(0.8, attack_seed(1))))
        } else {
            ("attacks.addition", Box::new(SubsetAddition::new(0.5, attack_seed(1))))
        },
    ]
}

/// One release, its recipients, and its suspects: the clean release, two
/// attacked copies, two leaked recipient copies (one lightly altered) and
/// the recipient listing.
fn release_inputs(
    seed: u64,
    i: usize,
    rows: usize,
    leakers: (usize, usize),
    recipients: usize,
) -> (StoredRelease, Table, Vec<Suspect>) {
    let engine = ProtectionEngine::new(served::engine_config(), 1).expect("valid engine");
    let trees = ontology::all_trees();
    let table = gen::hospital_table(rows, gen::derive(seed, "audit.table", i as u64));
    let release = engine.protect_per_attribute(&table, &trees).expect("releases protect");
    let key = &engine.watermarker().config().key;
    let mark_len = engine.config().mark_len;
    let names: Vec<String> = (0..recipients).map(|j| format!("clinic-{j:02}")).collect();
    let marks: Vec<Mark> = names.iter().map(|n| derive_recipient_mark(key, n, mark_len)).collect();
    let attack_seed = |k: u64| gen::derive(seed, "audit.attack", i as u64 * 8 + k);
    let attacked = suspect_attacks(seed, i).map(|(_, attack)| attack.apply(&release.table));
    let suspect = |command, table: &Table, leaker: Option<&String>| Suspect {
        release: i,
        command,
        body: csv::to_csv(table).into(),
        rows: table.len(),
        leaker: leaker.cloned(),
        clean: false,
    };
    let mut suspects =
        vec![Suspect { clean: true, ..suspect(Command::Detect, &release.table, None) }];
    suspects.extend(attacked.iter().map(|t| suspect(Command::Detect, t, None)));
    for (n, j) in [leakers.0, leakers.1].into_iter().enumerate() {
        let (copy, _) = engine
            .embed(&release.table, &release.binning.columns, &trees, &marks[j])
            .expect("recipient copies embed");
        let leaked =
            if n == 0 { copy } else { SubsetAlteration::new(0.1, attack_seed(2)).apply(&copy) };
        suspects.push(suspect(Command::ResolveLeaker, &leaked, Some(&names[j])));
    }
    suspects.push(Suspect {
        release: i,
        command: Command::ListRecipients,
        body: "".into(),
        rows: 0,
        leaker: None,
        clean: false,
    });
    let stored = StoredRelease {
        columns: release.binning.columns,
        mark: release.mark,
        ownership: release.ownership,
        recipients: names
            .into_iter()
            .zip(marks)
            .map(|(name, mark)| StoredRecipient { name, mark })
            .collect(),
    };
    (stored, release.table, suspects)
}

/// The expected reply of every op, computed in-process. Fails the gate
/// when a clean release loses mark bits or a leaked copy does not rank its
/// leaker first.
pub fn expectations(inputs: &Inputs, report: &mut Report, threads: usize) -> Vec<Expect> {
    let engine = ProtectionEngine::new(served::engine_config(), 1).expect("valid engine");
    let trees = ontology::all_trees();
    let expected =
        parallel_map(inputs.suspects.len(), threads, |i| expect_one(inputs, i, &engine, &trees));
    for (i, (s, e)) in inputs.suspects.iter().zip(&expected).enumerate() {
        match e {
            Expect::Detect { loss, .. } if s.clean && *loss != 0.0 => {
                report.gate_failure(&format!(
                    "clean release r{} detects with loss {loss}",
                    s.release + 1
                ));
            }
            Expect::Resolve { ranking } if ranking.first() != s.leaker.as_ref() => {
                report.gate_failure(&format!("leaked copy {i} does not rank its leaker first"));
            }
            _ => {}
        }
    }
    expected
}

fn expect_one(inputs: &Inputs, i: usize, engine: &ProtectionEngine, trees: &Trees) -> Expect {
    let s = &inputs.suspects[i];
    let stored = &inputs.releases[s.release];
    if s.command == Command::ListRecipients {
        return Expect::List { names: stored.recipients.iter().map(|r| r.name.clone()).collect() };
    }
    let table = csv::from_csv(&s.body, &MEDICAL_ROLES).expect("generated CSV parses");
    let report = engine.detect(&table, &stored.columns, trees).expect("detection runs");
    if s.command == Command::ResolveLeaker {
        let ranking = score_recipients(
            &report.mark,
            stored.recipients.iter().map(|r| (r.name.as_str(), &r.mark)),
        );
        return Expect::Resolve { ranking: ranking.into_iter().map(|r| r.name).collect() };
    }
    Expect::Detect {
        selected: report.selected_tuples as u64,
        covered: report.covered_positions as u64,
        mark: Mark::from_bits(report.mark.clone()).to_string(),
        loss: mark_loss(stored.mark.bits(), &report.mark),
    }
}

/// Whether `reply` is what `expect` says.
pub fn check(expect: &Expect, reply: &Reply) -> bool {
    let r = reply.response();
    if !r.is_ok() {
        return false;
    }
    match expect {
        Expect::Detect { selected, covered, mark, loss } => {
            r.u64_field("selected_tuples") == Some(*selected)
                && r.u64_field("covered_positions") == Some(*covered)
                && r.str_field("mark").as_deref() == Some(mark.as_str())
                && r.f64_field("mark_loss").is_some_and(|l| (l - loss).abs() < 1e-9)
                && r.bool_field("carries_mark") == Some(*loss <= CARRIES_MARK_THRESHOLD)
        }
        Expect::Resolve { ranking } => {
            r.str_array_field("ranking").as_ref() == Some(ranking)
                && r.str_field("leaker").as_ref() == ranking.first()
        }
        Expect::List { names } => r.str_array_field("recipients").as_ref() == Some(names),
    }
}

/// Run the workload.
pub fn run(opts: &RunOptions, report: &mut Report) {
    let threads = crate::host_parallelism();
    let connections = threads.min(2);
    let inputs = build_inputs(opts.seed, Shape::BENCH, threads);
    let expected = expectations(&inputs, report, threads);
    let dir = opts.work_dir.join("audit-store");
    served::write_history(&dir, &inputs.releases, served::HISTORY_RELEASES)
        .expect("history is written");
    describe_inputs(&inputs, report);
    let workload = inputs.workload();
    let drive = |addr, seconds, start, ping_every| {
        served::pipelined(addr, connections, DEPTH, seconds, &workload, start, ping_every)
    };
    let plan = served::Plan { name: "audit", workload, store: &dir, drive: &drive, ping_every: 16 };
    served::measure(
        opts,
        report,
        &plan,
        |op, reply| check(&expected[op], reply),
        |traced, tracer, report, budget_s| {
            replay(&inputs, traced, tracer, report, budget_s);
            replay_attacks(&inputs, opts.seed, tracer, report, ATTACK_REPLAY_S);
        },
    );
}

/// Seconds the traced run spends timing the attacks layer.
const ATTACK_REPLAY_S: f64 = 5.0;

/// Span ids of the attack replay, apart from the stream positions that
/// identify served requests.
const ATTACK_SPAN_BASE: u64 = 1 << 40;

/// Time the attacks layer, release by release for at most `budget_s`
/// seconds: on each released table, the two attacks that made its
/// attacked suspects, each of which must reproduce the suspect the run
/// sent, and a one-level generalization (the paper's §5.2 attack, which no
/// served request carries).
fn replay_attacks(
    inputs: &Inputs,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    budget_s: f64,
) {
    let trees = ontology::all_trees();
    let generalize = GeneralizationAttack::new(1, trees.clone());
    let began = Instant::now();
    for suspects in inputs.suspects.chunk_by(|a, b| a.release == b.release) {
        if began.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let [clean, attacked @ ..] = suspects else { continue };
        let i = clean.release;
        let table = &inputs.tables[i];
        let id = ATTACK_SPAN_BASE + i as u64;
        for ((span, attack), sent) in suspect_attacks(seed, i).iter().zip(attacked) {
            let copy = tracer.time(id, None, span, || attack.apply(table));
            if csv::to_csv(&copy).as_str() != &*sent.body {
                report.gate_failure(&format!(
                    "{span} of release r{} differs from its suspect",
                    i + 1
                ));
            }
        }
        tracer.time(id, None, "attacks.generalization", || generalize.apply(table));
    }
}

/// Replay the traced requests in-process, layer by layer, for at
/// most `budget_s` seconds, checking each against the served reply.
fn replay(
    inputs: &Inputs,
    traced: &Phase,
    tracer: &mut Tracer,
    report: &mut Report,
    budget_s: f64,
) {
    let engine = ProtectionEngine::new(served::engine_config(), 1).expect("valid engine");
    let trees = ontology::all_trees();
    let mut layers = Layers { engine: &engine, trees: &trees, tracer };
    let (mut selected, mut rows) = (0usize, 0usize);
    let mut overhead = Vec::new();
    let began = Instant::now();
    for sample in &traced.samples {
        if began.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let s = &inputs.suspects[sample.op];
        let stored = &inputs.releases[s.release];
        let request = sample.position as u64;
        let handler_start = layers.tracer.spans().len();
        let served = sample.reply.as_ref().map(Reply::response);
        let matches = match s.command {
            Command::Detect => {
                let n = layers.detect_request(request, &s.body, &stored.columns);
                selected += n;
                rows += s.rows;
                served.and_then(|r| r.u64_field("selected_tuples")) == Some(n as u64)
            }
            Command::ResolveLeaker => {
                let (leaker, _) =
                    layers.resolve_request(request, &s.body, &stored.columns, &stored.recipients);
                served.and_then(|r| r.str_field("leaker")) == Some(leaker)
            }
            _ => continue,
        };
        if !matches {
            report.gate_failure(&format!("replay of request {request} differs from its reply"));
        }
        overhead.push(sample.latency_ms - layers.tracer.duration_ms(handler_start));
    }
    report.metric("serve.overhead_ms", crate::stats::median(&overhead));
    report.metric("watermark.selected_share", selected as f64 / rows.max(1) as f64);
    report.info("replayed_requests", overhead.len().to_string());
}

/// Record the input properties next to the metrics.
fn describe_inputs(inputs: &Inputs, report: &mut Report) {
    let small = ServeConfig::default().batch_small_bytes;
    let detects: Vec<&Op> = inputs.ops.iter().filter(|o| o.command == "detect").collect();
    let batchable = detects.iter().filter(|o| o.payload_len() <= small).count();
    let shape = Shape::BENCH;
    let cycle = detects.len() + shape.resolves_per_cycle + shape.lists_per_cycle;
    report.info(
        "inputs",
        format!(
            "{{\"release_rows_histogram\":{},\"suspect_rows_histogram\":{},\"detect_share\":{:.4},\"resolve_leaker_share\":{:.4},\"list_recipients_share\":{:.4},\"batchable_detect_share\":{:.4},\"batch_small_bytes\":{small},\"multi_attribute_share\":0,\"recipients_per_release\":{},\"stored_releases\":{},\"history_releases\":{},\"connections\":\"pipelined, {DEPTH} in flight each\",\"host_parallelism\":{}}}",
            gen::size_histogram(inputs.suspects.iter().filter(|s| s.command == Command::Detect).step_by(3).map(|s| s.rows)),
            gen::size_histogram(inputs.suspects.iter().filter(|s| s.rows > 0).map(|s| s.rows)),
            detects.len() as f64 / cycle as f64,
            shape.resolves_per_cycle as f64 / cycle as f64,
            shape.lists_per_cycle as f64 / cycle as f64,
            batchable as f64 / detects.len() as f64,
            shape.recipients,
            inputs.releases.len(),
            served::HISTORY_RELEASES,
            crate::host_parallelism(),
        ),
    );
}
