//! In-process replays of served requests, one span around each public
//! layer call, and the per-layer metrics derived from the spans.
//!
//! Spans are recorded from the benchmark around the calls it makes into
//! each crate; the program itself is not instrumented. Binning exposes its
//! search (`mono::generate_minimal_nodes`, `multi::generate_ultimate_nodes`)
//! but not its apply step, so `binning.apply_ms` is the `bin` /
//! `bin_per_attribute` call minus a separately timed search on the same
//! input.

use crate::names;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use medshield_core::binning::multi::{self, ColumnContext};
use medshield_core::binning::{mono, BinningOutcome, ColumnBinning};
use medshield_core::dht::{DomainHierarchyTree, GeneralizationSet};
use medshield_core::relation::{csv, Table};
use medshield_core::watermark::fingerprint::{derive_recipient_mark, score_recipients};
use medshield_core::watermark::{DetectionReport, EmbeddingReport, Mark};
use medshield_core::{ProtectedRelease, ProtectionEngine};
use medshield_serve::store::StoredRecipient;
use medshield_serve::{DurableStore, ReleaseStore, StoredRelease, MEDICAL_ROLES};
use std::collections::BTreeMap;

/// Domain hierarchy trees keyed by column.
pub type Trees = BTreeMap<String, DomainHierarchyTree>;

/// The engine, trees and tracer a replay runs against.
pub struct Layers<'a> {
    /// The engine whose layers are called.
    pub engine: &'a ProtectionEngine,
    /// The ontology trees.
    pub trees: &'a Trees,
    /// Where the spans go.
    pub tracer: &'a mut Tracer,
}

/// What a replayed protect produced.
#[derive(Debug)]
pub struct Protected {
    /// The release (or recipient copy) as the server would encode it.
    pub csv: String,
    /// Tuples the embedding selected.
    pub selected: usize,
    /// Rows of the input.
    pub rows: usize,
}

impl Layers<'_> {
    /// Parse a CSV body under the medical schema roles.
    pub fn parse(&mut self, request: u64, parent: usize, body: &str) -> Table {
        self.tracer
            .time(request, Some(parent), "relation.csv_parse", || {
                csv::from_csv(body, &MEDICAL_ROLES)
            })
            .expect("generated CSV parses")
    }

    /// The `protect` handler, layer by layer, appending to `store`.
    pub fn protect(
        &mut self,
        request: u64,
        body: &str,
        per_attribute: bool,
        store: &DurableStore,
    ) -> Protected {
        let root = self.tracer.begin(request, None, "handler.protect");
        let table = self.parse(request, root, body);
        let (marked, outcome, report) = self.bin_and_embed(request, root, &table, per_attribute);
        let release = StoredRelease {
            columns: outcome.columns,
            mark: report.1,
            ownership: None,
            recipients: Vec::new(),
        };
        self.tracer
            .time(request, Some(root), "store.append", || store.append(release))
            .expect("the replay store appends");
        self.tracer.time(request, Some(root), "store.sync", || store.sync()).expect("sync");
        let csv =
            self.tracer.time(request, Some(root), "relation.csv_encode", || csv::to_csv(&marked));
        self.tracer.end(root);
        Protected { csv, selected: report.0.selected_tuples, rows: table.len() }
    }

    /// Bin `table` and embed the owner's mark, single-threaded, as the
    /// spans `binning.search`, `binning.bin` and `watermark.embed_*` under
    /// `parent`. Returns the release, the binning outcome, and the
    /// embedding report with the mark.
    pub fn bin_and_embed(
        &mut self,
        request: u64,
        root: usize,
        table: &Table,
        per_attribute: bool,
    ) -> (Table, BinningOutcome, (EmbeddingReport, Mark)) {
        let (engine, trees) = (self.engine, self.trees);
        let maximal = engine.default_maximal(trees);
        self.tracer.time(request, Some(root), "binning.search", || {
            search(engine, trees, table, &maximal, per_attribute);
        });
        let agent = engine.binning_agent();
        let outcome = self
            .tracer
            .time(request, Some(root), "binning.bin", || {
                if per_attribute {
                    agent.bin_per_attribute(table, trees, &maximal)
                } else {
                    agent.bin(table, trees, &maximal)
                }
            })
            .expect("generated tables bin");
        let config = engine.config();
        let mark = Mark::from_bytes(config.mark_text.as_bytes(), config.mark_len);
        let (marked, report) = self.embed(request, root, &outcome.table, &outcome.columns, &mark);
        (marked, outcome, (report, mark))
    }

    /// The engine's whole protect call as one span.
    pub fn engine_protect(
        &mut self,
        request: u64,
        table: &Table,
        per_attribute: bool,
    ) -> ProtectedRelease {
        let (engine, trees) = (self.engine, self.trees);
        self.tracer
            .time(request, None, "engine.protect", || {
                if per_attribute {
                    engine.protect_per_attribute(table, trees)
                } else {
                    engine.protect(table, trees)
                }
            })
            .expect("generated tables protect")
    }

    /// The `protect-for` handler for a stored release, layer by layer,
    /// registering the recipient in `store` under release `id`.
    pub fn protect_for(
        &mut self,
        request: u64,
        body: &str,
        columns: &[ColumnBinning],
        recipient: &str,
        store: &DurableStore,
        id: u64,
    ) -> Protected {
        let root = self.tracer.begin(request, None, "handler.protect_for");
        let table = self.parse(request, root, body);
        let engine = self.engine;
        let key = &engine.watermarker().config().key;
        let mark_len = engine.config().mark_len;
        let mark = self.tracer.time(request, Some(root), "watermark.fingerprint_derive", || {
            derive_recipient_mark(key, recipient, mark_len)
        });
        let (copy, report) = self.embed(request, root, &table, columns, &mark);
        let name = recipient.to_string();
        self.tracer
            .time(request, Some(root), "store.append", || {
                store.add_recipient(id, StoredRecipient { name, mark })
            })
            .expect("the replay store registers recipients");
        self.tracer.time(request, Some(root), "store.sync", || store.sync()).expect("sync");
        let csv =
            self.tracer.time(request, Some(root), "relation.csv_encode", || csv::to_csv(&copy));
        self.tracer.end(root);
        Protected { csv, selected: report.selected_tuples, rows: table.len() }
    }

    /// Embed `mark` single-threaded: prepare, run, apply as three spans.
    pub fn embed(
        &mut self,
        request: u64,
        parent: usize,
        table: &Table,
        columns: &[ColumnBinning],
        mark: &Mark,
    ) -> (Table, EmbeddingReport) {
        let wm = self.engine.watermarker();
        let prepare = self.tracer.begin(request, Some(parent), "watermark.embed_prepare");
        let plan = wm.plan_embed(table.schema(), columns, self.trees, mark).expect("embed plan");
        let mut out = table.snapshot();
        let kernel = wm.prepare_embed(&plan, &mut out).expect("embed kernel");
        self.tracer.end(prepare);
        let rows = out.len();
        let chunk = self
            .tracer
            .time(request, Some(parent), "watermark.embed_run", || {
                kernel.run_range(&plan, &out, 0..rows)
            })
            .expect("embed run");
        let report = self
            .tracer
            .time(request, Some(parent), "watermark.embed_apply", || {
                kernel.apply(&plan, &mut out, vec![chunk])
            })
            .expect("embed apply");
        (out, report)
    }

    /// Detect single-threaded: prepare and run as two spans. Equals the
    /// engine's detection at any thread count.
    pub fn detect(
        &mut self,
        request: u64,
        parent: Option<usize>,
        table: &Table,
        columns: &[ColumnBinning],
    ) -> DetectionReport {
        let (engine, trees) = (self.engine, self.trees);
        let wm = engine.watermarker();
        let mark_len = engine.config().mark_len;
        let prepare = self.tracer.begin(request, parent, "watermark.detect_prepare");
        let plan = wm.plan_detect(table.schema(), columns, trees, mark_len).expect("detect plan");
        let kernel = wm.prepare_detect(&plan, table).expect("detect kernel");
        self.tracer.end(prepare);
        self.tracer
            .time(request, parent, "watermark.detect_run", || {
                kernel.run_range(&plan, table, 0..table.len()).map(|t| t.into_report(mark_len))
            })
            .expect("detect run")
    }

    /// The `detect` handler, layer by layer, plus the whole engine call.
    pub fn detect_request(&mut self, request: u64, body: &str, columns: &[ColumnBinning]) -> usize {
        let root = self.tracer.begin(request, None, "handler.detect");
        let table = self.parse(request, root, body);
        let report = self.detect(request, Some(root), &table, columns);
        self.tracer.end(root);
        self.engine_detect(request, &table, columns);
        report.selected_tuples
    }

    /// The `resolve-leaker` handler, layer by layer, plus the whole engine
    /// detect call. Returns the top-ranked recipient.
    pub fn resolve_request(
        &mut self,
        request: u64,
        body: &str,
        columns: &[ColumnBinning],
        recipients: &[StoredRecipient],
    ) -> (String, usize) {
        let root = self.tracer.begin(request, None, "handler.resolve_leaker");
        let table = self.parse(request, root, body);
        let report = self.detect(request, Some(root), &table, columns);
        let ranking = self.tracer.time(request, Some(root), "watermark.fingerprint_score", || {
            score_recipients(&report.mark, recipients.iter().map(|r| (r.name.as_str(), &r.mark)))
        });
        self.tracer.end(root);
        self.engine_detect(request, &table, columns);
        (ranking.first().map(|s| s.name.clone()).unwrap_or_default(), report.selected_tuples)
    }

    /// The engine's whole detect call as one span.
    pub fn engine_detect(
        &mut self,
        request: u64,
        table: &Table,
        columns: &[ColumnBinning],
    ) -> DetectionReport {
        let (engine, trees) = (self.engine, self.trees);
        self.tracer
            .time(request, None, "engine.detect", || engine.detect(table, columns, trees))
            .expect("detection runs")
    }
}

/// The binning search alone: minimal nodes per column, and for full
/// multi-attribute binning the ultimate-node search over all columns.
fn search(
    engine: &ProtectionEngine,
    trees: &Trees,
    table: &Table,
    maximal: &BTreeMap<String, GeneralizationSet>,
    per_attribute: bool,
) {
    let config = engine.binning_agent().config();
    let k = config.spec.effective_k();
    let quasi: Vec<String> =
        table.schema().quasi_names().iter().map(std::string::ToString::to_string).collect();
    let mut minimal = Vec::with_capacity(quasi.len());
    for column in &quasi {
        let mono = mono::generate_minimal_nodes(
            table,
            column,
            &trees[column],
            &maximal[column],
            k,
            config.minimal_strategy,
        )
        .expect("minimal nodes");
        minimal.push(mono.minimal);
    }
    if per_attribute {
        return;
    }
    let contexts: Vec<ColumnContext<'_>> = quasi
        .iter()
        .zip(&minimal)
        .map(|(column, min)| ColumnContext {
            column,
            tree: &trees[column],
            minimal: min,
            maximal: &maximal[column],
        })
        .collect();
    multi::generate_ultimate_nodes(
        table,
        &contexts,
        k,
        config.selection_strategy,
        config.exhaustive_limit,
        config.threads,
    )
    .expect("ultimate nodes");
}

/// Set every per-layer metric that is a span's median self time, plus
/// `binning.apply_ms`. Layers without spans report 0.
pub fn layer_metrics(tracer: &Tracer, report: &mut Report) {
    let times = tracer.self_times_ms();
    let med = |name: &str| {
        times.get(name).map_or(0.0, |m| median(&m.values().copied().collect::<Vec<_>>()))
    };
    for (metric, unit) in names::PER_LAYER {
        let Some(span) = metric.strip_suffix(&format!("_{unit}")) else {
            continue;
        };
        if times.contains_key(span) {
            let scale = match unit {
                "us" => 1e3,
                "s" => 1e-3,
                _ => 1.0,
            };
            report.metric(metric, med(span) * scale);
        }
    }
    if let (Some(bin), Some(search)) = (times.get("binning.bin"), times.get("binning.search")) {
        let apply: Vec<f64> =
            bin.iter().filter_map(|(req, ms)| search.get(req).map(|s| (ms - s).max(0.0))).collect();
        report.metric("binning.apply_ms", median(&apply));
    }
}
