//! The CLI commands: `generate`, `protect`, `protect-for`, `detect`,
//! `resolve-leaker`, `attack`, `serve`.

use crate::args::Options;
use medshield_attacks::{
    Attack, CollusionAttack, GeneralizationAttack, SubsetAddition, SubsetAlteration, SubsetDeletion,
};
use medshield_core::dht::DomainHierarchyTree;
use medshield_core::metrics::mark_loss;
use medshield_core::watermark::{score_recipients, FingerprintDeriver};
use medshield_core::{ProtectedRelease, ProtectionConfig, ProtectionEngine};
use medshield_datagen::{ontology, DatasetConfig, MedicalDataset};
use medshield_relation::{csv, Table};
use medshield_serve::{CARRIES_MARK_THRESHOLD, MEDICAL_ROLES};
use std::collections::BTreeMap;

/// Usage text printed by `medshield help` and on argument errors.
pub const USAGE: &str = "\
medshield — privacy and ownership preserving outsourcing of medical data

USAGE:
  medshield generate --tuples N [--seed S] --out FILE.csv
  medshield protect  --input FILE.csv [--k K] [--eta ETA] [--duplication L]
                     [--enc-secret S1] [--wm-secret S2] [--mark-text T]
                     [--per-attribute true] [--threads N] --out RELEASE.csv
  medshield protect-for --input FILE.csv --recipient NAME --out COPY.csv
                     [same options as protect]
  medshield detect   --original FILE.csv --suspect SUSPECT.csv
                     [--k K] [--eta ETA] [--duplication L]
                     [--enc-secret S1] [--wm-secret S2] [--mark-text T]
                     [--per-attribute true] [--threads N]
  medshield resolve-leaker --original FILE.csv --suspect LEAKED.csv
                     --recipients NAME1,NAME2,... [same options as detect]
  medshield attack   --input RELEASE.csv
                     --kind alteration|addition|deletion|generalization|collusion
                     [--fraction F] [--levels N] [--seed S]
                     [--accomplices COPY1.csv,COPY2.csv] --out ATTACKED.csv
  medshield serve    [--addr HOST:PORT] [--threads N] [--queue-depth D]
                     [--engine-threads N] [--request-timeout-ms MS]
                     [--batch-max N] [--max-connections N]
                     [--per-attribute true|false]
                     [--k K] [--eta ETA] [--enc-secret S1] [--wm-secret S2]
                     [--mark-from-statistic true]
                     [--data-dir DIR] [--snapshot-every N]

The CSV files use the schema R(ssn, age, zip_code, doctor, symptom, prescription)
and the built-in domain ontologies. Detection re-derives the binning state from
the original CSV and the same parameters, so no extra state file is needed.
`protect-for` writes a per-recipient fingerprinted copy of the release: the
recipient's mark is derived from the watermark secret and the recipient name,
so `resolve-leaker` can later rank any set of recipient names against a leaked
CSV and name the copy it came from — even after deletion, alteration, or a
collusion (`attack --kind collusion --accomplices ...`) that mixes several
recipients' copies cell-wise.
--threads N shards the multi-attribute binning search AND watermark
embedding/detection over N worker threads; the output is byte-identical for
every N. `serve` runs the long-lived data-owner service: protect/embed/detect/
resolve-ownership over a length-framed TCP protocol, with --threads worker
engines answering in parallel behind a bounded queue of depth --queue-depth.
--data-dir DIR makes the release store durable (write-ahead log + snapshots
under DIR): stored releases and their ids survive restarts and even a SIGKILL,
and a protect reply is only sent once its record is fsynced. --snapshot-every N
compacts the log after every N stored releases (0 = log only).";

fn read_table(path: &str) -> Result<Table, String> {
    // The schema roles are the serving layer's: both front ends must import
    // CSV files identically.
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    csv::from_csv(&text, &MEDICAL_ROLES).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn write_table(path: &str, table: &Table) -> Result<(), String> {
    std::fs::write(path, csv::to_csv(table)).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Build the protection configuration shared by `protect`, `detect` and
/// `serve` from the command-line options.
pub(crate) fn config_from(options: &Options) -> Result<ProtectionConfig, String> {
    let k: usize = options.parse_or("k", 10)?;
    let eta: u64 = options.parse_or("eta", 50)?;
    let duplication: usize = options.parse_or("duplication", 4)?;
    Ok(ProtectionConfig::builder()
        .k(k)
        .epsilon(options.parse_or("epsilon", 2)?)
        .eta(eta)
        .duplication(duplication)
        .mark_len(options.parse_or("mark-len", 20)?)
        .mark_text(options.string_or("mark-text", "medshield-cli-owner"))
        .mark_from_statistic(options.parse_or("mark-from-statistic", false)?)
        .encryption_secret(options.string_or("enc-secret", "medshield-enc").into_bytes())
        .watermark_secret(options.string_or("wm-secret", "medshield-wm").into_bytes())
        .build())
}

fn engine_from(options: &Options) -> Result<ProtectionEngine, String> {
    let threads: usize = options.parse_or("threads", 1)?;
    let config = config_from(options)?;
    ProtectionEngine::new(config, threads)
        .map_err(|e| format!("invalid engine configuration: {e} (got --threads {threads})"))
}

/// Protect `table` in the binning mode `--per-attribute` selects
/// (per-attribute unless it is `false`); a failure reads `{failure}: {error}`.
fn protect_table(
    engine: &ProtectionEngine,
    options: &Options,
    table: &Table,
    trees: &BTreeMap<String, DomainHierarchyTree>,
    failure: &str,
) -> Result<ProtectedRelease, String> {
    let release = if options.parse_or("per-attribute", true)? {
        engine.protect_per_attribute(table, trees)
    } else {
        engine.protect(table, trees)
    };
    release.map_err(|e| format!("{failure}: {e}"))
}

/// `medshield generate`: write a synthetic hospital table as CSV.
pub fn generate(options: &Options) -> Result<(), String> {
    let tuples: usize = options.parse_or("tuples", 20_000)?;
    let seed: u64 = options.parse_or("seed", 0x1CDE_2005)?;
    let out = options.required("out")?;
    let dataset =
        MedicalDataset::generate(&DatasetConfig { num_tuples: tuples, seed, zipf_exponent: 0.8 });
    write_table(out, &dataset.table)?;
    println!("wrote {tuples} synthetic tuples to {out}");
    Ok(())
}

/// `medshield protect`: bin + watermark an input CSV, write the release CSV.
pub fn protect(options: &Options) -> Result<(), String> {
    let input = options.required("input")?;
    let out = options.required("out")?;
    let table = read_table(input)?;
    let trees = ontology::all_trees();
    let engine = engine_from(options)?;
    let release = protect_table(&engine, options, &table, &trees, "protection failed")?;
    write_table(out, &release.table)?;
    println!(
        "protected {} tuples (k={}, η={}, {} thread{}): {} tuples watermarked, {} cells changed",
        release.table.len(),
        engine.config().binning.spec.k,
        engine.config().watermark.key.eta,
        engine.threads(),
        if engine.threads() == 1 { "" } else { "s" },
        release.embedding.selected_tuples,
        release.embedding.changed_cells,
    );
    println!("embedded mark: {}", release.mark);
    for warning in &release.binning.warnings {
        println!("note: {warning}");
    }
    println!("release written to {out}");
    Ok(())
}

/// `medshield protect-for`: protect an input CSV and write a per-recipient
/// fingerprinted copy. The release itself (owner's mark) is identical to what
/// `protect` would produce; the copy re-embeds the recipient's derived mark
/// over the same keyed selection, so the owner's detection still works on it.
pub fn protect_for(options: &Options) -> Result<(), String> {
    let input = options.required("input")?;
    let out = options.required("out")?;
    let recipient = options.required("recipient")?;
    if recipient.is_empty() {
        return Err("--recipient must not be empty".to_string());
    }
    let table = read_table(input)?;
    let trees = ontology::all_trees();
    let engine = engine_from(options)?;
    let release = protect_table(&engine, options, &table, &trees, "protection failed")?;
    let fingerprint =
        FingerprintDeriver::new(&engine.config().watermark.key, engine.config().mark_len)
            .derive(recipient);
    let (copy, report) = engine
        .embed(&release.table, &release.binning.columns, &trees, &fingerprint)
        .map_err(|e| format!("fingerprint embedding failed: {e}"))?;
    write_table(out, &copy)?;
    println!(
        "protected {} tuples and fingerprinted the copy for `{recipient}`: \
         {} tuples watermarked, {} cells changed",
        copy.len(),
        report.selected_tuples,
        report.changed_cells,
    );
    println!("recipient fingerprint: {fingerprint}");
    for warning in &release.binning.warnings {
        println!("note: {warning}");
    }
    println!("recipient copy written to {out}");
    Ok(())
}

/// `medshield resolve-leaker`: re-derive the binning state from the original
/// CSV, extract the mark carried by the leaked CSV, and rank the named
/// recipients by fingerprint agreement. Traitor tracing: the top rank names
/// the leaker, or a member of the colluding set.
pub fn resolve_leaker(options: &Options) -> Result<(), String> {
    let original = read_table(options.required("original")?)?;
    let suspect = read_table(options.required("suspect")?)?;
    let recipients = options.required("recipients")?;
    let names: Vec<&str> = recipients.split(',').filter(|s| !s.is_empty()).collect();
    if names.is_empty() {
        return Err("--recipients must name at least one recipient".to_string());
    }
    let trees = ontology::all_trees();
    let engine = engine_from(options)?;
    let release =
        protect_table(&engine, options, &original, &trees, "re-deriving the binning state failed")?;
    let detection = engine
        .detect(&suspect, &release.binning.columns, &trees)
        .map_err(|e| format!("detection failed: {e}"))?;
    let deriver = FingerprintDeriver::new(&engine.config().watermark.key, engine.config().mark_len);
    let marks: Vec<(String, medshield_core::watermark::Mark)> =
        names.iter().map(|n| (n.to_string(), deriver.derive(n))).collect();
    let ranking = score_recipients(&detection.mark, marks.iter().map(|(n, m)| (n.as_str(), m)));
    println!(
        "extracted {} mark bits from {} tuples ({} selected)",
        detection.mark.len(),
        suspect.len(),
        detection.selected_tuples,
    );
    for score in &ranking {
        println!(
            "  {:<24} {:>5.1}% agreement ({}/{} bits)",
            score.name,
            score.score * 100.0,
            score.matching_bits,
            score.compared_bits,
        );
    }
    match ranking.first() {
        Some(top) => println!("verdict: the leaked copy traces to `{}`", top.name),
        None => println!("verdict: no recipient could be scored"),
    }
    Ok(())
}

/// `medshield detect`: re-derive the binning state from the original CSV and
/// check whether the suspect CSV carries the owner's mark.
pub fn detect(options: &Options) -> Result<(), String> {
    let original = read_table(options.required("original")?)?;
    let suspect = read_table(options.required("suspect")?)?;
    let trees = ontology::all_trees();
    let engine = engine_from(options)?;
    let release =
        protect_table(&engine, options, &original, &trees, "re-deriving the binning state failed")?;
    let detection = engine
        .detect(&suspect, &release.binning.columns, &trees)
        .map_err(|e| format!("detection failed: {e}"))?;
    let loss = mark_loss(release.mark.bits(), &detection.mark);
    println!("expected mark : {}", release.mark);
    println!(
        "recovered mark: {}",
        medshield_core::watermark::Mark::from_bits(detection.mark.clone())
    );
    println!(
        "mark loss: {:.1}% ({} of {} extended-mark positions carried votes)",
        loss * 100.0,
        detection.covered_positions,
        detection.wmd_len
    );
    if loss <= CARRIES_MARK_THRESHOLD {
        println!("verdict: the suspect data carry the owner's watermark");
    } else {
        println!("verdict: the owner's watermark was NOT found");
    }
    Ok(())
}

/// `medshield attack`: apply one of the paper's attack models to a release.
pub fn attack(options: &Options) -> Result<(), String> {
    let input = options.required("input")?;
    let out = options.required("out")?;
    let kind = options.required("kind")?;
    let fraction: f64 = options.parse_or("fraction", 0.3)?;
    let seed: u64 = options.parse_or("seed", 1)?;
    let table = read_table(input)?;
    let attack: Box<dyn Attack> = match kind {
        "alteration" => Box::new(SubsetAlteration::new(fraction, seed)),
        "addition" => Box::new(SubsetAddition::new(fraction, seed)),
        "deletion" => Box::new(SubsetDeletion::ranges(fraction, seed, "ssn")),
        "generalization" => Box::new(GeneralizationAttack::new(
            options.parse_or("levels", 1)?,
            ontology::all_trees(),
        )),
        "collusion" => {
            let accomplices = options.required("accomplices")?;
            let copies: Vec<Table> = accomplices
                .split(',')
                .filter(|s| !s.is_empty())
                .map(read_table)
                .collect::<Result<_, _>>()?;
            if copies.is_empty() {
                return Err("--accomplices must name at least one other recipient copy".to_string());
            }
            Box::new(CollusionAttack::new(copies, seed))
        }
        other => return Err(format!("unknown attack kind: {other}")),
    };
    let attacked = attack.apply(&table);
    write_table(out, &attacked)?;
    println!(
        "{} → {} tuples after `{}`; written to {out}",
        table.len(),
        attacked.len(),
        attack.describe()
    );
    Ok(())
}

/// Build the serving-layer configuration from the command-line options.
/// Split from [`serve`] so tests can exercise the parsing without binding a
/// socket.
pub(crate) fn serve_config_from(
    options: &Options,
) -> Result<(medshield_serve::ServeConfig, String), String> {
    let addr = options.string_or("addr", "127.0.0.1:7878");
    let defaults = medshield_serve::ServeConfig::default();
    let config = medshield_serve::ServeConfig {
        engine: config_from(options)?,
        engine_threads: options.parse_or("engine-threads", defaults.engine_threads)?,
        workers: options.parse_or("threads", defaults.workers)?,
        queue_depth: options.parse_or("queue-depth", defaults.queue_depth)?,
        request_timeout: std::time::Duration::from_millis(options.parse_or(
            "request-timeout-ms",
            u64::try_from(defaults.request_timeout.as_millis()).unwrap_or(u64::MAX),
        )?),
        batch_max: options.parse_or("batch-max", defaults.batch_max)?,
        max_connections: options.parse_or("max-connections", defaults.max_connections)?,
        per_attribute_default: options.parse_or("per-attribute", defaults.per_attribute_default)?,
        data_dir: options.get("data-dir").map(std::path::PathBuf::from),
        snapshot_every: options.parse_or("snapshot-every", defaults.snapshot_every)?,
        ..defaults
    };
    Ok((config, addr))
}

/// `medshield serve`: run the long-lived data-owner service until killed.
pub fn serve(options: &Options) -> Result<(), String> {
    use std::io::Write as _;
    let (config, addr) = serve_config_from(options)?;
    let workers = config.workers;
    let queue_depth = config.queue_depth;
    let handle =
        medshield_serve::serve(config, addr.as_str()).map_err(|e| format!("cannot serve: {e}"))?;
    println!(
        "medshield serving on {} ({} worker{}, queue depth {}) — \
         protect / embed / detect / resolve-ownership over length-framed TCP",
        handle.addr(),
        workers,
        if workers == 1 { "" } else { "s" },
        queue_depth,
    );
    if handle.is_durable() {
        println!(
            "durable release store: {} release{} recovered, ids continue from the log",
            handle.releases(),
            if handle.releases() == 1 { "" } else { "s" },
        );
    }
    // The bound address (port 0 resolves here) must reach a piped parent
    // (supervisors, the kill-recovery integration test) before the process
    // parks: piped stdout is block-buffered, so flush explicitly.
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Options;

    fn opts(pairs: &[(&str, &str)]) -> Options {
        let argv: Vec<String> =
            pairs.iter().flat_map(|(k, v)| [format!("--{k}"), v.to_string()]).collect();
        Options::parse(&argv).unwrap()
    }

    #[test]
    fn generate_protect_detect_attack_roundtrip() {
        let dir = std::env::temp_dir().join("medshield-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let release = dir.join("release.csv");
        let attacked = dir.join("attacked.csv");

        generate(&opts(&[("tuples", "400"), ("seed", "9"), ("out", data.to_str().unwrap())]))
            .unwrap();
        protect(&opts(&[
            ("input", data.to_str().unwrap()),
            ("out", release.to_str().unwrap()),
            ("k", "5"),
            ("eta", "5"),
        ]))
        .unwrap();
        detect(&opts(&[
            ("original", data.to_str().unwrap()),
            ("suspect", release.to_str().unwrap()),
            ("k", "5"),
            ("eta", "5"),
        ]))
        .unwrap();
        attack(&opts(&[
            ("input", release.to_str().unwrap()),
            ("out", attacked.to_str().unwrap()),
            ("kind", "deletion"),
            ("fraction", "0.2"),
        ]))
        .unwrap();
        detect(&opts(&[
            ("original", data.to_str().unwrap()),
            ("suspect", attacked.to_str().unwrap()),
            ("k", "5"),
            ("eta", "5"),
        ]))
        .unwrap();
    }

    #[test]
    fn protect_for_collusion_resolve_leaker_roundtrip() {
        let dir = std::env::temp_dir().join("medshield-cli-traitor");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let copy_a = dir.join("copy-a.csv");
        let copy_b = dir.join("copy-b.csv");
        let mixed = dir.join("mixed.csv");
        generate(&opts(&[("tuples", "400"), ("seed", "13"), ("out", data.to_str().unwrap())]))
            .unwrap();
        for (recipient, out) in [("clinic-a", &copy_a), ("clinic-b", &copy_b)] {
            protect_for(&opts(&[
                ("input", data.to_str().unwrap()),
                ("out", out.to_str().unwrap()),
                ("recipient", recipient),
                ("k", "5"),
                ("eta", "5"),
            ]))
            .unwrap();
        }
        // Distinct recipients must get distinct copies.
        assert_ne!(
            std::fs::read_to_string(&copy_a).unwrap(),
            std::fs::read_to_string(&copy_b).unwrap(),
        );
        attack(&opts(&[
            ("input", copy_a.to_str().unwrap()),
            ("out", mixed.to_str().unwrap()),
            ("kind", "collusion"),
            ("accomplices", copy_b.to_str().unwrap()),
        ]))
        .unwrap();
        resolve_leaker(&opts(&[
            ("original", data.to_str().unwrap()),
            ("suspect", mixed.to_str().unwrap()),
            ("recipients", "clinic-a,clinic-b,clinic-c"),
            ("k", "5"),
            ("eta", "5"),
        ]))
        .unwrap();
        // Argument errors stay clean errors.
        assert!(protect_for(&opts(&[
            ("input", data.to_str().unwrap()),
            ("out", copy_a.to_str().unwrap()),
            ("recipient", ""),
        ]))
        .is_err());
        assert!(resolve_leaker(&opts(&[
            ("original", data.to_str().unwrap()),
            ("suspect", mixed.to_str().unwrap()),
            ("recipients", ","),
        ]))
        .is_err());
        assert!(attack(&opts(&[
            ("input", copy_a.to_str().unwrap()),
            ("out", mixed.to_str().unwrap()),
            ("kind", "collusion"),
            ("accomplices", ""),
        ]))
        .is_err());
    }

    #[test]
    fn threads_flag_produces_identical_release_bytes() {
        let dir = std::env::temp_dir().join("medshield-cli-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let seq = dir.join("release-1t.csv");
        let par = dir.join("release-4t.csv");
        generate(&opts(&[("tuples", "300"), ("seed", "11"), ("out", data.to_str().unwrap())]))
            .unwrap();
        // Exercise both pipelines: per-attribute (mono only) and the full
        // multi-attribute binning search, which --threads also shards now.
        for per_attribute in ["true", "false"] {
            let base = [
                ("input", data.to_str().unwrap()),
                ("k", "4"),
                ("eta", "5"),
                ("per-attribute", per_attribute),
            ];
            let mut one = base.to_vec();
            one.push(("out", seq.to_str().unwrap()));
            protect(&opts(&one)).unwrap();
            let mut four = base.to_vec();
            four.push(("out", par.to_str().unwrap()));
            four.push(("threads", "4"));
            protect(&opts(&four)).unwrap();
            assert_eq!(
                std::fs::read_to_string(&seq).unwrap(),
                std::fs::read_to_string(&par).unwrap(),
                "--threads must not change the release bytes (per-attribute {per_attribute})"
            );
            // And multi-threaded detection accepts the release of the same
            // pipeline variant.
            detect(&opts(&[
                ("original", data.to_str().unwrap()),
                ("suspect", par.to_str().unwrap()),
                ("k", "4"),
                ("eta", "5"),
                ("threads", "4"),
                ("per-attribute", per_attribute),
            ]))
            .unwrap();
        }
    }

    #[test]
    fn serve_options_parse_and_drive_a_live_server() {
        let (config, addr) = serve_config_from(&opts(&[
            ("threads", "2"),
            ("queue-depth", "8"),
            ("k", "4"),
            ("eta", "5"),
            ("duplication", "2"),
        ]))
        .unwrap();
        assert_eq!(addr, "127.0.0.1:7878");
        // With no flags, every field but the engine is the library default.
        let (unset, _) = serve_config_from(&opts(&[])).unwrap();
        let defaults = medshield_serve::ServeConfig::default();
        assert_eq!(unset.engine_threads, defaults.engine_threads);
        assert_eq!(unset.workers, defaults.workers);
        assert_eq!(unset.queue_depth, defaults.queue_depth);
        assert_eq!(unset.max_frame_len, defaults.max_frame_len);
        assert_eq!(unset.request_timeout, defaults.request_timeout);
        assert_eq!(unset.batch_max, defaults.batch_max);
        assert_eq!(unset.batch_small_bytes, defaults.batch_small_bytes);
        assert_eq!(unset.max_connections, defaults.max_connections);
        assert_eq!(unset.per_attribute_default, defaults.per_attribute_default);
        assert_eq!(unset.data_dir, defaults.data_dir);
        assert_eq!(unset.snapshot_every, defaults.snapshot_every);
        assert_eq!(unset.debug_hooks, defaults.debug_hooks);
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_depth, 8);
        assert_eq!(config.engine.binning.spec.k, 4);
        assert_eq!(config.max_connections, defaults.max_connections);
        let (config, _) = serve_config_from(&opts(&[("max-connections", "3")])).unwrap();
        assert_eq!(config.max_connections, 3);
        // Drive the parsed configuration on an ephemeral port: a protect
        // round-trip must serve the exact bytes the CLI's own protect logic
        // would produce.
        let handle = medshield_serve::serve(config, "127.0.0.1:0").unwrap();
        let ds = medshield_datagen::MedicalDataset::generate(
            &medshield_datagen::DatasetConfig::small(120),
        );
        let mut client = medshield_serve::Client::connect(handle.addr()).unwrap();
        let reply = client.protect(&csv::to_csv(&ds.table)).unwrap();
        assert!(reply.is_ok(), "{}", reply.json);
        assert_eq!(reply.u64_field("rows"), Some(120));
        handle.shutdown();
    }

    #[test]
    fn serve_options_parse_the_durable_store_flags() {
        // Default: in-memory store.
        let (config, _) = serve_config_from(&opts(&[])).unwrap();
        assert_eq!(config.data_dir, None);
        let (config, _) = serve_config_from(&opts(&[
            ("data-dir", "/tmp/medshield-releases"),
            ("snapshot-every", "17"),
        ]))
        .unwrap();
        assert_eq!(
            config.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/medshield-releases"))
        );
        assert_eq!(config.snapshot_every, 17);
        assert!(serve_config_from(&opts(&[("snapshot-every", "lots")])).is_err());
    }

    #[test]
    fn serve_rejects_zero_worker_and_engine_threads_cleanly() {
        let (config, _) = serve_config_from(&opts(&[("threads", "0")])).unwrap();
        assert!(medshield_serve::serve(config, "127.0.0.1:0").is_err());
        let (config, _) = serve_config_from(&opts(&[("engine-threads", "0")])).unwrap();
        match medshield_serve::serve(config, "127.0.0.1:0") {
            Err(e) => assert!(e.to_string().contains("at least 1"), "{e}"),
            Ok(_) => panic!("engine-threads 0 must be rejected"),
        }
    }

    #[test]
    fn zero_threads_is_a_clean_cli_error() {
        let dir = std::env::temp_dir().join("medshield-cli-zero-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        generate(&opts(&[("tuples", "50"), ("out", data.to_str().unwrap())])).unwrap();
        let err = protect(&opts(&[
            ("input", data.to_str().unwrap()),
            ("out", dir.join("r.csv").to_str().unwrap()),
            ("threads", "0"),
        ]))
        .unwrap_err();
        assert!(err.contains("thread count must be at least 1"), "{err}");
    }

    #[test]
    fn missing_files_and_unknown_attack_are_errors() {
        assert!(protect(&opts(&[("input", "/nonexistent.csv"), ("out", "/tmp/x.csv")])).is_err());
        assert!(read_table("/nonexistent.csv").is_err());
        let dir = std::env::temp_dir().join("medshield-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        generate(&opts(&[("tuples", "50"), ("out", data.to_str().unwrap())])).unwrap();
        assert!(attack(&opts(&[
            ("input", data.to_str().unwrap()),
            ("out", dir.join("a.csv").to_str().unwrap()),
            ("kind", "nuke"),
        ]))
        .is_err());
    }
}
