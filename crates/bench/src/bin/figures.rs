//! The paper's evaluation figures (§7) and the §5.2 ablation, each an
//! experiment run in this process over one shared synthetic hospital table.
//!
//! ```text
//! figures            # every experiment, in the order of FIGURES
//! figures fig12a     # one of them
//! ```
//!
//! The table has `MEDSHIELD_TUPLES` tuples (default: the paper's 20,000).

#![forbid(unsafe_code)]

use medshield_attacks::{
    Attack, GeneralizationAttack, SubsetAddition, SubsetAlteration, SubsetDeletion,
};
use medshield_bench::{
    experiment_dataset, info_loss_of, print_figure_header, protect_per_attribute,
    root_usage_metrics,
};
use medshield_binning::{BinningAgent, BinningConfig, MinimalNodeStrategy};
use medshield_core::metrics::mark_loss;
use medshield_core::watermark::{Mark, SingleLevelWatermarker, WatermarkConfig, WatermarkKey};
use medshield_core::{analytic_interference, measure_interference};
use medshield_datagen::MedicalDataset;

/// One experiment: it prints its figure for the shared table.
type Figure = fn(&MedicalDataset);

/// Every experiment by the name `figures` takes, in the order it runs them.
const FIGURES: [(&str, Figure); 7] = [
    ("fig11", fig11),
    ("fig12a", fig12a),
    ("fig12b", fig12b),
    ("fig12c", fig12c),
    ("fig13", fig13),
    ("fig14", fig14),
    ("generalization_attack", generalization_attack),
];

fn main() {
    let only = std::env::args().nth(1);
    let selected: Vec<_> = match &only {
        None => FIGURES.to_vec(),
        Some(name) => FIGURES.iter().filter(|(figure, _)| figure == name).copied().collect(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(figure, _)| *figure).collect();
        eprintln!(
            "unknown figure `{}`; expected one of: {}",
            only.unwrap_or_default(),
            names.join(", ")
        );
        std::process::exit(2);
    }
    let dataset = experiment_dataset();
    for (_, run) in selected {
        if only.is_none() {
            println!();
        }
        run(&dataset);
    }
}

/// Figure 11 — k vs. information loss (%), mono-attribute vs multi-attribute
/// binning, plus the minimal-node-strategy ablation mentioned in §4.2/§7.1.
fn fig11(dataset: &MedicalDataset) {
    let maximal = root_usage_metrics(dataset);
    print_figure_header(
        "Figure 11",
        "k vs. information loss for mono-attribute and multi-attribute binning",
    );

    let ks = [5usize, 10, 25, 50, 75, 100, 150, 200, 250, 300, 350];
    println!(
        "{:>5} {:>22} {:>23} {:>26}",
        "k", "mono-attribute loss %", "multi-attribute loss %", "mono (aggressive) loss %"
    );
    for &k in &ks {
        let conservative = BinningAgent::new(BinningConfig::with_k(k))
            .bin(&dataset.table, &dataset.trees, &maximal)
            .expect("binnable");
        let mono_cols: Vec<_> =
            conservative.columns.iter().map(|cb| (cb.column.clone(), cb.minimal.clone())).collect();
        let multi_cols: Vec<_> = conservative
            .columns
            .iter()
            .map(|cb| (cb.column.clone(), cb.ultimate.clone()))
            .collect();
        let mono_loss = info_loss_of(dataset, &mono_cols);
        let multi_loss = info_loss_of(dataset, &multi_cols);

        // Ablation: the "more aggressive strategy" for minimal nodes (§4.2.1).
        let mut aggressive_cfg = BinningConfig::with_k(k);
        aggressive_cfg.minimal_strategy = MinimalNodeStrategy::Aggressive;
        let aggressive = BinningAgent::new(aggressive_cfg)
            .bin(&dataset.table, &dataset.trees, &maximal)
            .expect("binnable");
        let aggressive_cols: Vec<_> =
            aggressive.columns.iter().map(|cb| (cb.column.clone(), cb.minimal.clone())).collect();
        let aggressive_loss = info_loss_of(dataset, &aggressive_cols);

        println!(
            "{:>5} {:>22.1} {:>23.1} {:>26.1}",
            k,
            mono_loss * 100.0,
            multi_loss * 100.0,
            aggressive_loss * 100.0
        );
    }
    println!();
    println!("paper shape: multi-attribute loss is well above mono-attribute loss,");
    println!("both grow with k and saturate once k reaches a few hundred.");
}

/// The table shared by Figs. 12(a)–(c): for η ∈ {50, 75, 100}, the mark
/// loss (%) after `attack(fraction, i)` hits the release, where `i` is the
/// fraction's index in `fractions`.
fn mark_loss_under(
    dataset: &MedicalDataset,
    label: &str,
    fractions: &[f64],
    attack: impl Fn(f64, u64) -> Box<dyn Attack>,
) {
    let etas = [50u64, 75, 100];
    println!("{label:>16} {:>8} {:>8} {:>8}", "η=50", "η=75", "η=100");
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); fractions.len()];
    for &eta in &etas {
        let (pipeline, release) = protect_per_attribute(dataset, 10, eta);
        for (fi, &fraction) in fractions.iter().enumerate() {
            let attacked = attack(fraction, fi as u64).apply(&release.table);
            let detection = pipeline
                .detect(&attacked, &release.binning.columns, &dataset.trees)
                .expect("detection runs on attacked data");
            rows[fi].push(mark_loss(release.mark.bits(), &detection.mark) * 100.0);
        }
    }
    for (fi, &fraction) in fractions.iter().enumerate() {
        println!(
            "{:>16.0} {:>8.1} {:>8.1} {:>8.1}",
            fraction * 100.0,
            rows[fi][0],
            rows[fi][1],
            rows[fi][2]
        );
    }
    println!();
}

/// Figure 12(a) — robustness to Subset Alteration: percentage of altered
/// data vs mark loss, for η ∈ {50, 75, 100}.
fn fig12a(dataset: &MedicalDataset) {
    print_figure_header(
        "Figure 12(a)",
        "robustness of hierarchical watermarking to Subset Alteration",
    );
    let fractions = [0.0f64, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    mark_loss_under(dataset, "data alteration %", &fractions, |fraction, i| {
        Box::new(SubsetAlteration::new(fraction, 2005 + i))
    });
    println!("paper shape: mark loss grows slowly with the altered fraction (≈30% loss");
    println!("at 70%+ alteration) and smaller η (more embedded copies) is more resilient.");
}

/// Figure 12(b) — robustness to Subset Addition: percentage of added bogus
/// tuples vs mark loss, for η ∈ {50, 75, 100}.
fn fig12b(dataset: &MedicalDataset) {
    print_figure_header(
        "Figure 12(b)",
        "robustness of hierarchical watermarking to Subset Addition",
    );
    let fractions = [0.0f64, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0];
    mark_loss_under(dataset, "data addition %", &fractions, |fraction, i| {
        Box::new(SubsetAddition::new(fraction, 404 + i))
    });
    println!("paper shape: newly added bogus tuples only pollute the majority vote, so");
    println!("the loss stays low (the paper reports well under 30% even at 80% addition).");
}

/// Figure 12(c) — robustness to Subset Deletion: percentage of deleted
/// tuples vs mark loss, for η ∈ {50, 75, 100}. Deletions are issued as SQL
/// range deletes over the (encrypted) identifier, like the paper's
/// `DELETE FROM R WHERE SSN > lval AND SSN < uval`.
fn fig12c(dataset: &MedicalDataset) {
    print_figure_header(
        "Figure 12(c)",
        "robustness of hierarchical watermarking to Subset Deletion",
    );
    let fractions = [0.0f64, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98];
    mark_loss_under(dataset, "data deletion %", &fractions, |fraction, i| {
        Box::new(SubsetDeletion::ranges(fraction, 777 + i, "ssn"))
    });
    println!("paper shape: mark loss increases roughly linearly with the amount of deleted");
    println!("data, and smaller η (more redundancy) is more resilient.");
}

/// Figure 13 — information loss caused by watermarking as a function of η.
///
/// The watermark permutes a selected value to another ultimate
/// generalization node under the same maximal node, so the *generalization
/// level* of the table does not change; what is lost is the correctness of
/// the permuted cells. We therefore report, per η, the fraction of
/// quasi-identifying cells whose value no longer generalizes the original
/// value (i.e. cells the watermark actually moved), which is the distortion
/// Fig. 13 bounds at a few per cent. The extra Eq.-3 information loss of
/// the watermarked table over the binned table is reported alongside for
/// completeness.
fn fig13(dataset: &MedicalDataset) {
    print_figure_header("Figure 13", "information loss caused by watermarking vs η");

    let etas = [50u64, 75, 100, 125, 150, 175, 200];
    println!(
        "{:>6} {:>18} {:>22} {:>22}",
        "η", "cells permuted %", "binning info loss %", "extra info loss %"
    );
    for &eta in &etas {
        let (_pipeline, release) = protect_per_attribute(dataset, 10, eta);
        let total_cells = (dataset.table.len() * release.binning.columns.len()) as f64;
        let permuted = release.embedding.changed_cells as f64 / total_cells * 100.0;

        let cols: Vec<_> = release
            .binning
            .columns
            .iter()
            .map(|cb| (cb.column.clone(), cb.ultimate.clone()))
            .collect();
        let binned_loss = info_loss_of(dataset, &cols) * 100.0;
        // The watermarked cells carry a *wrong* ultimate-node value; counting
        // them as fully lost gives a conservative extra-loss estimate.
        let extra_loss = permuted;

        println!("{eta:>6} {permuted:>18.2} {binned_loss:>22.1} {extra_loss:>22.2}");
    }
    println!();
    println!("paper shape: the loss added by watermarking is minor (under ~10%) and");
    println!("decreases as η grows (fewer tuples are selected for embedding).");
}

/// Figure 14 — effect of watermarking on binning: per attribute and per k,
/// the total number of bins, the number of bins whose size changed, and the
/// number of bins whose size fell below k. Also prints the analytic Lemma
/// 1/2 probabilities for reference.
fn fig14(dataset: &MedicalDataset) {
    print_figure_header(
        "Figure 14",
        "effect of watermarking on binning (total bins / bins changed / bins below k)",
    );

    let ks = [10usize, 20, 45, 100];
    let columns = ["age", "zip_code", "doctor", "symptom", "prescription"];

    println!(
        "{:>5} | {:^20} | {:^20} | {:^20} | {:^20} | {:^20}",
        "k", columns[0], columns[1], columns[2], columns[3], columns[4]
    );
    for &k in &ks {
        let (_pipeline, release) = protect_per_attribute(dataset, k, 100);
        let reports = measure_interference(&release.binning.table, &release.table, k)
            .expect("interference measurable");
        let by_name: std::collections::BTreeMap<_, _> = reports.into_iter().collect();
        let mut row = format!("{k:>5} |");
        for column in &columns {
            let r = &by_name[*column];
            row.push_str(&format!(" {:>6} {:>6} {:>6} |", r.total_bins, r.changed_bins, r.below_k));
        }
        println!("{row}");
    }
    println!();
    println!("cell format: total bins / bins with changed size / bins with size < k");
    println!("paper shape: many bins change size, essentially none drop below k.");

    // Analytic §6 probabilities (Lemmas 1 and 2) for the k = 10 run.
    let (_pipeline, release) = protect_per_attribute(dataset, 10, 100);
    println!("\nLemma 1/2 (k=10): per column, probability that one bit-embedding shrinks");
    println!("(Pr-) or grows (Pr+) a particular bin — equal by the seamlessness argument:");
    for a in analytic_interference(&release.binning.columns, &dataset.trees) {
        println!(
            "  {:<13} maximal nodes {:>3}, ultimate nodes {:>3}, Pr- = Pr+ = {:.4}",
            a.column, a.maximal_nodes, a.ultimate_nodes, a.pr_minus
        );
    }
}

/// §5.2 ablation — the generalization attack against the single-level
/// scheme (the paper's argument for why a hierarchical scheme is needed)
/// and against the hierarchical scheme itself.
fn generalization_attack(dataset: &MedicalDataset) {
    print_figure_header(
        "Section 5.2 ablation",
        "generalization attack vs single-level and hierarchical watermarking",
    );

    let (pipeline, release) = protect_per_attribute(dataset, 10, 50);

    // Single-level baseline with its own key, embedded into the same binned
    // table.
    let key = WatermarkKey::from_master(b"single-level-baseline", 50);
    let single = SingleLevelWatermarker::new(WatermarkConfig::new(key));
    let mark = Mark::from_bytes(b"single-level-baseline", 20);
    let single_marked = single
        .embed(&release.binning, &dataset.trees, &mark)
        .expect("single-level embedding succeeds");

    println!("{:>22} {:>22} {:>22}", "attack levels", "single-level loss %", "hierarchical loss %");
    for levels in 0usize..=3 {
        let (single_table, hier_table) = if levels == 0 {
            (single_marked.snapshot(), release.table.snapshot())
        } else {
            let attack = GeneralizationAttack::new(levels, dataset.trees.clone());
            (attack.apply(&single_marked), attack.apply(&release.table))
        };
        let single_detected = single
            .detect(&single_table, &release.binning.columns, &dataset.trees, mark.len())
            .expect("single-level detection runs");
        let hier_detected = pipeline
            .detect(&hier_table, &release.binning.columns, &dataset.trees)
            .expect("hierarchical detection runs");
        println!(
            "{:>22} {:>22.1} {:>22.1}",
            levels,
            mark_loss(mark.bits(), &single_detected) * 100.0,
            mark_loss(release.mark.bits(), &hier_detected.mark) * 100.0
        );
    }
    println!();
    println!("paper claim: one level of further generalization erases the single-level");
    println!("mark (no key needed), while the hierarchical mark survives because copies");
    println!("of every bit live at all levels up to the maximal generalization nodes.");
}
