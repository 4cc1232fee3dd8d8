//! Bench-regression guard for CI: compare freshly generated `BENCH_*.json`
//! files against the baselines committed under `crates/bench/baselines/` and
//! fail when single-thread throughput drops by more than the tolerance.
//!
//! ```text
//! check-regression [FRESH.json ...]
//! ```
//!
//! With no arguments, every `BENCH_*.json` in the current directory that has
//! a committed baseline of the same file name is checked (at least one must
//! exist). The guard reads the 1-thread/1-worker entry — `rows_per_sec` for
//! the engine and binning benches, `requests_per_sec` for the serving-layer
//! bench — because the sharding speedup depends on the host's core count,
//! while single-thread throughput is the stable per-commit signal the
//! trajectory is tracked by. The serving-layer bench additionally guards
//! its durable-store axis (`durable_requests_per_sec`), the
//! 1024-connection point of its connections axis, and the 16-recipient
//! point of its recipients axis (`protect_for_per_sec` /
//! `resolve_leaker_per_sec`), so neither the fsync path, the multiplexed
//! I/O core, nor the traitor-tracing path can regress behind the in-memory
//! metric. Files that record a `layout` axis (the table layout the bench
//! ran against, `columnar` since the column-store refactor) must match
//! their baseline's layout, and a baseline layout can never silently
//! disappear from the fresh file. Every bench also records the host's
//! logical-CPU count (`host_parallelism`); a fresh file generated on a
//! host with a different core count than the baseline is refused outright —
//! the floors are calibrated per host and a cross-core comparison would
//! quietly turn the guard into noise.
//!
//! Exit status:
//!
//! * `0` — every file was compared and stayed above its floor.
//! * `1` — a guarded throughput fell below its floor (a regression).
//! * `2` — a file could not be compared at all: no baseline, a workload,
//!   host-core-count or layout mismatch, or a file that stopped reporting a
//!   guarded axis. This is a refusal to compare, not a measured slowdown.
//!
//! Environment:
//!
//! * `MEDSHIELD_BASELINE_DIR` — baseline directory (default
//!   `crates/bench/baselines`).
//! * `MEDSHIELD_REGRESSION_TOLERANCE` — allowed fractional drop (default
//!   `0.25`, i.e. fail below 75% of the baseline).

#![forbid(unsafe_code)]

use medshield_bench::benchjson;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Why a fresh bench file did not pass its check.
enum Failure {
    /// The file and its baseline cannot be compared: a missing or unreadable
    /// file, a workload, host or layout mismatch, or a guarded axis the
    /// fresh file stopped reporting.
    Incomparable(String),
    /// A guarded throughput fell below its floor.
    Regressed(String),
}

/// Exit status for a run with at least one regression.
const EXIT_REGRESSED: u8 = 1;
/// Exit status for a run with no regression but at least one file that
/// could not be compared.
const EXIT_INCOMPARABLE: u8 = 2;

fn baseline_dir() -> PathBuf {
    std::env::var("MEDSHIELD_BASELINE_DIR")
        .unwrap_or_else(|_| "crates/bench/baselines".into())
        .into()
}

fn tolerance() -> f64 {
    std::env::var("MEDSHIELD_REGRESSION_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Check one fresh bench file against its baseline; `Ok(line)` describes the
/// comparison.
fn check(fresh_path: &Path, baseline_path: &Path, tolerance: f64) -> Result<String, Failure> {
    use Failure::{Incomparable, Regressed};
    let fresh = std::fs::read_to_string(fresh_path).map_err(|e| {
        Incomparable(format!("cannot read fresh bench file {}: {e}", fresh_path.display()))
    })?;
    let baseline = std::fs::read_to_string(baseline_path).map_err(|e| {
        Incomparable(format!("cannot read baseline {}: {e}", baseline_path.display()))
    })?;
    let name = benchjson::benchmark_name(&fresh).unwrap_or("unknown-benchmark").to_string();
    // A throughput comparison is only meaningful over the same workload:
    // different rows/k/candidate counts shift rows_per_sec for workload
    // reasons and would silently mask (or fake) real regressions.
    for field in ["rows", "k", "candidates", "tables", "detect_rounds", "conn_requests"] {
        let (f, b) =
            (benchjson::top_metric(&fresh, field), benchjson::top_metric(&baseline, field));
        if let (Some(f), Some(b)) = (f, b) {
            if f != b {
                return Err(Incomparable(format!(
                    "{name}: workload mismatch — fresh {field}={f} vs baseline {field}={b}; \
                     regenerate the baseline with the same bench parameters"
                )));
            }
        }
    }
    // The host's core count is part of the calibration: thread scheduling,
    // group-commit batching and the readiness loop all price differently
    // across core counts, so the floors only mean something against a
    // baseline regenerated on the same class of host. A baseline that
    // records the count while the fresh file reports none means the bench
    // stopped recording it — the guard must never deactivate silently.
    match (
        benchjson::top_metric(&fresh, "host_parallelism"),
        benchjson::top_metric(&baseline, "host_parallelism"),
    ) {
        (Some(f), Some(b)) if f != b => {
            return Err(Incomparable(format!(
                "{name}: host core-count mismatch — fresh host_parallelism={f} vs baseline \
                 host_parallelism={b}; throughput floors are not comparable across core \
                 counts, regenerate the baseline on this host"
            )));
        }
        (None, Some(b)) => {
            return Err(Incomparable(format!(
                "{name}: the baseline records host_parallelism={b} but the fresh file \
                 reports none — the bench stopped recording the host core count"
            )));
        }
        _ => {}
    }
    // The table layout is part of the workload: columnar rows/s are only
    // comparable against a columnar baseline. A baseline that records a
    // layout the fresh file no longer reports means the layout axis stopped
    // reporting — the guard must never deactivate silently.
    match (benchjson::top_string(&fresh, "layout"), benchjson::top_string(&baseline, "layout")) {
        (Some(f), Some(b)) if f != b => {
            return Err(Incomparable(format!(
                "{name}: layout mismatch — fresh \"{f}\" vs baseline \"{b}\"; the throughput \
                 floors below are calibrated per layout, regenerate the baseline"
            )));
        }
        (None, Some(b)) => {
            return Err(Incomparable(format!(
                "{name}: the baseline records a \"{b}\" table layout but the fresh file \
                 reports none — the layout axis of the bench stopped reporting"
            )));
        }
        _ => {}
    }
    // Engine/binning benches report rows_per_sec; the serving-layer bench
    // reports requests_per_sec. Guard whichever the file carries.
    let (metric, unit) = ["rows_per_sec", "requests_per_sec"]
        .iter()
        .find(|m| benchjson::thread_metric(&fresh, 1, m).is_some())
        .map(|&m| (m, if m == "rows_per_sec" { "rows/s" } else { "req/s" }))
        .ok_or_else(|| {
            Incomparable(format!(
                "{name}: fresh file has no 1-thread rows_per_sec or requests_per_sec entry"
            ))
        })?;
    let fresh_1t = benchjson::thread_metric(&fresh, 1, metric).ok_or_else(|| {
        Incomparable(format!("{name}: fresh file has no 1-thread {metric} entry"))
    })?;
    let base_1t = benchjson::thread_metric(&baseline, 1, metric)
        .ok_or_else(|| Incomparable(format!("{name}: baseline has no 1-thread {metric} entry")))?;
    let floor = base_1t * (1.0 - tolerance);
    let ratio = fresh_1t / base_1t;
    let mut line = format!(
        "{name}: 1-thread {fresh_1t:.0} {unit} vs baseline {base_1t:.0} {unit} \
         ({:.0}% of baseline, floor {floor:.0})",
        ratio * 100.0
    );
    if fresh_1t < floor {
        return Err(Regressed(format!("REGRESSION — {line}")));
    }
    // The serving-layer bench also carries a durable-store axis; hold the
    // fsync-batched path to the same trajectory so a persistence-layer
    // slowdown cannot hide behind the in-memory metric. A baseline that
    // carries the metric while the fresh file does not is itself a failure:
    // the guard must never deactivate silently.
    let durable = "durable_requests_per_sec";
    match (
        benchjson::thread_metric(&fresh, 1, durable),
        benchjson::thread_metric(&baseline, 1, durable),
    ) {
        (Some(fresh_d), Some(base_d)) => {
            let floor_d = base_d * (1.0 - tolerance);
            line.push_str(&format!(
                "; durable {fresh_d:.0} vs {base_d:.0} ({:.0}%, floor {floor_d:.0})",
                fresh_d / base_d * 100.0
            ));
            if fresh_d < floor_d {
                return Err(Regressed(format!("REGRESSION (durable axis) — {line}")));
            }
        }
        (None, Some(_)) => {
            return Err(Incomparable(format!(
                "{name}: the baseline carries a 1-thread {durable} entry but the fresh \
                 file does not — the persistence axis of the bench stopped reporting"
            )));
        }
        _ => {}
    }
    // The serving-layer bench also carries a connections axis: the
    // 1024-connection throughput is the readiness loop's at-scale signal,
    // held to the same trajectory so a multiplexing slowdown cannot hide
    // behind the per-worker metrics. As with the durable axis, a baseline
    // that carries the entry while the fresh file does not is a failure.
    match (
        benchjson::axis_metric(&fresh, "connections", 1024, "requests_per_sec"),
        benchjson::axis_metric(&baseline, "connections", 1024, "requests_per_sec"),
    ) {
        (Some(fresh_c), Some(base_c)) => {
            let floor_c = base_c * (1.0 - tolerance);
            line.push_str(&format!(
                "; 1024-conn {fresh_c:.0} vs {base_c:.0} ({:.0}%, floor {floor_c:.0})",
                fresh_c / base_c * 100.0
            ));
            if fresh_c < floor_c {
                return Err(Regressed(format!("REGRESSION (connections axis) — {line}")));
            }
        }
        (None, Some(_)) => {
            return Err(Incomparable(format!(
                "{name}: the baseline carries a 1024-connection requests_per_sec entry but \
                 the fresh file does not — the connections axis of the bench stopped reporting"
            )));
        }
        _ => {}
    }
    // The serving-layer bench also carries a recipients axis: protect-for
    // and resolve-leaker throughput at 16 registered recipients is the
    // traitor-tracing path's at-scale signal — fingerprint scoring grows
    // with the candidate set, and a slowdown there must not hide behind the
    // single-mark metrics. Same rule as above: a baseline that carries the
    // entries while the fresh file does not is itself a failure.
    for tracing_metric in ["protect_for_per_sec", "resolve_leaker_per_sec"] {
        match (
            benchjson::axis_metric(&fresh, "recipients", 16, tracing_metric),
            benchjson::axis_metric(&baseline, "recipients", 16, tracing_metric),
        ) {
            (Some(fresh_r), Some(base_r)) => {
                let floor_r = base_r * (1.0 - tolerance);
                line.push_str(&format!(
                    "; 16-recipient {tracing_metric} {fresh_r:.0} vs {base_r:.0} \
                     ({:.0}%, floor {floor_r:.0})",
                    fresh_r / base_r * 100.0
                ));
                if fresh_r < floor_r {
                    return Err(Regressed(format!("REGRESSION (recipients axis) — {line}")));
                }
            }
            (None, Some(_)) => {
                return Err(Incomparable(format!(
                    "{name}: the baseline carries a 16-recipient {tracing_metric} entry but \
                     the fresh file does not — the recipients axis of the bench stopped \
                     reporting"
                )));
            }
            _ => {}
        }
    }
    Ok(line)
}

/// Check every fresh file against the same-named baseline in `dir`, print
/// one line per file, and return the process exit status: a regression
/// outranks an incomparable file.
fn run(fresh_files: &[PathBuf], dir: &Path, tolerance: f64) -> u8 {
    let (mut regressed, mut incomparable) = (false, false);
    for fresh in fresh_files {
        let file_name = fresh.file_name().expect("bench paths name a file");
        match check(fresh, &dir.join(file_name), tolerance) {
            Ok(line) => println!("ok: {line}"),
            Err(Failure::Regressed(line)) => {
                eprintln!("error: {line}");
                regressed = true;
            }
            Err(Failure::Incomparable(line)) => {
                eprintln!("error: not comparable: {line}");
                incomparable = true;
            }
        }
    }
    if regressed {
        eprintln!(
            "throughput fell more than {:.0}% below the committed baseline; \
             refresh crates/bench/baselines/ if the drop is intended",
            tolerance * 100.0
        );
        EXIT_REGRESSED
    } else if incomparable {
        eprintln!(
            "not comparable: no throughput was judged for the files above; \
             regenerate their baselines on this host with the same bench parameters"
        );
        EXIT_INCOMPARABLE
    } else {
        0
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fresh_files: Vec<PathBuf> = if args.is_empty() {
        ["BENCH_binning.json", "BENCH_serve.json", "BENCH_throughput.json"]
            .iter()
            .map(PathBuf::from)
            .filter(|p| p.exists())
            .collect()
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    if fresh_files.is_empty() {
        eprintln!(
            "error: not comparable: no fresh BENCH_*.json found — run `bench --bin binning` or \
             `bench --bin throughput` first, or pass the files explicitly"
        );
        return ExitCode::from(EXIT_INCOMPARABLE);
    }
    ExitCode::from(run(&fresh_files, &baseline_dir(), tolerance()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal `BENCH_binning.json` in the shape the binning bench emits.
    fn bench_json(host_parallelism: usize, rows_per_sec: f64) -> String {
        format!(
            r#"{{
  "benchmark": "binning-search-throughput",
  "layout": "columnar",
  "rows": 2000,
  "k": 128,
  "host_parallelism": {host_parallelism},
  "threads": [
    {{"threads": 1, "rows_per_sec": {rows_per_sec}}}
  ]
}}
"#
        )
    }

    /// Run the guard over one fresh file and (unless `None`) its baseline,
    /// written to a scratch directory, and return the exit status.
    fn exit_status(tag: &str, fresh: &str, baseline: Option<&str>) -> u8 {
        let dir = std::env::temp_dir()
            .join(format!("medshield-check-regression-{tag}-{}", std::process::id()));
        let baselines = dir.join("baselines");
        std::fs::create_dir_all(&baselines).unwrap();
        let fresh_path = dir.join("BENCH_binning.json");
        std::fs::write(&fresh_path, fresh).unwrap();
        if let Some(baseline) = baseline {
            std::fs::write(baselines.join("BENCH_binning.json"), baseline).unwrap();
        }
        let status = run(&[fresh_path], &baselines, 0.25);
        std::fs::remove_dir_all(&dir).unwrap();
        status
    }

    #[test]
    fn host_mismatch_is_incomparable_and_exits_2() {
        let status = exit_status("host", &bench_json(2, 1000.0), Some(&bench_json(1, 1000.0)));
        assert_eq!(status, EXIT_INCOMPARABLE);
    }

    #[test]
    fn missing_baseline_is_incomparable_and_exits_2() {
        assert_eq!(exit_status("missing", &bench_json(1, 1000.0), None), EXIT_INCOMPARABLE);
    }

    #[test]
    fn halved_throughput_is_a_regression_and_exits_1() {
        let status = exit_status("drop", &bench_json(1, 500.0), Some(&bench_json(1, 1000.0)));
        assert_eq!(status, EXIT_REGRESSED);
    }

    #[test]
    fn throughput_within_tolerance_passes() {
        assert_eq!(exit_status("ok", &bench_json(1, 900.0), Some(&bench_json(1, 1000.0))), 0);
    }
}
