//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>] [--trace-dir <dir>]`
//!
//! (`perfbench --serve <store dir>` is the served workloads' server
//! process; they start it themselves.)
//!
//! Runs one workload and prints descriptive `# ...` lines, then the result
//! as one JSON object on the last line of standard output. Exits 1 when an
//! operation failed or returned a wrong result, 2 on bad arguments.

#![forbid(unsafe_code)]

use medshield_perfbench::report::Report;
use medshield_perfbench::{audit, host_parallelism, ingest, names, served, RunOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn parse_args() -> Result<(String, RunOptions), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_work");
    let mut trace_dir = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !names::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", names::WORKLOADS));
    }
    let opts = RunOptions {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir: trace_dir.unwrap_or_else(|| work_dir.clone()),
        work_dir,
    };
    Ok((workload, opts))
}

/// The benchmark server's own process: `perfbench --serve <store dir>`
/// (started by the served workloads).
fn serve_mode(args: &[String]) -> ExitCode {
    let [store] = args else {
        eprintln!("perfbench: usage: --serve <store dir>");
        return ExitCode::from(2);
    };
    match served::serve_until_stdin_closes(Path::new(store)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--serve") {
        return serve_mode(&args[1..]);
    }
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    for dir in [&opts.work_dir, &opts.trace_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let mut report = Report::default();
    report.info("host_parallelism", host_parallelism().to_string());
    match workload.as_str() {
        "ingest" => ingest::run(&opts, &mut report),
        _ => audit::run(&opts, &mut report),
    }
    for line in report.info_lines() {
        println!("{line}");
    }
    println!("{}", report.result_line(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
