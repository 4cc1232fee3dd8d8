//! The MedShield benchmark harness.
//!
//! One process runs one workload for a fixed time budget and prints its
//! metrics as a JSON object on the last line of standard output:
//!
//! * [`ingest`] — the write path: closed-loop `protect` / `protect-for`
//!   traffic against a durable `medshield-serve` server, which runs in a
//!   child process of its own (this binary's `--serve` mode).
//! * [`audit`] — the read path: pipelined `detect` / `resolve-leaker` /
//!   `list-recipients` traffic against a server that recovered a stored
//!   release history.
//!
//! Every run checks every reply against results computed in-process; a
//! mismatch counts as a failed operation and fails the run. With tracing
//! on, the run records spans around each public layer call ([`trace`]) and
//! prints the per-layer self times instead of the end-to-end metrics.
//! `NOTES.md` next to this crate explains the workload choices.

#![forbid(unsafe_code)]

pub mod audit;
pub mod gen;
pub mod ingest;
pub mod names;
pub mod replay;
pub mod report;
pub mod served;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options of one benchmark run, as given on the command line.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Scratch directory for the stores.
    pub work_dir: PathBuf,
    /// Where a traced run writes its span file.
    pub trace_dir: PathBuf,
}

/// Threads the host offers; the workloads size their client and engine
/// threads from it.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident memory (VmHWM) of process `pid` in MiB, or 0 when the
/// platform does not report it.
pub fn peak_rss_mib(pid: u32) -> f64 {
    status_mib(pid, "VmHWM:")
}

/// Reset the peak resident memory (VmHWM) of process `pid` to its current
/// resident set, so that a later [`peak_rss_mib`] describes only what came
/// after: writing `5` to `/proc/<pid>/clear_refs` does that on Linux. Where
/// the kernel refuses, the peak keeps counting from process start. Returns
/// the resident set (VmRSS) in MiB at the reset.
pub fn reset_peak_rss(pid: u32) -> f64 {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
    status_mib(pid, "VmRSS:")
}

/// A memory field of `/proc/<pid>/status` in MiB, or 0 when absent.
fn status_mib(pid: u32, field: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `f(0..n)` on up to `threads` threads, results in index order.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let out = std::sync::Mutex::new((0..n).map(|_| None).collect::<Vec<Option<T>>>());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                out.lock().expect("no worker panicked")[i] = Some(value);
            });
        }
    });
    out.into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|v| v.expect("every index produced a value"))
        .collect()
}

/// CPU seconds, summed over CPUs, that this host's CPUs spent running
/// work (`busy`: the user, nice, system, irq and softirq columns of
/// `/proc/stat`) and that the hypervisor gave to other guests while they
/// had work (`stolen`: the steal column), at the kernel's fixed 100 ticks
/// per second; zeros where they are not reported.
fn cpu_seconds() -> CpuSeconds {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .find(|line| line.starts_with("cpu "))
        .map(|line| line.split_whitespace().skip(1).map(|t| t.parse().unwrap_or(0.0)).collect())
        .unwrap_or_default();
    let column = |i: usize| ticks.get(i).copied().unwrap_or(0.0) / 100.0;
    CpuSeconds {
        busy: column(0) + column(1) + column(2) + column(5) + column(6),
        stolen: column(7),
    }
}

/// Cumulative CPU seconds at one instant, from [`cpu_seconds`].
#[derive(Debug, Clone, Copy, Default)]
struct CpuSeconds {
    busy: f64,
    stolen: f64,
}

/// How often [`StealSampler`] reads the CPU counters.
const STEAL_SAMPLE_PERIOD: Duration = Duration::from_millis(50);

/// Records the host's busy and stolen CPU time while a phase runs, so that
/// the phase's times can leave the stolen time out. On a shared virtual
/// machine the hypervisor takes the CPUs away in bursts of seconds to run
/// other guests; counting that time would make every rate and latency
/// measure the neighbours instead of the program.
#[derive(Debug)]
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<(Instant, CpuSeconds)>>,
}

impl StealSampler {
    /// Start sampling on a thread of its own.
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut points = vec![(Instant::now(), cpu_seconds())];
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(STEAL_SAMPLE_PERIOD);
                points.push((Instant::now(), cpu_seconds()));
            }
            points
        });
        StealSampler { stop, thread }
    }

    /// Stop sampling and return the series.
    pub fn finish(self) -> StealSeries {
        self.stop.store(true, Ordering::SeqCst);
        let points = self.thread.join().expect("the steal sampler does not panic");
        StealSeries { points }
    }
}

/// Cumulative busy and stolen CPU seconds over time, from a
/// [`StealSampler`].
#[derive(Debug, Clone)]
pub struct StealSeries {
    points: Vec<(Instant, CpuSeconds)>,
}

impl StealSeries {
    /// CPU seconds up to `t`, interpolated between samples.
    fn at(&self, t: Instant) -> CpuSeconds {
        let after = self.points.partition_point(|(at, _)| *at <= t);
        match (after.checked_sub(1).map(|i| self.points[i]), self.points.get(after)) {
            (Some((t0, c0)), Some(&(t1, c1))) => {
                let span = (t1 - t0).as_secs_f64();
                let part = if span > 0.0 { (t - t0).as_secs_f64() / span } else { 0.0 };
                CpuSeconds {
                    busy: c0.busy + (c1.busy - c0.busy) * part,
                    stolen: c0.stolen + (c1.stolen - c0.stolen) * part,
                }
            }
            (Some((_, c0)), None) => c0,
            (None, Some(&(_, c1))) => c1,
            (None, None) => CpuSeconds::default(),
        }
    }

    /// Seconds from `start` to `end` less the time the work lost to steal.
    ///
    /// In between, the CPUs ran for `busy` seconds and were wanted but
    /// stolen for `stolen` seconds, so `(busy + stolen) / wall` CPUs had
    /// work on average, and the work got `busy / (busy + stolen)` of the
    /// CPU time it wanted. The interval is scaled by that share. With every
    /// CPU busy this subtracts the stolen time per CPU; with one thread
    /// running it subtracts all of it, which a fixed per-CPU divisor would
    /// undercount by the number of CPUs. The counters tick 100 times a
    /// second and are sampled every 50 ms, so a short interval inside a
    /// burst of steal can show stolen ticks and no busy ones; the result
    /// is therefore never below half the wall time.
    pub fn seconds(&self, start: Instant, end: Instant) -> f64 {
        let wall = end.saturating_duration_since(start).as_secs_f64();
        let (c0, c1) = (self.at(start), self.at(end));
        let busy = (c1.busy - c0.busy).max(0.0);
        let stolen = (c1.stolen - c0.stolen).max(0.0);
        if busy + stolen > 0.0 {
            (wall * busy / (busy + stolen)).max(wall / 2.0)
        } else {
            wall
        }
    }
}
