//! `riverbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path riverbench/Cargo.toml -- \
//!     --workload archive_single|archive_sharded|sensor_fleet \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it runs the same workload with every layer wrapped
//! and reports the per-layer breakdown. Either way it checks every clip's
//! output against a single-lane reference and prints, last, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `riverbench/README.md` for the workloads and metrics.

mod analysis;
mod archive;
mod fleet;
mod host;
mod inputs;
mod kernels;
mod layers;
mod stats;
mod trace;

use archive::{Archive, Runner};
use fleet::Fleet;
use stats::{count_failed, median, percentile, supports, tail_percentile, ClipOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Counts allocations while [`COUNTING`] is set; otherwise a plain
/// pass-through to the system allocator.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic and publishes no other data (`Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded with the caller's layout, per this method's
        // own contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while `f` runs.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Latency windows of the fleet run.
pub(crate) const FLEET_WINDOWS: usize = 3;
/// Clips of the fleet's warm-up run, not measured.
pub(crate) const FLEET_WARMUP_CLIPS: u32 = 20;
/// Where the traced run writes its spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ArchiveSingle,
    ArchiveSharded,
    SensorFleet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "archive_single" => Some(Self::ArchiveSingle),
            "archive_sharded" => Some(Self::ArchiveSharded),
            "sensor_fleet" => Some(Self::SensorFleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ArchiveSingle => "archive_single",
            Self::ArchiveSharded => "archive_sharded",
            Self::SensorFleet => "sensor_fleet",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A result: the output check and the metrics, in print order.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("riverbench: check failed: {why}");
        self.notes.push(format!("check failed: {why}"));
        self.correct = false;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median set-up time, CPU steal taken out.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (cpu0, steal0) = (host::process_cpu(), host::host_steal());
        let t = Instant::now();
        last = Some(setup());
        let factor = stats::steal_factor(
            host::process_cpu().saturating_sub(cpu0).as_secs_f64(),
            host::host_steal().saturating_sub(steal0).as_secs_f64(),
        );
        times.push(t.elapsed().as_secs_f64() * factor);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The median over `windows` consecutive groups of `latencies_ms` of
/// each group's `p`-th percentile, so host interference in one group
/// does not move it.
fn windowed(latencies_ms: &[f64], windows: usize, p: f64) -> f64 {
    let per = (latencies_ms.len() / windows.max(1)).max(1);
    let values: Vec<f64> = latencies_ms
        .chunks(per)
        .take(windows.max(1))
        .map(|w| percentile(w, p))
        .collect();
    median(&values)
}

/// Adds the median clip latency and notes the tail. The p95 is printed,
/// not bounded: on a shared host it follows CPU steal (see README).
fn latency_metrics(out: &mut Outcome, latencies_ms: &[f64], windows: usize) {
    let n = latencies_ms.len();
    let per = n / windows.max(1);
    out.metric(
        "clip_latency_p50_ms",
        windowed(latencies_ms, windows, 50.0),
        "ms",
    );
    let tail = tail_percentile(n, 100.0).unwrap_or(0.0);
    out.notes.push(format!(
        "clip latency: {n} samples in {windows} window(s) of {per}; \
         clip_latency_p95_ms {:.3} ms (per window {}); \
         over all samples p95 {:.3} ms, highest supported p{tail} = {:.3} ms",
        windowed(latencies_ms, windows, 95.0),
        if supports(per, 95.0) {
            "supported"
        } else {
            "NOT supported: <10 samples beyond"
        },
        percentile(latencies_ms, 95.0),
        percentile(latencies_ms, tail)
    ));
}

fn failures(out: &mut Outcome, attempted: u64, outcomes: &BTreeMap<u64, ClipOutcome>) {
    out.attempted += attempted;
    out.failed += count_failed(attempted, outcomes);
}

fn pass_outcomes(pass: &archive::Pass) -> BTreeMap<u64, ClipOutcome> {
    pass.outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.map(|o| (i as u64, o)))
        .collect()
}

fn runner_of(w: Workload) -> Runner {
    match w {
        Workload::ArchiveSharded => Runner::Sharded(host::nproc()),
        _ => Runner::Single,
    }
}

/// End-to-end run of an archive workload: passes over the pool until
/// the time is up.
fn archive_e2e(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (archive, setup_s) = timed_setup(|| Archive::setup(args.seed));
    let runner = runner_of(args.workload);
    // Warm-up pass: plans cached, pages touched; checked, not timed.
    let warm = archive.pass(runner, None);
    if warm.stats != archive.expected {
        out.fail("warm-up pass statistics differ from the reference");
    }
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        let pass = archive.pass(runner, None);
        if pass.stats != archive.expected {
            out.fail("pass statistics differ from the reference");
        }
        failures(&mut out, pass.outcomes.len() as u64, &pass_outcomes(&pass));
        passes.push(pass);
    }
    // Rates are taken with host CPU steal out of the wall clock, and
    // passes slower than the run's lower-quartile rate are dropped as
    // host interference: every pass carries the same clips, so a slower
    // program slows every pass alike.
    let rates: Vec<f64> = passes.iter().map(archive::Pass::steal_free_rate).collect();
    let floor = percentile(&rates, 25.0);
    let kept: Vec<&archive::Pass> = passes
        .iter()
        .filter(|p| p.steal_free_rate() >= floor)
        .collect();
    let kept_rates: Vec<f64> = kept.iter().map(|p| p.steal_free_rate()).collect();
    let raw: Vec<f64> = passes.iter().map(archive::Pass::records_per_sec).collect();
    let steal: f64 = passes.iter().map(|p| p.steal_s).sum();
    let wall: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|p| p.latencies_ms.iter().map(|l| l * p.steal_factor()))
        .collect();
    let cpu: f64 = kept.iter().map(|p| p.cpu_s).sum();
    let records: u64 = kept.iter().map(|p| p.stats.source_records).sum();
    out.metric("setup_s", setup_s, "s");
    out.metric("records_per_sec", median(&kept_rates), "1/s");
    latency_metrics(&mut out, &latencies, 1);
    out.metric("cpu_us_per_record", cpu / records as f64 * 1e6, "us");
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    out.notes.push(format!(
        "{} passes of {} clips, {} kept; all passes' steal-free records_per_sec quartiles \
         {:.1} / {:.1} / {:.1}; raw wall-clock median {:.1}; host steal {:.1}% of vCPU time",
        rates.len(),
        archive::POOL_CLIPS,
        kept.len(),
        percentile(&rates, 25.0),
        median(&rates),
        percentile(&rates, 75.0),
        median(&raw),
        100.0 * steal / (wall * host::nproc() as f64)
    ));
    out
}

/// End-to-end run of the sensor fleet: one open-loop run of
/// `seconds × CLIPS_PER_SEC` clips.
fn fleet_e2e(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (fleet, setup_s) = timed_setup(|| Fleet::setup(args.seed));
    let warm = fleet.run(FLEET_WARMUP_CLIPS, None);
    if warm.report.aggregate != fleet.expected(FLEET_WARMUP_CLIPS) {
        out.fail("warm-up run statistics differ from the reference");
    }
    let clips = fleet_clips(args.seconds);
    let run = fleet.run(clips, None);
    if run.report.aggregate != fleet.expected(clips) {
        out.fail("server statistics differ from the reference");
    }
    failures(&mut out, u64::from(clips), &run.outcomes);
    out.metric("setup_s", setup_s, "s");
    out.metric("records_per_sec", run.records as f64 / run.wall_s(), "1/s");
    let factor = stats::steal_factor(run.cpu_s, run.steal_s);
    let latencies: Vec<f64> = run.latencies_ms().iter().map(|l| l * factor).collect();
    latency_metrics(&mut out, &latencies, FLEET_WINDOWS);
    out.metric(
        "cpu_us_per_record",
        run.cpu_s / run.records as f64 * 1e6,
        "us",
    );
    out.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let late: Vec<f64> = run.clips.iter().map(|c| c.late_ns as f64 / 1e6).collect();
    out.notes.push(format!(
        "{clips} clips at {} clips/s over {} gateways; latencies scaled by steal factor {factor:.4} \
         (host steal {:.1}% of vCPU time); generator late p95 {:.3} ms, max {:.3} ms",
        fleet::CLIPS_PER_SEC,
        fleet::GATEWAYS,
        100.0 * run.steal_s / (run.wall_s() * host::nproc() as f64),
        percentile(&late, 95.0),
        late.iter().copied().fold(0.0, f64::max)
    ));
    out
}

fn fleet_clips(seconds: f64) -> u32 {
    ((seconds * fleet::CLIPS_PER_SEC as f64).round() as u32).max(1)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("riverbench: {e}");
            eprintln!(
                "usage: riverbench --workload archive_single|archive_sharded|sensor_fleet \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    trace::now_ns();
    let out = match (args.workload, args.trace) {
        (Workload::SensorFleet, false) => fleet_e2e(&args),
        (Workload::SensorFleet, true) => layers::fleet(&args),
        (_, false) => archive_e2e(&args),
        (_, true) => layers::archive(&args),
    };
    println!(
        "# host: nproc={} cpu_model=\"{}\"",
        host::nproc(),
        host::cpu_model()
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &out.metrics {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    println!(
        "{:<44} {:>16.6} (failed {} of {} clips)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", out.json());
}
