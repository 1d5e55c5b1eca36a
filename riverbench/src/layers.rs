//! The traced run: every layer wrapped, spans in memory, a per-layer
//! breakdown that sums to the traced wall clock, and the tracing
//! overhead against untraced runs of the same work.

use crate::analysis::Summary;
use crate::archive::{Archive, Runner, TracedPass};
use crate::fleet::{self, Fleet, FleetRun};
use crate::inputs::{self, FLEET_ENCODING, STAGES};
use crate::stats::{median, percentile, tail_percentile, Span};
use crate::trace::Tracer;
use crate::{
    count_allocs, failures, fleet_clips, host, kernels, pass_outcomes, Args, Outcome, Workload,
};
use dynamic_river::{Record, StreamStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Pool clips whose samples the kernels are timed over.
const KERNEL_CLIPS: usize = 2;
/// Pool clips the telemetry comparison runs over.
const TELEMETRY_CLIPS: usize = 2;

fn new_outcome() -> Outcome {
    Outcome {
        correct: true,
        ..Outcome::default()
    }
}

/// Per-stage operator metrics, the ensemble density, and the kernels.
fn ops_metrics(
    out: &mut Outcome,
    self_ns: &BTreeMap<String, u64>,
    stats: &StreamStats,
    passes: u64,
    thread_time_ns: f64,
    tracer: &Tracer,
) {
    for stage in STAGES {
        let s = stats
            .stages
            .iter()
            .find(|s| s.name == stage)
            .expect("stage of the Figure 5 chain");
        let own = self_ns.get(stage).copied().unwrap_or(0) as f64;
        out.metric(
            format!("ops.{stage}.self_ns_per_rec"),
            own / (s.records_in * passes).max(1) as f64,
            "ns",
        );
        out.metric(format!("ops.{stage}.share"), own / thread_time_ns, "ratio");
        out.metric(
            format!("ops.{stage}.records_in"),
            s.records_in as f64,
            "count",
        );
        out.metric(
            format!("ops.{stage}.records_out"),
            s.records_out as f64,
            "count",
        );
    }
    let audio = tracer.take_audio();
    let count = |stage: &str, f: fn(&crate::trace::AudioCounts) -> u64| {
        audio
            .iter()
            .find(|(n, _)| n == stage)
            .map_or(0, |(_, c)| f(c)) as f64
    };
    out.metric(
        "ops.ensemble_density",
        count("cutter", |c| c.audio_out) / count("saxanomaly", |c| c.audio_in).max(1.0),
        "ratio",
    );
}

fn kernel_metrics(out: &mut Outcome, records: &[Record], clips: &[Vec<Record>]) {
    let cfg = inputs::config();
    let samples = kernels::audio_samples(records);
    out.metric(
        "sax.bitmap_push_ns_per_sample",
        kernels::bitmap_push_ns_per_sample(&cfg, &samples),
        "ns",
    );
    out.metric(
        "dsp.moving_average_ns_per_sample",
        kernels::moving_average_ns_per_sample(&cfg, &samples),
        "ns",
    );
    out.metric(
        "dsp.realfft_mag_ns_per_record",
        kernels::realfft_mag_ns_per_record(&cfg, &samples),
        "ns",
    );
    let (bytes, enc, dec) = kernels::codec(records, FLEET_ENCODING);
    out.metric("codec.wire_bytes_per_rec", bytes, "B");
    out.metric("codec.encode_ns_per_rec", enc, "ns");
    out.metric("codec.decode_ns_per_rec", dec, "ns");
    out.metric(
        "telemetry.counters_ns_per_rec",
        kernels::counters_ns_per_rec(cfg, clips),
        "ns",
    );
}

fn zero(out: &mut Outcome, names: &[&str], unit: &'static str) {
    for n in names {
        out.metric(*n, 0.0, unit);
    }
}

const SHARD_SHARES: [&str; 3] = [
    "shard.splitter_blocked_share",
    "shard.worker_busy_share_min",
    "shard.worker_busy_share_max",
];
const SERVE_MS: [&str; 5] = [
    "serve.clip_busy_ms_p50",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p95",
    "serve.send_ms_p50",
    "serve.latency_p99_ms",
];
const SERVE_SHARES: [&str; 2] = ["serve.worker_busy_share", "serve.session_idle_share"];

fn write_spans(out: &mut Outcome, tracer: &Tracer, spans: &[Span], workload: Workload) {
    let path = std::path::Path::new(crate::SPAN_DIR).join(format!("{}.spans.tsv", workload.name()));
    match tracer.write_tsv(spans, &path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail(format!("writing spans to {}: {e}", path.display())),
    }
}

/// Shard-layer split of one sharded pass: splitter blocked share, worker
/// busy share min/max, records per worker max/min.
fn shard_split(t: &TracedPass) -> [f64; 4] {
    let splitter = t
        .summary
        .threads
        .values()
        .find(|th| th.source_calls > 0)
        .copied()
        .unwrap_or_default();
    let span = (splitter.last - splitter.first).max(1) as f64;
    let blocked = (span - splitter.source as f64) / span;
    let workers = t.summary.chain_threads();
    let wall = t.pass.wall_ns as f64;
    let busy: Vec<f64> = workers.iter().map(|w| w.busy() as f64 / wall).collect();
    let recs: Vec<f64> = workers.iter().map(|w| w.chain_records as f64).collect();
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    [
        blocked,
        min(&busy),
        max(&busy),
        max(&recs) / min(&recs).max(1.0),
    ]
}

/// The traced run of an archive workload: untraced and traced passes
/// alternate until the time is up.
pub fn archive(args: &Args) -> Outcome {
    let mut out = new_outcome();
    let archive = Archive::setup(args.seed);
    let runner = crate::runner_of(args.workload);
    let threads = match runner {
        Runner::Single => 1,
        Runner::Sharded(n) => n,
    };
    let (counted, allocs) = count_allocs(|| archive.pass(runner, None));
    let tracer = Tracer::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
    let (mut wall, mut source, mut sink, mut ops, mut handover) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut shard = Vec::new();
    let mut last_spans = Vec::new();
    let mut passes = 0u64;
    failures(
        &mut out,
        counted.outcomes.len() as u64,
        &pass_outcomes(&counted),
    );
    while passes == 0 || Instant::now() < deadline {
        let plain = archive.pass(runner, None);
        let traced = match archive.traced_pass(runner, &tracer) {
            Ok(t) => t,
            Err(e) => {
                out.fail(format!("parts exceed the traced wall: {e}"));
                break;
            }
        };
        if traced.pass.stats != plain.stats || plain.stats != archive.expected {
            out.fail("traced statistics differ from untraced or reference statistics");
        }
        for p in [&plain, &traced.pass] {
            failures(&mut out, p.outcomes.len() as u64, &pass_outcomes(p));
        }
        plain_walls.push(plain.wall_ns as f64);
        traced_walls.push(traced.pass.wall_ns as f64);
        latencies.extend(plain.latencies_ms.iter().map(|l| l * plain.steal_factor()));
        let total = traced.summary.total();
        for (k, v) in &traced.summary.op_self {
            *self_ns.entry(k.clone()).or_default() += v;
        }
        wall += traced.pass.wall_ns;
        source += total.source;
        sink += total.sink;
        ops += total.ops;
        handover += total.handover;
        if threads > 1 {
            shard.push(shard_split(&traced));
        }
        passes += 1;
        last_spans = traced.spans;
    }
    let stats = &archive.expected;
    let thread_time = wall as f64 * threads as f64;
    ops_metrics(&mut out, &self_ns, stats, passes, thread_time, &tracer);
    let mut clip_records: Vec<Vec<Record>> = archive
        .clips()
        .iter()
        .take(TELEMETRY_CLIPS.max(KERNEL_CLIPS))
        .map(|c| kernels::collect(inputs::archive_records(inputs::config(), c)))
        .collect();
    let kernel_records: Vec<Record> = clip_records[..KERNEL_CLIPS].concat();
    clip_records.truncate(TELEMETRY_CLIPS);
    kernel_metrics(&mut out, &kernel_records, &clip_records);

    let records = (stats.source_records * passes) as f64;
    out.metric("pipeline.source_ns_per_rec", source as f64 / records, "ns");
    out.metric(
        "pipeline.sink_ns_per_rec",
        sink as f64 / (stats.sink_records * passes).max(1) as f64,
        "ns",
    );
    let loop_share = if threads == 1 {
        (wall as f64 - (source + sink + ops) as f64) / wall as f64
    } else {
        handover as f64 / thread_time
    };
    out.metric("pipeline.driver_share", loop_share, "ratio");
    if shard.is_empty() {
        zero(&mut out, &SHARD_SHARES, "ratio");
        out.metric("shard.records_per_worker_max_over_min", 0.0, "ratio");
    } else {
        let mean = |i: usize| shard.iter().map(|s| s[i]).sum::<f64>() / shard.len() as f64;
        for (i, name) in SHARD_SHARES.iter().enumerate() {
            out.metric(*name, mean(i), "ratio");
        }
        out.metric("shard.records_per_worker_max_over_min", mean(3), "ratio");
    }
    zero(&mut out, &SERVE_MS, "ms");
    zero(&mut out, &SERVE_SHARES, "ratio");
    out.metric("serve.peak_sessions", 0.0, "count");
    out.metric(
        "alloc.per_rec",
        allocs as f64 / counted.stats.source_records as f64,
        "count",
    );
    out.metric("loadgen.late_ms_p95", 0.0, "ms");
    out.metric("loadgen.late_ms_max", 0.0, "ms");
    out.metric(
        "trace.overhead",
        median(&traced_walls) / median(&plain_walls),
        "ratio",
    );
    out.metric(
        "clip_latency.p95_ms",
        crate::windowed(&latencies, 1, 95.0),
        "ms",
    );
    out.metric("clip_latency.samples", latencies.len() as f64, "count");
    out.metric("host.nproc", host::nproc() as f64, "count");
    out.notes.push(format!(
        "{passes} untraced + {passes} traced passes; layers not on this workload's path report 0"
    ));
    write_spans(&mut out, &tracer, &last_spans, args.workload);
    out
}

/// Per-clip split of fleet latency into send, queue wait and chain
/// execution, from the traced run's top-level chain spans.
#[derive(Default)]
struct ClipSplit {
    busy_ms: Vec<f64>,
    send_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    /// Sum over clips of top-level chain time.
    busy_ns: u64,
}

fn clip_split(run: &FleetRun, spans: &[Span], tracer: &Tracer) -> Result<ClipSplit, String> {
    let head = tracer.name_id(STAGES[0]);
    let mut by_clip: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == head && s.parent == 0) {
        by_clip.entry(s.clip).or_default().push(s);
    }
    let mut split = ClipSplit::default();
    for (k, c) in run.clips.iter().enumerate() {
        let Some(close) = c.close_ns else { continue };
        let mut busy = 0u64;
        let mut overlap = 0u64;
        for s in by_clip.get(&(k as u32)).map_or(&[][..], Vec::as_slice) {
            let end = s.end.min(close);
            busy += end.saturating_sub(s.start);
            overlap += c.send_end_ns.min(end).saturating_sub(s.start.max(c.due_ns));
        }
        split.busy_ns += busy;
        // Sending time not overlapped by this clip's own execution.
        let send = (c.send_end_ns - c.due_ns).saturating_sub(overlap);
        let latency = close - c.due_ns;
        let queue = latency as i64 - send as i64 - busy as i64;
        if queue < -1_000 {
            return Err(format!(
                "clip {k}: send {send} + busy {busy} ns exceed latency {latency} ns"
            ));
        }
        split.busy_ms.push(busy as f64 / 1e6);
        split.send_ms.push(send as f64 / 1e6);
        split.queue_ms.push(queue.max(0) as f64 / 1e6);
    }
    Ok(split)
}

/// The traced run of the sensor fleet: a full-length untraced run (tail
/// latency, generator lateness, allocations), then a half-length traced
/// run for the breakdown.
pub fn fleet(args: &Args) -> Outcome {
    let mut out = new_outcome();
    let fleet = Fleet::setup(args.seed);
    let warm = fleet.run(crate::FLEET_WARMUP_CLIPS, None);
    failures(
        &mut out,
        u64::from(crate::FLEET_WARMUP_CLIPS),
        &warm.outcomes,
    );
    let clips = fleet_clips(args.seconds);
    let (plain, allocs) = count_allocs(|| fleet.run(clips, None));
    let traced_clips = (clips / 2).max(1);
    let tracer = Tracer::new();
    let traced = fleet.run(traced_clips, Some(&tracer));
    let spans = tracer.take_spans();
    for (run, n) in [(&plain, clips), (&traced, traced_clips)] {
        failures(&mut out, u64::from(n), &run.outcomes);
        if run.report.aggregate != fleet.expected(n) {
            out.fail("server statistics differ from the reference");
        }
    }
    let summary = Summary::of(&spans, &tracer);
    let wall_ns = traced.end_ns - traced.start_ns;
    if let Err(e) = summary.check_parts_within(wall_ns) {
        out.fail(format!("parts exceed the traced wall: {e}"));
    }
    let split = clip_split(&traced, &spans, &tracer).unwrap_or_else(|e| {
        out.fail(format!("fleet latency parts exceed latency: {e}"));
        ClipSplit::default()
    });
    let workers = fleet::SERVER_WORKERS as f64;
    let thread_time = wall_ns as f64 * workers;
    let stats = &traced.report.aggregate;
    ops_metrics(&mut out, &summary.op_self, stats, 1, thread_time, &tracer);
    let tagged: Vec<Vec<Record>> = fleet
        .decoded
        .iter()
        .take(TELEMETRY_CLIPS)
        .cloned()
        .collect();
    let kernel_records: Vec<Record> = fleet.decoded[..KERNEL_CLIPS].concat();
    kernel_metrics(&mut out, &kernel_records, &tagged);

    let total = summary.total();
    out.metric("pipeline.source_ns_per_rec", 0.0, "ns");
    out.metric(
        "pipeline.sink_ns_per_rec",
        total.sink as f64 / stats.sink_records.max(1) as f64,
        "ns",
    );
    out.metric(
        "pipeline.driver_share",
        total.handover as f64 / thread_time,
        "ratio",
    );
    zero(&mut out, &SHARD_SHARES, "ratio");
    out.metric("shard.records_per_worker_max_over_min", 0.0, "ratio");

    let lat = plain.latencies_ms();
    let tail = tail_percentile(lat.len(), 99.0).unwrap_or(0.0);
    out.metric("serve.clip_busy_ms_p50", median(&split.busy_ms), "ms");
    out.metric("serve.queue_wait_ms_p50", median(&split.queue_ms), "ms");
    out.metric(
        "serve.queue_wait_ms_p95",
        percentile(&split.queue_ms, 95.0),
        "ms",
    );
    out.metric("serve.send_ms_p50", median(&split.send_ms), "ms");
    out.metric("serve.latency_p99_ms", percentile(&lat, tail), "ms");
    out.metric(
        "serve.worker_busy_share",
        split.busy_ns as f64 / thread_time,
        "ratio",
    );
    let (idle, dur) = plain.report.sessions.iter().fold((0.0, 0.0), |(i, d), s| {
        (i + s.idle.as_secs_f64(), d + s.duration.as_secs_f64())
    });
    out.metric("serve.session_idle_share", idle / dur.max(1e-9), "ratio");
    out.metric(
        "serve.peak_sessions",
        plain.report.peak_sessions as f64,
        "count",
    );
    out.metric(
        "alloc.per_rec",
        allocs as f64 / plain.records as f64,
        "count",
    );
    let late: Vec<f64> = plain.clips.iter().map(|c| c.late_ns as f64 / 1e6).collect();
    out.metric("loadgen.late_ms_p95", percentile(&late, 95.0), "ms");
    out.metric(
        "loadgen.late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    let cpu_per = |r: &FleetRun| r.cpu_s / r.records as f64;
    out.metric(
        "trace.overhead",
        cpu_per(&traced) / cpu_per(&plain),
        "ratio",
    );
    let factor = crate::stats::steal_factor(plain.cpu_s, plain.steal_s);
    let steal_free: Vec<f64> = lat.iter().map(|l| l * factor).collect();
    out.metric(
        "clip_latency.p95_ms",
        crate::windowed(&steal_free, crate::FLEET_WINDOWS, 95.0),
        "ms",
    );
    out.metric("clip_latency.samples", lat.len() as f64, "count");
    out.metric("host.nproc", host::nproc() as f64, "count");
    out.notes.push(format!(
        "untraced run {clips} clips, traced run {traced_clips} clips; serve.latency_p99_ms is p{tail} of {} samples; \
         trace.overhead is CPU per record traced/untraced (open loop)",
        lat.len()
    ));
    write_spans(&mut out, &tracer, &spans, args.workload);
    out
}
