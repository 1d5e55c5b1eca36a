//! Regenerates **Figure 5** of the paper as an executable artifact: the
//! block diagram of pipeline operators for converting acoustic clips
//! into ensembles, with per-stage record statistics from a real run of
//! the streaming executor.
//!
//! ```text
//! cargo run -p ensemble-bench --release --bin fig5_pipeline \
//!     [-- --seed N] [-- --json] [-- --repeat N] [-- --workers N]
//! ```
//!
//! `--repeat N` streams the clip N times, each repetition its own clip
//! scope (an archive workload; named `--repeat` because `--clips` is
//! the suite-wide clips-per-species flag of [`Scale`]); `--workers N`
//! with N > 1 runs the scope-sharded data-parallel executor instead of
//! the single-lane fused driver — output is byte-identical, and
//! throughput scales with the worker count up to the machine's core
//! count.
//!
//! Worker counts beyond the host's available parallelism are clamped
//! to it (extra shards on a saturated machine only add queue-hopping
//! overhead and would *understate* pipeline throughput).
//!
//! With `--json`, prints a single machine-readable line
//! (`{"workers": …, "requested_workers": …, "clamped": …, "clips": …,
//! "cores": …, "records_per_sec": …, "bytes_in": …, "bytes_out": …,
//! "peak_burst": …}`) instead of the figure — `ci.sh` appends one line
//! per worker count to `BENCH_fig5.json`, the repo's
//! pipeline-throughput scaling trajectory, and `ci.sh bench-check`
//! gates on the workers=1 line against `BENCH_baseline.json`. `cores`
//! records the host parallelism and `clamped` flags a reduced worker
//! count, so a flat curve on a small machine is not mistaken for a
//! runtime regression.
//!
//! `--wire-json v1|v2` skips the pipeline run and instead measures the
//! sensor uplink: it encodes the clip's record stream with the chosen
//! wire format (v2 uses the compact f32 sample encoding) and prints
//! `{"wire_bytes_per_record": …, "format": "v1"|"v2"}`. `ci.sh`
//! appends both lines to `BENCH_fig5.json` and gates v2 at ≤ 50% of
//! v1 (DESIGN.md §13).
//!
//! `--spectral fused|oracle` selects the spectral implementation: the
//! fused `spectrum` operator (default) or the original four-operator
//! `welchwindow → float2cplx → dft → cabs` oracle chain; the `--json`
//! line reports the choice in its `"spectrum"` field.
//!
//! `--stage-json` skips the full run and instead times the spectral
//! chain stage by stage (cumulative operator-chain prefixes over the
//! same audio records, differenced) and the detector chain
//! (`saxanomaly` → `trigger` → `cutter`) one operator at a time over
//! the records the previous stage emits, printing one
//! `{"stage": …, "ns_per_record": …}` line per stage, per audio record —
//! the per-stage evidence behind the fused spectral path and the
//! detector's record kernel (DESIGN.md §14).
//!
//! `--serve-json` skips the pipeline run and instead measures the
//! event-driven service layer (DESIGN.md §17): `--sessions M`
//! (default 16) concurrent loopback clients blast pre-encoded framed
//! clip streams at a `PipelineServer` multiplexing them over
//! `--workers N` (default 4, clamped to cores) execution threads, and
//! the best-of-3 end-to-end rate is printed as
//! `{"sessions": …, "workers": …, "records_per_sec": …}` — the line
//! `ci.sh serve-bench` appends to `BENCH_fig5.json`.
//!
//! `--telemetry-json` runs the same Figure 5 graph with full telemetry
//! ([`TelemetryConfig::Full`]) and prints the resulting
//! [`Snapshot`](dynamic_river::Snapshot) as one JSON object: per-stage
//! latency histograms (p50/p90/p99/max/mean ns per record, measured
//! in-run by the executor, not by prefix differencing) plus the
//! structured event log (scope opens, trigger fires, cutter runs,
//! shard-unit dispatch/merge). Honors `--workers` — with N > 1 the
//! sharded executor's merged snapshot is printed, whose per-stage
//! totals equal the single-lane run's by construction (DESIGN.md §16).

use dynamic_river::codec::{encode_frame_with, SampleEncoding, WireFormat};
use dynamic_river::{CountingSink, TelemetryConfig};
use ensemble_bench::{header, Scale};
use ensemble_core::ops::clip_to_records;
use ensemble_core::ops::clips_record_source;
use ensemble_core::pipeline::{full_pipeline_sharded_with, full_pipeline_with, SpectralPath};
use ensemble_core::prelude::*;

/// Parses `--flag N` from the argument list.
fn flag_value(flag: &str) -> Option<usize> {
    flag_str(flag).and_then(|v| v.parse().ok())
}

/// Returns the argument following `--flag`, verbatim.
fn flag_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--wire-json v1|v2`: encodes the clip's record stream with one wire
/// format and prints bytes-per-record, the uplink cost a sensor pays
/// per record on the wire (v2 sends compact f32 samples).
fn wire_json(which: &str, cfg: &ExtractorConfig, samples: &[f64]) {
    let format = match which {
        "v1" => WireFormat::V1,
        "v2" => WireFormat::V2(SampleEncoding::F32),
        other => panic!("--wire-json expects v1 or v2, got {other}"),
    };
    let records = clip_to_records(samples, cfg.sample_rate, cfg.record_len, &[]);
    let wire_bytes: usize = records
        .iter()
        .map(|r| encode_frame_with(r, format).len())
        .sum();
    println!(
        "{{\"wire_bytes_per_record\": {:.1}, \"format\": \"{}\"}}",
        wire_bytes as f64 / records.len() as f64,
        which
    );
}

/// `--stage-json`: per-stage cost of the spectral and detector chains.
/// Each cumulative prefix of the oracle spectral chain (and the fused
/// `spectrum` operator) is timed over the same pool of audio records,
/// and differencing adjacent prefixes isolates one stage. Each of
/// `saxanomaly`, `trigger` and `cutter` is timed alone over what the
/// stage before it emits for two scoped copies of the clip, so detector
/// state resets per clip as in production. Every line is ns per audio
/// record; best-of-3 runs, with an empty pipeline over the same input
/// timed as the framework baseline.
fn stage_json(cfg: &ExtractorConfig, samples: &[f64]) {
    use dynamic_river::{Operator, Payload, Pipeline, Record, RecordKind};
    use ensemble_core::ops::{
        Cabs, Cutter, Dft, Float2Cplx, SaxAnomaly, Spectrum, TriggerOp, WelchWindow,
    };
    use ensemble_core::subtype;

    let mut records: Vec<Record> = Vec::new();
    'fill: loop {
        for chunk in samples.chunks_exact(cfg.record_len) {
            records.push(Record::data(subtype::AUDIO, Payload::f64(chunk.to_vec())));
            if records.len() >= 1_000 {
                break 'fill;
            }
        }
    }
    let clips: Vec<Record> = (0..2)
        .flat_map(|_| clip_to_records(samples, cfg.sample_rate, cfg.record_len, &[]))
        .collect();

    let time_chain = |input: &[Record], ops: &dyn Fn() -> Vec<Box<dyn Operator>>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut p = Pipeline::new();
            for op in ops() {
                p.add_boxed(op);
            }
            let input = input.to_vec();
            let t0 = std::time::Instant::now();
            let out = p.run(input).expect("stage bench run");
            best = best.min(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        best
    };
    let audio_count = |input: &[Record]| {
        input
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::AUDIO)
            .count() as f64
    };
    let per = |hi: f64, lo: f64, n: f64| ((hi - lo) / n * 1e9).max(0.0);

    let n = audio_count(&records);
    let t_empty = time_chain(&records, &Vec::new);
    let t_w = time_chain(&records, &|| {
        vec![Box::new(WelchWindow::new()) as Box<dyn Operator>]
    });
    let t_wf = time_chain(&records, &|| {
        vec![
            Box::new(WelchWindow::new()) as Box<dyn Operator>,
            Box::new(Float2Cplx::new()),
        ]
    });
    let t_wfd = time_chain(&records, &|| {
        vec![
            Box::new(WelchWindow::new()) as Box<dyn Operator>,
            Box::new(Float2Cplx::new()),
            Box::new(Dft::new()),
        ]
    });
    let t_wfdc = time_chain(&records, &|| {
        vec![
            Box::new(WelchWindow::new()) as Box<dyn Operator>,
            Box::new(Float2Cplx::new()),
            Box::new(Dft::new()),
            Box::new(Cabs::new()),
        ]
    });
    let t_spec = time_chain(&records, &|| {
        vec![Box::new(Spectrum::new()) as Box<dyn Operator>]
    });

    // Detector stages: each is timed alone over the records the stage
    // before it emits, against an empty pipeline over the same input.
    let n_clip = audio_count(&clips);
    let mut stage_input = clips;
    let mut detector_ns = Vec::new();
    let detector: [Box<dyn Operator>; 3] = [
        Box::new(SaxAnomaly::new(*cfg)),
        Box::new(TriggerOp::new(*cfg)),
        Box::new(Cutter::new(*cfg)),
    ];
    for op in &detector {
        let fresh = || op.clone_op().expect("detector operators clone");
        let t_base = time_chain(&stage_input, &Vec::new);
        let t_stage = time_chain(&stage_input, &|| vec![fresh()]);
        detector_ns.push((op.name(), per(t_stage, t_base, n_clip)));
        let mut p = Pipeline::new();
        p.add_boxed(fresh());
        stage_input = p.run(stage_input).expect("detector stage run");
    }

    for (stage, ns) in [
        ("welchwindow", per(t_w, t_empty, n)),
        ("float2cplx", per(t_wf, t_w, n)),
        ("dft", per(t_wfd, t_wf, n)),
        ("cabs", per(t_wfdc, t_wfd, n)),
        ("oracle_chain", per(t_wfdc, t_empty, n)),
        ("spectrum", per(t_spec, t_empty, n)),
    ]
    .into_iter()
    .chain(detector_ns)
    {
        println!("{{\"stage\": \"{stage}\", \"ns_per_record\": {ns:.0}}}");
    }
}

/// `--serve-json`: end-to-end throughput of the event-driven service
/// layer. `sessions` concurrent clients each push the same pre-encoded
/// framed clip stream over loopback TCP at a
/// [`PipelineServer`](dynamic_river::serve::PipelineServer)
/// running `workers` execution threads; the reported rate covers
/// accept, poll, decode, chain and graceful shutdown (best of 3 runs).
/// The workload mirrors the `serve_throughput` Criterion bench so the
/// JSON trajectory and the bench agree on what they measure.
fn serve_json(sessions: usize, workers: usize) {
    use dynamic_river::codec::{encode_frame, EOS_MAGIC};
    use dynamic_river::operator::NullSink;
    use dynamic_river::ops::MapPayload;
    use dynamic_river::serve::PipelineServer;
    use dynamic_river::{Payload, Pipeline, Record};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    const CLIPS_PER_SESSION: usize = 4;
    const RECORDS_PER_CLIP: usize = 64;
    const SAMPLES_PER_RECORD: usize = 120;

    let mut bytes = Vec::new();
    let mut records_per_session = 0u64;
    for clip in 0..CLIPS_PER_SESSION {
        bytes.extend_from_slice(&encode_frame(&Record::open_scope(1, vec![])));
        records_per_session += 1;
        for i in 0..RECORDS_PER_CLIP {
            let samples: Vec<f64> = (0..SAMPLES_PER_RECORD)
                .map(|s| ((clip * RECORDS_PER_CLIP + i) * SAMPLES_PER_RECORD + s) as f64)
                .collect();
            bytes.extend_from_slice(&encode_frame(
                &Record::data(0, Payload::f64(samples)).with_seq(i as u64),
            ));
            records_per_session += 1;
        }
        bytes.extend_from_slice(&encode_frame(&Record::close_scope(1)));
        records_per_session += 1;
    }
    bytes.extend_from_slice(&EOS_MAGIC);
    let bytes = Arc::new(bytes);

    let chain = || {
        let mut p = Pipeline::new();
        p.add(MapPayload::new("gain", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x *= 0.5);
        }));
        p
    };

    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut server = PipelineServer::from_pipeline(&chain()).expect("serve bench chain");
        server.set_max_sessions(sessions).set_workers(workers);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let handle = server
            .start(listener, |_info| Box::new(NullSink))
            .expect("start server");
        let addr = handle.local_addr();
        let t0 = std::time::Instant::now();
        let clients: Vec<_> = (0..sessions)
            .map(|_| {
                let bytes = Arc::clone(&bytes);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    stream.write_all(&bytes).expect("send stream");
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        handle.wait_for_completed(sessions as u64);
        let report = handle.shutdown().expect("server report");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            report.aggregate.source_records,
            records_per_session * sessions as u64
        );
        best = best.min(elapsed);
    }
    println!(
        "{{\"sessions\": {}, \"workers\": {}, \"records_per_sec\": {:.1}}}",
        sessions,
        workers,
        records_per_session as f64 * sessions as f64 / best
    );
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let scale = Scale::from_args();
    let requested_workers = flag_value("--workers").unwrap_or(1).max(1);
    let clips = flag_value("--repeat").unwrap_or(1).max(1);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // More workers than cores only adds queue-hopping overhead — on a
    // 1-core CI host an unclamped `--workers 4` measures *slower* than
    // single-lane and poisons the perf trajectory. Clamp and say so.
    let workers = requested_workers.min(cores);
    let clamped = workers != requested_workers;
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let clip = synth.clip(SpeciesCode::Noca, scale.seed);
    let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
    let samples = &clip.samples[..usable];
    if let Some(which) = flag_str("--wire-json") {
        wire_json(&which, &cfg, samples);
        return;
    }
    if std::env::args().any(|a| a == "--serve-json") {
        let sessions = flag_value("--sessions").unwrap_or(16).max(1);
        serve_json(
            sessions,
            flag_value("--workers").unwrap_or(4).max(1).min(cores),
        );
        return;
    }
    if std::env::args().any(|a| a == "--stage-json") {
        stage_json(&cfg, samples);
        return;
    }
    let spectral = match flag_str("--spectral").as_deref() {
        None | Some("fused") => SpectralPath::Fused,
        Some("oracle") => SpectralPath::Oracle,
        Some(other) => panic!("--spectral expects fused or oracle, got {other}"),
    };
    // The archive: the clip repeated `clips` times, each repetition its
    // own clip scope — produced lazily, one clip in memory at a time.
    let archive = || {
        clips_record_source(
            std::iter::repeat_with(|| samples.to_vec()).take(clips),
            cfg.sample_rate,
            cfg.record_len,
        )
    };

    if std::env::args().any(|a| a == "--telemetry-json") {
        let mut sink = CountingSink::default();
        let snapshot = if workers > 1 {
            let mut p = full_pipeline_sharded_with(cfg, true, workers, spectral);
            p.set_telemetry(TelemetryConfig::Full);
            // Keep the registry handle: `run` consumes the runtime, the
            // handle reads the shared histograms afterwards.
            let telemetry = p.telemetry();
            p.run(archive(), &mut sink).expect("sharded pipeline run");
            telemetry.snapshot()
        } else {
            let mut p = full_pipeline_with(cfg, true, spectral);
            p.set_telemetry(TelemetryConfig::Full);
            p.run_streaming(archive(), &mut sink).expect("pipeline run");
            p.telemetry_snapshot()
        };
        println!("{}", snapshot.to_json());
        return;
    }

    // The full Figure 5 graph; the driver itself supplies the per-stage
    // statistics the figure annotates.
    let mut sink = CountingSink::default();
    let t0 = std::time::Instant::now();
    let stats = if workers > 1 {
        full_pipeline_sharded_with(cfg, true, workers, spectral)
            .run(archive(), &mut sink)
            .expect("sharded pipeline run")
    } else {
        full_pipeline_with(cfg, true, spectral)
            .run_streaming(archive(), &mut sink)
            .expect("pipeline run")
    };
    let elapsed = t0.elapsed().as_secs_f64();

    if json {
        let bytes_in = stats.stages.first().map_or(0, |s| s.bytes_in);
        println!(
            "{{\"workers\": {}, \"requested_workers\": {}, \"clamped\": {}, \"clips\": {}, \"cores\": {}, \"records_per_sec\": {:.1}, \"bytes_in\": {}, \"bytes_out\": {}, \"peak_burst\": {}, \"spectrum\": \"{}\"}}",
            workers,
            requested_workers,
            clamped,
            clips,
            cores,
            stats.source_records as f64 / elapsed,
            bytes_in,
            stats.sink_bytes,
            stats.max_peak_burst(),
            match spectral {
                SpectralPath::Fused => "fused",
                SpectralPath::Oracle => "oracle",
            }
        );
        return;
    }

    header("Figure 5: pipeline operators converting acoustic clips into ensembles");
    println!("sensor platform -> readout -> storage -> wav2rec -> (this run starts here)");
    println!(
        "{} clip(s), {} worker shard(s){} [{}]\n",
        clips,
        workers,
        if clamped {
            format!(" (clamped from {requested_workers}: {cores} core(s) available)")
        } else {
            String::new()
        },
        if workers > 1 {
            "scope-sharded parallel executor"
        } else {
            "single-lane fused executor"
        }
    );
    println!(
        "{:<14} {:>10} {:>12} {:>8}   (records/bytes leaving the stage)",
        "operator", "records", "data bytes", "burst"
    );
    println!("{:<14} {:>10} {:>12}", "input", stats.source_records, "");
    for s in &stats.stages {
        println!(
            "{:<14} {:>10} {:>12} {:>8}",
            s.name, s.records_out, s.bytes_out, s.peak_burst
        );
    }
    println!(
        "\nfinal output: {} records ({} bytes) -> MESO; {}-dim patterns; peak per-shard burst {}; {:.0} records/s",
        sink.records,
        sink.bytes,
        cfg.paa_pattern_features(),
        stats.max_peak_burst(),
        stats.source_records as f64 / elapsed
    );
}
