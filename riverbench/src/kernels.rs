//! Kernels timed directly over a workload's own samples and records:
//! the SAX-bitmap detector, the moving average, the real FFT, the wire
//! codec, and the cost of `Counters` telemetry over `Off`. Set against
//! the operators' self time they separate kernel cost from plumbing.

use crate::stats::median;
use dynamic_river::codec::{encode_frame_v2, Decoder, SampleEncoding};
use dynamic_river::{Payload, Record, RecordKind, Source, TelemetryConfig};
use ensemble_core::pipeline::full_pipeline;
use ensemble_core::prelude::*;
use river_dsp::stats::MovingAverage;
use river_dsp::window::WindowKind;
use river_dsp::{Complex64, RealFft};
use river_sax::anomaly::BitmapAnomaly;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per kernel; the median is reported.
const REPS: usize = 3;

fn median_ns(mut f: impl FnMut() -> u64) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// `BitmapAnomaly::push` ns per sample.
pub fn bitmap_push_ns_per_sample(cfg: &ExtractorConfig, samples: &[f64]) -> f64 {
    median_ns(|| {
        let mut det = BitmapAnomaly::new(cfg.anomaly_config());
        samples
            .iter()
            .map(|&x| det.push(x).to_bits())
            .fold(0, u64::wrapping_add)
    }) / samples.len() as f64
}

/// `MovingAverage::push` ns per sample, at the chain's window.
pub fn moving_average_ns_per_sample(cfg: &ExtractorConfig, samples: &[f64]) -> f64 {
    median_ns(|| {
        let mut ma = MovingAverage::new(cfg.ma_window);
        samples
            .iter()
            .map(|&x| ma.push(x).to_bits())
            .fold(0, u64::wrapping_add)
    }) / samples.len() as f64
}

/// `RealFft::magnitudes_into` ns per record, Welch-windowed as the
/// `spectrum` operator runs it.
pub fn realfft_mag_ns_per_record(cfg: &ExtractorConfig, samples: &[f64]) -> f64 {
    let n = cfg.record_len;
    let fft = RealFft::new(n);
    let window = WindowKind::Welch.coefficients(n);
    let mut out = vec![0.0; n];
    let mut scratch = vec![Complex64::ZERO; fft.scratch_len()];
    let records = samples.chunks_exact(n);
    let count = records.len();
    median_ns(|| {
        let mut acc = 0u64;
        for r in samples.chunks_exact(n) {
            fft.magnitudes_into(r, Some(&window), &mut out, &mut scratch);
            acc = acc.wrapping_add(out[1].to_bits());
        }
        acc
    }) / count as f64
}

/// Wire cost of `records` as v2 frames with `enc`: bytes per record,
/// encode ns per record and incremental-decode ns per record (fed in
/// 8 KiB chunks, as a server reads a socket).
pub fn codec(records: &[Record], enc: SampleEncoding) -> (f64, f64, f64) {
    let n = records.len() as f64;
    let bytes: Vec<u8> = records
        .iter()
        .flat_map(|r| encode_frame_v2(r, enc))
        .collect();
    let encode = median_ns(|| {
        records
            .iter()
            .map(|r| encode_frame_v2(r, enc).len() as u64)
            .sum()
    });
    let decode = median_ns(|| {
        let mut dec = Decoder::new();
        let mut events = Vec::new();
        let mut decoded = 0u64;
        for chunk in bytes.chunks(8 * 1024) {
            dec.feed(chunk, &mut events).expect("decode own frames");
            decoded += events.len() as u64;
            events.clear();
        }
        decoded
    });
    (bytes.len() as f64 / n, encode / n, decode / n)
}

/// Pairs of runs behind [`counters_ns_per_rec`]: the difference is a few
/// percent of a run, so it takes more pairs than a kernel.
const TELEMETRY_PAIRS: usize = 9;

/// Extra ns per input record of `TelemetryConfig::Counters` over `Off`
/// for the single-lane chain over `clips` (record streams): the median
/// over back-to-back `Off`/`Counters` pairs of their difference, so a
/// drift in host speed between pairs cancels.
pub fn counters_ns_per_rec(cfg: ExtractorConfig, clips: &[Vec<Record>]) -> f64 {
    let records: u64 = clips.iter().map(|c| c.len() as u64).sum();
    let run = |config: TelemetryConfig| -> f64 {
        let mut p = full_pipeline(cfg, true);
        p.set_telemetry(config);
        let mut sink = dynamic_river::CountingSink::default();
        let source =
            dynamic_river::source::ChainedSource::new(clips.iter().map(|c| c.iter().cloned()));
        let t = Instant::now();
        p.run_streaming(source, &mut sink).expect("telemetry run");
        t.elapsed().as_nanos() as f64
    };
    let diffs: Vec<f64> = (0..TELEMETRY_PAIRS)
        .map(|_| {
            let off = run(TelemetryConfig::Off);
            run(TelemetryConfig::Counters) - off
        })
        .collect();
    median(&diffs) / records as f64
}

/// Every audio sample of `records`, concatenated.
pub fn audio_samples(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Data)
        .filter_map(|r| match &r.payload {
            Payload::F64(v) => Some(v.to_vec()),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Drains a source into a vector.
pub fn collect(mut source: impl Source) -> Vec<Record> {
    let mut out = Vec::new();
    while let Some(r) = source.next_record().expect("benchmark source") {
        out.push(r);
    }
    out
}
