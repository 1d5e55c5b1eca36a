//! Ablation bench for the streaming SAX-bitmap anomaly detector:
//! throughput vs window size, alphabet size and n-gram level — the §3
//! parameter choices (window 100, alphabet 8). Those groups call the
//! one-sample `push` wrapper; `record/push_into_840` feeds the paper
//! configuration one 840-sample audio record per `push_into` call, the
//! shape the `saxanomaly` operator uses (compare `window/100`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use river_sax::anomaly::{AnomalyConfig, BitmapAnomaly, Normalization};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.05).sin() * 0.1 + ((i * 2654435761) % 997) as f64 * 1e-5)
        .collect()
}

fn bench_window(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/window");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for window in [50usize, 100, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    window: w,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_alphabet(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/alphabet");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for alphabet in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(alphabet), &alphabet, |b, &a| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    alphabet: a,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_ngram(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/ngram");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for ngram in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(ngram), &ngram, |b, &n| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    ngram: n,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_normalization(c: &mut Criterion) {
    let samples = signal(50_000);
    let mut group = c.benchmark_group("sax_anomaly/normalization");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    for (name, norm) in [
        ("global", Normalization::Global),
        ("sliding8400", Normalization::Sliding(8_400)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &norm, |b, &n| {
            b.iter(|| {
                let mut det = BitmapAnomaly::new(AnomalyConfig {
                    normalization: n,
                    ..AnomalyConfig::default()
                });
                let mut acc = 0.0;
                for &x in &samples {
                    acc += det.push(x);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

fn bench_record(c: &mut Criterion) {
    // 60 whole records, about the 50 000 samples of the other groups.
    let samples = signal(50_400);
    let mut group = c.benchmark_group("sax_anomaly/record");
    group.sample_size(20);
    group.throughput(Throughput::Elements(samples.len() as u64));
    group.bench_function("push_into_840", |b| {
        let mut scores = vec![0.0; 840];
        b.iter(|| {
            let mut det = BitmapAnomaly::new(AnomalyConfig::default());
            let mut acc = 0.0;
            for record in samples.chunks_exact(840) {
                det.push_into(record, &mut scores);
                acc += scores[839];
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_record,
    bench_window,
    bench_alphabet,
    bench_ngram,
    bench_normalization
);
criterion_main!(benches);
