//! Steady-state allocation guard for the Figure 5 hot path.
//!
//! The fused `spectrum` operator and the SAX anomaly detector carry the
//! per-record cost of the Figure 5 pipeline, and both were built to run
//! allocation-free once warm: `RealFft::magnitudes_into` writes into
//! caller-provided output and scratch buffers, and the detector's record
//! kernel `BitmapAnomaly::push_into` updates ring buffers and running
//! sums in place (DESIGN.md §14). This test pins that property with a
//! counting `#[global_allocator]`: after a warm-up pass, a sustained run
//! of both kernels must perform **zero** heap allocations.
//!
//! The telemetry layer rides in the same measured window:
//! [`StageTimer::record`] is pure atomics, and [`EventLog`] pushes are
//! alloc-free once the preallocated ring has reached capacity — so a
//! pipeline running with telemetry enabled keeps the steady-state
//! zero-allocation property.
//!
//! The whole `saxanomaly` → `trigger` operator pair is measured too: in
//! steady state it allocates exactly once per emitted payload — the
//! score record's and the trigger record's buffers — and nothing else
//! per audio record.
//!
//! The counter wraps the system allocator, so the whole test binary
//! shares it; the assertion brackets only the measured section, and the
//! file holds a single `#[test]` so no concurrent test can allocate in
//! the measured window.

use dynamic_river::telemetry::{EventKind, EventLog, StageTimer};
use dynamic_river::{Operator, Payload, Record};
use ensemble_core::ops::{SaxAnomaly, TriggerOp};
use ensemble_core::{subtype, ExtractorConfig};
use river_dsp::complex::Complex64;
use river_dsp::fft::RealFft;
use river_dsp::window::WindowKind;
use river_sax::{AnomalyConfig, BitmapAnomaly};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no other effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_spectral_kernels_do_not_allocate() {
    // Figure 5 geometry: 840-sample records at 20 160 Hz.
    let n = 840;
    let plan = RealFft::new(n);
    let window = WindowKind::Welch.coefficients(n);
    let samples: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut mags = vec![0.0; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    let mut detector = BitmapAnomaly::new(AnomalyConfig::default());
    let mut scores = vec![0.0; n];
    let timer = StageTimer::new();
    let events = EventLog::new(64);

    // Warm-up: let the detector fill its ring/windows and both kernels
    // touch every buffer they will ever need; the event ring is pushed
    // past capacity so steady-state pushes only evict, never grow.
    let mut acc = 0.0;
    for round in 0..4 {
        plan.magnitudes_into(&samples, Some(&window), &mut mags, &mut scratch);
        for &m in &mags {
            acc += detector.push(m + f64::from(round));
        }
        detector.push_into(&mags, &mut scores);
    }
    for i in 0..96 {
        events.push(EventKind::ScopeOpen, 0, i);
    }

    // Steady state: many records' worth of work — with telemetry
    // recording alongside — and zero allocations.
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..32u32 {
        plan.magnitudes_into(&samples, Some(&window), &mut mags, &mut scratch);
        for &m in &mags {
            acc += detector.push(m * (1.0 + f64::from(round) * 1e-3));
        }
        detector.push_into(&mags, &mut scores);
        acc += scores.iter().sum::<f64>();
        timer.record(u64::from(round) * 100 + 1);
        events.push(EventKind::TriggerFire, 0, u64::from(round));
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert!(acc.is_finite(), "kernels produced non-finite output");
    assert_eq!(timer.histogram().count, 32);
    assert_eq!(events.len(), 64, "ring should sit exactly at capacity");
    assert_eq!(
        after - before,
        0,
        "spectral hot path allocated in steady state"
    );

    // The operator pair, fed 840-sample audio records. The input
    // records and both sinks are built before the measured window.
    let cfg = ExtractorConfig::default();
    let audio: Vec<Record> = (0..8)
        .map(|r| {
            let clip: Vec<f64> = (0..cfg.record_len)
                .map(|i| ((r * cfg.record_len + i) as f64 * 0.37).sin() * (1.0 + r as f64))
                .collect();
            Record::data(subtype::AUDIO, Payload::f64(clip))
        })
        .collect();
    let mut sax = SaxAnomaly::new(cfg);
    let mut trigger = TriggerOp::new(cfg);
    let mut mid: Vec<Record> = Vec::with_capacity(4);
    let mut out: Vec<Record> = Vec::with_capacity(4);
    let mut feed = |record: &Record| {
        sax.on_record(record.clone(), &mut mid).unwrap();
        for r in mid.drain(..) {
            trigger.on_record(r, &mut out).unwrap();
        }
        assert_eq!(out.len(), 2, "audio and trigger records");
        out.clear();
    };
    for record in audio.iter().cycle().take(32) {
        feed(record);
    }
    let rounds = 64;
    let before = ALLOCS.load(Ordering::Relaxed);
    for record in audio.iter().cycle().take(rounds) {
        feed(record);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        2 * rounds as u64,
        "saxanomaly + trigger must allocate once per emitted payload"
    );
}
