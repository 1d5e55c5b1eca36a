//! Streaming SAX-bitmap anomaly scoring — the algorithm inside the
//! paper's `saxanomaly` operator.
//!
//! Two adjacent windows of SAX symbols slide over the stream: a *lag*
//! window (older history) and a *lead* window (the most recent samples).
//! Each window maintains an n-gram count matrix ([`SaxBitmap`]); the
//! anomaly score at time `t` is the Euclidean distance between the two
//! frequency matrices. "The SAX anomaly window size specifies the number
//! of samples to use for constructing each concatenated matrix" (§3); the
//! paper's acoustic experiments use window 100 and alphabet 8.
//!
//! The detector is single-scan with O(1) work per sample and no
//! per-sample allocation: bitmap maintenance touches at most four cells,
//! and the Euclidean distance is maintained incrementally from exact
//! integer running sums (Σa², Σb², Σa·b) rather than re-scanning all
//! alphabetⁿ cells — satisfying the paper's requirement of "processor
//! and memory efficient techniques" (§5).
//!
//! # The record kernel
//!
//! [`BitmapAnomaly::push_into`] is the detector's only code path; it
//! scores a whole slice (the `saxanomaly` operator passes one 840-sample
//! audio record per call) and [`BitmapAnomaly::push`] is its one-sample
//! wrapper. Per sample it normalizes, quantizes, and moves four grams
//! across the window edges — the newest gram enters the lead window,
//! one leaves it for the lag window, and the oldest leaves the lag
//! window. Three things keep that cheap:
//!
//! - the symbol ring is sized to a power of two and indexed by mask, so
//!   no ring access pays an integer `%`;
//! - each gram's flattened cell index is computed once, when its last
//!   symbol arrives, into a parallel `u32` ring; the three later window
//!   moves of that gram read the cached index;
//! - the running sums, both bitmap totals and the sample clock live in
//!   locals for the whole call and are written back once at its end.
//!
//! The sums are exact integers, so none of this changes a score: the
//! f64 distance expression is evaluated with the same operands in the
//! same order as a sample-at-a-time detector would, and every score is
//! bit-identical however the stream is split into calls.

use crate::bitmap::SaxBitmap;
use crate::gaussian::sax_breakpoints;
use crate::sax::Symbol;
use crate::znorm::znorm_value;
use river_dsp::stats::{SlidingStats, Welford};

/// How incoming samples are Z-normalized before symbol quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Normalization {
    /// Incrementally estimated mean/σ over the whole stream so far
    /// (Welford). Stable for stationary noise floors; the default.
    #[default]
    Global,
    /// Mean/σ over a trailing window of the given size. Adapts to slow
    /// drift (e.g. changing wind levels) at the cost of partially
    /// normalizing away long events.
    Sliding(usize),
}

/// Configuration for [`BitmapAnomaly`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Samples per bitmap window (the paper's "SAX anomaly window size";
    /// 100 in its experiments).
    pub window: usize,
    /// SAX alphabet size (8 in the paper's experiments).
    pub alphabet: usize,
    /// Bitmap subsequence length (1–3 per Kumar et al.; 2 by default).
    pub ngram: usize,
    /// Sample normalization mode.
    pub normalization: Normalization,
}

impl Default for AnomalyConfig {
    /// The paper's acoustic-pipeline parameters: window 100, alphabet 8,
    /// bigram bitmaps, global normalization.
    fn default() -> Self {
        AnomalyConfig {
            window: 100,
            alphabet: 8,
            ngram: 2,
            normalization: Normalization::Global,
        }
    }
}

/// Streaming lag/lead bitmap anomaly detector.
///
/// # Example
///
/// ```
/// use river_sax::anomaly::{AnomalyConfig, BitmapAnomaly};
///
/// let mut det = BitmapAnomaly::new(AnomalyConfig::default());
/// let mut max_score: f64 = 0.0;
/// for i in 0..5_000 {
///     let noise = ((i * 2654435761_usize % 1000) as f64 / 1000.0 - 0.5) * 0.02;
///     let event = if i > 3_000 { ((i as f64) * 0.9).sin() } else { 0.0 };
///     max_score = max_score.max(det.push(noise + event));
/// }
/// assert!(max_score > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BitmapAnomaly {
    config: AnomalyConfig,
    breakpoints: Vec<f64>,
    /// Ring buffer of recent symbols, indexed by absolute sample
    /// position masked to its length: the power of two at or above
    /// `2·window + ngram`, which covers both windows plus one evicting
    /// gram.
    ring: Vec<Symbol>,
    /// Flattened bitmap cell of the gram starting at each position,
    /// parallel to `ring`: written once when the gram's last symbol
    /// arrives, read when the gram later leaves the lead window, enters
    /// the lag window and leaves it.
    cells: Vec<u32>,
    /// Samples consumed so far.
    t: u64,
    lead: SaxBitmap,
    lag: SaxBitmap,
    /// Exact running sums over all cells — Σ lead², Σ lag², and
    /// Σ lead·lag of the raw counts. Counts are bounded by the window
    /// size, so these stay exact in u64, and together they give the
    /// Euclidean distance between the two frequency matrices in O(1):
    /// d² = Σ(a/ta − b/tb)² = Saa/ta² − 2·Sab/(ta·tb) + Sbb/tb².
    saa: u64,
    sbb: u64,
    sab: u64,
    global_stats: Welford,
    sliding_stats: Option<SlidingStats>,
}

impl BitmapAnomaly {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `ngram == 0`, `ngram > window`, or the
    /// alphabet is outside `2..=256`.
    pub fn new(config: AnomalyConfig) -> Self {
        assert!(config.window > 0, "window must be non-zero");
        assert!(
            (2..=256).contains(&config.alphabet),
            "alphabet must be in 2..=256"
        );
        assert!(
            config.ngram >= 1 && config.ngram <= config.window,
            "ngram must be in 1..=window"
        );
        let ring_len = (2 * config.window + config.ngram).next_power_of_two();
        let sliding_stats = match config.normalization {
            Normalization::Sliding(w) => {
                assert!(w > 0, "sliding normalization window must be non-zero");
                Some(SlidingStats::new(w))
            }
            Normalization::Global => None,
        };
        BitmapAnomaly {
            breakpoints: sax_breakpoints(config.alphabet),
            ring: vec![0; ring_len],
            cells: vec![0; ring_len],
            t: 0,
            lead: SaxBitmap::new(config.alphabet, config.ngram),
            lag: SaxBitmap::new(config.alphabet, config.ngram),
            saa: 0,
            sbb: 0,
            sab: 0,
            global_stats: Welford::new(),
            sliding_stats,
            config,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &AnomalyConfig {
        &self.config
    }

    /// Number of samples consumed.
    pub fn samples_seen(&self) -> u64 {
        self.t
    }

    /// `true` once both windows are fully populated and scores are
    /// meaningful.
    pub fn warmed_up(&self) -> bool {
        self.t >= 2 * self.config.window as u64
    }

    /// Consumes one sample and returns the current anomaly score
    /// (`0.0` until warm-up completes). A one-sample
    /// [`push_into`](Self::push_into).
    pub fn push(&mut self, x: f64) -> f64 {
        let mut score = [0.0];
        self.push_into(&[x], &mut score);
        score[0]
    }

    /// Consumes every sample of `xs` in order, writing the anomaly score
    /// after each one to the same position of `out` (`0.0` until warm-up
    /// completes). Scores are bit-identical to pushing the samples one
    /// at a time, whatever the slicing of the stream into calls.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn push_into(&mut self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "push_into: input and output lengths differ"
        );
        let w = self.config.window as u64;
        let n = self.config.ngram as u64;
        let alphabet = self.config.alphabet;
        let mask = self.ring.len() as u64 - 1;
        let breakpoints = &self.breakpoints[..];
        let ring = &mut self.ring[..];
        let cells = &mut self.cells[..];
        let (lead, lead_total) = self.lead.counts_and_total_mut();
        let (lag, lag_total) = self.lag.counts_and_total_mut();
        let (mut ta, mut tb) = (*lead_total, *lag_total);
        let (mut saa, mut sbb, mut sab) = (self.saa, self.sbb, self.sab);
        let mut t = self.t;

        for (&x, score) in xs.iter().zip(out.iter_mut()) {
            let (mean, std) = if let Some(s) = &mut self.sliding_stats {
                s.push(x);
                (s.mean(), s.population_std_dev())
            } else {
                self.global_stats.push(x);
                (
                    self.global_stats.mean(),
                    self.global_stats.population_std_dev(),
                )
            };
            let z = znorm_value(x, mean, std);
            ring[(t & mask) as usize] = breakpoints.partition_point(|&b| b <= z) as Symbol;

            // Newest gram (ending at t) enters the lead window; its cell
            // is cached for the three later moves.
            if t + 1 >= n {
                let start = t + 1 - n;
                let mut idx = 0usize;
                for i in start..=t {
                    idx = idx * alphabet + ring[(i & mask) as usize] as usize;
                }
                cells[(start & mask) as usize] = idx as u32;
                enter(lead, lag, idx, &mut ta, &mut saa, &mut sab);
            }
            // The gram starting at t-w slides out of the lead window.
            if t >= w {
                let idx = cells[((t - w) & mask) as usize] as usize;
                leave(lead, lag, idx, &mut ta, &mut saa, &mut sab);
                // It is now fully inside the lag window once its end
                // crosses the boundary: gram starting at t-w-n+1 enters
                // lag.
                if t + 1 >= w + n {
                    let idx = cells[((t + 1 - w - n) & mask) as usize] as usize;
                    enter(lag, lead, idx, &mut tb, &mut sbb, &mut sab);
                }
            }
            // The gram starting at t-2w slides out of the lag window.
            if t >= 2 * w {
                let idx = cells[((t - 2 * w) & mask) as usize] as usize;
                leave(lag, lead, idx, &mut tb, &mut sbb, &mut sab);
            }

            t += 1;
            *score = if t >= 2 * w {
                // Same Euclidean distance as `SaxBitmap::distance`, from
                // the O(1)-maintained exact sums; clamp tiny negative
                // rounding residue when the matrices are
                // (near-)identical.
                let ta = ta.max(1) as f64;
                let tb = tb.max(1) as f64;
                let d2 =
                    saa as f64 / (ta * ta) - 2.0 * sab as f64 / (ta * tb) + sbb as f64 / (tb * tb);
                d2.max(0.0).sqrt()
            } else {
                0.0
            };
        }

        *lead_total = ta;
        *lag_total = tb;
        self.saa = saa;
        self.sbb = sbb;
        self.sab = sab;
        self.t = t;
    }

    /// Resets all stream state (windows, counters and normalization).
    pub fn reset(&mut self) {
        self.ring.fill(0);
        self.cells.fill(0);
        self.t = 0;
        self.lead.clear();
        self.lag.clear();
        self.saa = 0;
        self.sbb = 0;
        self.sab = 0;
        self.global_stats.reset();
        if let Some(s) = &mut self.sliding_stats {
            s.clear();
        }
    }
}

/// A gram with cell `idx` enters one window: bumps its count and total
/// and updates that window's square sum (Σa² gains 2·old + 1) and the
/// cross sum against the `other` window's counts.
#[inline]
fn enter(
    counts: &mut [u64],
    other: &[u64],
    idx: usize,
    total: &mut u64,
    square: &mut u64,
    cross: &mut u64,
) {
    let old = counts[idx];
    counts[idx] = old + 1;
    *total += 1;
    *square += 2 * old + 1;
    *cross += other[idx];
}

/// A gram with cell `idx` leaves one window: the inverse of [`enter`].
///
/// # Panics
///
/// Panics if the cell's count is already zero — the window bookkeeping
/// would be corrupted.
#[inline]
fn leave(
    counts: &mut [u64],
    other: &[u64],
    idx: usize,
    total: &mut u64,
    square: &mut u64,
    cross: &mut u64,
) {
    let old = counts[idx];
    assert!(old > 0, "removing n-gram with zero count");
    counts[idx] = old - 1;
    *total -= 1;
    *square -= 2 * old - 1;
    *cross -= other[idx];
}

/// Batch helper: anomaly score for every sample of `series` under
/// `config` (single scan, same output as feeding [`BitmapAnomaly`]
/// sample by sample).
pub fn anomaly_scores(series: &[f64], config: AnomalyConfig) -> Vec<f64> {
    let mut scores = vec![0.0; series.len()];
    BitmapAnomaly::new(config).push_into(series, &mut scores);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(i: usize) -> f64 {
        // Deterministic pseudo-noise in [-0.05, 0.05].
        (((i.wrapping_mul(2654435761)) % 10_000) as f64 / 10_000.0 - 0.5) * 0.1
    }

    fn small_cfg() -> AnomalyConfig {
        AnomalyConfig {
            window: 50,
            alphabet: 6,
            ngram: 2,
            normalization: Normalization::Global,
        }
    }

    #[test]
    fn warmup_scores_are_zero() {
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        // The first 2*window - 1 samples cannot fill both windows.
        for i in 0..(2 * cfg.window - 1) {
            let s = det.push(noise(i));
            assert_eq!(s, 0.0, "sample {i} before warm-up");
        }
        assert!(!det.warmed_up());
        det.push(noise(2 * cfg.window));
        assert!(det.warmed_up());
    }

    #[test]
    fn stationary_noise_scores_low_event_scores_high() {
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        let mut quiet_max: f64 = 0.0;
        // Long stationary stretch.
        for i in 0..3_000 {
            let s = det.push(noise(i));
            if i > 1_000 {
                quiet_max = quiet_max.max(s);
            }
        }
        // Structured loud event: a tone sweep.
        let mut event_max: f64 = 0.0;
        for i in 0..500 {
            let x = (i as f64 * 0.35).sin() * 2.0;
            event_max = event_max.max(det.push(x + noise(i)));
        }
        assert!(
            event_max > 2.0 * quiet_max,
            "event {event_max} vs quiet {quiet_max}"
        );
    }

    #[test]
    fn score_falls_after_event_ends() {
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..2_000 {
            det.push(noise(i));
        }
        let mut during: f64 = 0.0;
        for i in 0..400 {
            during = during.max(det.push((i as f64 * 0.5).sin() * 3.0));
        }
        // Return to noise; after both windows re-fill with noise the score
        // must come back down.
        let mut tail = 0.0f64;
        for i in 0..2_000 {
            let s = det.push(noise(i + 7));
            if i > 500 {
                tail = tail.max(s);
            }
        }
        assert!(tail < during / 2.0, "tail {tail} vs during {during}");
    }

    #[test]
    fn incremental_distance_matches_full_recompute() {
        // The O(1) running-sum score must agree with a from-scratch
        // Euclidean distance over the full matrices at every step,
        // through warm-up, events, and recovery.
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..3_000usize {
            let x = noise(i)
                + if i % 700 < 80 {
                    (i as f64 * 0.4).sin() * 2.0
                } else {
                    0.0
                };
            let s = det.push(x);
            if det.warmed_up() {
                let full = det.lead.distance(&det.lag);
                assert!(
                    (s - full).abs() <= 1e-12 * full.max(1.0),
                    "sample {i}: incremental {s} vs full {full}"
                );
            } else {
                assert_eq!(s, 0.0);
            }
        }
    }

    #[test]
    fn batch_matches_streaming() {
        let cfg = small_cfg();
        let series: Vec<f64> = (0..1_000)
            .map(|i| noise(i) + if i > 600 { (i as f64 * 0.4).sin() } else { 0.0 })
            .collect();
        let batch = anomaly_scores(&series, cfg);
        let mut det = BitmapAnomaly::new(cfg);
        let streamed: Vec<f64> = series.iter().map(|&x| det.push(x)).collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let cfg = small_cfg();
        let series: Vec<f64> = (0..500).map(noise).collect();
        let mut det = BitmapAnomaly::new(cfg);
        let first: Vec<f64> = series.iter().map(|&x| det.push(x)).collect();
        det.reset();
        let second: Vec<f64> = series.iter().map(|&x| det.push(x)).collect();
        assert_eq!(first, second);
        assert_eq!(det.samples_seen(), 500);
    }

    #[test]
    fn sliding_normalization_mode_works() {
        let cfg = AnomalyConfig {
            normalization: Normalization::Sliding(200),
            ..small_cfg()
        };
        let mut det = BitmapAnomaly::new(cfg);
        let mut max: f64 = 0.0;
        for i in 0..2_000 {
            let x = noise(i)
                + if i > 1_500 {
                    (i as f64 * 0.45).sin()
                } else {
                    0.0
                };
            max = max.max(det.push(x));
        }
        assert!(max > 0.0);
    }

    #[test]
    fn scores_are_bounded_by_sqrt_two() {
        // Frequencies are probability vectors, so the distance can never
        // exceed sqrt(2).
        let cfg = small_cfg();
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..5_000 {
            let x = if i % 997 < 100 { 5.0 } else { noise(i) };
            let s = det.push(x);
            assert!(s <= std::f64::consts::SQRT_2 + 1e-12, "score {s}");
        }
    }

    #[test]
    fn trigram_bitmaps_supported() {
        let cfg = AnomalyConfig {
            ngram: 3,
            ..small_cfg()
        };
        let mut det = BitmapAnomaly::new(cfg);
        for i in 0..1_000 {
            det.push(noise(i));
        }
        assert!(det.warmed_up());
    }

    #[test]
    fn unigram_bitmaps_supported() {
        let cfg = AnomalyConfig {
            ngram: 1,
            ..small_cfg()
        };
        let scores = anomaly_scores(&(0..500).map(noise).collect::<Vec<_>>(), cfg);
        assert_eq!(scores.len(), 500);
    }

    #[test]
    fn paper_defaults() {
        let cfg = AnomalyConfig::default();
        assert_eq!(cfg.window, 100);
        assert_eq!(cfg.alphabet, 8);
    }

    #[test]
    #[should_panic(expected = "ngram must be in")]
    fn rejects_ngram_larger_than_window() {
        BitmapAnomaly::new(AnomalyConfig {
            window: 2,
            ngram: 3,
            ..AnomalyConfig::default()
        });
    }
}
