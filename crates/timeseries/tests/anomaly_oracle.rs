//! Differential oracle for the SAX-bitmap anomaly detector.
//!
//! `reference::BitmapAnomaly` is the sample-at-a-time detector as it
//! stood before the record kernel (`BitmapAnomaly::push_into`): a ring
//! indexed by `%`, every gram's cell index recomputed on each of its
//! four window moves, and the running sums updated through `self`. Its
//! body is kept verbatim, less two unused accessors; only the bitmap it
//! counts into is a local stand-in with the same index-level methods,
//! since the library's `SaxBitmap` no longer exposes raw cell reads.
//!
//! The bit-identity tests assert that the production detector's scores
//! equal the reference's bit for bit (`f64::to_bits`), over a
//! configuration sweep, non-finite inputs, a mid-stream reset and
//! arbitrary slicings of the stream into `push_into` calls.

use proptest::prelude::*;
use river_sax::anomaly::{AnomalyConfig, BitmapAnomaly, Normalization};

mod reference {
    use river_dsp::stats::{SlidingStats, Welford};
    use river_sax::anomaly::{AnomalyConfig, Normalization};
    use river_sax::gaussian::sax_breakpoints;
    use river_sax::sax::Symbol;
    use river_sax::znorm::znorm_value;

    /// The flattened n-gram counts the reference detector maintains:
    /// the index-level subset of `SaxBitmap`.
    #[derive(Debug, Clone)]
    struct SaxBitmap {
        counts: Vec<u64>,
        total: u64,
    }

    impl SaxBitmap {
        fn new(alphabet: usize, ngram: usize) -> Self {
            SaxBitmap {
                counts: vec![0; alphabet.pow(ngram as u32)],
                total: 0,
            }
        }

        fn total(&self) -> u64 {
            self.total
        }

        fn add_index(&mut self, idx: usize) -> u64 {
            let old = self.counts[idx];
            self.counts[idx] = old + 1;
            self.total += 1;
            old
        }

        fn remove_index(&mut self, idx: usize) -> u64 {
            let old = self.counts[idx];
            assert!(old > 0, "removing n-gram with zero count");
            self.counts[idx] = old - 1;
            self.total -= 1;
            old
        }

        fn count_at(&self, idx: usize) -> u64 {
            self.counts[idx]
        }

        fn clear(&mut self) {
            self.counts.fill(0);
            self.total = 0;
        }
    }

    /// Streaming lag/lead bitmap anomaly detector (reference).
    #[derive(Debug, Clone)]
    pub struct BitmapAnomaly {
        config: AnomalyConfig,
        breakpoints: Vec<f64>,
        /// Ring buffer of recent symbols; sized to cover both windows plus
        /// one evicting gram.
        ring: Vec<Symbol>,
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
            let ring_len = 2 * config.window + config.ngram;
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

        /// `true` once both windows are fully populated and scores are
        /// meaningful.
        pub fn warmed_up(&self) -> bool {
            self.t >= 2 * self.config.window as u64
        }

        #[inline]
        fn quantize(&self, z: f64) -> Symbol {
            self.breakpoints.partition_point(|&b| b <= z) as Symbol
        }

        #[inline]
        fn ring_get(&self, abs: u64) -> Symbol {
            self.ring[(abs % self.ring.len() as u64) as usize]
        }

        /// Flattened bitmap cell index of the n-gram starting at absolute
        /// position `start` — same row-major layout as
        /// [`SaxBitmap::index_of`], computed straight off the ring buffer
        /// with no intermediate gram slice.
        #[inline]
        fn gram_index_at(&self, start: u64) -> usize {
            let mut idx = 0usize;
            for i in 0..self.config.ngram as u64 {
                idx = idx * self.config.alphabet + self.ring_get(start + i) as usize;
            }
            idx
        }

        /// The gram starting at `start` enters the lead window.
        #[inline]
        fn lead_enter(&mut self, start: u64) {
            let idx = self.gram_index_at(start);
            let old = self.lead.add_index(idx);
            self.saa += 2 * old + 1;
            self.sab += self.lag.count_at(idx);
        }

        /// The gram starting at `start` leaves the lead window.
        #[inline]
        fn lead_leave(&mut self, start: u64) {
            let idx = self.gram_index_at(start);
            let old = self.lead.remove_index(idx);
            self.saa -= 2 * old - 1;
            self.sab -= self.lag.count_at(idx);
        }

        /// The gram starting at `start` enters the lag window.
        #[inline]
        fn lag_enter(&mut self, start: u64) {
            let idx = self.gram_index_at(start);
            let old = self.lag.add_index(idx);
            self.sbb += 2 * old + 1;
            self.sab += self.lead.count_at(idx);
        }

        /// The gram starting at `start` leaves the lag window.
        #[inline]
        fn lag_leave(&mut self, start: u64) {
            let idx = self.gram_index_at(start);
            let old = self.lag.remove_index(idx);
            self.sbb -= 2 * old - 1;
            self.sab -= self.lead.count_at(idx);
        }

        /// Consumes one sample and returns the current anomaly score
        /// (`0.0` until warm-up completes).
        pub fn push(&mut self, x: f64) -> f64 {
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
            let symbol = self.quantize(znorm_value(x, mean, std));

            let t = self.t; // absolute index of this sample
            let w = self.config.window as u64;
            let n = self.config.ngram as u64;
            let ring_len = self.ring.len() as u64;
            self.ring[(t % ring_len) as usize] = symbol;

            // Newest gram (ending at t) enters the lead window.
            if t + 1 >= n {
                self.lead_enter(t + 1 - n);
            }
            // The gram starting at t-w slides out of the lead window.
            if t >= w {
                self.lead_leave(t - w);
                // It is now fully inside the lag window once its end crosses
                // the boundary: gram starting at t-w-n+1 enters lag.
                if t + 1 >= w + n {
                    self.lag_enter(t + 1 - w - n);
                }
            }
            // The gram starting at t-2w slides out of the lag window.
            if t >= 2 * w {
                self.lag_leave(t - 2 * w);
            }

            self.t += 1;
            if self.warmed_up() {
                // Same Euclidean distance as `SaxBitmap::distance`, from the
                // O(1)-maintained exact sums; clamp tiny negative rounding
                // residue when the matrices are (near-)identical.
                let ta = self.lead.total().max(1) as f64;
                let tb = self.lag.total().max(1) as f64;
                let d2 = self.saa as f64 / (ta * ta) - 2.0 * self.sab as f64 / (ta * tb)
                    + self.sbb as f64 / (tb * tb);
                d2.max(0.0).sqrt()
            } else {
                0.0
            }
        }

        /// Resets all stream state (windows, counters and normalization).
        pub fn reset(&mut self) {
            self.ring.fill(0);
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
}

/// Deterministic test stream: xorshift noise with periodic tonal
/// events and level shifts, so both windows see quiet and structured
/// stretches.
fn stream(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1;
            let event = if i % 613 < 90 {
                (i as f64 * 0.37).sin() * 2.0
            } else {
                0.0
            };
            let level = if i % 1_500 > 1_200 { 0.4 } else { 0.0 };
            noise + event + level
        })
        .collect()
}

/// Reference scores for `xs`, one `push` per sample.
fn reference_scores(cfg: AnomalyConfig, xs: &[f64]) -> Vec<u64> {
    let mut det = reference::BitmapAnomaly::new(cfg);
    xs.iter().map(|&x| det.push(x).to_bits()).collect()
}

/// Production scores for `xs`, fed to `push_into` in slices of the
/// given lengths (cycled until the stream is consumed; a zero length is
/// an empty call).
fn kernel_scores(cfg: AnomalyConfig, xs: &[f64], chunks: &[usize]) -> Vec<u64> {
    let mut det = BitmapAnomaly::new(cfg);
    let mut out = vec![f64::NAN; xs.len()];
    let mut pos = 0;
    for &len in chunks.iter().cycle() {
        if pos == xs.len() {
            break;
        }
        let end = (pos + len).min(xs.len());
        det.push_into(&xs[pos..end], &mut out[pos..end]);
        pos = end;
    }
    assert_eq!(det.samples_seen(), xs.len() as u64);
    out.iter().map(|s| s.to_bits()).collect()
}

/// Asserts bit-identical scores, naming the first differing sample.
fn assert_bits_eq(expected: &[u64], actual: &[u64], what: &str) {
    assert_eq!(expected.len(), actual.len(), "{what}: length");
    if let Some(i) = (0..expected.len()).find(|&i| expected[i] != actual[i]) {
        panic!(
            "{what}: sample {i}: reference {} vs kernel {}",
            f64::from_bits(expected[i]),
            f64::from_bits(actual[i])
        );
    }
}

/// Slicings exercised for every configuration: whole stream, single
/// samples, 840-sample records, and an irregular cycle with empty and
/// one-sample calls.
const CHUNKINGS: [&[usize]; 4] = [&[usize::MAX], &[1], &[840], &[0, 1, 7, 0, 130, 1, 2, 511]];

#[test]
fn config_sweep_matches_reference_bit_for_bit() {
    let xs = stream(2_000, 11);
    for window in [1usize, 2, 3, 50, 100, 127, 200] {
        for alphabet in [2usize, 3, 8, 16, 256] {
            for ngram in 1..=3usize.min(window) {
                // 256³ cells is 128 MiB per bitmap; the kernel's cell
                // arithmetic is the same at 256² and 16³.
                if alphabet == 256 && ngram == 3 {
                    continue;
                }
                for normalization in [
                    Normalization::Global,
                    Normalization::Sliding(5),
                    Normalization::Sliding(300),
                ] {
                    let cfg = AnomalyConfig {
                        window,
                        alphabet,
                        ngram,
                        normalization,
                    };
                    let expected = reference_scores(cfg, &xs);
                    for chunks in CHUNKINGS {
                        let what = format!("{cfg:?} chunks {chunks:?}");
                        assert_bits_eq(&expected, &kernel_scores(cfg, &xs, chunks), &what);
                    }
                }
            }
        }
    }
}

#[test]
fn paper_config_matches_reference_over_a_long_stream() {
    let cfg = AnomalyConfig::default();
    let xs = stream(200_000, 3);
    let expected = reference_scores(cfg, &xs);
    assert_bits_eq(&expected, &kernel_scores(cfg, &xs, &[840]), "records");
    assert_bits_eq(&expected, &kernel_scores(cfg, &xs, &[1]), "samples");
}

#[test]
fn non_finite_inputs_match_reference() {
    for normalization in [Normalization::Global, Normalization::Sliding(64)] {
        let cfg = AnomalyConfig {
            window: 20,
            alphabet: 5,
            ngram: 2,
            normalization,
        };
        let mut xs = stream(1_500, 5);
        for (i, bad) in [
            (100, f64::NAN),
            (400, f64::INFINITY),
            (401, f64::NEG_INFINITY),
            (900, f64::NAN),
            (1_200, f64::INFINITY),
        ] {
            xs[i] = bad;
        }
        let expected = reference_scores(cfg, &xs);
        for chunks in CHUNKINGS {
            let what = format!("{normalization:?} chunks {chunks:?}");
            assert_bits_eq(&expected, &kernel_scores(cfg, &xs, chunks), &what);
        }
    }
}

#[test]
fn mid_stream_reset_matches_reference() {
    for normalization in [Normalization::Global, Normalization::Sliding(40)] {
        let cfg = AnomalyConfig {
            window: 30,
            alphabet: 8,
            ngram: 3,
            normalization,
        };
        let xs = stream(1_000, 9);
        let (head, tail) = xs.split_at(437);

        let mut reference = reference::BitmapAnomaly::new(cfg);
        let mut expected: Vec<u64> = head.iter().map(|&x| reference.push(x).to_bits()).collect();
        reference.reset();
        expected.extend(tail.iter().map(|&x| reference.push(x).to_bits()));

        let mut det = BitmapAnomaly::new(cfg);
        let mut out = vec![0.0; xs.len()];
        let (out_head, out_tail) = out.split_at_mut(437);
        det.push_into(head, out_head);
        det.reset();
        for (x, o) in tail.chunks(100).zip(out_tail.chunks_mut(100)) {
            det.push_into(x, o);
        }
        let actual: Vec<u64> = out.iter().map(|s| s.to_bits()).collect();
        assert_bits_eq(&expected, &actual, &format!("{normalization:?}"));
    }
}

#[test]
#[should_panic(expected = "lengths differ")]
fn push_into_rejects_mismatched_lengths() {
    BitmapAnomaly::new(AnomalyConfig::default()).push_into(&[0.0; 4], &mut [0.0; 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any slicing of any stream scores bit-identically to the
    /// reference.
    #[test]
    fn random_chunkings_match_reference(
        xs in prop::collection::vec(-5.0f64..5.0, 0..1_200),
        chunks in prop::collection::vec(0usize..97, 1..24),
        window in 1usize..40,
        alphabet in 2usize..12,
        ngram in 1usize..4,
        sliding in 0usize..50,
    ) {
        let cfg = AnomalyConfig {
            window,
            alphabet,
            ngram: ngram.min(window),
            normalization: if sliding == 0 {
                Normalization::Global
            } else {
                Normalization::Sliding(sliding)
            },
        };
        // An all-empty cycle would never advance.
        let mut chunks = chunks;
        chunks.push(1);
        let expected = reference_scores(cfg, &xs);
        prop_assert_eq!(expected, kernel_scores(cfg, &xs, &chunks));
    }
}
