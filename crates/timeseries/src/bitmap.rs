//! SAX bitmaps (time-series bitmaps, Kumar et al. 2005).
//!
//! A bitmap counts occurrences of symbolic subsequences of length `n`
//! (1, 2 or 3 symbols) in an `n`-dimensional matrix; "each cell contains
//! the frequency with which the corresponding subsequence occurs.
//! Frequencies are computed by dividing the subsequence count by the
//! total number of subsequences. An anomaly score can be computed by
//! comparing two concatenated bitmap matrices using Euclidean distance"
//! (paper §2).
//!
//! [`SaxBitmap`] supports O(1) incremental insertion *and removal* of
//! n-grams, which is what makes the single-scan streaming detector in
//! [`crate::anomaly`] possible.

use crate::sax::Symbol;

/// An n-gram count matrix over a SAX alphabet.
///
/// The matrix is flattened: an n-gram `(s₁, …, sₙ)` indexes cell
/// `s₁·aⁿ⁻¹ + … + sₙ`.
///
/// # Example
///
/// ```
/// use river_sax::SaxBitmap;
///
/// let mut bm = SaxBitmap::new(4, 2);
/// bm.count_sequence(&[0, 1, 2, 3]);   // bigrams: (0,1), (1,2), (2,3)
/// assert_eq!(bm.total(), 3);
/// assert!((bm.frequency(&[0, 1]) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SaxBitmap {
    alphabet: usize,
    ngram: usize,
    counts: Vec<u64>,
    total: u64,
}

impl SaxBitmap {
    /// Creates an empty bitmap for `alphabet` symbols and subsequences of
    /// `ngram` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet < 2`, `ngram == 0`, or the matrix would exceed
    /// 2²⁴ cells (e.g. alphabet 256 with ngram 3).
    pub fn new(alphabet: usize, ngram: usize) -> Self {
        assert!(alphabet >= 2, "alphabet must be at least 2");
        assert!(ngram >= 1, "ngram must be at least 1");
        let cells = alphabet
            .checked_pow(ngram as u32)
            .filter(|&c| c <= 1 << 24)
            .expect("bitmap too large: alphabet^ngram must be <= 2^24");
        SaxBitmap {
            alphabet,
            ngram,
            counts: vec![0; cells],
            total: 0,
        }
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Subsequence length counted by this bitmap.
    pub fn ngram(&self) -> usize {
        self.ngram
    }

    /// Number of matrix cells (`alphabet ^ ngram`).
    pub fn cells(&self) -> usize {
        self.counts.len()
    }

    /// Total number of n-grams counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Flattened index of an n-gram.
    ///
    /// # Panics
    ///
    /// Panics if `gram.len() != self.ngram()` or any symbol is out of
    /// range.
    #[inline]
    pub fn index_of(&self, gram: &[Symbol]) -> usize {
        assert_eq!(gram.len(), self.ngram, "gram length must equal ngram");
        let mut idx = 0usize;
        for &s in gram {
            let s = s as usize;
            assert!(s < self.alphabet, "symbol {s} out of alphabet range");
            idx = idx * self.alphabet + s;
        }
        idx
    }

    /// Increments the count for one n-gram.
    #[inline]
    pub fn add(&mut self, gram: &[Symbol]) {
        let idx = self.index_of(gram);
        self.add_index(idx);
    }

    /// Decrements the count for one n-gram (streaming window eviction).
    ///
    /// # Panics
    ///
    /// Panics if the n-gram's count is already zero — that indicates the
    /// caller's window bookkeeping is corrupted.
    #[inline]
    pub fn remove(&mut self, gram: &[Symbol]) {
        let idx = self.index_of(gram);
        self.remove_index(idx);
    }

    /// Increments the count at a flattened cell index (see
    /// [`index_of`](Self::index_of)), returning the count *before* the
    /// increment.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.cells()`.
    #[inline]
    pub fn add_index(&mut self, idx: usize) -> u64 {
        let old = self.counts[idx];
        self.counts[idx] = old + 1;
        self.total += 1;
        old
    }

    /// Decrements the count at a flattened cell index, returning the
    /// count *before* the decrement.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.cells()` or the cell's count is already
    /// zero.
    #[inline]
    pub fn remove_index(&mut self, idx: usize) -> u64 {
        let old = self.counts[idx];
        assert!(old > 0, "removing n-gram with zero count");
        self.counts[idx] = old - 1;
        self.total -= 1;
        old
    }

    /// The flattened counts and the total, mutably — for the streaming
    /// detector's record kernel, which keeps the total in a local for a
    /// whole call and writes it back once. The caller keeps the total
    /// equal to the sum of the counts.
    #[inline]
    pub(crate) fn counts_and_total_mut(&mut self) -> (&mut [u64], &mut u64) {
        (&mut self.counts, &mut self.total)
    }

    /// Counts every n-gram of a symbol sequence (batch construction).
    pub fn count_sequence(&mut self, symbols: &[Symbol]) {
        if symbols.len() < self.ngram {
            return;
        }
        for gram in symbols.windows(self.ngram) {
            self.add(gram);
        }
    }

    /// Raw count for one n-gram.
    pub fn count(&self, gram: &[Symbol]) -> u64 {
        self.counts[self.index_of(gram)]
    }

    /// Frequency (count / total) for one n-gram; `0.0` when the bitmap is
    /// empty.
    pub fn frequency(&self, gram: &[Symbol]) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(gram) as f64 / self.total as f64
        }
    }

    /// The full frequency matrix, flattened.
    pub fn frequencies(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let t = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }

    /// Euclidean distance between the frequency matrices of two bitmaps —
    /// the paper's anomaly score between lag and lead windows.
    ///
    /// # Panics
    ///
    /// Panics if the bitmaps have different shapes.
    pub fn distance(&self, other: &SaxBitmap) -> f64 {
        assert_eq!(self.alphabet, other.alphabet, "alphabet mismatch");
        assert_eq!(self.ngram, other.ngram, "ngram mismatch");
        if self.total == 0 && other.total == 0 {
            return 0.0;
        }
        let ta = self.total.max(1) as f64;
        let tb = other.total.max(1) as f64;
        self.counts
            .iter()
            .zip(&other.counts)
            .map(|(&a, &b)| {
                let d = a as f64 / ta - b as f64 / tb;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Clears all counts.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sequence_counts_all_windows() {
        let mut bm = SaxBitmap::new(3, 2);
        bm.count_sequence(&[0, 1, 2, 0, 1]);
        assert_eq!(bm.total(), 4);
        assert_eq!(bm.count(&[0, 1]), 2);
        assert_eq!(bm.count(&[1, 2]), 1);
        assert_eq!(bm.count(&[2, 0]), 1);
        assert_eq!(bm.count(&[2, 2]), 0);
    }

    #[test]
    fn short_sequence_counts_nothing() {
        let mut bm = SaxBitmap::new(3, 3);
        bm.count_sequence(&[0, 1]);
        assert_eq!(bm.total(), 0);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let mut bm = SaxBitmap::new(4, 2);
        bm.count_sequence(&[0, 1, 2, 3, 2, 1, 0, 0, 3]);
        let sum: f64 = bm.frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_remove_round_trip() {
        let mut bm = SaxBitmap::new(4, 2);
        bm.add(&[1, 2]);
        bm.add(&[1, 2]);
        bm.remove(&[1, 2]);
        assert_eq!(bm.count(&[1, 2]), 1);
        assert_eq!(bm.total(), 1);
    }

    #[test]
    fn identical_bitmaps_have_zero_distance() {
        let mut a = SaxBitmap::new(4, 2);
        let mut b = SaxBitmap::new(4, 2);
        for s in [&[0u8, 1u8][..], &[1, 2], &[2, 3]] {
            a.add(s);
            b.add(s);
        }
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn distance_is_scale_invariant_in_counts() {
        // Same distribution at different totals -> distance 0.
        let mut a = SaxBitmap::new(3, 1);
        let mut b = SaxBitmap::new(3, 1);
        a.add(&[0]);
        a.add(&[1]);
        for _ in 0..10 {
            b.add(&[0]);
            b.add(&[1]);
        }
        assert!(a.distance(&b) < 1e-12);
    }

    #[test]
    fn disjoint_distributions_have_max_distance() {
        let mut a = SaxBitmap::new(2, 1);
        let mut b = SaxBitmap::new(2, 1);
        a.add(&[0]);
        b.add(&[1]);
        // Frequency vectors (1,0) vs (0,1): distance = sqrt(2).
        assert!((a.distance(&b) - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn empty_vs_empty_is_zero() {
        let a = SaxBitmap::new(4, 2);
        let b = SaxBitmap::new(4, 2);
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn distance_symmetric() {
        let mut a = SaxBitmap::new(4, 2);
        let mut b = SaxBitmap::new(4, 2);
        a.count_sequence(&[0, 1, 2, 3, 0]);
        b.count_sequence(&[3, 3, 3, 1, 0]);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-15);
    }

    #[test]
    fn index_layout_is_row_major() {
        let bm = SaxBitmap::new(4, 2);
        assert_eq!(bm.index_of(&[0, 0]), 0);
        assert_eq!(bm.index_of(&[0, 3]), 3);
        assert_eq!(bm.index_of(&[1, 0]), 4);
        assert_eq!(bm.index_of(&[3, 3]), 15);
    }

    #[test]
    fn cells_scale_with_ngram() {
        assert_eq!(SaxBitmap::new(8, 1).cells(), 8);
        assert_eq!(SaxBitmap::new(8, 2).cells(), 64);
        assert_eq!(SaxBitmap::new(8, 3).cells(), 512);
    }

    #[test]
    fn clear_resets() {
        let mut bm = SaxBitmap::new(3, 1);
        bm.add(&[1]);
        bm.clear();
        assert_eq!(bm.total(), 0);
        assert_eq!(bm.count(&[1]), 0);
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn remove_from_zero_panics() {
        let mut bm = SaxBitmap::new(3, 1);
        bm.remove(&[0]);
    }

    #[test]
    #[should_panic(expected = "bitmap too large")]
    fn rejects_oversized_matrix() {
        SaxBitmap::new(256, 4);
    }

    #[test]
    #[should_panic(expected = "out of alphabet range")]
    fn rejects_out_of_range_symbol() {
        let mut bm = SaxBitmap::new(3, 1);
        bm.add(&[3]);
    }
}
