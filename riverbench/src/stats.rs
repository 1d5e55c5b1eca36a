//! The benchmark's arithmetic: medians and percentiles, the tail
//! percentile a sample supports, span self time and failure counting.
//! Pure functions, unit-tested below.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle two for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Whether `n` samples support the `p`-th percentile: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The highest percentile, at most `cap`, that `n` samples support (at
/// least ten samples beyond it), rounded down to a hundredth. `None`
/// when fewer than ten samples exist.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    if n < 10 {
        return None;
    }
    let hundredths = 10_000 * (n as u64 - 10) / n as u64;
    Some((hundredths as f64 / 100.0).min(cap))
}

/// The factor that takes CPU steal out of a wall-clock duration: of the
/// time the process could have run (its CPU time `cpu` plus the time
/// `steal` the hypervisor gave to other guests), the share it did run.
pub fn steal_factor(cpu: f64, steal: f64) -> f64 {
    if cpu + steal > 0.0 {
        cpu / (cpu + steal)
    } else {
        1.0
    }
}

/// One timed interval of a trace: a call into a layer's public function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique per run.
    pub id: u64,
    /// The span that was open on the same thread when this one began
    /// (`0`: none, a top-level call).
    pub parent: u64,
    /// Index into the trace's name table.
    pub name: u16,
    /// Small per-thread number.
    pub thread: u16,
    /// Clip being processed when the span began.
    pub clip: u32,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    /// Nanoseconds since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span, keyed by span id: its duration minus the
/// durations of its direct children (the calls it made into the next
/// layer). Nested grandchildren are already inside the children, so
/// they are not subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_default() += s.dur();
    }
    spans
        .iter()
        .map(|s| {
            let c = child.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur().saturating_sub(c))
        })
        .collect()
}

/// Outcome of one clip at the output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipOutcome {
    /// Output complete and equal to the reference.
    Equal,
    /// Output complete but different from the reference.
    Mismatch,
    /// The clip scope was closed by a repair (`BadCloseScope`).
    Repaired,
}

/// Clips that failed: every attempted clip whose outcome is missing or
/// not [`ClipOutcome::Equal`]. Outcomes for clips never attempted are
/// ignored.
pub fn count_failed(attempted: u64, outcomes: &BTreeMap<u64, ClipOutcome>) -> u64 {
    let equal = outcomes
        .iter()
        .filter(|&(&id, &o)| id < attempted && o == ClipOutcome::Equal)
        .count() as u64;
    attempted - equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: 0,
            thread: 0,
            clip: 0,
            start,
            end,
        }
    }

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn steal_factor_is_the_share_not_stolen() {
        // One busy thread, a fifth of its time stolen.
        assert_eq!(steal_factor(0.8, 0.2), 0.8);
        // Two busy threads, a quarter stolen from each.
        assert_eq!(steal_factor(3.0, 1.0), 0.75);
        assert_eq!(steal_factor(0.5, 0.0), 1.0);
        assert_eq!(steal_factor(0.0, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(tail_percentile(9, 99.0), None);
        assert_eq!(tail_percentile(10, 99.0), Some(0.0));
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(800, 99.0), Some(98.75));
        assert_eq!(tail_percentile(5000, 99.0), Some(99.0));
        for n in [10, 37, 200, 801, 1200] {
            let p = tail_percentile(n, 100.0).unwrap();
            assert!(supports(n, p), "n={n} p={p}");
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op 1 [0,100) calls push 2 [10,90), which calls op 3 [20,80),
        // which calls push 4 [30,40) and push 5 [50,60).
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 90),
            span(3, 2, 20, 80),
            span(4, 3, 30, 40),
            span(5, 3, 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 40);
        assert_eq!(st[&4], 10);
        assert_eq!(st[&5], 10);
        // The self times of a tree partition its root's wall time.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_of_sibling_roots_is_independent() {
        let spans = [span(1, 0, 0, 10), span(2, 0, 10, 30), span(3, 2, 12, 20)];
        let st = self_times(&spans);
        assert_eq!((st[&1], st[&2], st[&3]), (10, 12, 8));
    }

    #[test]
    fn failed_counts_missing_and_unequal_clips() {
        let mut outcomes = BTreeMap::new();
        assert_eq!(count_failed(3, &outcomes), 3);
        outcomes.insert(0, ClipOutcome::Equal);
        outcomes.insert(1, ClipOutcome::Mismatch);
        assert_eq!(count_failed(3, &outcomes), 2); // 1 unequal, 2 missing
        outcomes.insert(2, ClipOutcome::Repaired);
        assert_eq!(count_failed(3, &outcomes), 2);
        outcomes.insert(1, ClipOutcome::Equal);
        outcomes.insert(2, ClipOutcome::Equal);
        assert_eq!(count_failed(3, &outcomes), 0);
        // A clip that was never attempted does not offset a failure.
        outcomes.insert(7, ClipOutcome::Equal);
        outcomes.remove(&0);
        assert_eq!(count_failed(3, &outcomes), 1);
    }
}
