//! Per-entity value tracking: the paper's TNV table plus the scalar
//! counters behind the paper's metrics (LVP, % zero, execution count, last
//! value), and the exact [`FullProfile`] used as ground truth.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arena::ValueMap;
use crate::tnv::FixedTnv;

/// Exact value histogram — the "full profile" the paper uses as ground
/// truth when evaluating TNV-table accuracy (`Inv-All`, `Diff`). Space is
/// proportional to the number of *distinct* values, which is exactly the
/// cost the TNV table avoids. Counts live in an arena-style
/// [`ValueMap`] slab, so [`FullProfile::footprint_bytes`] is exact, not
/// an estimate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FullProfile {
    counts: ValueMap,
    observations: u64,
}

impl FullProfile {
    /// An empty profile.
    pub fn new() -> FullProfile {
        FullProfile::default()
    }

    /// Records one occurrence of `value`.
    pub fn observe(&mut self, value: u64) {
        self.counts.bump(value, 1);
        self.observations += 1;
    }

    /// Merges another profile into this one by summing per-value counts.
    ///
    /// Exact: the result equals the profile of the concatenated value
    /// streams, so all derived metrics (`inv_all`, `distinct`, `top`) match
    /// an unsharded run bit for bit.
    pub fn merge(&mut self, other: &FullProfile) {
        for (value, count) in other.counts.iter() {
            self.counts.bump(value, count);
        }
        self.observations += other.observations;
    }

    /// Total observations.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Number of distinct values seen — the paper's `Diff` numerator.
    pub fn distinct(&self) -> u64 {
        self.counts.len() as u64
    }

    /// The `n` most frequent `(value, count)` pairs, most frequent first.
    ///
    /// The order is part of the definition: count descending, then value
    /// ascending. Values are distinct, so the order is total and the
    /// result is exactly the first `n` entries of the fully sorted
    /// histogram; `top(0)` is empty.
    ///
    /// A bounded selection: one pass over the slab keeps the `n` best
    /// entries in a heap whose root is the worst of them, so most entries
    /// are rejected by one compare against that root. That is
    /// O(distinct · log n) time — linear for a fixed width such as the
    /// TNV capacity — and O(min(n, distinct)) memory, for every `n`.
    pub fn top(&self, n: usize) -> Vec<(u64, u64)> {
        // Keyed so that a greater key ranks lower: the heap's root is the
        // worst kept entry, and `into_sorted_vec` lists the best first.
        let mut best = BinaryHeap::with_capacity(n.min(self.counts.len()));
        for (value, count) in self.counts.iter() {
            let key = (Reverse(count), value);
            if best.len() < n {
                best.push(key);
            } else if let Some(mut worst) = best.peek_mut() {
                if key < *worst {
                    *worst = key;
                }
            }
        }
        best.into_sorted_vec().into_iter().map(|(Reverse(count), value)| (value, count)).collect()
    }

    /// Exact invariance over the top `n` values (`Inv-All(n)`).
    pub fn inv_all(&self, n: usize) -> f64 {
        self.share(self.top(n).iter().map(|&(_, c)| c).sum())
    }

    /// `(Inv-All(1), Inv-All(n))` from one top-`n` selection, each equal
    /// bit for bit to the matching [`inv_all`](FullProfile::inv_all):
    /// the top-1 count is the first entry of the top-`n` list.
    pub(crate) fn inv_all_1_n(&self, n: usize) -> (f64, f64) {
        let top = self.top(n.max(1));
        let first = top.first().map_or(0, |&(_, c)| c);
        let covered = top.iter().take(n).map(|&(_, c)| c).sum();
        (self.share(first), self.share(covered))
    }

    /// `covered` as a fraction of all observations (0 when empty).
    fn share(&self, covered: u64) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        covered as f64 / self.observations as f64
    }

    /// Exact count for a specific value.
    pub fn count_of(&self, value: u64) -> u64 {
        self.counts.get(value).unwrap_or(0)
    }

    /// Exact memory footprint in bytes: the struct itself plus the
    /// [`ValueMap`] slab, whose size is its allocated *capacity* — what
    /// is actually resident, not just occupied.
    ///
    /// Exact by construction: the slab is the profile's only heap block
    /// and its byte size is `capacity × 16` with no hidden metadata, so
    /// the governor's `bytes_peak` is ground truth rather than a model
    /// of `HashMap` internals. Capacity is a deterministic, monotone
    /// function of the observation history, so the footprint reproduces
    /// across runs and never shrinks under `observe`.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<FullProfile>() + self.counts.footprint_bytes()
    }
}

/// How much state a tracker keeps beyond its TNV table, which is always
/// the paper's ([`FixedTnv`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrackerConfig {
    /// Also keep the exact histogram (ground truth; costs memory
    /// proportional to distinct values). Enable for accuracy experiments,
    /// disable for realistic profiling overhead.
    pub keep_full: bool,
}

impl TrackerConfig {
    /// The TNV table with the exact histogram kept too. The default keeps
    /// the table alone.
    pub fn with_full() -> TrackerConfig {
        TrackerConfig { keep_full: true }
    }
}

/// Tracks the value stream of one profiled entity.
///
/// ```
/// use vp_core::track::{TrackerConfig, ValueTracker};
///
/// let mut t = ValueTracker::new(TrackerConfig::with_full());
/// for v in [4, 4, 4, 4, 0, 9, 4, 4, 4, 4] {
///     t.observe(v);
/// }
/// assert_eq!(t.executions(), 10);
/// assert!((t.inv_top(1) - 0.8).abs() < 1e-12);     // 8/10 are the value 4
/// assert!((t.lvp() - 0.6).abs() < 1e-12);          // 6/10 repeat the previous
/// assert!((t.pct_zero() - 0.1).abs() < 1e-12);
/// assert_eq!(t.full().unwrap().distinct(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ValueTracker {
    tnv: FixedTnv,
    full: Option<FullProfile>,
    executions: u64,
    zeros: u64,
    lvp_hits: u64,
    first: Option<u64>,
    last: Option<u64>,
}

impl ValueTracker {
    /// Creates a tracker with the given configuration.
    pub fn new(config: TrackerConfig) -> ValueTracker {
        ValueTracker {
            tnv: FixedTnv::new(),
            full: config.keep_full.then(FullProfile::new),
            executions: 0,
            zeros: 0,
            lvp_hits: 0,
            first: None,
            last: None,
        }
    }

    /// Records one produced value.
    pub fn observe(&mut self, value: u64) {
        self.executions += 1;
        if value == 0 {
            self.zeros += 1;
        }
        if self.last == Some(value) {
            self.lvp_hits += 1;
        }
        if self.first.is_none() {
            self.first = Some(value);
        }
        self.last = Some(value);
        self.tnv.observe(value);
        if let Some(full) = &mut self.full {
            full.observe(value);
        }
    }

    /// Records a batch of produced values — semantically identical to
    /// calling [`observe`](ValueTracker::observe) once per value, but the
    /// scalar counters update in one pass over the slice and the TNV
    /// table takes its batched fast path.
    pub fn observe_batch(&mut self, values: &[u64]) {
        let (&first, &last) = match (values.first(), values.last()) {
            (Some(first), Some(last)) => (first, last),
            _ => return,
        };
        self.executions += values.len() as u64;
        let mut prev = self.last;
        for &value in values {
            if value == 0 {
                self.zeros += 1;
            }
            if prev == Some(value) {
                self.lvp_hits += 1;
            }
            prev = Some(value);
        }
        if self.first.is_none() {
            self.first = Some(first);
        }
        self.last = Some(last);
        self.tnv.observe_batch(values);
        if let Some(full) = &mut self.full {
            for &value in values {
                full.observe(value);
            }
        }
    }

    /// Merges another tracker into this one, treating `other` as the
    /// *later* shard of the same entity's value stream.
    ///
    /// The scalar counters (executions, zeros, LVP hits) and the exact
    /// histogram are exact: they match a single tracker fed the
    /// concatenated stream, including the LVP hit on the shard boundary
    /// (credited when this shard's last value equals the other's first).
    /// The TNV table merges per [`FixedTnv::merge`], so `inv_top` remains
    /// an under-estimate. The exact histogram survives only if both shards
    /// kept one.
    pub fn merge(&mut self, other: &ValueTracker) {
        self.executions += other.executions;
        self.zeros += other.zeros;
        self.lvp_hits += other.lvp_hits;
        if self.last.is_some() && self.last == other.first {
            self.lvp_hits += 1;
        }
        self.first = self.first.or(other.first);
        self.last = other.last.or(self.last);
        self.tnv.merge(&other.tnv);
        self.full = match (self.full.take(), &other.full) {
            (Some(mut mine), Some(theirs)) => {
                mine.merge(theirs);
                Some(mine)
            }
            _ => None,
        };
    }

    /// Number of observed executions.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Last-value predictability: the fraction of executions whose value
    /// equalled the immediately preceding execution's value (what a
    /// last-value predictor with an infinite table would get right).
    pub fn lvp(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.lvp_hits as f64 / self.executions as f64
        }
    }

    /// Fraction of executions producing the value 0.
    pub fn pct_zero(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.zeros as f64 / self.executions as f64
        }
    }

    /// TNV-estimated invariance over the top `n` values (`Inv-Top`).
    pub fn inv_top(&self, n: usize) -> f64 {
        self.tnv.inv_top(n)
    }

    /// Exact invariance over the top `n` values (`Inv-All`), if the full
    /// profile was kept.
    pub fn inv_all(&self, n: usize) -> Option<f64> {
        self.full.as_ref().map(|f| f.inv_all(n))
    }

    /// Number of distinct values, if the full profile was kept.
    pub fn distinct(&self) -> Option<u64> {
        self.full.as_ref().map(FullProfile::distinct)
    }

    /// The TNV table.
    pub fn tnv(&self) -> &FixedTnv {
        &self.tnv
    }

    /// Self-profiling event counts of the underlying TNV table.
    pub fn tnv_events(&self) -> vp_obs::TnvEvents {
        self.tnv.events()
    }

    /// The exact histogram, if kept.
    pub fn full(&self) -> Option<&FullProfile> {
        self.full.as_ref()
    }

    /// The most recent value, if any.
    pub fn last_value(&self) -> Option<u64> {
        self.last
    }

    /// Memory footprint in bytes: the TNV table's size plus the exact
    /// histogram's, when kept.
    pub fn footprint_bytes(&self) -> usize {
        self.tnv.footprint_bytes() + self.full.as_ref().map_or(0, FullProfile::footprint_bytes)
    }

    /// Whether the tracker still holds the exact histogram (i.e. has not
    /// been degraded and was configured with `keep_full`).
    pub fn has_full(&self) -> bool {
        self.full.is_some()
    }

    /// Degrades the tracker one rung: drops the exact histogram, keeping
    /// the constant-space TNV table and every scalar counter. Returns the
    /// bytes freed (0 when there was no histogram to drop).
    ///
    /// After degradation the tracker reports `inv_all*`/`distinct` as
    /// `None` — exactly the shape [`merge`](ValueTracker::merge) already
    /// produces when one shard lacks the full profile, which the metric
    /// aggregation tolerates — while `inv_top*`, LVP, `% zero`, and
    /// executions stay bit-identical to an undegraded tracker's.
    pub fn degrade(&mut self) -> usize {
        match self.full.take() {
            Some(full) => full.footprint_bytes(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_profile_exactness() {
        let mut f = FullProfile::new();
        for v in [1, 2, 2, 3, 3, 3] {
            f.observe(v);
        }
        assert_eq!(f.observations(), 6);
        assert_eq!(f.distinct(), 3);
        assert_eq!(f.top(2), vec![(3, 3), (2, 2)]);
        assert!((f.inv_all(1) - 0.5).abs() < 1e-12);
        assert!((f.inv_all(3) - 1.0).abs() < 1e-12);
        assert_eq!(f.count_of(2), 2);
        assert_eq!(f.count_of(99), 0);
    }

    #[test]
    fn full_profile_tie_break_deterministic() {
        let mut f = FullProfile::new();
        for v in [9, 1, 9, 1] {
            f.observe(v);
        }
        assert_eq!(f.top(1), vec![(1, 2)]); // smaller value wins ties
    }

    #[test]
    fn top_zero_is_empty() {
        let mut f = FullProfile::new();
        assert!(f.top(0).is_empty());
        for v in [3, 3, 1] {
            f.observe(v);
        }
        assert!(f.top(0).is_empty());
        assert_eq!(f.inv_all(0), 0.0);
        assert_eq!(f.inv_all_1_n(0), (f.inv_all(1), 0.0));
    }

    #[test]
    fn lvp_of_constant_stream() {
        let mut t = ValueTracker::new(TrackerConfig::default());
        for _ in 0..100 {
            t.observe(5);
        }
        assert!((t.lvp() - 0.99).abs() < 1e-12); // 99 of 100 repeat
        assert!((t.inv_top(1) - 1.0).abs() < 1e-12);
        assert_eq!(t.last_value(), Some(5));
    }

    #[test]
    fn lvp_of_alternating_stream_is_zero() {
        let mut t = ValueTracker::new(TrackerConfig::default());
        for i in 0..100u64 {
            t.observe(i % 2);
        }
        assert_eq!(t.lvp(), 0.0);
        // ... but invariance over the top-2 values is total:
        assert!((t.inv_top(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_invariance_despite_low_lvp() {
        // The paper's key observation: invariance and last-value
        // predictability are different properties. 90% of values are A but
        // interleaved with B every 10th execution — LVP sees breaks, the
        // TNV table sees 90% invariance.
        let mut t = ValueTracker::new(TrackerConfig::default());
        for i in 0..1000u64 {
            t.observe(if i % 10 == 9 { 1 } else { 0 });
        }
        assert!(t.inv_top(1) >= 0.89);
        assert!(t.lvp() < 0.85);
        assert!((t.pct_zero() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tracker_without_full_profile() {
        let mut t = ValueTracker::new(TrackerConfig::default());
        t.observe(1);
        assert!(t.inv_all(1).is_none());
        assert!(t.distinct().is_none());
        assert!(t.full().is_none());
    }

    #[test]
    fn tracker_with_full_profile_matches_tnv_on_few_values() {
        let mut t = ValueTracker::new(TrackerConfig::with_full());
        for v in [1, 1, 2, 2, 2, 3] {
            t.observe(v);
        }
        // With fewer distinct values than capacity, TNV is exact.
        assert!((t.inv_top(3) - t.inv_all(3).unwrap()).abs() < 1e-12);
        assert_eq!(t.distinct(), Some(3));
    }

    #[test]
    fn footprint_constant_for_tnv_grows_for_full() {
        let mut tnv_only = ValueTracker::new(TrackerConfig::default());
        let mut with_full = ValueTracker::new(TrackerConfig::with_full());
        let base_tnv = tnv_only.footprint_bytes();
        let base_full = with_full.footprint_bytes();
        for v in 0..10_000u64 {
            tnv_only.observe(v);
            with_full.observe(v);
        }
        assert_eq!(tnv_only.footprint_bytes(), base_tnv, "TNV space is constant");
        assert!(
            with_full.footprint_bytes() > base_full + 10_000 * 8,
            "full profile grows with distinct values"
        );
    }

    #[test]
    fn footprint_is_monotone_under_observe() {
        // The budget relies on footprints never shrinking as values are
        // observed: hash-map capacity only grows.
        let mut full = FullProfile::new();
        let mut tracker = ValueTracker::new(TrackerConfig::with_full());
        let mut last_full = full.footprint_bytes();
        let mut last_tracker = tracker.footprint_bytes();
        for v in 0..4096u64 {
            full.observe(v % 977); // repeats exercise the no-growth case
            tracker.observe(v % 977);
            let now_full = full.footprint_bytes();
            let now_tracker = tracker.footprint_bytes();
            assert!(now_full >= last_full, "full profile footprint shrank at {v}");
            assert!(now_tracker >= last_tracker, "tracker footprint shrank at {v}");
            last_full = now_full;
            last_tracker = now_tracker;
        }
        // Capacity accounting: the map allocates at least one bucket per
        // resident entry.
        assert!(last_full >= std::mem::size_of::<FullProfile>() + 977 * 3 * 8);
    }

    #[test]
    fn degrade_drops_only_the_full_profile() {
        let mut governed = ValueTracker::new(TrackerConfig::with_full());
        let mut reference = ValueTracker::new(TrackerConfig::with_full());
        for v in [4u64, 4, 0, 9, 4, 4, 7, 4] {
            governed.observe(v);
            reference.observe(v);
        }
        assert!(governed.has_full());
        let freed = governed.degrade();
        assert!(freed > 0);
        assert!(!governed.has_full());
        assert_eq!(governed.degrade(), 0, "second degrade frees nothing");
        assert_eq!(governed.footprint_bytes() + freed, reference.footprint_bytes());
        // Everything except the exact histogram is untouched.
        assert!(governed.inv_all(1).is_none());
        assert!(governed.distinct().is_none());
        assert_eq!(governed.executions(), reference.executions());
        assert_eq!(governed.lvp(), reference.lvp());
        assert_eq!(governed.pct_zero(), reference.pct_zero());
        assert_eq!(governed.inv_top(1), reference.inv_top(1));
        assert_eq!(governed.last_value(), reference.last_value());
    }

    #[test]
    fn full_profile_merge_is_exact() {
        let stream = [1u64, 2, 2, 3, 3, 3, 2, 1];
        let mut whole = FullProfile::new();
        for &v in &stream {
            whole.observe(v);
        }
        let (left, right) = stream.split_at(3);
        let mut a = FullProfile::new();
        let mut b = FullProfile::new();
        left.iter().for_each(|&v| a.observe(v));
        right.iter().for_each(|&v| b.observe(v));
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn tracker_merge_matches_concatenated_stream() {
        // The split lands between two equal values, so the shard-boundary
        // LVP hit is exercised.
        let stream = [5u64, 5, 0, 7, 7, 7, 0, 5];
        for split in 0..=stream.len() {
            let mut whole = ValueTracker::new(TrackerConfig::with_full());
            stream.iter().for_each(|&v| whole.observe(v));
            let mut a = ValueTracker::new(TrackerConfig::with_full());
            let mut b = ValueTracker::new(TrackerConfig::with_full());
            stream[..split].iter().for_each(|&v| a.observe(v));
            stream[split..].iter().for_each(|&v| b.observe(v));
            a.merge(&b);
            assert_eq!(a.executions(), whole.executions(), "split {split}");
            assert_eq!(a.lvp(), whole.lvp(), "split {split}");
            assert_eq!(a.pct_zero(), whole.pct_zero(), "split {split}");
            assert_eq!(a.last_value(), whole.last_value(), "split {split}");
            assert_eq!(a.full(), whole.full(), "split {split}");
        }
    }

    #[test]
    fn tracker_merge_drops_full_profile_when_one_side_lacks_it() {
        let mut a = ValueTracker::new(TrackerConfig::with_full());
        let mut b = ValueTracker::new(TrackerConfig::default());
        a.observe(1);
        b.observe(2);
        a.merge(&b);
        assert!(a.full().is_none());
        assert_eq!(a.executions(), 2);
    }

    #[test]
    fn empty_tracker_metrics() {
        let t = ValueTracker::new(TrackerConfig::with_full());
        assert_eq!(t.executions(), 0);
        assert_eq!(t.lvp(), 0.0);
        assert_eq!(t.pct_zero(), 0.0);
        assert_eq!(t.inv_top(8), 0.0);
        assert_eq!(t.inv_all(8), Some(0.0));
        assert_eq!(t.last_value(), None);
    }
}
