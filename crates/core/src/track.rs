//! Per-entity value tracking: the paper's TNV table plus the scalar
//! counters behind the paper's metrics (LVP, % zero, execution count, last
//! value), and the exact [`FullProfile`] used as ground truth.
//!
//! The exact histogram counts in two stages, chosen by a property of the
//! stream the profile can see: its distinct-value count. An instruction
//! with few distinct values counts them in a capped hash slab
//! ([`ValueMap`], at most 1024 slots), one bump per event. An instruction
//! whose values outgrow the slab (more than 896 of them, or a value that
//! would sit 64 slots or more from its home slot) is mostly distinct, or
//! built to collide; there a hash bump costs a cache miss or a long probe
//! per event. It moves, once and for good, to a sorted
//! `(value, count)` run plus an append buffer of raw values that is
//! sorted, counted and merged into the run when it fills. That work is
//! sequential, so it runs at memory bandwidth rather than latency.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::arena::ValueMap;
use crate::tnv::FixedTnv;

/// The fewest raw values the sorted stage's buffer holds before it is
/// merged into the run; a larger run waits for a buffer as long as itself.
const MIN_FLUSH: usize = 1024;

/// Exact value histogram — the "full profile" the paper uses as ground
/// truth when evaluating TNV-table accuracy (`Inv-All`, `Diff`). Space is
/// proportional to the number of *distinct* values, which is exactly the
/// cost the TNV table avoids.
///
/// Counts start in a capped [`ValueMap`] slab; the first value the slab
/// refuses moves them to a sorted run (module docs). Either way the
/// profile's heap blocks have capacity-determined sizes, so
/// [`FullProfile::footprint_bytes`] is exact, not an estimate. Equality
/// compares content: the same counts are equal in either stage.
///
/// The profile is as small as the slab's handle (24 bytes): the sorted
/// stage sits behind a box, and the observation count is the sum of the
/// counts, not a field. Every tracker embeds an `Option<FullProfile>`,
/// kept or not, so this size is paid by the TNV-only trackers too.
#[derive(Debug, Clone, Default)]
pub struct FullProfile {
    counts: Counts,
}

/// The two counting stages of a [`FullProfile`].
#[derive(Debug, Clone)]
enum Counts {
    /// At most [`ValueMap::MAX_SLOTS`] slots of `(value, count)`.
    Hashed(ValueMap),
    Sorted(Box<SortedCounts>),
}

impl Default for Counts {
    fn default() -> Counts {
        Counts::Hashed(ValueMap::new())
    }
}

/// The sorted stage: `run` holds `(value, count)` in ascending value
/// order; `pending` holds raw values not yet counted into it, in arrival
/// order.
#[derive(Debug, Clone)]
struct SortedCounts {
    run: Vec<(u64, u64)>,
    pending: Vec<u64>,
}

impl SortedCounts {
    /// The counts of `map`. The run is reserved as many 16-byte entries as
    /// the largest slab has 16-byte slots, so the footprint never shrinks
    /// at the move.
    fn from_map(map: &ValueMap) -> SortedCounts {
        let mut run = Vec::with_capacity(ValueMap::MAX_SLOTS);
        run.extend(map.iter());
        run.sort_unstable_by_key(|&(value, _)| value);
        SortedCounts { run, pending: Vec::with_capacity(MIN_FLUSH) }
    }

    /// Appends `value` to the buffer, merging the buffer once it is as
    /// long as the run. The buffer grows straight to that length.
    fn push(&mut self, value: u64) {
        let threshold = self.run.len().max(MIN_FLUSH);
        if self.pending.len() == self.pending.capacity() {
            self.pending.reserve_exact(threshold - self.pending.len());
        }
        self.pending.push(value);
        if self.pending.len() >= threshold {
            self.flush();
        }
    }

    /// Sorts and counts the buffer into the run, then empties the buffer
    /// (keeping its allocation).
    fn flush(&mut self) {
        self.pending.sort_unstable();
        let groups = counted(&self.pending).count();
        merge_into(&mut self.run, counted(&self.pending), groups);
        self.pending.clear();
    }

    /// Every `(value, count)` pair in ascending value order, the buffer
    /// counted in from a sorted copy.
    fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        let mut pending = self.pending.clone();
        pending.sort_unstable();
        merge_join(self.run.iter().copied(), counted(&pending))
            .for_each(|(value, count)| f(value, count));
    }
}

impl FullProfile {
    /// An empty profile.
    pub fn new() -> FullProfile {
        FullProfile::default()
    }

    /// Records one occurrence of `value`: the stage test and the capped
    /// bump, inlined into the tracker; the sorted stage is out of line.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        if let Counts::Hashed(map) = &mut self.counts {
            if map.try_bump(value, 1) {
                return;
            }
        }
        self.count_sorted(value);
    }

    /// The out-of-line half of [`observe`](FullProfile::observe): moves
    /// a full slab to the sorted stage, then buffers `value`.
    #[inline(never)]
    fn count_sorted(&mut self, value: u64) {
        self.sorted_mut().push(value);
    }

    /// The sorted stage, moving the counts out of the slab first if they
    /// are still hashed.
    fn sorted_mut(&mut self) -> &mut SortedCounts {
        if let Counts::Hashed(map) = &self.counts {
            self.counts = Counts::Sorted(Box::new(SortedCounts::from_map(map)));
        }
        match &mut self.counts {
            Counts::Sorted(sorted) => sorted,
            Counts::Hashed(_) => unreachable!("moved to the sorted stage above"),
        }
    }

    /// Merges another profile into this one by summing per-value counts.
    ///
    /// Exact: the result equals the profile of the concatenated value
    /// streams, so all derived metrics (`inv_all`, `distinct`, `top`) match
    /// an unsharded run bit for bit. Two hashed profiles stay hashed when
    /// this slab takes every one of the other's counts; otherwise this
    /// profile moves to the sorted stage and the counts the slab refused
    /// (or, from a sorted profile, all of them) are merged into its run.
    pub fn merge(&mut self, other: &FullProfile) {
        let mut theirs: Vec<(u64, u64)> = match (&mut self.counts, &other.counts) {
            (Counts::Hashed(mine), Counts::Hashed(theirs)) => {
                theirs.iter().filter(|&(value, count)| !mine.try_bump(value, count)).collect()
            }
            _ => other.sorted_counts(),
        };
        if theirs.is_empty() {
            return;
        }
        theirs.sort_unstable_by_key(|&(value, _)| value);
        let sorted = self.sorted_mut();
        sorted.flush();
        merge_into(&mut sorted.run, theirs.iter().copied(), theirs.len());
    }

    /// Calls `f` with every `(value, count)` pair, the buffered values
    /// counted in: in slab order while hashed, ascending value order once
    /// sorted.
    fn for_each_count(&self, mut f: impl FnMut(u64, u64)) {
        match &self.counts {
            Counts::Hashed(map) => map.iter().for_each(|(value, count)| f(value, count)),
            Counts::Sorted(sorted) => sorted.for_each(f),
        }
    }

    /// Every `(value, count)` pair in ascending value order.
    fn sorted_counts(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.for_each_count(|value, count| out.push((value, count)));
        if let Counts::Hashed(_) = self.counts {
            out.sort_unstable_by_key(|&(value, _)| value);
        }
        out
    }

    /// Total observations: the sum of the counts.
    pub fn observations(&self) -> u64 {
        match &self.counts {
            Counts::Hashed(map) => map.iter().map(|(_, count)| count).sum(),
            Counts::Sorted(sorted) => {
                sorted.run.iter().map(|&(_, count)| count).sum::<u64>()
                    + sorted.pending.len() as u64
            }
        }
    }

    /// Number of distinct values seen — the paper's `Diff` numerator.
    pub fn distinct(&self) -> u64 {
        match &self.counts {
            Counts::Hashed(map) => map.len() as u64,
            Counts::Sorted(sorted) if sorted.pending.is_empty() => sorted.run.len() as u64,
            Counts::Sorted(_) => {
                let mut distinct = 0;
                self.for_each_count(|_, _| distinct += 1);
                distinct
            }
        }
    }
    /// The `n` most frequent `(value, count)` pairs, most frequent first.
    ///
    /// The order is part of the definition: count descending, then value
    /// ascending. Values are distinct, so the order is total and the
    /// result is exactly the first `n` entries of the fully sorted
    /// histogram; `top(0)` is empty.
    ///
    /// A bounded selection: one pass over the counts keeps the `n` best
    /// entries in a heap whose root is the worst of them, so most entries
    /// are rejected by one compare against that root. That is
    /// O(distinct · log n) time — linear for a fixed width such as the
    /// TNV capacity — and O(min(n, distinct)) memory beyond a sorted copy
    /// of the sorted stage's buffer, for every `n`.
    pub fn top(&self, n: usize) -> Vec<(u64, u64)> {
        // Keyed so that a greater key ranks lower: the heap's root is the
        // worst kept entry, and `into_sorted_vec` lists the best first.
        let mut best = BinaryHeap::new();
        self.for_each_count(|value, count| {
            let key = (Reverse(count), value);
            if best.len() < n {
                best.push(key);
            } else if let Some(mut worst) = best.peek_mut() {
                if key < *worst {
                    *worst = key;
                }
            }
        });
        best.into_sorted_vec().into_iter().map(|(Reverse(count), value)| (value, count)).collect()
    }

    /// Exact invariance over the top `n` values (`Inv-All(n)`).
    pub fn inv_all(&self, n: usize) -> f64 {
        share(self.top(n).iter().map(|&(_, c)| c).sum(), self.observations())
    }

    /// `(Inv-All(1), Inv-All(n))` from one top-`n` selection, each equal
    /// bit for bit to the matching [`inv_all`](FullProfile::inv_all):
    /// the top-1 count is the first entry of the top-`n` list.
    pub(crate) fn inv_all_1_n(&self, n: usize) -> (f64, f64) {
        let top = self.top(n.max(1));
        let first = top.first().map_or(0, |&(_, c)| c);
        let covered = top.iter().take(n).map(|&(_, c)| c).sum();
        let observations = self.observations();
        (share(first, observations), share(covered, observations))
    }

    /// Exact count for a specific value.
    pub fn count_of(&self, value: u64) -> u64 {
        match &self.counts {
            Counts::Hashed(map) => map.get(value).unwrap_or(0),
            Counts::Sorted(sorted) => {
                let run = &sorted.run;
                let counted = run.binary_search_by_key(&value, |&(v, _)| v).map_or(0, |i| run[i].1);
                counted + sorted.pending.iter().filter(|&&v| v == value).count() as u64
            }
        }
    }

    /// Exact memory footprint in bytes: the struct itself, plus the slab
    /// while hashed, or once sorted the boxed stage, the run's capacity ×
    /// 16 and the buffer's capacity × 8 — what is allocated, not just
    /// occupied.
    ///
    /// Exact by construction: those are the profile's only heap blocks,
    /// with no hidden metadata, so the governor's `bytes_peak` is ground
    /// truth rather than a model of allocator internals. Capacities are a
    /// deterministic function of the observation history and never shrink
    /// under `observe` (the move to the sorted stage reserves at least the
    /// slab it frees, and merges reuse the run in place), so the footprint
    /// reproduces across runs and is monotone.
    pub fn footprint_bytes(&self) -> usize {
        let heap = match &self.counts {
            Counts::Hashed(map) => map.footprint_bytes(),
            Counts::Sorted(sorted) => {
                std::mem::size_of::<SortedCounts>()
                    + sorted.run.capacity() * std::mem::size_of::<(u64, u64)>()
                    + sorted.pending.capacity() * std::mem::size_of::<u64>()
            }
        };
        std::mem::size_of::<FullProfile>() + heap
    }
}

impl PartialEq for FullProfile {
    /// Content equality: the same per-value counts, whichever stage
    /// either side is in.
    fn eq(&self, other: &FullProfile) -> bool {
        self.sorted_counts() == other.sorted_counts()
    }
}

impl Eq for FullProfile {}

/// `covered` as a fraction of `observations` (0 when there are none).
fn share(covered: u64, observations: u64) -> f64 {
    if observations == 0 {
        return 0.0;
    }
    covered as f64 / observations as f64
}

/// `(value, count)` for each run of equal values in a sorted slice.
fn counted(sorted: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    sorted.chunk_by(|a, b| a == b).map(|same| (same[0], same.len() as u64))
}

/// The union of two ascending `(value, count)` streams, each with
/// distinct values, summing the counts of a value found in both.
fn merge_join(
    a: impl Iterator<Item = (u64, u64)>,
    b: impl Iterator<Item = (u64, u64)>,
) -> impl Iterator<Item = (u64, u64)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek().copied(), b.peek().copied()) {
        (Some((x, m)), Some((y, n))) => Some(match x.cmp(&y) {
            Ordering::Less => a.next().expect("peeked"),
            Ordering::Greater => b.next().expect("peeked"),
            Ordering::Equal => {
                a.next();
                b.next();
                (x, m + n)
            }
        }),
        _ => a.next().or_else(|| b.next()),
    })
}

/// Merges `incoming` — `len` pairs in ascending value order, values
/// distinct — into the ascending `run`, summing the counts of equal
/// values. In place: the run moves up by `len` entries and the merge
/// writes from the front, never past the next unread run entry, so it
/// needs no second buffer. The run's allocation grows by at most `len`
/// entries and never shrinks.
fn merge_into(run: &mut Vec<(u64, u64)>, incoming: impl Iterator<Item = (u64, u64)>, len: usize) {
    let old = run.len();
    run.reserve_exact(len);
    run.resize(old + len, (0, 0));
    run.copy_within(..old, len);
    let end = old + len;
    let (mut write, mut read) = (0, len);
    for (value, count) in incoming {
        while read < end && run[read].0 < value {
            run[write] = run[read];
            write += 1;
            read += 1;
        }
        run[write] = if read < end && run[read].0 == value {
            read += 1;
            (value, run[read - 1].1 + count)
        } else {
            (value, count)
        };
        write += 1;
    }
    run.copy_within(read..end, write);
    run.truncate(write + (end - read));
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
    use crate::arena::unmix;

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
    fn a_profile_is_as_small_as_its_slab_handle() {
        // Every tracker embeds an `Option<FullProfile>`, kept or not, so a
        // larger profile would spread every TNV-only tracker too.
        assert_eq!(std::mem::size_of::<FullProfile>(), std::mem::size_of::<ValueMap>());
        assert_eq!(std::mem::size_of::<Option<FullProfile>>(), 32);
    }

    #[test]
    fn the_slab_refusing_a_new_value_moves_the_profile_to_sorted_runs() {
        // Values whose home slots differ, so the slab fills to its load
        // limit before it refuses one.
        let limit = ValueMap::MAX_LEN as u64;
        let mut f = FullProfile::new();
        for v in 0..limit {
            f.observe(unmix(v));
        }
        // Hits on a full slab stay hashed.
        for v in 0..limit {
            f.observe(unmix(v));
        }
        assert!(matches!(f.counts, Counts::Hashed(_)));
        let hashed = f.footprint_bytes();
        f.observe(unmix(limit));
        assert!(matches!(f.counts, Counts::Sorted(_)));
        assert!(f.footprint_bytes() >= hashed, "the move shrank the footprint");
        let counts = (f.count_of(unmix(3)), f.count_of(unmix(limit)));
        assert_eq!((f.distinct(), counts), (limit + 1, (2, 1)));
        assert_eq!(f.top(limit as usize + 1).last(), Some(&(unmix(limit), 1)));
    }

    #[test]
    fn the_buffer_merges_into_the_run_when_it_is_as_long_as_the_run() {
        let stage = |f: &FullProfile| match &f.counts {
            Counts::Sorted(sorted) => (sorted.run.len(), sorted.pending.len()),
            Counts::Hashed(_) => panic!("still hashed"),
        };
        let limit = ValueMap::MAX_LEN;
        let mut f = FullProfile::new();
        (0..=limit as u64).for_each(|v| f.observe(unmix(v)));
        assert_eq!(stage(&f), (limit, 1));
        // The first flush waits for MIN_FLUSH values, the run being shorter.
        (0..MIN_FLUSH as u64 - 2).for_each(|v| f.observe(unmix(v % limit as u64)));
        assert_eq!(stage(&f), (limit, MIN_FLUSH - 1));
        f.observe(u64::MAX);
        assert_eq!(stage(&f), (limit + 2, 0), "two new values, the rest repeats");
        (0..MIN_FLUSH as u64).for_each(|v| f.observe(1 << 32 | v));
        let run = limit + 2 + MIN_FLUSH;
        assert_eq!(stage(&f), (run, 0));
        // Now the run is longer: the buffer waits for as many values.
        (1..run).for_each(|_| f.observe(unmix(0)));
        assert_eq!(stage(&f), (run, run - 1));
        f.observe(unmix(0));
        assert_eq!(stage(&f), (run, 0));
        let values = [unmix(0), unmix(1), unmix(limit as u64), u64::MAX, 1 << 32];
        assert_eq!(values.map(|v| f.count_of(v)), [3 + run as u64, 3, 1, 1, 1]);
    }

    /// Values whose mixed images share their low 20 bits, so every one
    /// probes from the same home slot at any slab size up to 2^20.
    fn colliding(n: u64) -> Vec<u64> {
        let values: Vec<u64> = (0..n).map(|i| unmix(i << 20 | 0x5_A5A5)).collect();
        for &v in &values {
            assert_eq!(crate::arena::mix(v) & 0xF_FFFF, 0x5_A5A5);
        }
        values
    }

    #[test]
    fn values_built_to_collide_in_the_slab_count_exactly_and_leave_the_hash() {
        // No key sits MAX_PROBE or more slots from home, so the slab
        // refuses the first colliding value past that many; the profile
        // counts the rest in sorted runs, where collisions cost nothing.
        let values = colliding(2000);
        let mut f = FullProfile::new();
        values.iter().for_each(|&v| f.observe(v));
        values.iter().step_by(3).for_each(|&v| f.observe(v));
        assert!(matches!(f.counts, Counts::Sorted(_)), "the colliding values stayed hashed");
        assert_eq!(f.distinct(), 2000);
        assert_eq!(f.observations(), 2000 + 667);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(f.count_of(v), if i % 3 == 0 { 2 } else { 1 }, "value {i}");
        }
        assert_eq!(f.top(usize::MAX).iter().map(|&(_, c)| c).sum::<u64>(), f.observations());
    }

    #[test]
    fn repeating_few_colliding_values_cannot_keep_the_profile_hashed() {
        // As many colliding values as the slab holds keys, repeated: they
        // never pass the 897th distinct value, but a hashed profile would
        // walk a chain of hundreds of slots per event. The profile leaves
        // the hash at the first value past MAX_PROBE instead.
        let values = colliding(ValueMap::MAX_LEN as u64);
        let mut f = FullProfile::new();
        let (fits, rest) = values.split_at(ValueMap::MAX_PROBE);
        fits.iter().for_each(|&v| f.observe(v));
        assert!(matches!(f.counts, Counts::Hashed(_)), "{} colliding values", fits.len());
        f.observe(rest[0]);
        assert!(matches!(f.counts, Counts::Sorted(_)), "the chain grew past MAX_PROBE");
        for _ in 1..50 {
            values.iter().for_each(|&v| f.observe(v));
        }
        assert_eq!(f.observations(), 49 * values.len() as u64 + fits.len() as u64 + 1);
        assert_eq!(f.count_of(fits[0]), 50);
        assert_eq!(f.count_of(rest[0]), 50);
        assert_eq!(f.count_of(rest[1]), 49);
        assert_eq!(f.distinct(), values.len() as u64);
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
    fn merging_hashed_profiles_stays_exact_at_the_slab_limit() {
        // Disjoint halves whose union fills the slab exactly stay hashed;
        // one more value moves the merge to sorted runs. Both are exact.
        let limit = ValueMap::MAX_LEN as u64;
        for union in [limit, limit + 1] {
            let values: Vec<u64> = (0..union).map(unmix).collect();
            let (left, right) = values.split_at(union as usize / 2);
            let mut merged = FullProfile::new();
            left.iter().chain(right).for_each(|&v| merged.observe(v));
            let whole = merged.clone();
            let mut merged = FullProfile::new();
            left.iter().for_each(|&v| merged.observe(v));
            let mut later = FullProfile::new();
            right.iter().for_each(|&v| later.observe(v));
            merged.merge(&later);
            assert_eq!(merged, whole, "union of {union}");
            assert_eq!((merged.distinct(), merged.count_of(unmix(union - 1))), (union, 1));
            assert_eq!(matches!(merged.counts, Counts::Hashed(_)), union == limit);
        }
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
