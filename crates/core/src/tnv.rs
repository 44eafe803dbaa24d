//! The Top-N-Value (TNV) table — the paper's central data structure.
//!
//! A TNV table keeps, per profiled entity (instruction, memory location or
//! procedure parameter), a small fixed number of `(value, count)` pairs.
//! The paper's replacement policy is *LFU with periodic clearing*: the
//! table is kept ordered by count, the top entries form the **steady**
//! part, and at a fixed interval of profiled occurrences the bottom
//! **clear** part is emptied, so that new values always have head room to
//! compete for a steady slot, while values that were only briefly hot
//! during one program phase cannot permanently squat in the table.
//!
//! Two tables implement it:
//!
//! * [`FixedTnv`] is the product's table: the paper's configuration (8
//!   entries, steady 4, cleared every 2000 observations) with values and
//!   counts in inline arrays. Every [`ValueTracker`](crate::ValueTracker)
//!   holds one.
//! * [`TnvTable`] is the configurable table: any capacity and any
//!   [`Policy`], including the plain LFU and LRU baselines of the
//!   replacement-policy experiment (E6). It is also the naive reference
//!   that `FixedTnv` must match bit for bit
//!   ([`TnvTable::with_default_policy`]).

use std::fmt;

use vp_obs::TnvEvents;

/// Entries of the product's TNV table (the paper's table size); the
/// `N` of every `Inv-Top(N)` a profiler reports.
pub const TNV_CAPACITY: usize = 8;

/// Top entries of a [`FixedTnv`] that a clear keeps.
const STEADY: usize = 4;

/// Observations between two clears of a [`FixedTnv`]'s bottom half.
const CLEAR_INTERVAL: u32 = 2000;

/// The paper's TNV table, inline: [`TNV_CAPACITY`] entries under LFU
/// replacement, whose bottom half is cleared every 2000 observations.
///
/// Values and counts live in two fixed arrays, so the hit scan reads one
/// cache line and nothing sits behind a pointer. It keeps no recency
/// stamp and dispatches on no policy: it is exactly
/// [`TnvTable::with_default_policy`], observation for observation.
///
/// ```
/// use vp_core::tnv::FixedTnv;
///
/// let mut tnv = FixedTnv::new();
/// for v in [7, 7, 7, 3, 3, 9] {
///     tnv.observe(v);
/// }
/// assert_eq!(tnv.top_value(), Some(7));
/// assert_eq!(tnv.entries().collect::<Vec<_>>(), [(7, 3), (3, 2), (9, 1)]);
/// assert_eq!(tnv.observations(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct FixedTnv {
    /// Resident values, best first; only `..len` is live.
    values: [u64; TNV_CAPACITY],
    /// Their counts, non-increasing over `..len`.
    counts: [u64; TNV_CAPACITY],
    len: u32,
    /// Observations since the last clear, below [`CLEAR_INTERVAL`].
    since_clear: u32,
    events: TnvEvents,
}

impl Default for FixedTnv {
    fn default() -> Self {
        FixedTnv::new()
    }
}

impl FixedTnv {
    /// An empty table.
    pub fn new() -> FixedTnv {
        FixedTnv {
            values: [0; TNV_CAPACITY],
            counts: [0; TNV_CAPACITY],
            len: 0,
            since_clear: 0,
            events: TnvEvents::default(),
        }
    }

    /// Number of values profiled into this table.
    pub fn observations(&self) -> u64 {
        self.events.observations()
    }

    /// Self-profiling event counts, as [`TnvTable::events`] keeps them.
    pub fn events(&self) -> TnvEvents {
        self.events
    }

    /// Records one occurrence of `value`.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let len = self.len as usize;
        if let Some(pos) = self.values[..len].iter().position(|&v| v == value) {
            self.events.hits += 1;
            // Restore count order: entries the bumped count now exceeds
            // move down one slot.
            let count = self.counts[pos] + 1;
            let mut i = pos;
            while i > 0 && self.counts[i - 1] < count {
                self.values[i] = self.values[i - 1];
                self.counts[i] = self.counts[i - 1];
                i -= 1;
            }
            self.values[i] = value;
            self.counts[i] = count;
        } else if len < TNV_CAPACITY {
            self.events.inserts += 1;
            self.values[len] = value;
            self.counts[len] = 1;
            self.len += 1;
        } else {
            // The last entry has the lowest count, and lies in the bottom
            // half.
            self.events.evictions += 1;
            self.values[TNV_CAPACITY - 1] = value;
            self.counts[TNV_CAPACITY - 1] = 1;
        }
        self.since_clear += 1;
        if self.since_clear >= CLEAR_INTERVAL {
            self.clear();
        }
    }

    /// Empties the bottom half (every [`CLEAR_INTERVAL`] observations).
    #[cold]
    #[inline(never)]
    fn clear(&mut self) {
        self.since_clear = 0;
        let keep = self.len.min(STEADY as u32);
        self.events.clears += 1;
        self.events.cleared_entries += u64::from(self.len - keep);
        self.len = keep;
    }

    /// Records a batch of occurrences, exactly as one
    /// [`observe`](FixedTnv::observe) per value. Another occurrence of
    /// the top value with no clear due needs no re-ordering and no
    /// replacement, so it is one compare and two increments.
    pub fn observe_batch(&mut self, values: &[u64]) {
        for &value in values {
            if self.len > 0 && self.values[0] == value && self.since_clear + 1 < CLEAR_INTERVAL {
                self.events.hits += 1;
                self.counts[0] += 1;
                self.since_clear += 1;
            } else {
                self.observe(value);
            }
        }
    }

    /// Merges another table, as [`TnvTable::merge`] does: `other` is the
    /// later shard, resident pairs combine, re-rank by count (ties by
    /// value) and the top [`TNV_CAPACITY`] survive. The clear countdowns
    /// combine; merging itself never clears.
    pub fn merge(&mut self, other: &FixedTnv) {
        let mut pairs = [(0u64, 0u64); 2 * TNV_CAPACITY];
        let mut n = 0;
        for pair in self.entries().chain(other.entries()) {
            match pairs[..n].iter_mut().find(|p| p.0 == pair.0) {
                Some(p) => p.1 += pair.1,
                None => {
                    pairs[n] = pair;
                    n += 1;
                }
            }
        }
        let pairs = &mut pairs[..n];
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let keep = n.min(TNV_CAPACITY);
        for (i, &(value, count)) in pairs[..keep].iter().enumerate() {
            self.values[i] = value;
            self.counts[i] = count;
        }
        self.len = keep as u32;
        self.events.merge(&other.events);
        self.since_clear = (self.since_clear + other.since_clear) % CLEAR_INTERVAL;
    }

    /// The resident `(value, count)` pairs, best first.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let len = self.len as usize;
        self.values[..len].iter().copied().zip(self.counts[..len].iter().copied())
    }

    /// The most frequent resident value, if any value has been profiled.
    pub fn top_value(&self) -> Option<u64> {
        (self.len > 0).then_some(self.values[0])
    }

    /// Estimated invariance over the top `n` values (`Inv-Top(n)`), as
    /// [`TnvTable::inv_top`] computes it.
    pub fn inv_top(&self, n: usize) -> f64 {
        let observations = self.observations();
        if observations == 0 {
            return 0.0;
        }
        let covered: u64 = self.counts[..n.min(self.len as usize)].iter().sum();
        covered as f64 / observations as f64
    }

    /// Memory footprint in bytes: the table itself, which holds no heap
    /// block.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<FixedTnv>()
    }
}

impl PartialEq for FixedTnv {
    /// Equal when the live entries, the clear countdown and the events
    /// are; slots past the live prefix are stale and do not count.
    fn eq(&self, other: &FixedTnv) -> bool {
        self.entries().eq(other.entries())
            && self.since_clear == other.since_clear
            && self.events == other.events
    }
}

impl fmt::Display for FixedTnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TNV[{}/{}]", self.len, TNV_CAPACITY)?;
        for (value, count) in self.entries() {
            write!(f, " {value}:{count}")?;
        }
        Ok(())
    }
}

/// Replacement policy of a [`TnvTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The paper's policy: least-frequently-used replacement restricted to
    /// the bottom part of the table, with that bottom part cleared every
    /// `clear_interval` profiled occurrences. `steady` entries at the top
    /// are never victims.
    LfuClear {
        /// Number of top entries protected from clearing.
        steady: usize,
        /// Profiled occurrences between clears of the bottom part.
        clear_interval: u64,
    },
    /// Plain LFU: on a miss with a full table, the entry with the smallest
    /// count is replaced. Vulnerable to early-phase values monopolizing
    /// the table.
    Lfu,
    /// LRU: on a miss with a full table, the least recently *seen* value is
    /// replaced. Tracks recency, not frequency.
    Lru,
}

impl Default for Policy {
    /// The paper's configuration for an 8-entry table: the top half is
    /// steady and the bottom half is cleared every 2000 occurrences.
    fn default() -> Self {
        Policy::LfuClear { steady: 4, clear_interval: 2000 }
    }
}

/// One `(value, count)` pair of a TNV table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TnvEntry {
    /// The profiled value.
    pub value: u64,
    /// How many profiled occurrences produced this value while it was
    /// resident (an under-count of the true frequency, which is what the
    /// accuracy experiment E6 quantifies).
    pub count: u64,
    /// Recency stamp (only meaningful under [`Policy::Lru`]).
    last_seen: u64,
}

/// A Top-N-Value table.
///
/// ```
/// use vp_core::tnv::{Policy, TnvTable};
///
/// let mut tnv = TnvTable::new(4, Policy::Lfu);
/// for v in [7, 7, 7, 3, 3, 9] {
///     tnv.observe(v);
/// }
/// assert_eq!(tnv.top(1)[0].value, 7);
/// assert_eq!(tnv.top(1)[0].count, 3);
/// assert_eq!(tnv.observations(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TnvTable {
    entries: Vec<TnvEntry>,
    capacity: usize,
    policy: Policy,
    observations: u64,
    since_clear: u64,
    clock: u64,
    events: TnvEvents,
}

impl TnvTable {
    /// Creates an empty table with room for `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0, or if an `LfuClear` policy's steady part
    /// does not leave at least one clearable slot.
    pub fn new(capacity: usize, policy: Policy) -> TnvTable {
        assert!(capacity > 0, "TNV table capacity must be positive");
        if let Policy::LfuClear { steady, clear_interval } = policy {
            assert!(steady < capacity, "steady part must leave clearable slots");
            assert!(clear_interval > 0, "clear interval must be positive");
        }
        TnvTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            policy,
            observations: 0,
            since_clear: 0,
            clock: 0,
            events: TnvEvents::default(),
        }
    }

    /// The paper's default table: 8 entries, LFU with lower-half clearing.
    pub fn with_default_policy() -> TnvTable {
        TnvTable::new(8, Policy::default())
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of values profiled into this table.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Self-profiling event counts: every observation is exactly one of a
    /// hit, an insert into a free slot, or an eviction, so
    /// `events().observations() == observations()` always holds.
    pub fn events(&self) -> TnvEvents {
        self.events
    }

    /// Records one occurrence of `value`.
    pub fn observe(&mut self, value: u64) {
        self.observations += 1;
        self.clock += 1;

        if let Some(pos) = self.entries.iter().position(|e| e.value == value) {
            self.events.hits += 1;
            self.entries[pos].count += 1;
            self.entries[pos].last_seen = self.clock;
            // Restore count order by bubbling the entry up.
            let mut i = pos;
            while i > 0 && self.entries[i - 1].count < self.entries[i].count {
                self.entries.swap(i - 1, i);
                i -= 1;
            }
        } else if self.entries.len() < self.capacity {
            self.events.inserts += 1;
            self.entries.push(TnvEntry { value, count: 1, last_seen: self.clock });
        } else {
            self.events.evictions += 1;
            match self.policy {
                Policy::LfuClear { .. } | Policy::Lfu => {
                    // Replace the lowest-count entry (always in the bottom
                    // part under LfuClear, since the table is count-ordered).
                    let last = self.entries.len() - 1;
                    self.entries[last] = TnvEntry { value, count: 1, last_seen: self.clock };
                }
                Policy::Lru => {
                    let victim = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_seen)
                        .map(|(i, _)| i)
                        .expect("table is full, so non-empty");
                    self.entries[victim] = TnvEntry { value, count: 1, last_seen: self.clock };
                    self.entries.sort_by_key(|e| std::cmp::Reverse(e.count));
                }
            }
        }

        if let Policy::LfuClear { steady, clear_interval } = self.policy {
            self.since_clear += 1;
            if self.since_clear >= clear_interval {
                self.since_clear = 0;
                let keep = steady.min(self.entries.len());
                self.events.clears += 1;
                self.events.cleared_entries += (self.entries.len() - keep) as u64;
                self.entries.truncate(keep);
            }
        }
    }

    /// Merges another table (e.g. collected over a different shard of the
    /// same entity's value stream) into this one: resident `(value, count)`
    /// pairs are combined, re-ranked by count, and the top `capacity`
    /// survivors kept.
    ///
    /// Counts of values resident in both tables sum exactly, but each
    /// input count is already an under-estimate of the true frequency
    /// (evicted residencies are lost), so the merged counts remain an
    /// **under-estimate** — `inv_top` of the merged table is still a lower
    /// bound on the exact invariance, exactly like a single-run table's.
    /// Values dropped at the capacity cut lose their counts, mirroring an
    /// eviction.
    ///
    /// `other` is treated as the *later* shard: its recency stamps are
    /// rebased after this table's, so LRU replacement stays meaningful.
    /// The clear countdown of an `LfuClear` policy carries over combined;
    /// merging itself never triggers a clear.
    ///
    /// # Panics
    ///
    /// Panics if the two tables differ in capacity or policy.
    pub fn merge(&mut self, other: &TnvTable) {
        assert_eq!(self.capacity, other.capacity, "cannot merge TNV tables of different capacity");
        assert_eq!(self.policy, other.policy, "cannot merge TNV tables of different policy");
        for e in &other.entries {
            match self.entries.iter_mut().find(|s| s.value == e.value) {
                Some(s) => {
                    s.count += e.count;
                    s.last_seen = self.clock + e.last_seen;
                }
                None => self.entries.push(TnvEntry {
                    value: e.value,
                    count: e.count,
                    last_seen: self.clock + e.last_seen,
                }),
            }
        }
        // Re-rank; ties break by value so merging is deterministic
        // regardless of residency order.
        self.entries.sort_by(|a, b| b.count.cmp(&a.count).then(a.value.cmp(&b.value)));
        self.entries.truncate(self.capacity);
        self.observations += other.observations;
        self.clock += other.clock;
        self.events.merge(&other.events);
        if let Policy::LfuClear { clear_interval, .. } = self.policy {
            self.since_clear = (self.since_clear + other.since_clear) % clear_interval;
        }
    }

    /// The `n` highest-count entries, best first.
    pub fn top(&self, n: usize) -> &[TnvEntry] {
        &self.entries[..n.min(self.entries.len())]
    }

    /// All resident entries, best first.
    pub fn entries(&self) -> &[TnvEntry] {
        &self.entries
    }

    /// Sum of the counts of the top `n` entries.
    pub fn top_count(&self, n: usize) -> u64 {
        self.top(n).iter().map(|e| e.count).sum()
    }

    /// The most frequent resident value, if any value has been profiled.
    pub fn top_value(&self) -> Option<u64> {
        self.entries.first().map(|e| e.value)
    }

    /// Estimated invariance over the top `n` values: the fraction of all
    /// profiled occurrences covered by the top `n` resident counts. This is
    /// the paper's `Inv-Top` metric (an *estimate*, since counts of evicted
    /// residencies are lost).
    pub fn inv_top(&self, n: usize) -> f64 {
        if self.observations == 0 {
            return 0.0;
        }
        self.top_count(n) as f64 / self.observations as f64
    }
}

impl fmt::Display for TnvTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TNV[{}/{}]", self.entries.len(), self.capacity)?;
        for e in &self.entries {
            write!(f, " {}:{}", e.value, e.count)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live `(value, count)` pairs of a reference table.
    fn pairs(t: &TnvTable) -> Vec<(u64, u64)> {
        t.entries().iter().map(|e| (e.value, e.count)).collect()
    }

    #[test]
    fn fixed_table_follows_the_reference_through_a_clear() {
        let mut fixed = FixedTnv::new();
        let mut reference = TnvTable::with_default_policy();
        // Ten values, the low ones hottest: the table fills, evicts, and
        // the 2000th observation clears its bottom half.
        for i in 0..2_500u64 {
            let v = (i * i) % 10;
            fixed.observe(v);
            reference.observe(v);
            if i == 1_998 || i == 1_999 {
                assert_eq!(fixed.entries().collect::<Vec<_>>(), pairs(&reference), "at {i}");
            }
        }
        assert_eq!(fixed.entries().collect::<Vec<_>>(), pairs(&reference));
        assert_eq!(fixed.events(), reference.events());
        assert_eq!(fixed.events().clears, 1);
        assert_eq!(fixed.inv_top(3).to_bits(), reference.inv_top(3).to_bits());
    }

    #[test]
    fn equality_ignores_stale_slots() {
        let mut cleared = FixedTnv::new();
        for i in 0..2_000u64 {
            cleared.observe(i % 8);
        }
        // The clear left 4 live entries and 4 stale slots; a merge into
        // an empty table copies the live ones only.
        assert_eq!(cleared.entries().count(), 4);
        let mut copy = FixedTnv::new();
        copy.merge(&cleared);
        assert_eq!(copy, cleared);
        assert_eq!(copy.to_string(), cleared.to_string());
        copy.observe(99);
        assert_ne!(copy, cleared);
    }

    #[test]
    fn fixed_table_is_its_own_footprint() {
        let t = FixedTnv::new();
        assert_eq!(t.footprint_bytes(), 176, "8 values, 8 counts, 2 u32s, 5 event counters");
        assert_eq!(t.top_value(), None);
        assert_eq!(t.inv_top(8), 0.0);
        assert_eq!(t.to_string(), "TNV[0/8]");
    }

    #[test]
    fn fills_free_slots_first() {
        let mut t = TnvTable::new(3, Policy::Lfu);
        t.observe(1);
        t.observe(2);
        t.observe(3);
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.observations(), 3);
    }

    #[test]
    fn counts_and_ordering() {
        let mut t = TnvTable::new(4, Policy::Lfu);
        for v in [5, 6, 6, 6, 5, 7] {
            t.observe(v);
        }
        let top: Vec<(u64, u64)> = t.entries().iter().map(|e| (e.value, e.count)).collect();
        assert_eq!(top, vec![(6, 3), (5, 2), (7, 1)]);
        assert_eq!(t.top_value(), Some(6));
        assert_eq!(t.top_count(2), 5);
        assert!((t.inv_top(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lfu_replaces_minimum() {
        let mut t = TnvTable::new(2, Policy::Lfu);
        t.observe(1);
        t.observe(1);
        t.observe(2);
        t.observe(3); // replaces 2 (count 1)
        let values: Vec<u64> = t.entries().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![1, 3]);
    }

    #[test]
    fn lfu_phase_change_pathology() {
        // Pure LFU: an early hot value blocks later, hotter values from
        // accumulating counts — the pathology that motivates clearing.
        let mut t = TnvTable::new(2, Policy::Lfu);
        for _ in 0..100 {
            t.observe(1);
        }
        t.observe(2);
        // Phase change: value 3 becomes dominant, but values 2/3 keep
        // evicting each other from the single bottom slot.
        for _ in 0..100 {
            t.observe(3);
            t.observe(4);
        }
        // 3 never accumulates: its residency is reset by 4 each time.
        assert!(t.top(1)[0].value == 1);
        assert!(t.inv_top(2) < 0.5);
    }

    #[test]
    fn lfu_clear_recovers_from_phase_change() {
        // The clear interval bounds how much frequency a challenger can
        // accumulate before its count resets, so it must exceed the steady
        // entry's count for a phase change to be visible — with an interval
        // of 150 a value seen 150 times in a row out-counts the old steady
        // value (count 100), bubbles into the steady slot, and the former
        // champion falls into the clearable part.
        let mut t = TnvTable::new(2, Policy::LfuClear { steady: 1, clear_interval: 150 });
        for _ in 0..100 {
            t.observe(1);
        }
        // Phase change to a new dominant value.
        for _ in 0..400 {
            t.observe(3);
        }
        // 3 must have displaced 1 in the steady part.
        assert_eq!(t.top_value(), Some(3));
    }

    #[test]
    fn clearing_drops_bottom_part() {
        let mut t = TnvTable::new(4, Policy::LfuClear { steady: 2, clear_interval: 8 });
        for v in [1, 1, 1, 2, 2, 3, 4] {
            t.observe(v);
        }
        assert_eq!(t.entries().len(), 4);
        t.observe(1); // 8th observation triggers the clear
        assert_eq!(t.entries().len(), 2);
        let values: Vec<u64> = t.entries().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![1, 2]);
    }

    #[test]
    fn lru_evicts_stalest() {
        let mut t = TnvTable::new(2, Policy::Lru);
        t.observe(1);
        t.observe(2);
        t.observe(1); // refresh 1
        t.observe(3); // evicts 2
        let mut values: Vec<u64> = t.entries().iter().map(|e| e.value).collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 3]);
    }

    #[test]
    fn inv_top_bounds() {
        let mut t = TnvTable::with_default_policy();
        assert_eq!(t.inv_top(1), 0.0);
        for v in 0..100u64 {
            t.observe(v % 10);
        }
        let i1 = t.inv_top(1);
        let i4 = t.inv_top(4);
        let i8 = t.inv_top(8);
        assert!(i1 <= i4 && i4 <= i8);
        assert!(i8 <= 1.0);
        assert!(i1 > 0.0);
    }

    #[test]
    fn constant_stream_is_fully_invariant() {
        let mut t = TnvTable::with_default_policy();
        for _ in 0..5000 {
            t.observe(42);
        }
        assert!((t.inv_top(1) - 1.0).abs() < 1e-12);
        assert_eq!(t.observations(), 5000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TnvTable::new(0, Policy::Lfu);
    }

    #[test]
    #[should_panic(expected = "steady part")]
    fn bad_steady_panics() {
        let _ = TnvTable::new(4, Policy::LfuClear { steady: 4, clear_interval: 10 });
    }

    #[test]
    fn merge_combines_counts_and_reranks() {
        let mut a = TnvTable::new(4, Policy::Lfu);
        for v in [1, 1, 2] {
            a.observe(v);
        }
        let mut b = TnvTable::new(4, Policy::Lfu);
        for v in [2, 2, 2, 3] {
            b.observe(v);
        }
        a.merge(&b);
        let pairs: Vec<(u64, u64)> = a.entries().iter().map(|e| (e.value, e.count)).collect();
        assert_eq!(pairs, vec![(2, 4), (1, 2), (3, 1)]);
        assert_eq!(a.observations(), 7);
    }

    #[test]
    fn merge_truncates_to_capacity_keeping_top_counts() {
        let mut a = TnvTable::new(2, Policy::Lfu);
        for v in [1, 1, 1, 2] {
            a.observe(v);
        }
        let mut b = TnvTable::new(2, Policy::Lfu);
        for v in [3, 3, 4] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.entries().len(), 2);
        let values: Vec<u64> = a.entries().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![1, 3]);
        // Observations include those of the dropped entries: still an
        // under-estimate, never an over-estimate.
        assert_eq!(a.observations(), 7);
        assert!(a.inv_top(2) < 1.0);
    }

    #[test]
    fn merge_is_deterministic_under_count_ties() {
        let mut a = TnvTable::new(4, Policy::Lfu);
        a.observe(9);
        let mut b = TnvTable::new(4, Policy::Lfu);
        b.observe(1);
        a.merge(&b);
        // Equal counts: smaller value ranks first regardless of merge order.
        let values: Vec<u64> = a.entries().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![1, 9]);
    }

    #[test]
    #[should_panic(expected = "different capacity")]
    fn merge_rejects_mismatched_capacity() {
        let mut a = TnvTable::new(2, Policy::Lfu);
        let b = TnvTable::new(4, Policy::Lfu);
        a.merge(&b);
    }

    #[test]
    fn events_account_for_every_observation() {
        let mut t = TnvTable::new(2, Policy::LfuClear { steady: 1, clear_interval: 4 });
        for v in [1, 1, 2, 3, 3, 3, 4, 5] {
            t.observe(v);
        }
        let ev = t.events();
        assert_eq!(ev.observations(), t.observations());
        assert!(ev.hits > 0 && ev.inserts > 0 && ev.evictions > 0);
        assert_eq!(ev.clears, 2); // every 4th observation
        assert!(ev.cleared_entries >= ev.clears);
    }

    #[test]
    fn merge_sums_events() {
        let mut a = TnvTable::new(2, Policy::Lfu);
        for v in [1, 1, 2, 3] {
            a.observe(v);
        }
        let mut b = TnvTable::new(2, Policy::Lfu);
        for v in [4, 4, 5] {
            b.observe(v);
        }
        let mut expect = a.events();
        expect.merge(&b.events());
        a.merge(&b);
        assert_eq!(a.events(), expect);
        assert_eq!(a.events().observations(), a.observations());
    }

    #[test]
    fn display_lists_entries() {
        let mut t = TnvTable::new(2, Policy::Lfu);
        t.observe(9);
        let s = t.to_string();
        assert!(s.contains("9:1"), "{s}");
    }
}
