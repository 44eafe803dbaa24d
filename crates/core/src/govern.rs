//! The memory half of the resource governor: an explicit byte budget and
//! a per-entity degradation ladder.
//!
//! The paper's space-vs-accuracy trade-off is concrete here: `Inv-All`
//! needs an unbounded exact histogram per entity, while the TNV table is
//! constant-space by design. A [`Governor`] holds a [`MemBudget`] and the
//! exact byte accounting (fed by the profilers' `footprint_bytes()`
//! hooks); when ingest pushes the resident footprint over the budget it
//! walks the ladder, one rung per step, until the budget holds again:
//!
//! 1. **degrade** — the largest entity still holding a [`FullProfile`]
//!    drops it (`ValueTracker::degrade`), keeping the constant-space TNV
//!    table and every scalar counter. Its `inv_top*`/LVP stay exact;
//!    `inv_all*` becomes absent, a shape the aggregate path already
//!    tolerates.
//! 2. **drop** — once no full profiles remain, the largest entity is
//!    evicted entirely and its id blacklisted; later observations of it
//!    are counted, not stored (like `MemoryProfiler`'s location cap).
//!
//! Victim selection is by largest current footprint with ties broken by
//! smallest entity id — a pure function of profiler state, which is itself
//! a pure function of the input stream, so governed runs are deterministic
//! and `--jobs N` stays byte-identical to serial (each workload owns its
//! profiler). Enforcement happens after *every* observation, so
//! [`GovernorStats::bytes_peak`] — sampled post-enforcement — never
//! exceeds the budget.
//!
//! The byte accounting runs on a per-workload [`Arena`] meter, and since
//! every tracker block now has a capacity-determined exact size (the
//! inline `FixedTnv`'s own size, [`FullProfile`]'s capped `ValueMap`
//! slab or, once it outgrows that, its sorted run and buffer),
//! `bytes_peak` *is* the arena high-water mark: ground truth, not an
//! estimate of allocator internals.
//!
//! [`FullProfile`]: crate::track::FullProfile

use crate::arena::{Arena, EntityTable};
use crate::track::{TrackerConfig, ValueTracker};

/// A byte budget for one profiler's resident tracker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBudget {
    limit_bytes: usize,
}

impl MemBudget {
    /// A budget of exactly `limit` bytes.
    pub fn bytes(limit: usize) -> MemBudget {
        MemBudget { limit_bytes: limit }
    }

    /// A budget of `limit` mebibytes — the unit `--mem-budget-mb` takes.
    pub fn mib(limit: usize) -> MemBudget {
        MemBudget { limit_bytes: limit.saturating_mul(1024 * 1024) }
    }

    /// The limit in bytes.
    pub fn limit_bytes(&self) -> usize {
        self.limit_bytes
    }

    /// An equal slice of this budget for each of `shards` concurrent
    /// profilers (the serve daemon's sessions), so their combined
    /// resident footprint stays within the whole.
    pub fn split(&self, shards: usize) -> MemBudget {
        MemBudget { limit_bytes: (self.limit_bytes / shards.max(1)).max(1) }
    }
}

/// Exact counters of everything a [`Governor`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Highest resident governed footprint, in bytes, sampled after
    /// enforcement — never exceeds the budget.
    pub bytes_peak: u64,
    /// Entities that lost their exact histogram (ladder rung 1).
    pub entities_degraded: u64,
    /// Entities evicted entirely (ladder rung 2).
    pub entities_dropped: u64,
    /// Observations of already-dropped entities that were counted but
    /// not stored.
    pub observations_dropped: u64,
}

impl GovernorStats {
    /// Whether the governor ever had to intervene (or shed observations).
    pub fn intervened(&self) -> bool {
        self.entities_degraded > 0 || self.entities_dropped > 0 || self.observations_dropped > 0
    }
}

/// Enforces a [`MemBudget`] over one profiler's tracker table. Embedded
/// as `Option<Governor>` in the full
/// [`InstructionProfiler`](crate::InstructionProfiler); `None` (the
/// default) leaves every pre-existing code path untouched.
#[derive(Debug, Clone)]
pub struct Governor {
    budget: MemBudget,
    arena: Arena,
    stats: GovernorStats,
    /// Evicted ids: never re-admitted, only counted.
    dropped: EntityTable<()>,
}

impl Governor {
    /// A governor with nothing resident yet.
    pub fn new(budget: MemBudget) -> Governor {
        Governor {
            budget,
            arena: Arena::new(),
            stats: GovernorStats::default(),
            dropped: EntityTable::new(),
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> MemBudget {
        self.budget
    }

    /// Current resident governed footprint in bytes; the tests check
    /// the byte accounting against it.
    #[cfg(test)]
    fn bytes_current(&self) -> usize {
        self.arena.live_bytes()
    }

    /// The arena meter behind the accounting. `bytes_peak` in
    /// [`GovernorStats`] equals `arena().high_water_bytes()` exactly.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The intervention counters so far.
    pub fn stats(&self) -> &GovernorStats {
        &self.stats
    }

    /// Feeds one `(id, value)` observation through the governed path:
    /// dropped entities are counted and skipped; otherwise the tracker
    /// observes, the byte delta is charged, and the ladder runs until the
    /// budget holds again.
    ///
    /// A resident entity costs one table lookup. Ingest never leaves an
    /// evicted id resident, so the blacklist is consulted only for ids
    /// the table does not hold.
    pub fn observe(
        &mut self,
        trackers: &mut EntityTable<ValueTracker>,
        config: TrackerConfig,
        id: u32,
        value: u64,
    ) {
        let (tracker, before) = match trackers.get_mut(id) {
            Some(tracker) => {
                let before = tracker.footprint_bytes();
                (tracker, before)
            }
            None if self.dropped.contains_key(id) => {
                self.stats.observations_dropped += 1;
                return;
            }
            None => (trackers.get_or_insert_with(id, || ValueTracker::new(config)), 0),
        };
        tracker.observe(value);
        let after = tracker.footprint_bytes();
        // Footprints are monotone under observe (tested in `track`), so
        // the delta is non-negative.
        self.arena.charge(after - before);
        if self.arena.live_bytes() > self.budget.limit_bytes {
            self.enforce(trackers);
        }
        // Mark only the settled state: a transient over-budget spike the
        // ladder just rolled back is not a resident peak.
        self.arena.mark();
        self.stats.bytes_peak = self.stats.bytes_peak.max(self.arena.high_water_bytes() as u64);
    }

    /// Walks the degradation ladder until the budget holds: degrade the
    /// largest full-profile holder first (rung 1), evict the largest
    /// remaining entity once no full profiles are left (rung 2). Ties go
    /// to the smallest id, so victim selection is deterministic.
    fn enforce(&mut self, trackers: &mut EntityTable<ValueTracker>) {
        let rank = |&(id, t): &(u32, &ValueTracker)| (t.footprint_bytes(), std::cmp::Reverse(id));
        while self.arena.live_bytes() > self.budget.limit_bytes && !trackers.is_empty() {
            let degradable =
                trackers.iter().filter(|(_, t)| t.has_full()).max_by_key(rank).map(|(id, _)| id);
            if let Some(id) = degradable {
                let freed = trackers.get_mut(id).expect("victim exists").degrade();
                self.arena.release(freed);
                self.stats.entities_degraded += 1;
                continue;
            }
            let victim = trackers
                .iter()
                .max_by_key(rank)
                .map(|(id, _)| id)
                .expect("non-empty table has a largest entity");
            let tracker = trackers.remove(victim).expect("victim exists");
            self.arena.release(tracker.footprint_bytes());
            self.stats.entities_dropped += 1;
            self.dropped.insert(victim, ());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    fn feed(
        governor: &mut Governor,
        trackers: &mut EntityTable<ValueTracker>,
        events: &[(u32, u64)],
    ) {
        for &(id, value) in events {
            governor.observe(trackers, TrackerConfig::with_full(), id, value);
        }
    }

    fn spread(entities: u32, values: u64) -> Vec<(u32, u64)> {
        let mut events = Vec::new();
        for v in 0..values {
            for id in 0..entities {
                events.push((id, v.wrapping_mul(u64::from(id) + 1)));
            }
        }
        events
    }

    #[test]
    fn generous_budget_never_intervenes() {
        let mut governor = Governor::new(MemBudget::mib(64));
        let mut governed = EntityTable::new();
        let mut reference: HashMap<u32, ValueTracker> = HashMap::new();
        for (id, value) in spread(8, 500) {
            governor.observe(&mut governed, TrackerConfig::with_full(), id, value);
            reference
                .entry(id)
                .or_insert_with(|| ValueTracker::new(TrackerConfig::with_full()))
                .observe(value);
        }
        assert!(!governor.stats().intervened());
        assert_eq!(governed.len(), reference.len());
        for (id, tracker) in &reference {
            let governed = governed.get(*id).expect("resident");
            assert_eq!(governed.full(), tracker.full(), "entity {id}");
            assert_eq!(governed.inv_top(1), tracker.inv_top(1), "entity {id}");
        }
        let total: usize = governed.values().map(ValueTracker::footprint_bytes).sum();
        assert_eq!(governor.bytes_current(), total, "accounting matches reality");
        assert_eq!(governor.stats().bytes_peak, total as u64);
    }

    #[test]
    fn tight_budget_degrades_before_dropping_and_peak_holds() {
        let budget = MemBudget::bytes(16 * 1024);
        let mut governor = Governor::new(budget);
        let mut trackers = EntityTable::new();
        feed(&mut governor, &mut trackers, &spread(6, 2000));
        let stats = *governor.stats();
        assert!(stats.intervened());
        assert!(stats.entities_degraded > 0, "ladder rung 1 used");
        assert!(stats.bytes_peak <= budget.limit_bytes() as u64, "peak within budget");
        let total: usize = trackers.values().map(ValueTracker::footprint_bytes).sum();
        assert_eq!(governor.bytes_current(), total);
        assert!(total <= budget.limit_bytes());
    }

    #[test]
    fn degraded_entities_keep_exact_scalar_metrics() {
        let events = spread(6, 2000);
        let mut governor = Governor::new(MemBudget::bytes(16 * 1024));
        let mut governed = EntityTable::new();
        feed(&mut governor, &mut governed, &events);
        let mut reference: HashMap<u32, ValueTracker> = HashMap::new();
        for &(id, value) in &events {
            reference
                .entry(id)
                .or_insert_with(|| ValueTracker::new(TrackerConfig::with_full()))
                .observe(value);
        }
        for (id, tracker) in governed.iter() {
            let truth = &reference[&id];
            assert_eq!(tracker.executions(), truth.executions(), "entity {id}");
            assert_eq!(tracker.lvp(), truth.lvp(), "entity {id}");
            assert_eq!(tracker.inv_top(3), truth.inv_top(3), "entity {id}");
            assert_eq!(tracker.pct_zero(), truth.pct_zero(), "entity {id}");
        }
    }

    #[test]
    fn starvation_budget_drops_entities_and_counts_observations() {
        // Smaller than a single tracker: every entity is eventually
        // created, degraded, and evicted; later observations are shed.
        let mut governor = Governor::new(MemBudget::bytes(64));
        let mut trackers = EntityTable::new();
        feed(&mut governor, &mut trackers, &spread(3, 50));
        let stats = *governor.stats();
        assert!(trackers.is_empty());
        assert_eq!(stats.entities_dropped, 3);
        assert!(stats.observations_dropped > 0);
        assert!(governor.dropped.contains_key(0) && governor.dropped.contains_key(2));
        assert_eq!(governor.bytes_current(), 0);
    }

    #[test]
    fn victim_selection_is_deterministic() {
        let events = spread(5, 800);
        let run = || {
            let mut governor = Governor::new(MemBudget::bytes(8 * 1024));
            let mut trackers = EntityTable::new();
            feed(&mut governor, &mut trackers, &events);
            let mut surviving: Vec<u32> = trackers.keys().collect();
            surviving.sort_unstable();
            let degraded: Vec<u32> = {
                let mut d: Vec<u32> =
                    trackers.iter().filter(|(_, t)| !t.has_full()).map(|(id, _)| id).collect();
                d.sort_unstable();
                d
            };
            (*governor.stats(), surviving, degraded)
        };
        assert_eq!(run(), run());
    }

    /// The ladder on ordered std containers: the oracle for victim
    /// choice, slot removal and the blacklist.
    #[derive(Default)]
    struct NaiveGovernor {
        trackers: BTreeMap<u32, ValueTracker>,
        dropped: BTreeSet<u32>,
        live: usize,
        stats: GovernorStats,
    }

    impl NaiveGovernor {
        fn observe(&mut self, limit: usize, id: u32, value: u64) {
            if !self.trackers.contains_key(&id) && self.dropped.contains(&id) {
                self.stats.observations_dropped += 1;
                return;
            }
            // A new tracker is charged whole, its empty table included.
            let before = self.trackers.get(&id).map_or(0, ValueTracker::footprint_bytes);
            let tracker = self
                .trackers
                .entry(id)
                .or_insert_with(|| ValueTracker::new(TrackerConfig::with_full()));
            tracker.observe(value);
            self.live = self.live - before + tracker.footprint_bytes();
            while self.live > limit && !self.trackers.is_empty() {
                // Largest footprint; among equals the smallest id, which
                // ascending iteration meets first.
                let pick = |full_only: bool| {
                    let mut best: Option<(u32, usize)> = None;
                    for (&id, t) in &self.trackers {
                        if (!full_only || t.has_full())
                            && best.is_none_or(|(_, size)| t.footprint_bytes() > size)
                        {
                            best = Some((id, t.footprint_bytes()));
                        }
                    }
                    best.map(|(id, _)| id)
                };
                if let Some(id) = pick(true) {
                    self.live -= self.trackers.get_mut(&id).expect("resident").degrade();
                    self.stats.entities_degraded += 1;
                } else {
                    let id = pick(false).expect("non-empty");
                    self.live -= self.trackers.remove(&id).expect("resident").footprint_bytes();
                    self.stats.entities_dropped += 1;
                    self.dropped.insert(id);
                }
            }
            self.stats.bytes_peak = self.stats.bytes_peak.max(self.live as u64);
        }
    }

    #[test]
    fn ladder_matches_a_naive_ordered_reference_at_every_step() {
        // Dense and overflow ids side by side, under budgets that degrade
        // and evict: after every observation the governed table holds
        // exactly the reference's entities in the same states, so each
        // victim was the same and no evicted id came back.
        let ids =
            [3u32, 0, crate::arena::DENSE_CAP, 9, u32::MAX, 1, 2, crate::arena::DENSE_CAP - 1];
        let events: Vec<(u32, u64)> = (0..2400u64)
            .map(|n| (ids[(n * 5 % 8) as usize], n.wrapping_mul(0x9E37_79B9) % (n % 23 + 1)))
            .collect();
        for limit in [64, 2 * 1024, 6 * 1024, 64 * 1024] {
            let mut governor = Governor::new(MemBudget::bytes(limit));
            let mut trackers = EntityTable::new();
            let mut naive = NaiveGovernor::default();
            for (step, &(id, value)) in events.iter().enumerate() {
                governor.observe(&mut trackers, TrackerConfig::with_full(), id, value);
                naive.observe(limit, id, value);
                assert_eq!(*governor.stats(), naive.stats, "limit {limit}, step {step}");
                let state = |t: &ValueTracker| (t.executions(), t.has_full(), t.footprint_bytes());
                let mut held: Vec<_> = trackers.iter().map(|(id, t)| (id, state(t))).collect();
                held.sort_unstable_by_key(|&(id, _)| id);
                let want: Vec<_> = naive.trackers.iter().map(|(&id, t)| (id, state(t))).collect();
                assert_eq!(held, want, "limit {limit}, step {step}");
            }
            if limit == 64 {
                assert!(naive.stats.entities_dropped > 0 && naive.stats.observations_dropped > 0);
            }
        }
    }

    #[test]
    fn bytes_peak_is_the_arena_high_water_mark_exactly() {
        // Under any budget — generous or degrading — a governor's
        // reported peak is the arena's high-water mark, and
        // the arena's live total is the exact summed tracker footprint.
        for budget in [MemBudget::mib(64), MemBudget::bytes(16 * 1024), MemBudget::bytes(64)] {
            let mut governor = Governor::new(budget);
            let mut trackers = EntityTable::new();
            feed(&mut governor, &mut trackers, &spread(6, 1200));
            let total: usize = trackers.values().map(ValueTracker::footprint_bytes).sum();
            assert_eq!(governor.arena().live_bytes(), total, "live is exact");
            assert_eq!(
                governor.stats().bytes_peak,
                governor.arena().high_water_bytes() as u64,
                "peak is the marked high water"
            );
            assert!(governor.stats().bytes_peak <= budget.limit_bytes() as u64);
        }
    }

    #[test]
    fn split_budget_sums_to_at_most_the_whole() {
        let whole = MemBudget::mib(4);
        let part = whole.split(3);
        assert!(part.limit_bytes() * 3 <= whole.limit_bytes());
        assert_eq!(whole.split(0).limit_bytes(), whole.limit_bytes());
        assert_eq!(MemBudget::bytes(1).split(8).limit_bytes(), 1);
    }
}
