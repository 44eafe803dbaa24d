//! The event taxonomy: what the profiler counts about itself.
//!
//! Hot paths (TNV table maintenance, the convergent sampler's state
//! machine) keep plain `u64` event counters — deterministic and mergeable,
//! so parallel suite runs produce byte-identical counts to serial ones.
//! [`Counts`] is the fixed-size vector those counters flush into at phase
//! boundaries, and what a [`Recorder`](crate::Recorder) aggregates.

use crate::json::Json;

/// One named self-profiling counter.
///
/// The taxonomy covers the three layers of the pipeline: instrumentation
/// events delivered by the ATOM-style runner, TNV-table maintenance work
/// inside the trackers, and the sampling decisions of the low-overhead
/// profilers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// `after_instr` analysis callbacks delivered.
    InstrEvents,
    /// `on_load` analysis callbacks delivered.
    LoadEvents,
    /// `on_store` analysis callbacks delivered.
    StoreEvents,
    /// `on_proc_entry` analysis callbacks delivered.
    ProcEntryEvents,
    /// `on_proc_exit` analysis callbacks delivered.
    ProcExitEvents,
    /// TNV observations that hit a resident value.
    TnvHits,
    /// TNV observations that filled a free slot.
    TnvInserts,
    /// TNV observations that replaced a resident entry.
    TnvEvictions,
    /// Periodic lower-part clear operations.
    TnvClears,
    /// Entries dropped by clear operations.
    TnvClearedEntries,
    /// Convergent profiler transitions into the skipping phase.
    ConvBackoffs,
    /// Convergent profiler transitions back to profiling.
    ConvResumes,
    /// Executions the convergent profiler profiled.
    ConvProfiled,
    /// Executions the convergent profiler skipped.
    ConvSkipped,
    /// Workloads profiled by a suite run.
    WorkloadsProfiled,
    /// Items executed by parallel-map workers.
    WorkerItems,
    /// Workload attempts that panicked and were caught by the runner.
    WorkloadPanic,
    /// Workload re-attempts after a caught panic.
    WorkloadRetry,
    /// Workloads given up on after the retry budget was exhausted.
    WorkloadQuarantined,
    /// Workload attempts cancelled for exceeding the wall-clock deadline.
    WorkloadTimeout,
    /// Entities degraded full-profile → TNV-only by the memory governor.
    EntitiesDegraded,
    /// Entities dropped entirely by the memory governor.
    EntitiesDropped,
    /// Stores dropped by the memory profiler's location cap.
    MemDropped,
    /// Phase-signature windows completed by the adaptive detector.
    PhaseWindows,
    /// Distribution shifts the adaptive detector flagged.
    PhaseShifts,
    /// Converged entities re-armed after a detected shift.
    PhaseRearms,
    /// Re-arms denied because the entity's budget was exhausted.
    PhaseRearmsDenied,
    /// Specialization guards that matched their profiled value.
    GuardHits,
    /// Specialization guards that fell through to the slow path.
    GuardMisses,
    /// Load sites specialized by the optimize pipeline.
    SitesSpecialized,
    /// Candidate load sites rejected by the optimize pipeline.
    CandidatesRejected,
    /// Sessions the serve daemon rejected at admission (BUSY).
    SessionRejected,
    /// Sessions the serve daemon killed (fault, protocol violation,
    /// idle reap, or drain before END).
    SessionKilled,
    /// Sessions that reached END and checkpointed cleanly.
    SessionCompleted,
    /// Chunks durably checkpointed and cumulatively acked to clients.
    ChunksAcked,
}

impl CounterId {
    /// Number of defined counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Every counter, in canonical (rendering) order.
    pub const ALL: [CounterId; 35] = [
        CounterId::InstrEvents,
        CounterId::LoadEvents,
        CounterId::StoreEvents,
        CounterId::ProcEntryEvents,
        CounterId::ProcExitEvents,
        CounterId::TnvHits,
        CounterId::TnvInserts,
        CounterId::TnvEvictions,
        CounterId::TnvClears,
        CounterId::TnvClearedEntries,
        CounterId::ConvBackoffs,
        CounterId::ConvResumes,
        CounterId::ConvProfiled,
        CounterId::ConvSkipped,
        CounterId::WorkloadsProfiled,
        CounterId::WorkerItems,
        CounterId::WorkloadPanic,
        CounterId::WorkloadRetry,
        CounterId::WorkloadQuarantined,
        CounterId::WorkloadTimeout,
        CounterId::EntitiesDegraded,
        CounterId::EntitiesDropped,
        CounterId::MemDropped,
        CounterId::PhaseWindows,
        CounterId::PhaseShifts,
        CounterId::PhaseRearms,
        CounterId::PhaseRearmsDenied,
        CounterId::GuardHits,
        CounterId::GuardMisses,
        CounterId::SitesSpecialized,
        CounterId::CandidatesRejected,
        CounterId::SessionRejected,
        CounterId::SessionKilled,
        CounterId::SessionCompleted,
        CounterId::ChunksAcked,
    ];

    /// Stable snake_case name used in telemetry records.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::InstrEvents => "instr_events",
            CounterId::LoadEvents => "load_events",
            CounterId::StoreEvents => "store_events",
            CounterId::ProcEntryEvents => "proc_entry_events",
            CounterId::ProcExitEvents => "proc_exit_events",
            CounterId::TnvHits => "tnv_hits",
            CounterId::TnvInserts => "tnv_inserts",
            CounterId::TnvEvictions => "tnv_evictions",
            CounterId::TnvClears => "tnv_clears",
            CounterId::TnvClearedEntries => "tnv_cleared_entries",
            CounterId::ConvBackoffs => "conv_backoffs",
            CounterId::ConvResumes => "conv_resumes",
            CounterId::ConvProfiled => "conv_profiled",
            CounterId::ConvSkipped => "conv_skipped",
            CounterId::WorkloadsProfiled => "workloads_profiled",
            CounterId::WorkerItems => "worker_items",
            CounterId::WorkloadPanic => "workload_panics",
            CounterId::WorkloadRetry => "workload_retries",
            CounterId::WorkloadQuarantined => "workload_quarantined",
            CounterId::WorkloadTimeout => "workload_timeouts",
            CounterId::EntitiesDegraded => "entities_degraded",
            CounterId::EntitiesDropped => "entities_dropped",
            CounterId::MemDropped => "mem_dropped",
            CounterId::PhaseWindows => "phase_windows",
            CounterId::PhaseShifts => "phase_shifts",
            CounterId::PhaseRearms => "phase_rearms",
            CounterId::PhaseRearmsDenied => "phase_rearms_denied",
            CounterId::GuardHits => "guard_hits",
            CounterId::GuardMisses => "guard_misses",
            CounterId::SitesSpecialized => "sites_specialized",
            CounterId::CandidatesRejected => "candidates_rejected",
            CounterId::SessionRejected => "session_rejected",
            CounterId::SessionKilled => "session_killed",
            CounterId::SessionCompleted => "session_completed",
            CounterId::ChunksAcked => "chunks_acked",
        }
    }

    /// The counter's slot in [`CounterId::ALL`] (and in every per-counter
    /// array): the declaration order is the canonical order.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// A fixed-size vector of counter values — one slot per [`CounterId`].
///
/// ```
/// use vp_obs::{CounterId, Counts};
///
/// let mut c = Counts::new();
/// c.add(CounterId::TnvHits, 10);
/// c.add(CounterId::TnvInserts, 2);
/// assert_eq!(c.get(CounterId::TnvHits), 10);
/// assert_eq!(c.total(), 12);
/// assert_eq!(c.to_json().render(), r#"{"tnv_hits":10,"tnv_inserts":2}"#);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    values: [u64; CounterId::COUNT],
}

// Manual impl: `[u64; N]` only derives `Default` up to N = 32.
impl Default for Counts {
    fn default() -> Counts {
        Counts { values: [0; CounterId::COUNT] }
    }
}

impl Counts {
    /// All-zero counts.
    pub fn new() -> Counts {
        Counts::default()
    }

    /// Adds `n` to one counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.values[id.index()] += n;
    }

    /// Current value of one counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id.index()]
    }

    /// Sums another count vector into this one.
    pub fn merge(&mut self, other: &Counts) {
        for (mine, theirs) in self.values.iter_mut().zip(&other.values) {
            *mine += theirs;
        }
    }

    /// Sum over all counters.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// `(id, value)` pairs of the non-zero counters, in canonical order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL.into_iter().map(|id| (id, self.get(id))).filter(|&(_, v)| v > 0)
    }

    /// Renders the non-zero counters as an ordered JSON object, so equal
    /// counts always serialize to identical bytes.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.iter_nonzero().map(|(id, v)| (id.name().to_string(), Json::U64(v))).collect(),
        )
    }

    /// Reads counts back from a telemetry JSON object, ignoring unknown
    /// keys (forward compatibility) and missing ones (zero).
    pub fn from_json(json: &Json) -> Counts {
        let mut out = Counts::new();
        if let Json::Obj(fields) = json {
            for (key, value) in fields {
                if let Some(id) = CounterId::ALL.iter().find(|id| id.name() == key) {
                    out.add(*id, value.as_u64().unwrap_or(0));
                }
            }
        }
        out
    }
}

/// TNV-table maintenance events, kept by every [`TnvTable`] as plain
/// increments on paths that already touch the entry array.
///
/// Invariant: `hits + inserts + evictions` equals the table's observation
/// count — every observation takes exactly one of the three paths.
///
/// [`TnvTable`]: https://docs.rs/vp-core
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TnvEvents {
    /// Observations of a value already resident.
    pub hits: u64,
    /// Observations that filled a free slot.
    pub inserts: u64,
    /// Observations that replaced a resident entry.
    pub evictions: u64,
    /// Periodic clear operations performed.
    pub clears: u64,
    /// Entries dropped by those clears.
    pub cleared_entries: u64,
}

impl TnvEvents {
    /// Sums another event set into this one (shard merge).
    pub fn merge(&mut self, other: &TnvEvents) {
        self.hits += other.hits;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.clears += other.clears;
        self.cleared_entries += other.cleared_entries;
    }

    /// Flushes into a count vector.
    pub fn add_to(&self, counts: &mut Counts) {
        counts.add(CounterId::TnvHits, self.hits);
        counts.add(CounterId::TnvInserts, self.inserts);
        counts.add(CounterId::TnvEvictions, self.evictions);
        counts.add(CounterId::TnvClears, self.clears);
        counts.add(CounterId::TnvClearedEntries, self.cleared_entries);
    }

    /// Total observations accounted for (`hits + inserts + evictions`).
    pub fn observations(&self) -> u64 {
        self.hits + self.inserts + self.evictions
    }
}

/// Convergent-sampler state-machine events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvEvents {
    /// Transitions from profiling into a skip interval.
    pub backoffs: u64,
    /// Transitions from a skip interval back to profiling.
    pub resumes: u64,
    /// Executions profiled into a tracker.
    pub profiled: u64,
    /// Executions skipped.
    pub skipped: u64,
}

impl ConvEvents {
    /// Sums another event set into this one (shard merge).
    pub fn merge(&mut self, other: &ConvEvents) {
        self.backoffs += other.backoffs;
        self.resumes += other.resumes;
        self.profiled += other.profiled;
        self.skipped += other.skipped;
    }

    /// Flushes into a count vector.
    pub fn add_to(&self, counts: &mut Counts) {
        counts.add(CounterId::ConvBackoffs, self.backoffs);
        counts.add(CounterId::ConvResumes, self.resumes);
        counts.add(CounterId::ConvProfiled, self.profiled);
        counts.add(CounterId::ConvSkipped, self.skipped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(CounterId::COUNT, n);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, id) in CounterId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i, "{}", id.name());
        }
    }

    #[test]
    fn counts_round_trip_through_json() {
        let mut c = Counts::new();
        c.add(CounterId::TnvHits, 7);
        c.add(CounterId::WorkerItems, 3);
        let back = Counts::from_json(&c.to_json());
        assert_eq!(back, c);
    }

    #[test]
    fn counts_merge_sums() {
        let mut a = Counts::new();
        a.add(CounterId::InstrEvents, 5);
        let mut b = Counts::new();
        b.add(CounterId::InstrEvents, 2);
        b.add(CounterId::LoadEvents, 1);
        a.merge(&b);
        assert_eq!(a.get(CounterId::InstrEvents), 7);
        assert_eq!(a.get(CounterId::LoadEvents), 1);
        assert_eq!(a.total(), 8);
    }

    #[test]
    fn event_structs_flush_and_merge() {
        let mut tnv =
            TnvEvents { hits: 5, inserts: 2, evictions: 1, clears: 1, cleared_entries: 3 };
        tnv.merge(&TnvEvents { hits: 1, ..TnvEvents::default() });
        assert_eq!(tnv.observations(), 9);
        let mut c = Counts::new();
        tnv.add_to(&mut c);
        ConvEvents { backoffs: 1, resumes: 1, profiled: 10, skipped: 90 }.add_to(&mut c);
        assert_eq!(c.get(CounterId::TnvHits), 6);
        assert_eq!(c.get(CounterId::ConvSkipped), 90);
    }

    #[test]
    fn unknown_json_keys_are_ignored() {
        let json = Json::parse(r#"{"tnv_hits":4,"not_a_counter":9}"#).unwrap();
        let c = Counts::from_json(&json);
        assert_eq!(c.get(CounterId::TnvHits), 4);
        assert_eq!(c.total(), 4);
    }
}
