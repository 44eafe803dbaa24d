//! Checkpoint/resume for suite runs: each completed [`WorkloadProfile`]
//! is persisted as one JSONL record the moment it finishes, so a run
//! killed part-way can resume without re-profiling the workloads already
//! done — and produce output identical to an uninterrupted run.
//!
//! Identical means *bit*-identical: the TSV profile format rounds floats
//! to nine decimals, which is fine for humans but would make a resumed
//! run drift from an uninterrupted one. Checkpoint records therefore
//! store every `f64` as its IEEE-754 bit pattern (a JSON integer via
//! [`f64::to_bits`]), so a restored profile is indistinguishable from the
//! freshly computed one. The execution-weighted [`Aggregate`](vp_core::Aggregate) is
//! recomputed from the restored metrics rather than stored.
//!
//! Appends go through [`vp_core::durable::append_jsonl_with`], and loads
//! use the lenient JSONL parser, so a record torn by a crash mid-append
//! is dropped (that workload simply re-runs) instead of poisoning the
//! checkpoint.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vp_core::{aggregate, durable, EntityMetrics, FaultPlan, GovernorStats, PhaseStats};
use vp_obs::telemetry::{parse_jsonl_lenient, record, to_jsonl};
use vp_obs::{Counts, Json};

use crate::suite::WorkloadProfile;

/// Record kind used for checkpoint entries.
const KIND: &str = "checkpoint";

/// Fault point fired after each durably appended checkpoint record — the
/// hook the kill-and-resume tests use to die at an exact point.
pub const APPENDED_FAULT_POINT: &str = "checkpoint/appended";

fn bits(v: f64) -> Json {
    Json::U64(v.to_bits())
}

fn opt_bits(v: Option<f64>) -> Json {
    v.map_or(Json::Null, bits)
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::U64)
}

fn metric_to_json(m: &EntityMetrics) -> Json {
    Json::Arr(vec![
        Json::U64(m.id),
        Json::U64(m.executions),
        bits(m.lvp),
        bits(m.inv_top1),
        bits(m.inv_topn),
        opt_bits(m.inv_all1),
        opt_bits(m.inv_alln),
        bits(m.pct_zero),
        opt_u64(m.distinct),
        opt_u64(m.top_value),
    ])
}

fn from_bits(j: &Json) -> Option<f64> {
    j.as_u64().map(f64::from_bits)
}

fn opt_from_bits(j: &Json) -> Result<Option<f64>, String> {
    match j {
        Json::Null => Ok(None),
        other => from_bits(other).map(Some).ok_or_else(|| "bad float bits".to_string()),
    }
}

fn opt_from_u64(j: &Json) -> Result<Option<u64>, String> {
    match j {
        Json::Null => Ok(None),
        other => other.as_u64().map(Some).ok_or_else(|| "bad integer".to_string()),
    }
}

fn metric_from_json(j: &Json) -> Result<EntityMetrics, String> {
    let Json::Arr(v) = j else { return Err("metric is not an array".to_string()) };
    if v.len() != 10 {
        return Err(format!("metric has {} fields, expected 10", v.len()));
    }
    let u = |i: usize| v[i].as_u64().ok_or_else(|| format!("bad integer in field {i}"));
    let f = |i: usize| from_bits(&v[i]).ok_or_else(|| format!("bad float bits in field {i}"));
    Ok(EntityMetrics {
        id: u(0)?,
        executions: u(1)?,
        lvp: f(2)?,
        inv_top1: f(3)?,
        inv_topn: f(4)?,
        inv_all1: opt_from_bits(&v[5])?,
        inv_alln: opt_from_bits(&v[6])?,
        pct_zero: f(7)?,
        distinct: opt_from_u64(&v[8])?,
        top_value: opt_from_u64(&v[9])?,
    })
}

/// Serializes one finished workload as a checkpoint record. The governor
/// field is emitted only on governed runs, so ungoverned checkpoint files
/// stay byte-identical to the pre-governor format.
fn checkpoint_record(profile: &WorkloadProfile) -> Json {
    let mut fields = vec![
        ("profile_fraction", bits(profile.profile_fraction)),
        ("instructions", Json::U64(profile.instructions)),
        ("wall_ns", Json::U64(profile.wall_ns)),
        ("baseline_wall_ns", opt_u64(profile.baseline_wall_ns)),
        ("events", profile.events.to_json()),
        ("metrics", Json::Arr(profile.metrics.iter().map(metric_to_json).collect())),
    ];
    if let Some(gov) = &profile.governor {
        fields.push((
            "governor",
            Json::Arr(vec![
                Json::U64(gov.bytes_peak),
                Json::U64(gov.entities_degraded),
                Json::U64(gov.entities_dropped),
                Json::U64(gov.observations_dropped),
            ]),
        ));
    }
    if let Some(ph) = &profile.phase {
        fields.push((
            "phase",
            Json::Arr(vec![
                Json::U64(ph.windows),
                Json::U64(ph.shifts_detected),
                Json::U64(ph.rearms),
                Json::U64(ph.rearms_denied),
            ]),
        ));
    }
    record(KIND, profile.name, fields)
}

/// Everything a checkpoint record stores about one workload — the name is
/// re-attached from the live [`Workload`](vp_workloads::Workload) at
/// restore time (profiles carry `&'static str` names).
#[derive(Debug, Clone)]
struct Restored {
    metrics: Vec<EntityMetrics>,
    profile_fraction: f64,
    instructions: u64,
    events: Counts,
    wall_ns: u64,
    baseline_wall_ns: Option<u64>,
    governor: Option<GovernorStats>,
    phase: Option<PhaseStats>,
}

fn governor_from_json(j: &Json) -> Result<GovernorStats, String> {
    let Json::Arr(v) = j else { return Err("governor is not an array".to_string()) };
    if v.len() != 4 {
        return Err(format!("governor has {} fields, expected 4", v.len()));
    }
    let u = |i: usize| v[i].as_u64().ok_or_else(|| format!("bad integer in governor field {i}"));
    Ok(GovernorStats {
        bytes_peak: u(0)?,
        entities_degraded: u(1)?,
        entities_dropped: u(2)?,
        observations_dropped: u(3)?,
    })
}

fn phase_from_json(j: &Json) -> Result<PhaseStats, String> {
    let Json::Arr(v) = j else { return Err("phase is not an array".to_string()) };
    if v.len() != 4 {
        return Err(format!("phase has {} fields, expected 4", v.len()));
    }
    let u = |i: usize| v[i].as_u64().ok_or_else(|| format!("bad integer in phase field {i}"));
    Ok(PhaseStats { windows: u(0)?, shifts_detected: u(1)?, rearms: u(2)?, rearms_denied: u(3)? })
}

fn parse_checkpoint(rec: &Json) -> Result<(String, Restored), String> {
    let name = rec
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "checkpoint record without name".to_string())?
        .to_string();
    let field = |key: &str| rec.get(key).ok_or_else(|| format!("{name}: missing {key}"));
    let metrics = match field("metrics")? {
        Json::Arr(items) => items
            .iter()
            .map(metric_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{name}: {e}"))?,
        _ => return Err(format!("{name}: metrics is not an array")),
    };
    let restored = Restored {
        metrics,
        profile_fraction: from_bits(field("profile_fraction")?)
            .ok_or_else(|| format!("{name}: bad profile_fraction"))?,
        instructions: field("instructions")?
            .as_u64()
            .ok_or_else(|| format!("{name}: bad instructions"))?,
        events: Counts::from_json(field("events")?),
        wall_ns: field("wall_ns")?.as_u64().ok_or_else(|| format!("{name}: bad wall_ns"))?,
        baseline_wall_ns: opt_from_u64(field("baseline_wall_ns")?)
            .map_err(|e| format!("{name}: {e}"))?,
        governor: rec
            .get("governor")
            .map(governor_from_json)
            .transpose()
            .map_err(|e| format!("{name}: {e}"))?,
        phase: rec
            .get("phase")
            .map(phase_from_json)
            .transpose()
            .map_err(|e| format!("{name}: {e}"))?,
    };
    Ok((name, restored))
}

/// A checkpoint file being written to (and, on resume, read from).
///
/// Appends are serialized through a mutex, so workloads finishing
/// concurrently on different workers each land as one complete record.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    restored: HashMap<String, Restored>,
    append: Mutex<()>,
}

/// What [`Checkpoint::resume`] recovered from an existing file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Workloads restored (completed in the interrupted run).
    pub restored: usize,
    /// `Some(reason)` when a torn final record was dropped.
    pub dropped_tail: Option<String>,
}

impl Checkpoint {
    /// Starts a fresh checkpoint at `path`, discarding any existing file.
    pub fn create(path: &Path) -> io::Result<Checkpoint> {
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Checkpoint {
            path: path.to_path_buf(),
            restored: HashMap::new(),
            append: Mutex::new(()),
        })
    }

    /// Opens `path` for resuming: already-checkpointed workloads are
    /// restored and skipped by the runner; new completions keep appending
    /// to the same file. A missing file resumes from nothing. A torn
    /// final record (crash mid-append) is dropped, not an error.
    pub fn resume(path: &Path) -> io::Result<(Checkpoint, ResumeSummary)> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let parsed = parse_jsonl_lenient(&text).map_err(io::Error::other)?;
        let mut restored = HashMap::new();
        for rec in &parsed.records {
            if rec.get("kind").and_then(Json::as_str) != Some(KIND) {
                continue;
            }
            let (name, data) = parse_checkpoint(rec).map_err(io::Error::other)?;
            restored.insert(name, data);
        }
        let summary = ResumeSummary { restored: restored.len(), dropped_tail: parsed.dropped_tail };
        let checkpoint = Checkpoint { path: path.to_path_buf(), restored, append: Mutex::new(()) };
        Ok((checkpoint, summary))
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of workloads restored from the file at open time.
    pub fn restored_count(&self) -> usize {
        self.restored.len()
    }

    /// The restored profile for `name`, if the interrupted run completed
    /// it. The aggregate is recomputed from the restored metrics.
    pub fn restored(&self, name: &'static str) -> Option<WorkloadProfile> {
        let r = self.restored.get(name)?;
        Some(WorkloadProfile {
            name,
            aggregate: aggregate(&r.metrics),
            metrics: r.metrics.clone(),
            profile_fraction: r.profile_fraction,
            instructions: r.instructions,
            events: r.events,
            wall_ns: r.wall_ns,
            baseline_wall_ns: r.baseline_wall_ns,
            governor: r.governor,
            phase: r.phase,
        })
    }

    /// Durably appends one finished workload, then fires the
    /// [`APPENDED_FAULT_POINT`] hook (where the kill-and-resume tests
    /// abort the process).
    pub fn record(&self, plan: &FaultPlan, profile: &WorkloadProfile) -> io::Result<()> {
        let line = to_jsonl(&[checkpoint_record(profile)]);
        let _guard = self.append.lock().unwrap();
        durable::append_jsonl_with(plan, &self.path, &line)?;
        plan.fire(APPENDED_FAULT_POINT)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteRunner;
    use vp_workloads::{suite, DataSet};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("vp_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn profile_round_trips_bit_exactly() {
        let path = tmp("round_trip.jsonl");
        let profile = SuiteRunner::new().run_workloads(&suite()[..2], DataSet::Test);
        let checkpoint = Checkpoint::create(&path).unwrap();
        let plan = FaultPlan::empty();
        for w in &profile.workloads {
            checkpoint.record(&plan, w).unwrap();
        }
        let (resumed, summary) = Checkpoint::resume(&path).unwrap();
        assert_eq!(summary, ResumeSummary { restored: 2, dropped_tail: None });
        for w in &profile.workloads {
            let r = resumed.restored(w.name).unwrap();
            assert_eq!(r.metrics, w.metrics, "{}", w.name);
            assert_eq!(r.profile_fraction.to_bits(), w.profile_fraction.to_bits());
            assert_eq!(r.instructions, w.instructions);
            assert_eq!(r.events, w.events);
            assert_eq!(r.wall_ns, w.wall_ns);
            assert_eq!(r.aggregate, w.aggregate, "aggregate recomputed identically");
        }
        assert!(resumed.restored("no_such_workload").is_none());
    }

    #[test]
    fn adaptive_phase_stats_round_trip() {
        use vp_core::{PhaseBudget, ProfileMode};
        let path = tmp("adaptive_round_trip.jsonl");
        let budget = PhaseBudget { max_rearms: 4, window: 256 };
        let profile = SuiteRunner::new()
            .mode(ProfileMode::Adaptive(budget))
            .run_workloads(&suite()[..2], DataSet::Test);
        let checkpoint = Checkpoint::create(&path).unwrap();
        let plan = FaultPlan::empty();
        for w in &profile.workloads {
            assert!(w.phase.is_some());
            checkpoint.record(&plan, w).unwrap();
        }
        let (resumed, _) = Checkpoint::resume(&path).unwrap();
        for w in &profile.workloads {
            let r = resumed.restored(w.name).unwrap();
            assert_eq!(r.phase, w.phase, "{}", w.name);
            assert_eq!(r.metrics, w.metrics, "{}", w.name);
        }
    }

    #[test]
    fn record_with_retired_trace_counters_still_resumes() {
        // Entity-sharded suite runs once added `trace_shards`,
        // `trace_events` and `trace_chunks` to each record's events.
        // Such a checkpoint must still resume, keeping every counter
        // that still exists.
        let path = tmp("retired_counters.jsonl");
        let profile = SuiteRunner::new().run_workloads(&suite()[..1], DataSet::Test);
        let w = &profile.workloads[0];
        let mut rec = checkpoint_record(w);
        let Json::Obj(fields) = &mut rec else { panic!("a record is an object") };
        let Some((_, Json::Obj(events))) = fields.iter_mut().find(|(k, _)| k == "events") else {
            panic!("a record carries an events object")
        };
        for (name, n) in [("trace_shards", 2), ("trace_events", 41_210), ("trace_chunks", 11)] {
            events.push((name.to_string(), Json::U64(n)));
        }
        std::fs::write(&path, to_jsonl(&[rec])).unwrap();
        let (resumed, summary) = Checkpoint::resume(&path).unwrap();
        assert_eq!(summary, ResumeSummary { restored: 1, dropped_tail: None });
        let r = resumed.restored(w.name).unwrap();
        assert!(w.events.total() > 0);
        assert_eq!(r.events, w.events);
        assert_eq!(r.metrics, w.metrics);
    }

    #[test]
    fn torn_final_record_is_dropped_on_resume() {
        let path = tmp("torn.jsonl");
        let profile = SuiteRunner::new().run_workloads(&suite()[..2], DataSet::Test);
        let checkpoint = Checkpoint::create(&path).unwrap();
        let plan = FaultPlan::empty();
        checkpoint.record(&plan, &profile.workloads[0]).unwrap();
        checkpoint.record(&plan, &profile.workloads[1]).unwrap();
        // Tear the second record: keep the first line plus a partial tail.
        let text = std::fs::read_to_string(&path).unwrap();
        let first_end = text.find('\n').unwrap() + 1;
        let torn = format!("{}{}", &text[..first_end], &text[first_end..first_end + 30]);
        std::fs::write(&path, torn).unwrap();
        let (resumed, summary) = Checkpoint::resume(&path).unwrap();
        assert_eq!(summary.restored, 1);
        assert!(summary.dropped_tail.unwrap().contains("line 2"));
        assert!(resumed.restored(profile.workloads[0].name).is_some());
        assert!(resumed.restored(profile.workloads[1].name).is_none());
        // Appending after recovery truncates the torn tail first.
        resumed.record(&plan, &profile.workloads[1]).unwrap();
        let (again, summary) = Checkpoint::resume(&path).unwrap();
        assert_eq!(summary, ResumeSummary { restored: 2, dropped_tail: None });
        assert!(again.restored(profile.workloads[1].name).is_some());
    }

    #[test]
    fn resume_from_missing_file_is_empty() {
        let path = tmp("never_written.jsonl");
        let _ = std::fs::remove_file(&path);
        let (checkpoint, summary) = Checkpoint::resume(&path).unwrap();
        assert_eq!(summary, ResumeSummary { restored: 0, dropped_tail: None });
        assert_eq!(checkpoint.restored_count(), 0);
    }

    #[test]
    fn create_discards_previous_checkpoint() {
        let path = tmp("discard.jsonl");
        let profile = SuiteRunner::new().run_workloads(&suite()[..1], DataSet::Test);
        let checkpoint = Checkpoint::create(&path).unwrap();
        checkpoint.record(&FaultPlan::empty(), &profile.workloads[0]).unwrap();
        let fresh = Checkpoint::create(&path).unwrap();
        assert_eq!(fresh.restored_count(), 0);
        assert!(!path.exists());
    }
}
