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

use vp_core::{aggregate, durable, EntityMetrics, FaultPlan, ProfilerStats};
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

/// Serializes one finished workload as a checkpoint record. The stats
/// section (an array of its four values under its name) is emitted only
/// when the profiler has one, so checkpoint files of the other modes stay
/// byte-identical to the format from before either section existed.
fn checkpoint_record(profile: &WorkloadProfile) -> Json {
    let mut fields = vec![
        ("profile_fraction", bits(profile.profile_fraction)),
        ("instructions", Json::U64(profile.instructions)),
        ("wall_ns", Json::U64(profile.wall_ns)),
        ("baseline_wall_ns", opt_u64(profile.baseline_wall_ns)),
        ("events", profile.events.to_json()),
        ("metrics", Json::Arr(profile.metrics.iter().map(metric_to_json).collect())),
    ];
    if let Some(stats) = &profile.stats {
        fields.push((stats.name(), Json::Arr(stats.fields().map(|(_, v)| Json::U64(v)).to_vec())));
    }
    record(KIND, profile.name, fields)
}

/// Reads the stats section of a checkpoint record, if it has one.
fn stats_from_json(rec: &Json) -> Result<Option<ProfilerStats>, String> {
    for name in ProfilerStats::NAMES {
        let Some(j) = rec.get(name) else { continue };
        let Json::Arr(v) = j else { return Err(format!("{name} is not an array")) };
        if v.len() != 4 {
            return Err(format!("{name} has {} fields, expected 4", v.len()));
        }
        let mut values = [0; 4];
        for (i, (slot, j)) in values.iter_mut().zip(v).enumerate() {
            *slot = j.as_u64().ok_or_else(|| format!("bad integer in {name} field {i}"))?;
        }
        return Ok(ProfilerStats::from_values(name, values));
    }
    Ok(None)
}

/// Parses one checkpoint record into its workload's name and profile.
/// The profile's own name stays empty: profiles carry `&'static str`
/// names, so [`Checkpoint::restored`] re-attaches the live workload's.
/// The aggregate is recomputed from the restored metrics.
fn parse_checkpoint(rec: &Json) -> Result<(String, WorkloadProfile), String> {
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
    let restored = WorkloadProfile {
        name: "",
        aggregate: aggregate(&metrics),
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
        stats: stats_from_json(rec).map_err(|e| format!("{name}: {e}"))?,
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
    restored: HashMap<String, WorkloadProfile>,
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
    /// it.
    pub fn restored(&self, name: &'static str) -> Option<WorkloadProfile> {
        Some(WorkloadProfile { name, ..self.restored.get(name)?.clone() })
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
            assert!(matches!(w.stats, Some(ProfilerStats::Phase(_))), "{}", w.name);
            checkpoint.record(&plan, w).unwrap();
        }
        let (resumed, _) = Checkpoint::resume(&path).unwrap();
        for w in &profile.workloads {
            let r = resumed.restored(w.name).unwrap();
            assert_eq!(r.stats, w.stats, "{}", w.name);
            assert_eq!(r.metrics, w.metrics, "{}", w.name);
        }
    }

    /// A governed record (`profile-suite --mem-budget-mb 1`) and an
    /// adaptive one (`--adaptive --phase-window 256 --max-rearms 8`), as
    /// written before the two stats sections became one value.
    const OLD_STATS_RECORDS: &str = concat!(
        r#"{"schema":1,"kind":"checkpoint","name":"hydro2d","profile_fraction":4607182418800017408,"instructions":231125,"wall_ns":6200691,"baseline_wall_ns":null,"events":{"instr_events":67501,"load_events":67501,"tnv_hits":17049,"tnv_inserts":130,"tnv_evictions":50322,"tnv_clears":30,"tnv_cleared_entries":96,"workloads_profiled":1,"entities_degraded":1},"metrics":[[28,13500,4552330576938479154,4584964660638322961,4585071412629490262,null,null,4584964660638322961,null,0],[29,13500,4589489610663926917,4591710052080206771,4591774103274907151,4591710052080206771,4591779440874465516,4591710052080206771,12175,0],[30,13500,4584857908647155660,4584964660638322961,4585092763027723722,4584964660638322961,4585124788625073912,0,13043,4633922541587529728],[31,13500,4591635325686389660,4591710052080206771,4591752752876673691,4591710052080206771,4591768765675348786,4591710052080206771,12177,0],[35,13500,4607181751600072612,4607182418800017408,4607182418800017408,4607182418800017408,4607182418800017408,0,1,4598175219545276416],[48,1,0,4607182418800017408,4607182418800017408,4607182418800017408,4607182418800017408,0,1,4587085148429294606]],"governor":[919352,1,0,0]}"#,
        "\n",
        r#"{"schema":1,"kind":"checkpoint","name":"gcc","profile_fraction":4605308063526530830,"instructions":81019,"wall_ns":956614,"baseline_wall_ns":null,"events":{"instr_events":10500,"load_events":10500,"tnv_hits":6629,"tnv_inserts":35,"tnv_evictions":1651,"tnv_clears":1,"conv_backoffs":3,"conv_resumes":1,"conv_profiled":8315,"conv_skipped":2185,"workloads_profiled":1,"phase_windows":37,"phase_shifts":4,"phase_rearms":1},"metrics":[[19,4500,4607174267488474656,4601822931460657949,4607182418800017408,null,null,4595689069524737047,null,2],[26,1500,4603027097543830230,4604594350214155163,4605176815765961747,null,null,0,null,91],[36,1500,4586543065079153763,4586234246818991215,4598200954400289962,null,null,4586234246818991215,null,0],[43,1500,4604450235026079307,4599820534609142437,4605957439701372633,null,null,4599820534609142437,null,0],[48,1500,4603009083145320748,4605095750972669078,4605726254920500948,null,null,4605095750972669078,null,0]],"phase":[37,4,1,0]}"#,
        "\n",
    );

    #[test]
    fn records_from_before_the_stats_value_resume_and_rerecord_identically() {
        let path = tmp("old_stats_records.jsonl");
        std::fs::write(&path, OLD_STATS_RECORDS).unwrap();
        let (resumed, summary) = Checkpoint::resume(&path).unwrap();
        assert_eq!(summary, ResumeSummary { restored: 2, dropped_tail: None });
        let hydro2d = resumed.restored("hydro2d").unwrap();
        let gcc = resumed.restored("gcc").unwrap();
        assert_eq!(hydro2d.stats, ProfilerStats::from_values("governor", [919_352, 1, 0, 0]));
        assert_eq!(gcc.stats, ProfilerStats::from_values("phase", [37, 4, 1, 0]));
        let again = tmp("old_stats_records_rerecorded.jsonl");
        let checkpoint = Checkpoint::create(&again).unwrap();
        for w in [&hydro2d, &gcc] {
            checkpoint.record(&FaultPlan::empty(), w).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&again).unwrap(), OLD_STATS_RECORDS);
    }

    #[test]
    fn record_with_retired_trace_counters_still_resumes() {
        // Entity-sharded suite runs once added `trace_shards`,
        // `trace_events` and `trace_chunks` to each record's events, and
        // the flat sampler's engine mode added `sample_taken` and
        // `sample_skipped`. Such a checkpoint must still resume, keeping
        // every counter that still exists.
        let path = tmp("retired_counters.jsonl");
        let profile = SuiteRunner::new().run_workloads(&suite()[..1], DataSet::Test);
        let w = &profile.workloads[0];
        let mut rec = checkpoint_record(w);
        let Json::Obj(fields) = &mut rec else { panic!("a record is an object") };
        let Some((_, Json::Obj(events))) = fields.iter_mut().find(|(k, _)| k == "events") else {
            panic!("a record carries an events object")
        };
        let retired = [
            ("trace_shards", 2),
            ("trace_events", 41_210),
            ("trace_chunks", 11),
            ("sample_taken", 4_121),
            ("sample_skipped", 37_089),
        ];
        for (name, n) in retired {
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
