//! Telemetry emission for suite runs and experiments.
//!
//! Builds the schema-versioned records defined in [`vp_obs::telemetry`]
//! from a [`SuiteProfile`] (one `run` record, one `workload` record per
//! workload) and writes them as `telemetry.jsonl`.

use std::path::{Path, PathBuf};

use vp_obs::telemetry::{record, to_jsonl};
use vp_obs::{Counts, Json};
use vp_workloads::DataSet;

use crate::suite::{SuiteOutcome, SuiteProfile};

/// Environment variable overriding the default telemetry path.
pub const TELEMETRY_ENV: &str = "VP_TELEMETRY";

/// Where telemetry goes when no path is given: `$VP_TELEMETRY` if set,
/// else `telemetry.jsonl` in the working directory.
pub fn default_path() -> PathBuf {
    std::env::var_os(TELEMETRY_ENV).map_or_else(|| PathBuf::from("telemetry.jsonl"), PathBuf::from)
}

/// Builds the telemetry records of one suite run: a `run` record leading
/// with the configuration and suite-wide event totals, then one
/// `workload` record per workload (deterministic event counts, masked-out
/// volatile wall times, the aggregate's headline metrics).
pub fn suite_records(
    tool: &str,
    ds: DataSet,
    jobs: usize,
    mode: &str,
    profile: &SuiteProfile,
) -> Vec<Json> {
    let mut total_events = Counts::new();
    for w in &profile.workloads {
        total_events.merge(&w.events);
    }

    let run_fields = vec![
        ("tool", Json::Str(tool.to_string())),
        ("dataset", Json::Str(ds.name().to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("jobs", Json::U64(jobs as u64)),
        ("workloads", Json::U64(profile.workloads.len() as u64)),
        ("instructions", Json::U64(profile.total_instructions())),
        ("events", total_events.to_json()),
    ];
    let mut records = vec![record("run", tool, run_fields)];

    for w in &profile.workloads {
        let mut fields = vec![
            ("dataset", Json::Str(ds.name().to_string())),
            ("mode", Json::Str(mode.to_string())),
            ("instructions", Json::U64(w.instructions)),
            ("profile_fraction", Json::F64(w.profile_fraction)),
            ("inv_top1", Json::F64(w.aggregate.inv_top1)),
            ("lvp", Json::F64(w.aggregate.lvp)),
            ("pct_zero", Json::F64(w.aggregate.pct_zero)),
            ("events", w.events.to_json()),
            ("wall_ns", Json::U64(w.wall_ns)),
        ];
        if let Some(base) = w.baseline_wall_ns {
            fields.push(("baseline_wall_ns", Json::U64(base)));
        }
        if let Some(slowdown) = w.slowdown() {
            fields.push(("slowdown", Json::F64(slowdown)));
        }
        if let Some(stats) = &w.stats {
            let values = stats.fields().map(|(key, v)| (key, Json::U64(v)));
            fields.push((stats.name(), Json::obj(values.to_vec())));
        }
        records.push(record("workload", w.name, fields));
    }
    records
}

/// Builds the fault records of a [`SuiteOutcome`]: one `faults` record
/// carrying the panic/timeout/quarantine counters (only when any is
/// nonzero) and one `failure` record per quarantined workload. A clean
/// run contributes nothing, so existing telemetry stays byte-identical.
pub fn fault_records(tool: &str, outcome: &SuiteOutcome) -> Vec<Json> {
    let mut records = Vec::new();
    if outcome.faults.total() > 0 {
        records.push(record("faults", tool, vec![("events", outcome.faults.to_json())]));
    }
    for f in &outcome.failures {
        let fields = vec![
            // `kind` is taken by the record type; the failure's own
            // classification gets its own key.
            ("failure_kind", Json::Str(f.kind_str().to_string())),
            ("error", Json::Str(f.error.clone())),
        ];
        records.push(record("failure", f.name, fields));
    }
    records
}

/// Writes records to `path`, replacing any existing file. The write is
/// atomic ([`vp_core::durable::write_atomic`]): a crash mid-write leaves
/// the previous telemetry intact, never a torn file.
pub fn write_jsonl(path: &Path, records: &[Json]) -> std::io::Result<()> {
    vp_core::durable::write_atomic(path, to_jsonl(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteRunner;
    use vp_obs::telemetry::parse_jsonl;
    use vp_obs::SCHEMA_VERSION;
    use vp_workloads::suite;

    #[test]
    fn records_cover_run_and_workloads() {
        let profile = SuiteRunner::new().run_workloads(&suite()[..2], DataSet::Test);
        let records = suite_records("profile-suite", DataSet::Test, 1, "full", &profile);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].get("kind").unwrap().as_str(), Some("run"));
        assert_eq!(records[0].get("schema").unwrap().as_u64(), Some(SCHEMA_VERSION));
        for (rec, w) in records[1..].iter().zip(&profile.workloads) {
            assert_eq!(rec.get("kind").unwrap().as_str(), Some("workload"));
            assert_eq!(rec.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(rec.get("instructions").unwrap().as_u64(), Some(w.instructions));
        }
        // The whole set round-trips through JSONL.
        let text = to_jsonl(&records);
        assert_eq!(parse_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn write_replaces_the_file() {
        let dir = std::env::temp_dir().join("vp_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let profile = SuiteRunner::new().run_workloads(&suite()[..1], DataSet::Test);
        let records = suite_records("t", DataSet::Test, 1, "full", &profile);
        write_jsonl(&path, &records).unwrap();
        write_jsonl(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_jsonl(&text).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }
}
