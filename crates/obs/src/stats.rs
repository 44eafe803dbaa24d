//! Human-readable summary of a telemetry file: `vprof stats <file>`.
//!
//! Renders run headers and per-workload tables from the records defined
//! in [`telemetry`](crate::telemetry). Unknown record kinds are counted
//! but otherwise ignored, so the command keeps working when newer
//! producers add record types.

use crate::counter::{CounterId, Counts};
use crate::json::Json;

/// Summarizes parsed telemetry records into tables for humans. Callers
/// parse with [`parse_jsonl`](crate::telemetry::parse_jsonl) or, to
/// survive a torn tail,
/// [`parse_jsonl_lenient`](crate::telemetry::parse_jsonl_lenient).
pub fn summarize_records(records: &[Json]) -> Result<String, String> {
    if records.is_empty() {
        return Err("no telemetry records".to_string());
    }

    let mut out = String::new();
    let mut workloads: Vec<&Json> = Vec::new();
    let mut failures: Vec<&Json> = Vec::new();
    let mut optimized: Vec<&Json> = Vec::new();
    let mut serves: Vec<&Json> = Vec::new();
    let mut sessions: Vec<&Json> = Vec::new();
    let mut unknown = 0usize;

    for rec in records {
        match rec.get("kind").and_then(Json::as_str) {
            Some("run") => {
                if !out.is_empty() {
                    out.push('\n');
                }
                out.push_str(&run_header(rec));
            }
            Some("workload") => workloads.push(rec),
            Some("faults") => {
                out.push_str(&faults_line(rec));
            }
            Some("failure") => failures.push(rec),
            Some("optimize") => optimized.push(rec),
            Some("serve") => serves.push(rec),
            Some("session") => sessions.push(rec),
            _ => unknown += 1,
        }
    }

    if !workloads.is_empty() {
        out.push('\n');
        out.push_str(&workload_table(&workloads));
    }
    for section in &STATS_SECTIONS {
        let table = stats_table(section, &workloads);
        if !table.is_empty() {
            out.push('\n');
            out.push_str(&table);
        }
    }
    if !optimized.is_empty() {
        out.push('\n');
        out.push_str(&optimize_table(&optimized));
    }
    if !serves.is_empty() || !sessions.is_empty() {
        out.push('\n');
        out.push_str(&serve_section(&serves, &sessions));
    }
    if !failures.is_empty() {
        out.push('\n');
        out.push_str(&failure_table(&failures));
    }
    if unknown > 0 {
        out.push_str(&format!("\n({unknown} record(s) of unknown kind ignored)\n"));
    }
    Ok(out)
}

fn faults_line(rec: &Json) -> String {
    let counts = rec.get("events").map(Counts::from_json).unwrap_or_default();
    let mut line = "faults:".to_string();
    for (id, value) in counts.iter_nonzero() {
        line.push_str(&format!("  {}={}", id.name(), value));
    }
    line.push('\n');
    line
}

fn failure_table(failures: &[&Json]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<16} {:>8}  {:<12}  error\n", "failed", "attempts", "kind"));
    for rec in failures {
        let name = rec.get("name").and_then(Json::as_str).unwrap_or("?");
        let attempts = rec.get("attempts").and_then(Json::as_u64).unwrap_or(0);
        // Records from producers predating the deadline watchdog carry no
        // failure_kind — everything they quarantined was a panic.
        let kind = rec.get("failure_kind").and_then(Json::as_str).unwrap_or("panic");
        let error = rec.get("error").and_then(Json::as_str).unwrap_or("?");
        out.push_str(&format!("{name:<16} {attempts:>8}  {kind:<12}  {error}\n"));
    }
    out
}

/// A per-profiler stats section of `workload` records (see
/// `vp_core::ProfilerStats`): its record key, the table's first header,
/// its columns as `(header, field, width)`, and an alert printed when one
/// field sums above zero over the section's rows.
struct StatsSection {
    key: &'static str,
    title: &'static str,
    columns: [(&'static str, &'static str, usize); 4],
    /// `(field, message)`: `{}` in the message stands for the sum.
    alert: (&'static str, &'static str),
}

/// The memory governor's and the adaptive phase detector's sections.
const STATS_SECTIONS: [StatsSection; 2] = [
    StatsSection {
        key: "governor",
        title: "governor",
        columns: [
            ("peak bytes", "bytes_peak", 14),
            ("degraded", "entities_degraded", 10),
            ("dropped", "entities_dropped", 9),
            ("obs dropped", "observations_dropped", 12),
        ],
        alert: (
            "entities_dropped",
            "warning: {} entities dropped by the memory governor — their metrics are missing; raise the budget to recover them",
        ),
    },
    StatsSection {
        key: "phase",
        title: "adaptive",
        columns: [
            ("windows", "windows", 10),
            ("shifts", "shifts_detected", 8),
            ("rearms", "rearms", 8),
            ("denied", "rearms_denied", 8),
        ],
        alert: (
            "rearms_denied",
            "note: {} re-arm(s) denied by an exhausted phase budget — later shifts of those instructions were not re-profiled",
        ),
    },
];

/// Renders one stats section: a row per workload record that carries
/// it, then its alert if due. Empty when no record carries it.
fn stats_table(section: &StatsSection, workloads: &[&Json]) -> String {
    let rows: Vec<(&Json, &Json)> =
        workloads.iter().filter_map(|&rec| Some((rec, rec.get(section.key)?))).collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = format!("{:<16}", section.title);
    for (header, _, width) in section.columns {
        out.push_str(&format!(" {header:>width$}"));
    }
    let (alert_field, message) = section.alert;
    let mut alert = 0u64;
    for (rec, stats) in rows {
        let field = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!("\n{:<16}", rec.get("name").and_then(Json::as_str).unwrap_or("?")));
        for (_, key, width) in section.columns {
            out.push_str(&format!(" {:>width$}", group_digits(field(key))));
        }
        alert += field(alert_field);
    }
    out.push('\n');
    if alert > 0 {
        out.push_str(&message.replacen("{}", &group_digits(alert), 1));
        out.push('\n');
    }
    out
}

/// Renders the optimize-pipeline section: one row per workload the
/// `vprof optimize` pipeline evaluated, plus a warning when any
/// specialized program failed the output-equivalence check (the guards
/// must make that impossible — a failure is a bug worth shouting about).
fn optimize_table(records: &[&Json]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>14} {:>14} {:>8} {:>6} {:>7}  {}\n",
        "optimize", "base instrs", "spec instrs", "reduct%", "sites", "hit%", "equivalent"
    ));
    let mut broken = 0u64;
    for rec in records {
        let name = rec.get("name").and_then(Json::as_str).unwrap_or("?");
        let base = rec.get("base_instructions").and_then(Json::as_u64).unwrap_or(0);
        let spec = rec.get("specialized_instructions").and_then(Json::as_u64).unwrap_or(0);
        let reduct = rec
            .get("reduction_pct")
            .and_then(Json::as_f64)
            .map(|f| format!("{f:.2}"))
            .unwrap_or_else(|| "-".to_string());
        let sites = rec.get("sites").and_then(Json::as_u64).unwrap_or(0);
        let hits = rec.get("guard_hits").and_then(Json::as_u64).unwrap_or(0);
        let misses = rec.get("guard_misses").and_then(Json::as_u64).unwrap_or(0);
        let hit_rate = if hits + misses > 0 {
            format!("{:.1}", hits as f64 / (hits + misses) as f64 * 100.0)
        } else {
            "-".to_string()
        };
        let equivalent = match rec.get("equivalent") {
            Some(Json::Bool(b)) => {
                if !*b {
                    broken += 1;
                }
                b.to_string()
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<16} {:>14} {:>14} {:>8} {:>6} {:>7}  {}\n",
            name,
            group_digits(base),
            group_digits(spec),
            reduct,
            group_digits(sites),
            hit_rate,
            equivalent
        ));
    }
    if broken > 0 {
        out.push_str(&format!(
            "warning: {broken} specialized workload(s) diverged from the original output — guards failed to preserve behaviour\n"
        ));
    }
    out
}

/// Renders the `vprof serve` section: the daemon's exact admission and
/// checkpoint counters, then one row per session with its outcome.
/// Absent entirely unless a serve run emitted records, so telemetry from
/// every other tool renders exactly as before.
fn serve_section(serves: &[&Json], sessions: &[&Json]) -> String {
    let mut out = String::new();
    for rec in serves {
        let counts = rec.get("events").map(Counts::from_json).unwrap_or_default();
        out.push_str("serve:");
        for (id, value) in counts.iter_nonzero() {
            out.push_str(&format!("  {}={}", id.name(), value));
        }
        out.push('\n');
    }
    if !sessions.is_empty() {
        out.push_str(&format!(
            "{:<24} {:<12} {:<12} {:>8} {:>12}  detail\n",
            "session", "tenant", "outcome", "chunks", "events"
        ));
        for rec in sessions {
            let name = rec.get("name").and_then(Json::as_str).unwrap_or("?");
            let tenant = rec.get("tenant").and_then(Json::as_str).unwrap_or("?");
            let outcome = rec.get("outcome").and_then(Json::as_str).unwrap_or("?");
            let chunks = rec.get("chunks").and_then(Json::as_u64).unwrap_or(0);
            let events = rec.get("trace_events").and_then(Json::as_u64).unwrap_or(0);
            let detail = rec.get("error").and_then(Json::as_str).unwrap_or("-");
            out.push_str(&format!(
                "{:<24} {:<12} {:<12} {:>8} {:>12}  {}\n",
                name,
                tenant,
                outcome,
                group_digits(chunks),
                group_digits(events),
                detail
            ));
        }
    }
    out
}

fn run_header(rec: &Json) -> String {
    let name = rec.get("name").and_then(Json::as_str).unwrap_or("?");
    let mut line = format!("run: {name}");
    for key in ["tool", "mode", "jobs", "workloads", "reps"] {
        if let Some(value) = rec.get(key) {
            let shown = match value {
                Json::Str(s) => s.clone(),
                other => other.render(),
            };
            line.push_str(&format!("  {key}={shown}"));
        }
    }
    line.push('\n');
    if let Some(events) = rec.get("events") {
        let counts = Counts::from_json(events);
        line.push_str(&format!("  total events: {}\n", group_digits(counts.total())));
        for (id, value) in counts.iter_nonzero() {
            line.push_str(&format!("    {:<20} {:>16}\n", id.name(), group_digits(value)));
        }
        let mem_dropped = counts.get(CounterId::MemDropped);
        if mem_dropped > 0 {
            line.push_str(&format!(
                "  warning: {} stores dropped at the memory profiler's location cap — per-location results are incomplete\n",
                group_digits(mem_dropped)
            ));
        }
    }
    line
}

fn workload_table(workloads: &[&Json]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>12} {:>9} {:>10} {:>10}\n",
        "workload", "mode", "instrs", "events", "prof%", "wall ms", "Mev/s"
    ));
    for rec in workloads {
        let name = rec.get("name").and_then(Json::as_str).unwrap_or("?");
        let mode = rec.get("mode").and_then(Json::as_str).unwrap_or("-");
        let instrs = rec.get("instructions").and_then(Json::as_u64).unwrap_or(0);
        let events = rec.get("events").map(|e| Counts::from_json(e).total()).unwrap_or(0);
        let frac = rec
            .get("profile_fraction")
            .and_then(Json::as_f64)
            .map(|f| format!("{:.1}", f * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let wall_ns = rec.get("wall_ns").and_then(Json::as_u64);
        let rate = match wall_ns {
            Some(ns) if ns > 0 && events > 0 => {
                format!("{:.1}", events as f64 / ns as f64 * 1e3)
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>12} {:>9} {:>10} {:>10}\n",
            name,
            mode,
            group_digits(instrs),
            group_digits(events),
            frac,
            ms(rec.get("wall_ns")),
            rate
        ));
    }
    out
}

/// Formats a nanosecond field as milliseconds, or `-` when absent or
/// masked.
fn ms(value: Option<&Json>) -> String {
    match value.and_then(Json::as_u64) {
        Some(ns) => format!("{:.2}", ns as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// `1234567` → `1,234,567`.
fn group_digits(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::CounterId;
    use crate::telemetry::{parse_jsonl, record, to_jsonl};

    fn summarize(jsonl: &str) -> Result<String, String> {
        summarize_records(&parse_jsonl(jsonl)?)
    }

    fn sample_jsonl() -> String {
        let mut counts = Counts::new();
        counts.add(CounterId::InstrEvents, 1_000_000);
        counts.add(CounterId::TnvHits, 900_000);
        let records = vec![
            record(
                "run",
                "profile-suite",
                vec![
                    ("jobs", Json::U64(4)),
                    ("mode", Json::Str("full".to_string())),
                    ("events", counts.to_json()),
                ],
            ),
            record(
                "workload",
                "loop_inv",
                vec![
                    ("mode", Json::Str("full".to_string())),
                    ("instructions", Json::U64(500_000)),
                    ("profile_fraction", Json::F64(1.0)),
                    ("wall_ns", Json::U64(2_000_000)),
                    ("events", counts.to_json()),
                ],
            ),
        ];
        to_jsonl(&records)
    }

    #[test]
    fn summary_includes_run_and_workloads() {
        let text = summarize(&sample_jsonl()).unwrap();
        assert!(text.contains("run: profile-suite"), "{text}");
        assert!(text.contains("jobs=4"), "{text}");
        assert!(text.contains("instr_events"), "{text}");
        assert!(text.contains("loop_inv"), "{text}");
        assert!(text.contains("2.00"), "{text}");
    }

    #[test]
    fn masked_wall_times_render_as_dash() {
        let masked: String = crate::telemetry::parse_jsonl(&sample_jsonl())
            .unwrap()
            .iter()
            .map(|r| crate::telemetry::mask_volatile(r).render() + "\n")
            .collect();
        let text = summarize(&masked).unwrap();
        assert!(text.contains(" -"), "{text}");
    }

    #[test]
    fn faults_and_failures_render() {
        let mut counts = Counts::new();
        counts.add(CounterId::WorkloadPanic, 3);
        counts.add(CounterId::WorkloadRetry, 2);
        counts.add(CounterId::WorkloadQuarantined, 1);
        let records = vec![
            record("run", "profile-suite", vec![("jobs", Json::U64(1))]),
            record("faults", "profile-suite", vec![("events", counts.to_json())]),
            record(
                "failure",
                "gcc",
                vec![
                    ("attempts", Json::U64(3)),
                    ("error", Json::Str("fault injected: workload/gcc".to_string())),
                ],
            ),
        ];
        let text = summarize_records(&records).unwrap();
        assert!(text.contains("workload_panics=3"), "{text}");
        assert!(text.contains("workload_retries=2"), "{text}");
        assert!(text.contains("gcc"), "{text}");
        assert!(text.contains("fault injected: workload/gcc"), "{text}");
        assert!(!text.contains("unknown kind"), "{text}");
    }

    #[test]
    fn governor_section_and_timeout_kind_render() {
        let mut counts = Counts::new();
        counts.add(CounterId::WorkloadTimeout, 1);
        counts.add(CounterId::MemDropped, 7);
        let records = vec![
            record(
                "run",
                "profile-suite",
                vec![("jobs", Json::U64(1)), ("events", counts.to_json())],
            ),
            record(
                "workload",
                "gcc",
                vec![
                    ("instructions", Json::U64(10)),
                    (
                        "governor",
                        Json::obj(vec![
                            ("bytes_peak", Json::U64(65_536)),
                            ("entities_degraded", Json::U64(4)),
                            ("entities_dropped", Json::U64(1)),
                            ("observations_dropped", Json::U64(2_000)),
                        ]),
                    ),
                ],
            ),
            record("faults", "profile-suite", vec![("events", counts.to_json())]),
            record(
                "failure",
                "li",
                vec![
                    ("attempts", Json::U64(1)),
                    ("failure_kind", Json::Str("timeout".to_string())),
                    ("error", Json::Str("deadline exceeded".to_string())),
                ],
            ),
        ];
        let text = summarize_records(&records).unwrap();
        assert!(text.contains("workload_timeouts=1"), "{text}");
        assert!(text.contains("governor"), "{text}");
        assert!(text.contains("65,536"), "{text}");
        assert!(text.contains("entities dropped by the memory governor"), "{text}");
        assert!(text.contains("stores dropped at the memory profiler's location cap"), "{text}");
        // The table row itself carries the timeout classification — a
        // bare substring would also match "workload_timeouts" above.
        assert!(text.contains("  timeout       deadline exceeded"), "{text}");
    }

    #[test]
    fn ungoverned_records_render_without_governor_section() {
        let text = summarize(&sample_jsonl()).unwrap();
        assert!(!text.contains("governor"), "{text}");
        assert!(!text.contains("warning"), "{text}");
    }

    #[test]
    fn adaptive_section_renders_phase_counters() {
        let records = vec![
            record("run", "profile-suite", vec![("jobs", Json::U64(1))]),
            record(
                "workload",
                "gcc",
                vec![
                    ("instructions", Json::U64(10)),
                    (
                        "phase",
                        Json::obj(vec![
                            ("windows", Json::U64(1_234)),
                            ("shifts_detected", Json::U64(17)),
                            ("rearms", Json::U64(5)),
                            ("rearms_denied", Json::U64(2)),
                        ]),
                    ),
                ],
            ),
        ];
        let text = summarize_records(&records).unwrap();
        assert!(text.contains("adaptive"), "{text}");
        assert!(text.contains("1,234"), "{text}");
        assert!(text.contains("re-arm(s) denied by an exhausted phase budget"), "{text}");
    }

    #[test]
    fn non_adaptive_records_render_without_adaptive_section() {
        let text = summarize(&sample_jsonl()).unwrap();
        assert!(!text.contains("adaptive"), "{text}");
        assert!(!text.contains("rearms"), "{text}");
    }

    #[test]
    fn optimize_section_renders_reduction_and_guard_rates() {
        let records = vec![
            record("run", "optimize", vec![("jobs", Json::U64(1))]),
            record(
                "optimize",
                "m88ksim",
                vec![
                    ("base_instructions", Json::U64(120_000)),
                    ("specialized_instructions", Json::U64(90_000)),
                    ("reduction_pct", Json::F64(25.0)),
                    ("equivalent", Json::Bool(true)),
                    ("sites", Json::U64(2)),
                    ("guard_hits", Json::U64(1_900)),
                    ("guard_misses", Json::U64(100)),
                ],
            ),
            record(
                "optimize",
                "gcc",
                vec![
                    ("base_instructions", Json::U64(50_000)),
                    ("specialized_instructions", Json::U64(50_000)),
                    ("equivalent", Json::Bool(false)),
                    ("sites", Json::U64(0)),
                ],
            ),
        ];
        let text = summarize_records(&records).unwrap();
        assert!(text.contains("optimize"), "{text}");
        assert!(text.contains("m88ksim"), "{text}");
        assert!(text.contains("25.00"), "{text}");
        assert!(text.contains("95.0"), "{text}");
        assert!(text.contains("true"), "{text}");
        assert!(text.contains("diverged from the original output"), "{text}");
        assert!(!text.contains("unknown kind"), "{text}");
    }

    #[test]
    fn non_optimize_records_render_without_optimize_section() {
        let text = summarize(&sample_jsonl()).unwrap();
        assert!(!text.contains("optimize"), "{text}");
    }

    #[test]
    fn serve_section_renders_counters_and_sessions() {
        let mut counts = Counts::new();
        counts.add(CounterId::SessionRejected, 4);
        counts.add(CounterId::SessionKilled, 1);
        counts.add(CounterId::SessionCompleted, 2);
        counts.add(CounterId::ChunksAcked, 37);
        let records = vec![
            record("serve", "daemon", vec![("events", counts.to_json())]),
            record(
                "session",
                "acme/li",
                vec![
                    ("tenant", Json::Str("acme".to_string())),
                    ("outcome", Json::Str("completed".to_string())),
                    ("chunks", Json::U64(19)),
                    ("trace_events", Json::U64(151_000)),
                ],
            ),
            record(
                "session",
                "evil/gcc",
                vec![
                    ("tenant", Json::Str("evil".to_string())),
                    ("outcome", Json::Str("killed".to_string())),
                    ("chunks", Json::U64(3)),
                    ("trace_events", Json::U64(24_576)),
                    ("error", Json::Str("chunk 4 crc mismatch".to_string())),
                ],
            ),
        ];
        let text = summarize_records(&records).unwrap();
        assert!(text.contains("serve:  session_rejected=4"), "{text}");
        assert!(text.contains("chunks_acked=37"), "{text}");
        assert!(text.contains("acme/li"), "{text}");
        assert!(text.contains("completed"), "{text}");
        assert!(text.contains("chunk 4 crc mismatch"), "{text}");
        assert!(text.contains("151,000"), "{text}");
        assert!(!text.contains("unknown kind"), "{text}");
    }

    #[test]
    fn non_serve_records_render_without_serve_section() {
        let text = summarize(&sample_jsonl()).unwrap();
        assert!(!text.contains("serve:"), "{text}");
        assert!(!text.contains("tenant"), "{text}");
    }

    #[test]
    fn unknown_kinds_are_tolerated() {
        let mut jsonl = sample_jsonl();
        jsonl.push_str("{\"schema\":1,\"kind\":\"mystery\",\"name\":\"x\"}\n");
        let text = summarize(&jsonl).unwrap();
        assert!(text.contains("1 record(s) of unknown kind ignored"), "{text}");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(summarize("").is_err());
        assert!(summarize("not json\n").is_err());
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(1234567), "1,234,567");
    }
}
