//! The schema-versioned `telemetry.jsonl` record format.
//!
//! One JSON object per line, one line per run / phase / workload. Every
//! record carries `schema`, `kind` and `name` first so consumers can
//! filter without knowing a kind's payload. Timings are inherently
//! volatile, so [`mask_volatile`] replaces them with a placeholder to
//! make records golden-testable while keeping the deterministic fields
//! (event counts, instruction totals, fractions) byte-exact.

use crate::json::Json;

/// Version of the telemetry record layout. Bump when a field is renamed,
/// removed, or changes meaning; adding fields is backward compatible.
pub const SCHEMA_VERSION: u64 = 1;

/// Field names whose values vary run-to-run: the wall-clock fields that
/// suite and phase records write. [`mask_volatile`] replaces these
/// everywhere in a record.
pub const VOLATILE_KEYS: [&str; 6] =
    ["wall_ns", "baseline_wall_ns", "busy_ns", "wait_ns", "phase_ns", "slowdown"];

/// Builds a telemetry record: `schema`, `kind` and `name` first, then the
/// caller's payload fields in the order given.
pub fn record(kind: &str, name: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![
        ("schema", Json::U64(SCHEMA_VERSION)),
        ("kind", Json::Str(kind.to_string())),
        ("name", Json::Str(name.to_string())),
    ];
    all.extend(fields);
    Json::obj(all)
}

/// Renders records as JSONL (one compact object per line, trailing
/// newline).
pub fn to_jsonl(records: &[Json]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.render());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document, skipping blank lines. Fails on the first
/// malformed line, or on a record whose `schema` is newer than this
/// library understands.
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>, String> {
    let parsed = parse_jsonl_lenient(text)?;
    match parsed.dropped_tail {
        Some(reason) => Err(reason),
        None => Ok(parsed.records),
    }
}

/// Result of [`parse_jsonl_lenient`]: the records that parsed, plus the
/// parse error of a dropped final line, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// Records of every line up to (not including) a corrupt final line.
    pub records: Vec<Json>,
    /// `Some(parse error)` when the final line was malformed and dropped —
    /// the signature of a write torn by a crash mid-append.
    pub dropped_tail: Option<String>,
}

/// [`parse_jsonl`] that tolerates a torn final line: a malformed *last*
/// line is dropped (and reported) instead of failing the whole document,
/// so a telemetry file truncated by a crash still yields every complete
/// record. Malformed lines anywhere else are still an error.
pub fn parse_jsonl_lenient(text: &str) -> Result<LenientParse, String> {
    let mut records = Vec::new();
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()).collect();
    let last = lines.len().saturating_sub(1);
    for (at, (i, line)) in lines.iter().enumerate() {
        let parsed = match Json::parse(line) {
            Ok(rec) => match rec.get("schema").and_then(Json::as_u64) {
                Some(version) if version > SCHEMA_VERSION => {
                    Err(format!("schema {version} is newer than supported {SCHEMA_VERSION}"))
                }
                _ => Ok(rec),
            },
            Err(e) => Err(e),
        };
        match parsed {
            Ok(rec) => records.push(rec),
            Err(e) if at == last => {
                return Ok(LenientParse {
                    records,
                    dropped_tail: Some(format!("line {}: {e}", i + 1)),
                })
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(LenientParse { records, dropped_tail: None })
}

/// Deep-copies a record with every [`VOLATILE_KEYS`] field's value
/// replaced by the string `"<volatile>"`, leaving deterministic fields
/// untouched.
pub fn mask_volatile(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(key, value)| {
                    let masked = if VOLATILE_KEYS.contains(&key.as_str()) {
                        Json::Str("<volatile>".to_string())
                    } else {
                        mask_volatile(value)
                    };
                    (key.clone(), masked)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(mask_volatile).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_leads_with_schema_kind_name() {
        let rec = record("workload", "loop_inv", vec![("instructions", Json::U64(9))]);
        assert_eq!(
            rec.render(),
            r#"{"schema":1,"kind":"workload","name":"loop_inv","instructions":9}"#
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let records = vec![
            record("run", "suite", vec![("jobs", Json::U64(4))]),
            record("workload", "w0", vec![("wall_ns", Json::U64(123))]),
        ];
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn newer_schema_is_rejected() {
        let text = format!("{{\"schema\":{}}}\n", SCHEMA_VERSION + 1);
        assert!(parse_jsonl(&text).is_err());
    }

    #[test]
    fn lenient_parse_drops_only_a_torn_final_line() {
        let records = vec![
            record("run", "suite", vec![("jobs", Json::U64(4))]),
            record("workload", "w0", vec![("instructions", Json::U64(9))]),
        ];
        let mut text = to_jsonl(&records);
        // A crash mid-append leaves a partial final line with no newline.
        text.push_str("{\"schema\":1,\"kind\":\"work");
        let parsed = parse_jsonl_lenient(&text).unwrap();
        assert_eq!(parsed.records, records);
        assert!(parsed.dropped_tail.unwrap().contains("line 3"));
        // The strict parser rejects the same document.
        assert!(parse_jsonl(&text).is_err());
        // A malformed line in the middle is corruption, not truncation.
        let bad_middle = format!("not json\n{}", to_jsonl(&records));
        assert!(parse_jsonl_lenient(&bad_middle).is_err());
        // A clean document reports no drop.
        let clean = parse_jsonl_lenient(&to_jsonl(&records)).unwrap();
        assert_eq!(clean.records, records);
        assert_eq!(clean.dropped_tail, None);
    }

    #[test]
    fn masking_replaces_volatile_fields_at_any_depth() {
        let rec = record(
            "workload",
            "w0",
            vec![
                ("wall_ns", Json::U64(5)),
                ("instructions", Json::U64(10)),
                ("workers", Json::Arr(vec![Json::obj(vec![("busy_ns", Json::U64(3))])])),
            ],
        );
        let masked = mask_volatile(&rec);
        assert_eq!(masked.get("wall_ns").unwrap().as_str(), Some("<volatile>"));
        assert_eq!(masked.get("instructions").unwrap().as_u64(), Some(10));
        let workers = match masked.get("workers").unwrap() {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(workers[0].get("busy_ns").unwrap().as_str(), Some("<volatile>"));
        // Masking is idempotent.
        assert_eq!(mask_volatile(&masked), masked);
    }
}
