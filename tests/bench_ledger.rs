//! The committed perf ledger, `BENCH_perfbench.json`: one JSON array with
//! one benchmark entry per line, appended by `scripts/bench_ledger.sh`.
//! Every entry is complete, every measured run checked its output and
//! failed nothing, and every end-to-end run names each end-to-end metric
//! `BENCHMARK.json` declares, in its unit.

use value_profiling::obs::Json;

fn read(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The ledger's entries, each checked to sit on a line of its own.
fn entries() -> Vec<Json> {
    let text = read("BENCH_perfbench.json");
    let Ok(Json::Arr(entries)) = Json::parse(&text) else {
        panic!("BENCH_perfbench.json is not one JSON array")
    };
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.first(), Some(&"["), "the array opens on a line of its own");
    assert_eq!(lines.last(), Some(&"]"), "the array closes on a line of its own");
    let body = &lines[1..lines.len() - 1];
    assert_eq!(body.len(), entries.len(), "one entry per line");
    for (i, (line, entry)) in body.iter().zip(&entries).enumerate() {
        let line = line.strip_suffix(',').unwrap_or(line);
        assert_eq!(Json::parse(line).as_ref(), Ok(entry), "line {} is not its entry", i + 2);
    }
    assert!(!entries.is_empty(), "the ledger has no entries");
    entries
}

/// A short name for an entry in failure messages.
fn label(entry: &Json) -> String {
    let field = |key| entry.get(key).map_or_else(|| "?".to_string(), Json::render);
    format!("PR {} {} {} trace {}", field("pr"), field("side"), field("workload"), field("trace"))
}

#[test]
fn every_entry_is_complete_and_every_run_is_correct() {
    for entry in entries() {
        let at = label(&entry);
        let text = |key: &str| entry.get(key).and_then(Json::as_str);
        let count = |key: &str| entry.get(key).and_then(Json::as_u64);
        assert!(text("commit").is_some_and(|c| !c.is_empty()), "{at}: commit");
        assert!(count("pr").is_some(), "{at}: pr");
        assert!(matches!(text("side"), Some("parent" | "change" | "head")), "{at}: side");
        assert!(text("workload").is_some(), "{at}: workload");
        assert!(count("seed").is_some(), "{at}: seed");
        assert!(entry.get("seconds").and_then(Json::as_f64).is_some(), "{at}: seconds");
        assert!(matches!(count("trace"), Some(0 | 1)), "{at}: trace");
        assert!(text("machine").is_some_and(|m| !m.is_empty()), "{at}: machine");
        let Some(Json::Obj(metrics)) = entry.get("metrics") else { panic!("{at}: metrics") };
        for (name, metric) in metrics {
            assert!(metric.get("value").and_then(Json::as_f64).is_some(), "{at}: {name} value");
            assert!(metric.get("unit").and_then(Json::as_str).is_some(), "{at}: {name} unit");
        }
        match text("source") {
            Some("run") => {
                assert!(entry.get("calibration_scale").and_then(Json::as_f64).is_some(), "{at}");
                assert!(count("cpus").is_some_and(|n| n > 0), "{at}: cpus");
                assert!(count("attempted").is_some_and(|n| n > 0), "{at}: attempted");
                assert_eq!(entry.get("correct"), Some(&Json::Bool(true)), "{at}: correct");
                assert_eq!(count("failed"), Some(0), "{at}: failed");
            }
            Some("CHANGES.md") => {}
            other => panic!("{at}: source {other:?}"),
        }
    }
}

#[test]
fn end_to_end_entries_name_every_declared_metric() {
    let benchmark = Json::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Some(Json::Arr(declared)) = benchmark.get("end_to_end") else {
        panic!("BENCHMARK.json declares no end_to_end metrics")
    };
    let mut checked = 0;
    for entry in entries().iter().filter(|e| e.get("trace").and_then(Json::as_u64) == Some(0)) {
        let at = label(entry);
        for metric in declared {
            let name = metric.get("name").and_then(Json::as_str).expect("a declared name");
            let unit = metric.get("unit").and_then(Json::as_str).expect("a declared unit");
            let Some(row) = entry.get("metrics").and_then(|m| m.get(name)) else {
                panic!("{at}: no {name}")
            };
            assert_eq!(row.get("unit").and_then(Json::as_str), Some(unit), "{at}: {name} unit");
        }
        checked += 1;
    }
    assert!(checked > 0, "the ledger has no --trace 0 entry");
}
