//! Crash-safe persistence: atomic writes, integrity-footered profile
//! files, and torn-tail recovery for append-only JSONL logs.
//!
//! Every file the toolchain writes goes through one of three shapes:
//!
//! * **Atomic replace** ([`write_atomic`]) — write a sibling `*.tmp`
//!   file, fsync it, then `rename` over the target and fsync the
//!   directory. A crash at any point leaves either the old file or the
//!   new file, never a torn mixture.
//! * **Footered profiles** ([`write_profile`] / [`parse_profile_checked`])
//!   — the TSV profile gains a trailing comment line
//!   `#vp-crc32 <hex> <rows>` carrying a CRC32 of everything above it and
//!   the row count. Loads verify the footer: strict mode refuses a file
//!   whose checksum does not match (bit rot, truncation, partial copy);
//!   lenient mode salvages the rows that still parse and reports what was
//!   recovered.
//! * **Recovering appends** ([`append_jsonl`]) — before appending, a
//!   final partial line (the signature of a crash mid-append) is
//!   truncated away, so the log converges back to "every line is a
//!   complete record" instead of poisoning all future reads. Only the
//!   file's tail is read to find it.
//!
//! Each operation consults a [`crate::fault::FaultPlan`] at
//! named fault points (`durable/tmp-written`, `durable/append`), which is
//! how the fault-injection tests prove the guarantees above without
//! actually crashing the test process. The plain entry points use the
//! process-global plan from `$VP_FAULTS`; the `*_with` variants take an
//! explicit plan so parallel tests stay isolated.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::Path;

use crate::fault::{self, FaultPlan};
use crate::metrics::EntityMetrics;
use crate::profile_io::{self, render_profile, ParseProfileError};

/// Marker beginning the profile integrity footer line.
pub const FOOTER_PREFIX: &str = "#vp-crc32";

// The CRC32 implementation lives in `vp_obs::crc` (the bottom of the
// dependency order) so the binary trace codec in `vp-instrument` can
// share it; re-exported here to keep `vp_core::durable::crc32` stable.
pub use vp_obs::crc::crc32;

// ---------------------------------------------------------------------
// Atomic replace
// ---------------------------------------------------------------------

fn sync_parent_dir(path: &Path) {
    // Persisting the rename needs a directory fsync; best-effort because
    // some filesystems refuse to open directories.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(f) = File::open(dir) {
            let _ = f.sync_all();
        }
    }
}

/// Writes `bytes` to `path` atomically: a crash leaves either the old
/// content or the new, never a prefix. Uses the global `$VP_FAULTS` plan.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(fault::global(), path, bytes)
}

/// [`write_atomic`] with an explicit fault plan (fault point
/// `durable/tmp-written`, between the tmp-file fsync and the rename).
pub fn write_atomic_with(plan: &FaultPlan, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        plan.fire("durable/tmp-written")?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------
// Footered profile files
// ---------------------------------------------------------------------

/// Renders metrics as profile TSV with the trailing integrity footer.
pub fn render_profile_durable(metrics: &[EntityMetrics]) -> String {
    let body = render_profile(metrics);
    format!("{body}{FOOTER_PREFIX} {:08x} {}\n", crc32(body.as_bytes()), metrics.len())
}

/// Writes a footered profile file atomically.
pub fn write_profile(path: &Path, metrics: &[EntityMetrics]) -> io::Result<()> {
    write_profile_with(fault::global(), path, metrics)
}

/// [`write_profile`] with an explicit fault plan.
pub fn write_profile_with(
    plan: &FaultPlan,
    path: &Path,
    metrics: &[EntityMetrics],
) -> io::Result<()> {
    write_atomic_with(plan, path, render_profile_durable(metrics).as_bytes())
}

/// How strictly [`parse_profile_checked`] treats integrity problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityMode {
    /// The footer must be present and match: checksum, row count, and
    /// every row must parse. Anything else is an error.
    Strict,
    /// Salvage what parses; report the damage in
    /// [`CheckedProfile::integrity`].
    Lenient,
}

/// What an integrity-checked load found out about the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Integrity {
    /// Footer present, checksum and row count match, all rows parsed.
    Verified {
        /// Rows loaded.
        rows: usize,
    },
    /// No (intact) footer — a legacy file, or one truncated past its
    /// footer. Only reported in lenient mode.
    Unverified {
        /// Rows recovered.
        rows: usize,
        /// Data lines dropped because they did not parse.
        dropped: usize,
    },
    /// Footer present but the content does not match it. Only reported
    /// in lenient mode.
    Corrupt {
        /// Rows recovered.
        rows: usize,
        /// Data lines dropped because they did not parse.
        dropped: usize,
        /// Checksum the footer promised.
        expected_crc: u32,
        /// Checksum of the content actually on disk.
        actual_crc: u32,
    },
}

impl Integrity {
    /// Rows that made it into [`CheckedProfile::metrics`].
    pub fn rows(&self) -> usize {
        match *self {
            Integrity::Verified { rows }
            | Integrity::Unverified { rows, .. }
            | Integrity::Corrupt { rows, .. } => rows,
        }
    }

    /// Whether the file verified clean.
    pub fn is_verified(&self) -> bool {
        matches!(self, Integrity::Verified { .. })
    }
}

impl fmt::Display for Integrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Integrity::Verified { rows } => write!(f, "verified ({rows} rows)"),
            Integrity::Unverified { rows, dropped } => {
                write!(f, "no integrity footer: recovered {rows} rows, dropped {dropped}")
            }
            Integrity::Corrupt { rows, dropped, expected_crc, actual_crc } => write!(
                f,
                "crc32 mismatch (footer {expected_crc:08x}, content {actual_crc:08x}): \
                 recovered {rows} rows, dropped {dropped}"
            ),
        }
    }
}

/// A profile load with its integrity verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProfile {
    /// The rows that loaded (all of them in strict mode).
    pub metrics: Vec<EntityMetrics>,
    /// What the integrity check concluded.
    pub integrity: Integrity,
}

struct Footer {
    expected_crc: u32,
    expected_rows: usize,
    /// Byte offset where the footer line begins (= length of the body).
    body_len: usize,
}

/// Locates and parses the trailing footer. `Ok(None)` = no footer at all;
/// `Err` = a line that starts like a footer but does not parse (corrupt).
fn find_footer(text: &str) -> Result<Option<Footer>, ParseProfileError> {
    // The footer must be the final non-empty line.
    let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
        return Ok(None);
    };
    if !last.starts_with('#') {
        return Ok(None);
    }
    let body_len = last.as_ptr() as usize - text.as_ptr() as usize;
    let corrupt = |msg: &str| ParseProfileError { line: 0, message: msg.to_string() };
    if !last.starts_with(FOOTER_PREFIX) {
        // Some other comment in footer position: treat as no footer.
        return Ok(None);
    }
    let mut fields = last.split_whitespace();
    fields.next(); // the marker
    let crc = fields.next().and_then(|f| u32::from_str_radix(f, 16).ok());
    let rows = fields.next().and_then(|f| f.parse::<usize>().ok());
    match (crc, rows, fields.next()) {
        (Some(expected_crc), Some(expected_rows), None) => {
            Ok(Some(Footer { expected_crc, expected_rows, body_len }))
        }
        _ => Err(corrupt("corrupt integrity footer")),
    }
}

/// Parses a profile with its integrity footer.
///
/// Strict mode errors on a missing or corrupt footer, a CRC32 or
/// row-count mismatch, and any malformed row. Lenient mode instead
/// recovers every row that parses (first occurrence wins on duplicate
/// ids) and reports the damage; it only fails when the header itself is
/// missing, because then nothing identifies the file as a profile.
pub fn parse_profile_checked(
    text: &str,
    mode: IntegrityMode,
) -> Result<CheckedProfile, ParseProfileError> {
    let footer = match (find_footer(text), mode) {
        (Ok(f), _) => f,
        (Err(e), IntegrityMode::Strict) => return Err(e),
        (Err(_), IntegrityMode::Lenient) => None,
    };

    let verdict = footer.as_ref().map(|f| {
        let actual_crc = crc32(&text.as_bytes()[..f.body_len]);
        (f.expected_crc, actual_crc)
    });

    if mode == IntegrityMode::Strict {
        let Some(footer) = footer else {
            return Err(ParseProfileError {
                line: 0,
                message: "missing integrity footer (truncated or pre-durability file?)".to_string(),
            });
        };
        let (expected, actual) = verdict.expect("footer present");
        if expected != actual {
            return Err(ParseProfileError {
                line: 0,
                message: format!(
                    "crc32 mismatch: footer says {expected:08x}, content is {actual:08x}"
                ),
            });
        }
        let metrics = crate::parse_profile(text)?;
        if metrics.len() != footer.expected_rows {
            return Err(ParseProfileError {
                line: 0,
                message: format!(
                    "row count mismatch: footer says {}, parsed {}",
                    footer.expected_rows,
                    metrics.len()
                ),
            });
        }
        let rows = metrics.len();
        return Ok(CheckedProfile { metrics, integrity: Integrity::Verified { rows } });
    }

    // Lenient: salvage row by row.
    let mut metrics: Vec<EntityMetrics> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut dropped = 0usize;
    for (line, raw) in profile_io::check_header(text)? {
        if profile_io::is_skippable(raw) {
            continue;
        }
        match profile_io::parse_row(raw, line) {
            Ok(m) if seen.insert(m.id) => metrics.push(m),
            _ => dropped += 1,
        }
    }
    let rows = metrics.len();
    let footer_rows = footer.as_ref().map(|f| f.expected_rows);
    let integrity = match verdict {
        Some((expected, actual))
            if expected == actual && dropped == 0 && footer_rows == Some(rows) =>
        {
            Integrity::Verified { rows }
        }
        Some((expected_crc, actual_crc)) => {
            Integrity::Corrupt { rows, dropped, expected_crc, actual_crc }
        }
        None => Integrity::Unverified { rows, dropped },
    };
    Ok(CheckedProfile { metrics, integrity })
}

/// Error loading a profile from disk: I/O or integrity/parse failure.
#[derive(Debug)]
pub enum LoadProfileError {
    /// Reading the file failed.
    Io(io::Error),
    /// The content failed parsing or integrity verification.
    Parse(ParseProfileError),
}

impl fmt::Display for LoadProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadProfileError::Io(e) => write!(f, "{e}"),
            LoadProfileError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadProfileError {}

/// Reads and integrity-checks a profile file.
pub fn load_profile(path: &Path, mode: IntegrityMode) -> Result<CheckedProfile, LoadProfileError> {
    let text = std::fs::read_to_string(path).map_err(LoadProfileError::Io)?;
    parse_profile_checked(&text, mode).map_err(LoadProfileError::Parse)
}

// ---------------------------------------------------------------------
// Recovering JSONL append
// ---------------------------------------------------------------------

/// Appends `text` (pre-rendered JSONL, newline-terminated) to `path`,
/// first truncating away a torn final line left by an earlier crash.
/// Returns the number of recovered (dropped) bytes. Durable: the append
/// is fsynced before returning. Only the file's tail is read, so an
/// append costs the same however long the log has grown. Uses the global
/// `$VP_FAULTS` plan.
pub fn append_jsonl(path: &Path, text: &str) -> io::Result<u64> {
    append_jsonl_with(fault::global(), path, text)
}

/// [`append_jsonl`] with an explicit fault plan (fault point
/// `durable/append`, before anything is written).
pub fn append_jsonl_with(plan: &FaultPlan, path: &Path, text: &str) -> io::Result<u64> {
    plan.fire("durable/append")?;
    let mut file =
        OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
    let len = file.metadata()?.len();
    // A complete log ends in a newline; anything after the last newline
    // is a partial record from a torn write.
    let keep = complete_lines_len(&mut file, len)?;
    let dropped = len - keep;
    if dropped > 0 {
        file.set_len(keep)?;
    }
    file.seek(io::SeekFrom::Start(keep))?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    Ok(dropped)
}

/// Bytes per read of the backwards scan in [`complete_lines_len`].
const TAIL_BLOCK: u64 = 4096;

/// The length of the longest prefix of `file` (`len` bytes) that ends in
/// a newline, 0 if there is none. Reads backwards from EOF one
/// [`TAIL_BLOCK`] at a time, so a log whose last line is whole costs one
/// small read.
fn complete_lines_len(file: &mut File, len: u64) -> io::Result<u64> {
    let mut block = [0u8; TAIL_BLOCK as usize];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(TAIL_BLOCK);
        let buf = &mut block[..(end - start) as usize];
        file.seek(io::SeekFrom::Start(start))?;
        file.read_exact(buf)?;
        if let Some(last_newline) = buf.iter().rposition(|&b| b == b'\n') {
            return Ok(start + last_newline as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vp_durable_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Vec<EntityMetrics> {
        vec![
            EntityMetrics {
                id: 3,
                executions: 1000,
                lvp: 0.125,
                inv_top1: 0.5,
                inv_topn: 0.75,
                inv_all1: Some(0.5),
                inv_alln: Some(1.0),
                pct_zero: 0.0625,
                distinct: Some(17),
                top_value: Some(u64::MAX),
            },
            EntityMetrics {
                id: 9,
                executions: 1,
                lvp: 0.0,
                inv_top1: 1.0,
                inv_topn: 1.0,
                inv_all1: None,
                inv_alln: None,
                pct_zero: 1.0,
                distinct: None,
                top_value: None,
            },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn atomic_write_replaces_and_survives_injected_failure() {
        let dir = tmp_dir("atomic");
        let path = dir.join("out.txt");
        write_atomic_with(&FaultPlan::empty(), &path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // An injected failure between tmp write and rename must leave the
        // old content intact and clean up the tmp file.
        let plan = FaultPlan::parse("err:durable/tmp-written").unwrap();
        let err = write_atomic_with(&plan, &path, b"second").unwrap_err();
        assert!(err.to_string().contains("fault injected"));
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        assert!(!dir.join("out.txt.tmp").exists(), "tmp file cleaned up");
        // The next (un-faulted) write goes through.
        write_atomic_with(&FaultPlan::empty(), &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
    }

    #[test]
    fn footered_profile_round_trips_verified() {
        let text = render_profile_durable(&sample());
        assert!(text.lines().last().unwrap().starts_with(FOOTER_PREFIX));
        for mode in [IntegrityMode::Strict, IntegrityMode::Lenient] {
            let checked = parse_profile_checked(&text, mode).unwrap();
            assert_eq!(checked.metrics, sample());
            assert_eq!(checked.integrity, Integrity::Verified { rows: 2 });
        }
        // The plain parser also reads footered files (skips the comment).
        assert_eq!(crate::parse_profile(&text).unwrap(), sample());
    }

    #[test]
    fn bit_flip_is_detected() {
        let good = render_profile_durable(&sample());
        // Flip a digit inside a data row: still parses, but checksum lies.
        let bad = good.replacen("1000", "1001", 1);
        assert_ne!(good, bad);
        let err = parse_profile_checked(&bad, IntegrityMode::Strict).unwrap_err();
        assert!(err.message.contains("crc32 mismatch"), "{err}");
        let checked = parse_profile_checked(&bad, IntegrityMode::Lenient).unwrap();
        assert_eq!(checked.integrity.rows(), 2);
        match checked.integrity {
            Integrity::Corrupt { expected_crc, actual_crc, .. } => {
                assert_ne!(expected_crc, actual_crc)
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected_and_salvaged() {
        let good = render_profile_durable(&sample());
        // Cut mid-way through the second data row (and lose the footer).
        let cut = good.len() - 40;
        let truncated = &good[..cut];
        let err = parse_profile_checked(truncated, IntegrityMode::Strict).unwrap_err();
        assert!(err.message.contains("integrity footer"), "{err}");
        let checked = parse_profile_checked(truncated, IntegrityMode::Lenient).unwrap();
        assert_eq!(checked.integrity, Integrity::Unverified { rows: 1, dropped: 1 });
        assert_eq!(checked.metrics, sample()[..1]);
    }

    #[test]
    fn legacy_file_without_footer() {
        let legacy = render_profile(&sample());
        assert!(parse_profile_checked(&legacy, IntegrityMode::Strict).is_err());
        let checked = parse_profile_checked(&legacy, IntegrityMode::Lenient).unwrap();
        assert_eq!(checked.metrics, sample());
        assert_eq!(checked.integrity, Integrity::Unverified { rows: 2, dropped: 0 });
    }

    #[test]
    fn load_profile_from_disk() {
        let dir = tmp_dir("load");
        let path = dir.join("p.tsv");
        write_profile_with(&FaultPlan::empty(), &path, &sample()).unwrap();
        let checked = load_profile(&path, IntegrityMode::Strict).unwrap();
        assert!(checked.integrity.is_verified());
        assert!(load_profile(&dir.join("missing.tsv"), IntegrityMode::Strict).is_err());
    }

    #[test]
    fn append_after_a_long_log_drops_exactly_the_torn_tail() {
        let dir = tmp_dir("append-tail");
        let path = dir.join("log.jsonl");
        let mut prefix = Vec::new();
        for i in 0.. {
            if prefix.len() >= 1 << 20 {
                break;
            }
            prefix.extend_from_slice(format!("{{\"record\":{i}}}\n").as_bytes());
        }
        // Torn tails shorter than, equal to and longer than one scan
        // block, and a log with no newline at all.
        let cases: Vec<(Vec<u8>, Vec<u8>)> = [0usize, 1, 4095, 4096, 4097, 10_000]
            .into_iter()
            .map(|torn| (prefix.clone(), vec![b'x'; torn]))
            .chain([(Vec::new(), vec![b'y'; 9000])])
            .collect();
        for (head, torn) in cases {
            let mut raw = head.clone();
            raw.extend_from_slice(&torn);
            std::fs::write(&path, &raw).unwrap();
            // The whole-file rule the tail scan must reproduce.
            let keep = raw.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            let dropped = append_jsonl_with(&FaultPlan::empty(), &path, "{\"z\":1}\n").unwrap();
            assert_eq!(dropped, (raw.len() - keep) as u64, "torn tail of {}", torn.len());
            assert_eq!(dropped, torn.len() as u64);
            let mut want = head;
            want.extend_from_slice(b"{\"z\":1}\n");
            assert!(std::fs::read(&path).unwrap() == want, "torn tail of {}", torn.len());
        }
    }

    #[test]
    fn append_recovers_torn_tail() {
        let dir = tmp_dir("append");
        let path = dir.join("log.jsonl");
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::empty();
        append_jsonl_with(&plan, &path, "{\"a\":1}\n{\"b\":2}\n").unwrap();
        // Simulate a crash mid-append: a partial third record, no newline.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(b"{\"c\":");
        std::fs::write(&path, &raw).unwrap();
        let dropped = append_jsonl_with(&plan, &path, "{\"d\":4}\n").unwrap();
        assert_eq!(dropped, 5);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n{\"d\":4}\n");
        // Injected failure at the append fault point.
        let faulty = FaultPlan::parse("err:durable/append").unwrap();
        assert!(append_jsonl_with(&faulty, &path, "{\"e\":5}\n").is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "file untouched");
    }
}
