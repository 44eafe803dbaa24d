//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] is a set of *fault points* — stable string names such
//! as `workload/gcc` or `durable/tmp-written` — each armed with an action
//! and a hit window. Production code calls [`FaultPlan::fire`] at its
//! fault points; with an empty plan (the default) that is a slice
//! iteration over zero entries, so the hooks cost nothing in normal runs.
//!
//! Plans are either built in-process (tests) or parsed from the
//! `VP_FAULTS` environment variable (CLI smoke tests, CI):
//!
//! ```text
//! VP_FAULTS=panic:workload/gcc,err:durable/append@2,kill:session/checkpoint@1
//! ```
//!
//! Each comma-separated entry is `ACTION:POINT[@START][xCOUNT]`:
//!
//! * `ACTION` — `panic`, `err` (an injected `io::Error`), `slow` (a fixed
//!   busy spin, no clock reads), `kill` (`process::abort`, simulating
//!   an unclean death such as SIGKILL), `hang` (block until
//!   cooperatively cancelled — the deterministic stand-in for an
//!   infinite loop, used to exercise deadline enforcement), or
//!   `disconnect` (drop the connection owning the fault point — only the
//!   serve daemon's session points can, others treat it as `err`);
//! * `POINT` — the fault-point name, matched exactly;
//! * `@START` — first hit (1-based) on which the fault fires (default 1);
//! * `xCOUNT` — number of consecutive hits that fire (default unlimited),
//!   so `panic:workload/li@1x2` panics on the first two hits and then
//!   lets the point pass.
//!
//! Everything is counter-driven: no clocks, no randomness, so injected
//! failures are reproducible byte-for-byte.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable holding the process-wide fault spec.
pub const FAULTS_ENV: &str = "VP_FAULTS";

/// Fault point hit by the `vprof serve` daemon once per accepted
/// connection, before the session handshake (`err` rejects the
/// connection; `kill` models the daemon dying in the accept path).
pub const SERVE_ACCEPT_POINT: &str = "serve/accept";

/// Fault point hit by a session thread once per protocol frame it
/// processes. `disconnect` drops the connection without a goodbye —
/// the deterministic model of a client (or network) vanishing
/// mid-session. The daemon also fires the tenant-qualified point
/// `session/<tenant>/frame`, so a fault can target one session even
/// with many running concurrently.
pub const SESSION_FRAME_POINT: &str = "session/frame";

/// Fault point hit once per durable session checkpoint, just before the
/// checkpoint record is appended. `kill` here is the serve kill-and-
/// resume oracle: the daemon dies with chunks in the log but no ack
/// sent, and the client must retransmit from the last acked chunk.
pub const SESSION_CHECKPOINT_POINT: &str = "session/checkpoint";

/// What a triggered fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with `fault injected: <point>`.
    Panic,
    /// Return an injected [`io::Error`] from [`FaultPlan::fire`].
    Err,
    /// Burn a fixed amount of CPU (deterministic iteration count), then
    /// continue normally — for making a step slow without clock reads.
    Slow,
    /// Abort the process without unwinding or flushing, like SIGKILL.
    Kill,
    /// Block until cooperatively cancelled (see
    /// [`vp_instrument::cancel`]) — a hung workload that only a deadline
    /// can cut loose. Without an armed deadline this blocks forever,
    /// which is the point: it is the deterministic model of an infinite
    /// loop.
    Hang,
    /// Drop a connection abruptly, no goodbye frame. Only meaningful at
    /// connection-owning fault points (the serve daemon matches it via
    /// [`FaultPlan::check`] and closes the socket); [`FaultPlan::fire`]
    /// treats it like [`FaultAction::Err`] so a plan armed with it never
    /// silently passes elsewhere.
    Disconnect,
}

impl FaultAction {
    fn parse(text: &str) -> Result<FaultAction, String> {
        match text {
            "panic" => Ok(FaultAction::Panic),
            "err" => Ok(FaultAction::Err),
            "slow" => Ok(FaultAction::Slow),
            "kill" => Ok(FaultAction::Kill),
            "hang" => Ok(FaultAction::Hang),
            "disconnect" => Ok(FaultAction::Disconnect),
            other => {
                Err(format!("unknown fault action `{other}` (panic|err|slow|kill|hang|disconnect)"))
            }
        }
    }
}

#[derive(Debug)]
struct Entry {
    action: FaultAction,
    point: String,
    /// First hit (1-based) that fires.
    start: u64,
    /// Number of consecutive firing hits; `None` = unlimited.
    count: Option<u64>,
    hits: AtomicU64,
}

impl Entry {
    fn parse(text: &str) -> Result<Entry, String> {
        let (action, rest) = text
            .split_once(':')
            .ok_or_else(|| format!("fault entry `{text}` is not ACTION:POINT[@START][xCOUNT]"))?;
        let action = FaultAction::parse(action)?;
        let (point, start, count) = match rest.rsplit_once('@') {
            Some((point, window)) => {
                let (start, count) = match window.split_once('x') {
                    Some((s, c)) => (s, Some(c)),
                    None => (window, None),
                };
                let start: u64 = start
                    .parse()
                    .map_err(|_| format!("bad fault window `@{window}` in `{text}`"))?;
                let count: Option<u64> = count
                    .map(str::parse)
                    .transpose()
                    .map_err(|_| format!("bad fault window `@{window}` in `{text}`"))?;
                if start == 0 || count == Some(0) {
                    return Err(format!("fault window `@{window}` in `{text}` must be >= 1"));
                }
                (point, start, count)
            }
            None => (rest, 1, None),
        };
        if point.is_empty() {
            return Err(format!("empty fault point in `{text}`"));
        }
        Ok(Entry { action, point: point.to_string(), start, count, hits: AtomicU64::new(0) })
    }

    /// Registers one hit and reports whether this entry fires on it.
    fn hit(&self) -> bool {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        hit >= self.start && self.count.is_none_or(|c| hit < self.start + c)
    }
}

/// A parsed, thread-safe fault plan. See the module docs for the spec
/// grammar. Hit counters are per-plan, so independently constructed plans
/// (e.g. in parallel tests) never interfere.
#[derive(Debug, Default)]
pub struct FaultPlan {
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// A plan with no faults — every [`fire`](FaultPlan::fire) is a no-op.
    pub fn empty() -> FaultPlan {
        FaultPlan { entries: Vec::new() }
    }

    /// Parses a comma-separated fault spec (see module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut entries = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            entries.push(Entry::parse(part)?);
        }
        Ok(FaultPlan { entries })
    }

    /// Builds the plan from `$VP_FAULTS` (empty plan when unset).
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) => FaultPlan::parse(&spec).map_err(|e| format!("{FAULTS_ENV}: {e}")),
            Err(_) => Ok(FaultPlan::empty()),
        }
    }

    /// Whether the plan has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a hit of `point` and returns the action of a fault that
    /// fires on it, without executing the action.
    pub fn check(&self, point: &str) -> Option<FaultAction> {
        let mut fired = None;
        for entry in self.entries.iter().filter(|e| e.point == point) {
            if entry.hit() {
                fired = fired.or(Some(entry.action));
            }
        }
        fired
    }

    /// Registers a hit of `point` and executes the armed action, if any:
    /// panics, aborts, spins, or returns an injected error. The normal
    /// (un-armed) outcome is `Ok(())`.
    pub fn fire(&self, point: &str) -> io::Result<()> {
        match self.check(point) {
            None => Ok(()),
            Some(FaultAction::Panic) => panic!("fault injected: {point}"),
            Some(FaultAction::Err) => Err(io::Error::other(format!("fault injected: {point}"))),
            Some(FaultAction::Kill) => std::process::abort(),
            Some(FaultAction::Slow) => {
                // ~10^8 dependent multiplies: long enough to be "slow",
                // no clocks involved, result kept live via black_box.
                let mut acc = 0x9e37_79b9_7f4a_7c15u64;
                for _ in 0..100_000_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                }
                std::hint::black_box(acc);
                Ok(())
            }
            // Only the daemon's connection-owning points can actually
            // drop a socket; everywhere else the injected error keeps
            // the plan from passing silently.
            Some(FaultAction::Disconnect) => {
                Err(io::Error::other(format!("fault injected: {point} (disconnect)")))
            }
            Some(FaultAction::Hang) => {
                // Spin-sleep until the current cancel token fires, then
                // unwind like any cooperatively cancelled work. The sleep
                // keeps the hang cheap; the cancellation decides *when*
                // it ends, so no clock appears in any assertion.
                loop {
                    if vp_instrument::cancel::cancelled() {
                        vp_instrument::cancel::unwind();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
    }
}

/// The process-wide plan parsed from `$VP_FAULTS` once, consulted by the
/// durable-persistence layer. Panics on a malformed spec — an operator
/// typo should fail loudly, not silently disable the fault.
pub fn global() -> &'static FaultPlan {
    static GLOBAL: OnceLock<FaultPlan> = OnceLock::new();
    GLOBAL.get_or_init(|| FaultPlan::from_env().unwrap_or_else(|e| panic!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.check("workload/gcc"), None);
        assert!(plan.fire("anything").is_ok());
    }

    #[test]
    fn parses_actions_and_windows() {
        let plan =
            FaultPlan::parse("panic:workload/gcc,err:durable/append@2,slow:a/b@3x1").unwrap();
        assert_eq!(plan.entries.len(), 3);
        assert_eq!(plan.entries[0].action, FaultAction::Panic);
        assert_eq!(plan.entries[0].start, 1);
        assert_eq!(plan.entries[0].count, None);
        assert_eq!(plan.entries[1].action, FaultAction::Err);
        assert_eq!(plan.entries[1].start, 2);
        assert_eq!(plan.entries[2].action, FaultAction::Slow);
        assert_eq!(plan.entries[2].count, Some(1));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("explode:workload/gcc").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("panic:").is_err());
        assert!(FaultPlan::parse("panic:p@zero").is_err());
        assert!(FaultPlan::parse("panic:p@0").is_err());
        assert!(FaultPlan::parse("panic:p@1x0").is_err());
        // Commas and whitespace are tolerated; empty entries skipped.
        assert!(FaultPlan::parse(" , panic:p ,, ").unwrap().entries.len() == 1);
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn window_counting_is_exact() {
        // Fires on hits 2 and 3 only.
        let plan = FaultPlan::parse("err:p@2x2").unwrap();
        assert_eq!(plan.check("p"), None);
        assert_eq!(plan.check("p"), Some(FaultAction::Err));
        assert_eq!(plan.check("p"), Some(FaultAction::Err));
        assert_eq!(plan.check("p"), None);
        // Other points never match.
        assert_eq!(plan.check("q"), None);
    }

    #[test]
    fn point_names_may_contain_x() {
        // `vortex` ends in 'x'; the count suffix must only bind after '@'.
        let plan = FaultPlan::parse("panic:workload/vortex").unwrap();
        assert_eq!(plan.entries[0].point, "workload/vortex");
        assert_eq!(plan.check("workload/vortex"), Some(FaultAction::Panic));
    }

    #[test]
    fn hang_blocks_until_cancelled_then_unwinds_as_timeout() {
        use vp_instrument::cancel;
        let plan = FaultPlan::parse("hang:stuck/point").unwrap();
        // A pre-cancelled token makes the hang end on its first poll, so
        // the test is instant and clock-free.
        let token = cancel::CancelToken::new();
        token.cancel();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cancel::with_token(&token, || plan.fire("stuck/point"))
        }));
        assert!(cancel::is_cancel_payload(caught.unwrap_err().as_ref()));
    }

    #[test]
    fn fire_executes_err_and_panic() {
        let plan = FaultPlan::parse("err:io/point,panic:boom/point").unwrap();
        let err = plan.fire("io/point").unwrap_err();
        assert!(err.to_string().contains("fault injected: io/point"));
        let caught = std::panic::catch_unwind(|| plan.fire("boom/point"));
        let payload = *caught.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(payload, "fault injected: boom/point");
    }
}
