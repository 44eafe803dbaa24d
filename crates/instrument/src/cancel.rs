//! Cooperative cancellation: the time half of the resource governor.
//!
//! A [`CancelToken`] is a shared flag a controller sets and a worker
//! polls. Nothing is ever killed: the instrumentation runner, trace
//! replay and the serve sessions call [`checkpoint`] at chunk
//! boundaries, and a checkpoint on a cancelled token unwinds with the
//! dedicated [`Cancelled`] payload — which the catching layer
//! ([`run_with_deadline`], and
//! [`try_parallel_map`](crate::parallel::try_parallel_map) for an item
//! that re-raises it with [`unwind`]) classifies as a *timeout*, distinct
//! from a genuine panic.
//!
//! [`run_with_deadline`] is the one deadline watchdog: `record`,
//! `replay`, each serve session and each suite-runner attempt run under
//! it. The token a piece of code should poll is carried in a
//! thread-local installed by [`with_token`]; code that never runs under
//! a token sees [`cancelled`] return `false` from one thread-local read,
//! so the checkpoints cost nothing when no deadline is armed.
//!
//! Everything here affects only *whether* work completes, never *what*
//! completed work computes: a workload that finishes before its deadline
//! produces byte-identical output to an un-governed run.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The panic payload of a cooperative-cancellation unwind. Catch sites
/// use [`is_cancel_payload`] to tell a timeout from a real panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline exceeded")
    }
}

/// A shared cancellation flag, cheap to clone and poll.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether this token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Runs `f` with `token` installed as this thread's current token (the
/// one [`cancelled`] and [`checkpoint`] consult), restoring the previous
/// token afterwards — including across an unwind.
pub fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token.clone()));
    let _restore = Restore(prev);
    f()
}

/// Whether the current thread's token (if any) has been cancelled.
/// Without an installed token this is a single thread-local read.
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// Unwinds with the [`Cancelled`] payload. Call only from code running
/// under a catch site that understands cancellation
/// ([`try_parallel_map`](crate::parallel::try_parallel_map) and
/// [`run_with_deadline`]).
pub fn unwind() -> ! {
    panic::panic_any(Cancelled)
}

/// The cooperative cancellation point: returns immediately when the
/// current token is live (or absent), unwinds with [`Cancelled`] when it
/// has been cancelled. Production loops call this at chunk boundaries.
pub fn checkpoint() {
    if cancelled() {
        unwind()
    }
}

/// Whether a caught panic payload is a cooperative-cancellation unwind.
pub fn is_cancel_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<Cancelled>()
}

/// Runs `f` under a fresh token that a watchdog thread cancels once
/// `deadline` elapses, returning `Err(Cancelled)` if `f` was cancelled
/// and unwound cooperatively. A genuine panic in `f` propagates.
///
/// The watchdog never kills anything: it only sets the flag, and `f`
/// must reach a [`checkpoint`] to actually stop — so a run that produces
/// output before its deadline produces exactly the output an un-deadlined
/// run would.
pub fn run_with_deadline<R>(deadline: Duration, f: impl FnOnce() -> R) -> Result<R, Cancelled> {
    let token = CancelToken::new();
    // done = (finished flag, wake signal): the watchdog sleeps on the
    // condvar until the deadline or completion, whichever comes first.
    let done = Arc::new((Mutex::new(false), Condvar::new()));
    let watchdog = {
        let token = token.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let (lock, cvar) = &*done;
            let mut finished = lock.lock().unwrap();
            let mut remaining = deadline;
            let start = std::time::Instant::now();
            while !*finished {
                let (guard, timeout) = cvar.wait_timeout(finished, remaining).unwrap();
                finished = guard;
                if *finished {
                    return;
                }
                if timeout.timed_out() || start.elapsed() >= deadline {
                    token.cancel();
                    return;
                }
                remaining = deadline.saturating_sub(start.elapsed());
            }
        })
    };
    let _quiet = crate::parallel::quiet_panics();
    let result = panic::catch_unwind(AssertUnwindSafe(|| with_token(&token, f)));
    {
        let (lock, cvar) = &*done;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }
    let _ = watchdog.join();
    match result {
        Ok(value) => Ok(value),
        Err(payload) if is_cancel_payload(payload.as_ref()) => Err(Cancelled),
        Err(payload) => panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live_and_cancels_once() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn no_token_means_never_cancelled() {
        assert!(!cancelled());
        checkpoint(); // must not unwind
    }

    #[test]
    fn with_token_installs_and_restores() {
        let t = CancelToken::new();
        with_token(&t, || {
            assert!(!cancelled());
            t.cancel();
            assert!(cancelled());
        });
        assert!(!cancelled(), "the previous (absent) token is back");
        // Restoration survives an unwind.
        let t2 = CancelToken::new();
        t2.cancel();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| with_token(&t2, checkpoint)));
        assert!(is_cancel_payload(caught.unwrap_err().as_ref()));
        assert!(!cancelled());
    }

    #[test]
    fn checkpoint_unwinds_with_the_cancel_payload() {
        let t = CancelToken::new();
        t.cancel();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| with_token(&t, checkpoint)));
        let payload = caught.unwrap_err();
        assert!(is_cancel_payload(payload.as_ref()));
        assert!(!is_cancel_payload(&"other panic"));
    }

    #[test]
    fn deadline_cancels_a_cooperative_loop() {
        let out = run_with_deadline(Duration::from_millis(20), || loop {
            checkpoint();
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(out, Err(Cancelled));
        assert_eq!(Cancelled.to_string(), "deadline exceeded");
    }

    #[test]
    fn fast_work_beats_its_deadline() {
        let out = run_with_deadline(Duration::from_secs(60), || {
            checkpoint();
            42
        });
        assert_eq!(out, Ok(42));
    }

    #[test]
    fn real_panics_propagate_through_run_with_deadline() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_with_deadline(Duration::from_secs(60), || panic!("genuine"))
        }));
        let payload = caught.unwrap_err();
        assert!(!is_cancel_payload(payload.as_ref()));
    }
}
