//! One parallel map over a slice, built on `std::thread::scope` — no
//! external dependencies.
//!
//! Items are claimed from a shared atomic index and each result is
//! written into a dedicated output slot, so results come back in input
//! order regardless of which worker ran which item or in what order
//! they finished. The one claim loop does two jobs: claim items in input
//! order, and catch each item's unwind. [`parallel_map`] re-raises the
//! first caught panic once every item has been tried (profile shards,
//! experiment rows); [`try_parallel_map`] returns each failure in its
//! item's slot (the suite runner's `--jobs` threads, one attempt per
//! workload).
//!
//! The map arms no deadline of its own. A caller that bounds an item
//! wraps it in [`cancel::run_with_deadline`] and re-raises the
//! cancellation with [`cancel::unwind`]; [`try_parallel_map`] reports
//! that unwind as a [`FailureKind::Timeout`], distinct from a caught
//! panic.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use crate::cancel;

/// Resolves a `--jobs` argument: `0` means "use the machine's available
/// parallelism" (falling back to 1 when that cannot be determined).
fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    }
}

/// A caught unwind payload.
type Payload = Box<dyn Any + Send>;

/// The one claim loop. Applies `f` to every item on up to `jobs` workers
/// (`0` = available parallelism) and returns each item's result or
/// caught unwind, in input order. With one worker everything runs on the
/// calling thread.
fn map_core<T, O, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<O, Payload>>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let workers = effective_jobs(jobs).min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<O, Payload>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(&items[i])));
        // Nothing panics while a slot is locked: the item's unwind was
        // caught above.
        *slots[i].lock().expect("slot lock held only for a store") = Some(out);
    };
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().expect("slot lock held only for a store");
            slot.expect("worker filled every claimed slot")
        })
        .collect()
}

/// Applies `f` to every item of `items` on up to `jobs` worker threads
/// (`0` = available parallelism) and returns the results in input order.
///
/// Items are claimed dynamically, so uneven per-item cost balances across
/// workers. With `jobs <= 1` (or a single item) everything runs on the
/// calling thread — no threads are spawned and the result is identical by
/// construction, which is what makes `--jobs N` output comparable to
/// serial runs.
///
/// A panic in `f` propagates to the caller, with its payload, once every
/// item has been tried.
pub fn parallel_map<T, O, F>(jobs: usize, items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    map_core(jobs, items, f)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

/// How one item of a [`try_parallel_map`] run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The closure panicked; the payload is in
    /// [`message`](ItemFailure::message).
    Panic,
    /// The closure unwound with [`cancel::Cancelled`]: it ran past a
    /// deadline armed by [`cancel::run_with_deadline`].
    Timeout,
}

/// A failure captured from one item of a [`try_parallel_map`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the input item whose closure failed.
    pub index: usize,
    /// Whether the item panicked or timed out.
    pub kind: FailureKind,
    /// The panic payload rendered as a string, or a fixed description for
    /// timeouts (kept deterministic so failure output is reproducible).
    pub message: String,
}

impl fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FailureKind::Panic => write!(f, "item {} panicked: {}", self.index, self.message),
            FailureKind::Timeout => write!(f, "item {} timed out: {}", self.index, self.message),
        }
    }
}

impl std::error::Error for ItemFailure {}

fn panic_message(payload: Payload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Turns a caught unwind payload into the right kind of [`ItemFailure`]:
/// a cooperative-cancellation payload is a timeout, anything else a panic.
fn classify(index: usize, payload: Payload) -> ItemFailure {
    if cancel::is_cancel_payload(payload.as_ref()) {
        ItemFailure { index, kind: FailureKind::Timeout, message: cancel::Cancelled.to_string() }
    } else {
        ItemFailure { index, kind: FailureKind::Panic, message: panic_message(payload) }
    }
}

/// Process-wide count of in-flight [`try_parallel_map`] runs; while it is
/// nonzero the panic hook stays quiet, so captured per-item panics do not
/// spray stack traces over the tool's output.
static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);
static QUIET_HOOK: Once = Once::new();

pub(crate) struct QuietPanics;

impl QuietPanics {
    fn engage() -> QuietPanics {
        QUIET_HOOK.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.load(Ordering::Relaxed) == 0 {
                    prev(info);
                }
            }));
        });
        QUIET_DEPTH.fetch_add(1, Ordering::Relaxed);
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_DEPTH.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Suppresses panic-hook output for the guard's lifetime — used by
/// [`cancel::run_with_deadline`] so its cooperative unwinds stay quiet
/// exactly like captured per-item panics.
pub(crate) fn quiet_panics() -> QuietPanics {
    QuietPanics::engage()
}

/// [`parallel_map`] with per-item isolation: a panic in `f` is caught
/// and returned as `Err(`[`ItemFailure`]`)` in that item's slot instead
/// of taking down the whole map, and an item that unwinds with
/// [`cancel::Cancelled`] comes back as a timeout. Every other item still
/// runs and returns its result; slots stay in input order.
///
/// The closure is wrapped in [`AssertUnwindSafe`]: each item is processed
/// independently and a panicked item's partial state is discarded with its
/// slot, but a closure that mutates caller-visible shared state is itself
/// responsible for keeping that state coherent across a panic.
pub fn try_parallel_map<T, O, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<O, ItemFailure>>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let _quiet = QuietPanics::engage();
    map_core(jobs, items, f)
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.map_err(|payload| classify(index, payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(4, &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let serial = parallel_map(1, &items, |&x| x.wrapping_mul(0x9e37_79b9).rotate_left(7));
        let parallel = parallel_map(8, &items, |&x| x.wrapping_mul(0x9e37_79b9).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(4, &[42], |&x| x + 1), vec![43]);
    }

    #[test]
    fn zero_jobs_uses_available_parallelism() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
        let items: Vec<u32> = (0..16).collect();
        assert_eq!(parallel_map(0, &items, |&x| x + 1)[15], 16);
    }

    #[test]
    fn try_map_isolates_panics_per_item() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1, 4] {
            let out = try_parallel_map(jobs, &items, |&x| {
                if x % 13 == 5 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 40, "jobs={jobs}");
            for (i, slot) in out.iter().enumerate() {
                if i % 13 == 5 {
                    let failure = slot.as_ref().unwrap_err();
                    assert_eq!(failure.index, i);
                    assert_eq!(failure.kind, FailureKind::Panic);
                    assert_eq!(failure.message, format!("boom at {i}"));
                    assert!(failure.to_string().contains("panicked"));
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i as u64 * 2, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn try_map_without_panics_matches_parallel_map() {
        let items: Vec<u64> = (0..23).collect();
        let plain = parallel_map(4, &items, |&x| x + 7);
        let tried: Vec<u64> =
            try_parallel_map(4, &items, |&x| x + 7).into_iter().map(Result::unwrap).collect();
        assert_eq!(plain, tried);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different cost still come back in order.
        let items: Vec<u64> = (0..20).collect();
        let out = parallel_map(4, &items, |&x| {
            let spins = if x % 7 == 0 { 100_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    /// Runs `f` under a per-item deadline the way the suite runner does:
    /// a cancellation is re-raised for the map to classify.
    fn with_deadline<R>(deadline: Duration, f: impl FnOnce() -> R) -> R {
        cancel::run_with_deadline(deadline, f).unwrap_or_else(|_| cancel::unwind())
    }

    #[test]
    fn deadline_map_times_out_only_the_hung_item() {
        let items: Vec<u64> = (0..8).collect();
        for jobs in [1, 4] {
            let out = try_parallel_map(jobs, &items, |&x| {
                with_deadline(Duration::from_millis(30), || {
                    if x == 3 {
                        loop {
                            cancel::checkpoint();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    x * 10
                })
            });
            assert_eq!(out.len(), 8, "jobs={jobs}");
            for (i, slot) in out.iter().enumerate() {
                if i == 3 {
                    let failure = slot.as_ref().unwrap_err();
                    assert_eq!(failure.kind, FailureKind::Timeout, "jobs={jobs}");
                    assert_eq!(failure.message, "deadline exceeded");
                    assert!(failure.to_string().contains("timed out"));
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i as u64 * 10, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let items: Vec<u64> = (0..12).collect();
        for jobs in [1, 4] {
            let plain = try_parallel_map(jobs, &items, |&x| x + 1);
            let dead = try_parallel_map(jobs, &items, |&x| {
                with_deadline(Duration::from_secs(60), || x + 1)
            });
            assert_eq!(plain, dead, "jobs={jobs}");
        }
    }

    #[test]
    fn deadline_map_still_classifies_real_panics() {
        let items: Vec<u64> = (0..4).collect();
        for jobs in [1, 4] {
            let out = try_parallel_map(jobs, &items, |&x| {
                with_deadline(Duration::from_secs(60), || {
                    if x == 1 {
                        panic!("genuine failure");
                    }
                    x
                })
            });
            let failure = out[1].as_ref().unwrap_err();
            assert_eq!(failure.kind, FailureKind::Panic, "jobs={jobs}");
            assert_eq!(failure.message, "genuine failure");
        }
    }

    #[test]
    fn parallel_map_propagates_the_panic_payload() {
        let items: Vec<u64> = (0..16).collect();
        for jobs in [1, 4] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_map(jobs, &items, |&x| if x == 9 { panic!("boom at {x}") } else { x })
            }));
            let payload = caught.unwrap_err();
            assert_eq!(panic_message(payload), "boom at 9", "jobs={jobs}");
        }
    }
}
