//! One parallel map over a slice, built on `std::thread::scope` — no
//! external dependencies.
//!
//! Items are claimed from a shared atomic index and each result is
//! written into a dedicated output slot, so results come back in input
//! order regardless of which worker ran which item or in what order
//! they finished. One private claim loop serves every caller:
//! [`parallel_map`] for plain fan-out (profile shards, experiment rows)
//! and [`try_parallel_map`] for isolated items with optional telemetry
//! and a per-item deadline ([`MapOptions`]) — the suite runner's
//! `--jobs` threads and its `--workers` process dispatch alike.
//!
//! The map cooperates with [`crate::cancel`]: the token
//! installed on the calling thread (if any) is re-installed in every
//! worker, workers stop claiming items once it is cancelled, and the map
//! re-raises the cancellation on the calling thread before returning —
//! so a cancelled map never fabricates partial results. An armed
//! deadline adds a watchdog thread that cancels any single item running
//! longer than the per-item wall-clock limit; such items come back as
//! [`FailureKind::Timeout`] failures, distinct from caught panics.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use vp_obs::recorder::Stopwatch;
use vp_obs::{CounterId, HistId, NullRecorder, Recorder};

use crate::cancel::{self, CancelToken};

/// How often the deadline watchdog samples in-flight items. The deadline
/// is enforced with this granularity; results never depend on it.
const WATCHDOG_POLL: Duration = Duration::from_millis(2);

/// Resolves a `--jobs` argument: `0` means "use the machine's available
/// parallelism" (falling back to 1 when that cannot be determined).
pub fn effective_jobs(jobs: usize) -> usize {
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
/// caught unwind, in input order.
///
/// With one worker and no deadline everything runs on the calling
/// thread, whose cancel token is already installed; otherwise scoped
/// workers re-install the caller's token. An armed deadline runs each
/// item under a child token of its own, registered for the watchdog —
/// which needs worker threads to observe, so it forces the threaded path
/// even for `jobs == 1`.
///
/// With `rec` enabled, each item's wall time and a `WorkerItems` count
/// (failed items included: the work was done) and each worker's busy
/// and queue-wait times go to `rec`; disabled, no clock is ever read.
fn map_core<T, O, F>(
    jobs: usize,
    items: &[T],
    f: F,
    rec: &dyn Recorder,
    deadline: Option<Duration>,
) -> Vec<Result<O, Payload>>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let parent = cancel::current();
    let workers = effective_jobs(jobs).min(items.len());
    let next = AtomicUsize::new(0);
    let running = AtomicUsize::new(workers);
    let slots: Vec<Mutex<Option<Result<O, Payload>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let inflight: Vec<Mutex<Option<(Instant, CancelToken)>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();
    let work = |worker: usize| {
        let enabled = rec.enabled();
        let wall = enabled.then(Stopwatch::start);
        let mut busy = 0u64;
        loop {
            if parent.as_ref().is_some_and(CancelToken::is_cancelled) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let item_clock = enabled.then(Stopwatch::start);
            let out = match deadline {
                None => panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))),
                Some(_) => {
                    let token = parent.as_ref().map_or_else(CancelToken::new, CancelToken::child);
                    *inflight[worker].lock().unwrap() = Some((Instant::now(), token.clone()));
                    let out = panic::catch_unwind(AssertUnwindSafe(|| {
                        cancel::with_token(&token, || f(&items[i]))
                    }));
                    *inflight[worker].lock().unwrap() = None;
                    out
                }
            };
            if let Some(clock) = item_clock {
                let item_ns = clock.elapsed_ns();
                busy += item_ns;
                rec.observe(HistId::ItemNs, item_ns);
                rec.add(CounterId::WorkerItems, 1);
            }
            *slots[i].lock().unwrap() = Some(out);
        }
        if let Some(wall) = wall {
            // Everything a worker spends outside `f` is time waiting on
            // (or contending for) the shared queue.
            rec.observe(HistId::WorkerBusyNs, busy);
            rec.observe(HistId::WorkerQueueWaitNs, wall.elapsed_ns().saturating_sub(busy));
        }
        running.fetch_sub(1, Ordering::Release);
    };
    if workers == 1 && deadline.is_none() {
        work(0);
    } else {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (work, parent) = (&work, &parent);
                scope.spawn(move || match (parent, deadline) {
                    (Some(token), None) => cancel::with_token(token, || work(worker)),
                    _ => work(worker),
                });
            }
            if let Some(deadline) = deadline {
                // The watchdog: cancel any in-flight item past its
                // deadline, exit once every worker has stopped.
                let (running, inflight) = (&running, &inflight);
                scope.spawn(move || {
                    while running.load(Ordering::Acquire) > 0 {
                        for slot in inflight {
                            if let Some((started, token)) = &*slot.lock().unwrap() {
                                if started.elapsed() >= deadline {
                                    token.cancel();
                                }
                            }
                        }
                        std::thread::sleep(WATCHDOG_POLL);
                    }
                });
            }
        });
    }
    // Re-raise a cancellation on the calling thread *before* touching the
    // slots: a cancelled map may have unfilled slots, and must never
    // return partial results.
    cancel::checkpoint();
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every claimed slot"))
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
    map_core(jobs, items, f, &NullRecorder, None)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

/// Options of [`try_parallel_map`].
#[derive(Clone, Copy)]
pub struct MapOptions<'a> {
    /// Self-profiling sink: per-item wall times, per-worker busy and
    /// queue-wait times, and an item counter. A disabled recorder (the
    /// default [`NullRecorder`]) never reads a clock and costs one
    /// branch per site.
    pub recorder: &'a dyn Recorder,
    /// Per-item wall-clock deadline. An item still running when it fires
    /// is cancelled cooperatively and comes back as a
    /// [`FailureKind::Timeout`]; every other item still runs to
    /// completion, so one hung item can never stall the map. It bounds
    /// items that *cooperate* (reach checkpoints — the instrumentation
    /// runner and trace replay do); it cannot interrupt a closure that
    /// never checks, and never corrupts one mid-operation.
    pub deadline: Option<Duration>,
}

impl Default for MapOptions<'_> {
    fn default() -> Self {
        MapOptions { recorder: &NullRecorder, deadline: None }
    }
}

/// How one item of a [`try_parallel_map`] run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The closure panicked; the payload is in
    /// [`message`](ItemFailure::message).
    Panic,
    /// The closure was cancelled cooperatively after exceeding its
    /// wall-clock deadline (see [`MapOptions::deadline`]).
    Timeout,
    /// The worker *process* running the item died — killed, aborted, or
    /// gone with a torn result frame. Never produced by the in-process
    /// map in this module; the distributed suite executor uses it to
    /// keep process death distinct from an in-workload panic or a
    /// cooperative timeout, since it says nothing about the workload
    /// itself and is always worth a retry.
    WorkerDeath,
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
            FailureKind::WorkerDeath => {
                write!(f, "item {} lost its worker: {}", self.index, self.message)
            }
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
/// of taking down the whole map, and an item cut loose by the
/// [`MapOptions::deadline`] comes back as a timeout. Every other item
/// still runs and returns its result; slots stay in input order.
///
/// The closure is wrapped in [`AssertUnwindSafe`]: each item is processed
/// independently and a panicked item's partial state is discarded with its
/// slot, but a closure that mutates caller-visible shared state is itself
/// responsible for keeping that state coherent across a panic.
pub fn try_parallel_map<T, O, F>(
    jobs: usize,
    items: &[T],
    f: F,
    options: MapOptions<'_>,
) -> Vec<Result<O, ItemFailure>>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let _quiet = QuietPanics::engage();
    map_core(jobs, items, f, options.recorder, options.deadline)
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.map_err(|payload| classify(index, payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn observed_map_records_items_and_worker_times() {
        use vp_obs::MemRecorder;
        for jobs in [1, 4] {
            let rec = MemRecorder::new();
            let items: Vec<u64> = (0..30).collect();
            let options = MapOptions { recorder: &rec, deadline: None };
            let out = try_parallel_map(jobs, &items, |&x| x + 1, options);
            assert_eq!(out.len(), 30);
            let counts = rec.snapshot();
            assert_eq!(counts.get(CounterId::WorkerItems), 30, "jobs={jobs}");
            assert_eq!(rec.hist(HistId::ItemNs).count(), 30, "jobs={jobs}");
            let workers = if jobs == 1 { 1 } else { 4 };
            assert_eq!(rec.hist(HistId::WorkerBusyNs).count(), workers, "jobs={jobs}");
            assert_eq!(rec.hist(HistId::WorkerQueueWaitNs).count(), workers, "jobs={jobs}");
        }
    }

    #[test]
    fn try_map_isolates_panics_per_item() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1, 4] {
            let out = try_parallel_map(
                jobs,
                &items,
                |&x| {
                    if x % 13 == 5 {
                        panic!("boom at {x}");
                    }
                    x * 2
                },
                MapOptions::default(),
            );
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
        let tried: Vec<u64> = try_parallel_map(4, &items, |&x| x + 7, MapOptions::default())
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(plain, tried);
    }

    #[test]
    fn try_map_counts_panicked_items_too() {
        use vp_obs::MemRecorder;
        for jobs in [1, 4] {
            let rec = MemRecorder::new();
            let items: Vec<u64> = (0..10).collect();
            let out = try_parallel_map(
                jobs,
                &items,
                |&x| if x == 3 { panic!("nope") } else { x },
                MapOptions { recorder: &rec, deadline: None },
            );
            assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1, "jobs={jobs}");
            assert_eq!(rec.snapshot().get(CounterId::WorkerItems), 10, "jobs={jobs}");
            assert_eq!(rec.hist(HistId::ItemNs).count(), 10, "jobs={jobs}");
        }
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

    #[test]
    fn deadline_map_times_out_only_the_hung_item() {
        let items: Vec<u64> = (0..8).collect();
        for jobs in [1, 4] {
            let out = try_parallel_map(
                jobs,
                &items,
                |&x| {
                    if x == 3 {
                        loop {
                            cancel::checkpoint();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    x * 10
                },
                MapOptions { deadline: Some(Duration::from_millis(30)), ..MapOptions::default() },
            );
            assert_eq!(out.len(), 8, "jobs={jobs}");
            for (i, slot) in out.iter().enumerate() {
                if i == 3 {
                    let failure = slot.as_ref().unwrap_err();
                    assert_eq!(failure.kind, FailureKind::Timeout);
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
        let plain = try_parallel_map(4, &items, |&x| x + 1, MapOptions::default());
        let generous = MapOptions { deadline: Some(Duration::from_secs(60)), ..Default::default() };
        let dead = try_parallel_map(4, &items, |&x| x + 1, generous);
        assert_eq!(plain, dead);
    }

    #[test]
    fn deadline_map_still_classifies_real_panics() {
        let items: Vec<u64> = (0..4).collect();
        let out = try_parallel_map(
            2,
            &items,
            |&x| {
                if x == 1 {
                    panic!("genuine failure");
                }
                x
            },
            MapOptions { deadline: Some(Duration::from_secs(60)), ..MapOptions::default() },
        );
        let failure = out[1].as_ref().unwrap_err();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert_eq!(failure.message, "genuine failure");
    }

    #[test]
    fn cancelled_parent_aborts_the_map() {
        let token = CancelToken::new();
        let items: Vec<u64> = (0..64).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            cancel::with_token(&token, || {
                parallel_map(4, &items, |&x| {
                    if x == 0 {
                        token.cancel();
                    }
                    cancel::checkpoint();
                    x
                })
            })
        }));
        assert!(cancel::is_cancel_payload(caught.unwrap_err().as_ref()));
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
