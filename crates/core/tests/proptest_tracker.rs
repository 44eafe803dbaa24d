//! Property tests: `ValueTracker`/`FullProfile` against naive reference
//! computations, plus structural TNV invariants, over arbitrary value
//! streams.

use std::collections::HashMap;

use proptest::prelude::*;
use vp_core::metrics::EntityMetrics;
use vp_core::tnv::{Policy, TnvTable};
use vp_core::track::{TrackerConfig, ValueTracker};

/// Streams drawn from a small alphabet (so collisions and invariance
/// actually occur) mixed with occasional arbitrary values.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop_oneof![4 => 0u64..8, 1 => any::<u64>()], 1..400)
}

/// Tie-heavy streams: a few dozen values share a few hundred draws, so
/// many counts collide, and the arbitrary values all tie at low counts.
/// May be empty.
fn arb_tied_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop_oneof![4 => 0u64..40, 1 => any::<u64>()], 0..400)
}

/// Readout widths around every boundary of `top(n)` for a histogram with
/// `distinct` values.
fn widths(distinct: usize, extra: usize) -> Vec<usize> {
    vec![0, 1, 2, 8, extra, distinct.saturating_sub(1), distinct, distinct + 1, usize::MAX]
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Lfu),
        Just(Policy::Lru),
        (1usize..8, 1u64..500)
            .prop_map(|(steady, clear_interval)| Policy::LfuClear { steady, clear_interval }),
    ]
}

proptest! {
    /// Exact metrics match a naive reference implementation.
    #[test]
    fn tracker_matches_reference(stream in arb_stream()) {
        let mut tracker = ValueTracker::new(TrackerConfig::with_full());
        for &v in &stream {
            tracker.observe(v);
        }
        // Reference: histogram + linear scans.
        let mut hist: HashMap<u64, u64> = HashMap::new();
        let mut lvp_hits = 0u64;
        let mut zeros = 0u64;
        for (i, &v) in stream.iter().enumerate() {
            *hist.entry(v).or_insert(0) += 1;
            if i > 0 && stream[i - 1] == v {
                lvp_hits += 1;
            }
            if v == 0 {
                zeros += 1;
            }
        }
        let n = stream.len() as f64;
        prop_assert_eq!(tracker.executions(), stream.len() as u64);
        prop_assert!((tracker.lvp() - lvp_hits as f64 / n).abs() < 1e-12);
        prop_assert!((tracker.pct_zero() - zeros as f64 / n).abs() < 1e-12);
        prop_assert_eq!(tracker.distinct(), Some(hist.len() as u64));
        let mut counts: Vec<u64> = hist.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        for k in [1usize, 2, 4, 8] {
            let expected: u64 = counts.iter().take(k).sum();
            let got = tracker.inv_all(k).unwrap();
            prop_assert!((got - expected as f64 / n).abs() < 1e-12, "k={k}");
        }
        prop_assert_eq!(tracker.last_value(), stream.last().copied());
    }

    /// TNV structural invariants hold for every policy and stream: counts
    /// never exceed observations, estimates never exceed exact invariance,
    /// top(k) is count-sorted, and the table never overflows.
    #[test]
    fn tnv_structural_invariants(stream in arb_stream(), policy in arb_policy(), cap in 1usize..12) {
        // Clamp the steady part to the capacity.
        let policy = match policy {
            Policy::LfuClear { steady, clear_interval } if steady >= cap => {
                Policy::LfuClear { steady: cap - 1, clear_interval }
            }
            p => p,
        };
        if cap == 1 {
            // LfuClear needs at least one clearable slot.
            if matches!(policy, Policy::LfuClear { .. }) {
                return Ok(());
            }
        }
        let mut tnv = TnvTable::new(cap, policy);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &v in &stream {
            tnv.observe(v);
            *exact.entry(v).or_insert(0) += 1;
        }
        prop_assert!(tnv.entries().len() <= cap);
        prop_assert_eq!(tnv.observations(), stream.len() as u64);
        let total: u64 = tnv.entries().iter().map(|e| e.count).sum();
        prop_assert!(total <= tnv.observations());
        // Sorted by count, descending.
        for pair in tnv.entries().windows(2) {
            prop_assert!(pair[0].count >= pair[1].count);
        }
        // Resident counts never exceed the exact counts, so Inv-Top is a
        // lower bound of Inv-All at every width.
        for e in tnv.entries() {
            prop_assert!(e.count <= exact[&e.value], "value {} over-counted", e.value);
        }
        let mut counts: Vec<u64> = exact.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        for k in 1..=cap {
            let exact_k: u64 = counts.iter().take(k).sum();
            prop_assert!(
                tnv.inv_top(k) <= exact_k as f64 / stream.len() as f64 + 1e-12,
                "k={k}"
            );
        }
    }

    /// With capacity >= distinct values, every policy is exact.
    #[test]
    fn tnv_exact_when_table_is_large_enough(
        stream in prop::collection::vec(0u64..6, 1..300),
        policy in arb_policy(),
    ) {
        // Clearing discards counts, so exactness only holds for policies
        // that never clear resident entries below the distinct count.
        let policy = match policy {
            Policy::LfuClear { clear_interval, .. } => {
                Policy::LfuClear { steady: 6, clear_interval }
            }
            p => p,
        };
        let mut tnv = TnvTable::new(8, policy);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &v in &stream {
            tnv.observe(v);
            *exact.entry(v).or_insert(0) += 1;
        }
        // With <= 6 distinct values, 8 slots and a steady part of 6, no
        // value with a top-6 count is ever evicted.
        let mut counts: Vec<u64> = exact.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts.iter().take(8).sum();
        prop_assert!((tnv.inv_top(8) - top as f64 / stream.len() as f64).abs() < 1e-12);
    }

    /// `FullProfile::top(n)` is exactly the first `n` entries of the fully
    /// sorted histogram — count descending, then value ascending — and
    /// `from_tracker`'s one-selection Inv-All pair is bit-identical to
    /// `inv_all(1)`/`inv_all(n)`.
    #[test]
    fn full_top_matches_sorted_reference(
        stream in prop_oneof![arb_tied_stream(), arb_stream()],
        extra in 0usize..64,
    ) {
        let mut tracker = ValueTracker::new(TrackerConfig::with_full());
        let mut hist: HashMap<u64, u64> = HashMap::new();
        for &v in &stream {
            tracker.observe(v);
            *hist.entry(v).or_insert(0) += 1;
        }
        let mut sorted: Vec<(u64, u64)> = hist.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let full = tracker.full().expect("kept");
        for n in widths(sorted.len(), extra) {
            let expected = &sorted[..n.min(sorted.len())];
            let top = full.top(n);
            prop_assert_eq!(top.as_slice(), expected, "n={}", n);
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            let covered: u64 = expected.iter().map(|&(_, c)| c).sum();
            let share = if stream.is_empty() { 0.0 } else { covered as f64 / stream.len() as f64 };
            prop_assert_eq!(bits(tracker.inv_all(n)), bits(Some(share)), "n={}", n);
            let m = EntityMetrics::from_tracker(0, &tracker, n);
            prop_assert_eq!(bits(m.inv_all1), bits(tracker.inv_all(1)), "n={}", n);
            prop_assert_eq!(bits(m.inv_alln), bits(tracker.inv_all(n)), "n={}", n);
        }
    }
}
