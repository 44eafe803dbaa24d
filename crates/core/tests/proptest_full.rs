//! Property tests: the exact histogram, `FullProfile`, against a
//! `BTreeMap<u64, u64>` reference model.
//!
//! The streams cross the move from the capped hash slab to sorted runs:
//! up to 5,000 values, mostly distinct, mixed with a small and a
//! mid-sized alphabet so counts repeat across the run and the pending
//! buffer. Each profile is fed one value at a time (checking after every
//! event that the footprint never shrinks) and through
//! `ValueTracker::observe_batch` in random batch sizes. One more run cuts
//! a random prefix in two, merges the halves' profiles (often one hashed
//! and one sorted) and observes the rest of the stream into the merge.
//! After each run the profile must agree with the model on `top(n)` at
//! every boundary width, `inv_all(n)` to the bit, `distinct`, `count_of`,
//! `observations` and content equality.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vp_core::track::{FullProfile, TrackerConfig, ValueTracker};

/// Mostly distinct values with a small and a mid-sized alphabet mixed in.
/// A stream with more than 896 distinct values leaves the hash slab.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop_oneof![6 => any::<u64>(), 2 => 0u64..16, 2 => 0u64..1500], 0..5_000)
}

/// Readout widths around every boundary of `top(n)` for a histogram with
/// `distinct` values (as in `proptest_tracker.rs`).
fn widths(distinct: usize, extra: usize) -> Vec<usize> {
    vec![0, 1, 2, 8, extra, distinct.saturating_sub(1), distinct, distinct + 1, usize::MAX]
}

/// The model's histogram of `values`.
fn model_of(values: &[u64]) -> BTreeMap<u64, u64> {
    let mut model = BTreeMap::new();
    values.iter().for_each(|&v| *model.entry(v).or_insert(0) += 1);
    model
}

/// A profile fed `values` one at a time.
fn profile_of(values: &[u64]) -> FullProfile {
    let mut f = FullProfile::new();
    values.iter().for_each(|&v| f.observe(v));
    f
}

/// Asserts that `full` reads out exactly as the model of `values` does.
fn assert_model(
    full: &FullProfile,
    values: &[u64],
    extra: usize,
    at: &str,
) -> Result<(), TestCaseError> {
    let model = model_of(values);
    let mut ranked: Vec<(u64, u64)> = model.iter().map(|(&v, &c)| (v, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    prop_assert_eq!(full.observations(), values.len() as u64, "{}: observations", at);
    prop_assert_eq!(full.distinct(), model.len() as u64, "{}: distinct", at);
    for n in widths(ranked.len(), extra) {
        let expected = &ranked[..n.min(ranked.len())];
        let top = full.top(n);
        prop_assert_eq!(top.as_slice(), expected, "{}: top({})", at, n);
        let covered: u64 = expected.iter().map(|&(_, c)| c).sum();
        let share = if values.is_empty() { 0.0 } else { covered as f64 / values.len() as f64 };
        prop_assert_eq!(full.inv_all(n).to_bits(), share.to_bits(), "{}: inv_all({})", at, n);
    }
    // Every 31st value of the stream, and values the stream may lack.
    let probes = values.iter().step_by(31).copied().chain([1 << 40, u64::MAX - 1, 17]);
    for v in probes {
        let count = model.get(&v).copied().unwrap_or(0);
        prop_assert_eq!(full.count_of(v), count, "{}: count_of({})", at, v);
    }
    Ok(())
}

proptest! {
    #[test]
    fn full_profile_matches_the_model(
        stream in arb_stream(),
        sizes in prop::collection::vec(1usize..2_500, 1..6),
        extra in 0usize..2_000,
        cut in any::<u64>(),
        end in any::<u64>(),
    ) {
        // One value at a time, the footprint checked after every event.
        let mut single = FullProfile::new();
        let mut footprint = single.footprint_bytes();
        for (i, &v) in stream.iter().enumerate() {
            single.observe(v);
            let now = single.footprint_bytes();
            prop_assert!(now >= footprint, "footprint shrank from {} to {} at event {}", footprint, now, i);
            footprint = now;
        }
        assert_model(&single, &stream, extra, "observe")?;

        // In batches through the tracker: the same content.
        let mut tracker = ValueTracker::new(TrackerConfig::with_full());
        let mut rest = stream.as_slice();
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            tracker.observe_batch(batch);
            rest = tail;
        }
        let batched = tracker.full().expect("kept");
        assert_model(batched, &stream, extra, &format!("batches {sizes:?}"))?;
        prop_assert!(batched == &single, "batched and per-value profiles differ");
        let mut one_more = single.clone();
        one_more.observe(stream.first().copied().unwrap_or(3));
        prop_assert!(one_more != single, "one more observation compared equal");

        // Merge at a random cut of a random prefix, then observe the rest
        // of the stream into the merged profile.
        let end = (end % (stream.len() as u64 + 1)) as usize;
        let cut = (cut % (end as u64 + 1)) as usize;
        let (left, right, after) = (&stream[..cut], &stream[cut..end], &stream[end..]);
        let mut merged = profile_of(left);
        merged.merge(&profile_of(right));
        let at = format!("merge at {cut} of {end}");
        assert_model(&merged, &stream[..end], extra, &at)?;
        prop_assert!(merged == profile_of(&stream[..end]), "{}: merged profile differs", at);
        after.iter().for_each(|&v| merged.observe(v));
        assert_model(&merged, &stream, extra, &format!("{at}, then {} more", after.len()))?;
        prop_assert!(merged == single, "{}: merged, then observed, differs", at);
    }
}
