//! Property tests: the product's inline TNV table, `FixedTnv`, against the
//! naive reference, `TnvTable::with_default_policy()`, bit for bit.
//!
//! Both tables take the same stream; `FixedTnv` takes it in batches of 1,
//! 1999, 2000 and 2001 values (around the clear interval) and in random
//! sizes, and in one more run it is cut at a random point, the two halves'
//! tables merged, and the rest observed into the merged table. After each
//! run the two tables must agree on the ranked `(value, count)` entries,
//! the observation count, all five `TnvEvents` fields and the bits of
//! `inv_top(0..=9)`.

use proptest::prelude::*;
use vp_core::tnv::{FixedTnv, TnvTable};

/// Streams long enough to cross several clears. Small alphabets make
/// hits and count ties common (the bubble-up order); the wider one and
/// the arbitrary values keep the table evicting.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop_oneof![8 => 0u64..6, 4 => 0u64..24, 1 => any::<u64>()], 0..9_000)
}

/// Asserts that `fixed` reads out exactly as `reference` does.
fn assert_same(fixed: &FixedTnv, reference: &TnvTable, at: &str) -> Result<(), TestCaseError> {
    let expected: Vec<(u64, u64)> =
        reference.entries().iter().map(|e| (e.value, e.count)).collect();
    prop_assert_eq!(fixed.entries().collect::<Vec<_>>(), expected, "{}", at);
    prop_assert_eq!(fixed.top_value(), reference.top_value(), "{}", at);
    prop_assert_eq!(fixed.observations(), reference.observations(), "{}", at);
    let (got, want) = (fixed.events(), reference.events());
    prop_assert_eq!(got.hits, want.hits, "{}: hits", at);
    prop_assert_eq!(got.inserts, want.inserts, "{}: inserts", at);
    prop_assert_eq!(got.evictions, want.evictions, "{}: evictions", at);
    prop_assert_eq!(got.clears, want.clears, "{}: clears", at);
    prop_assert_eq!(got.cleared_entries, want.cleared_entries, "{}: cleared entries", at);
    for n in 0..=9 {
        prop_assert_eq!(
            fixed.inv_top(n).to_bits(),
            reference.inv_top(n).to_bits(),
            "{}: inv_top({})",
            at,
            n
        );
    }
    Ok(())
}

/// The reference table of `values`, one `observe` per value.
fn reference_of(values: &[u64]) -> TnvTable {
    let mut t = TnvTable::with_default_policy();
    values.iter().for_each(|&v| t.observe(v));
    t
}

/// Feeds `values` to `t` in batches whose sizes cycle through `sizes`.
fn feed_batches(t: &mut FixedTnv, values: &[u64], sizes: &[usize]) {
    let mut rest = values;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        t.observe_batch(batch);
        rest = tail;
    }
}

proptest! {
    #[test]
    fn fixed_table_matches_the_reference(
        stream in arb_stream(),
        sizes in prop::collection::vec(1usize..3_000, 1..6),
        cut in any::<u64>(),
        end in any::<u64>(),
    ) {
        let reference = reference_of(&stream);
        let mut scalar = FixedTnv::new();
        stream.iter().for_each(|&v| scalar.observe(v));
        assert_same(&scalar, &reference, "observe")?;
        for batch in [1usize, 1999, 2000, 2001] {
            let mut batched = FixedTnv::new();
            feed_batches(&mut batched, &stream, &[batch]);
            assert_same(&batched, &reference, &format!("batch {batch}"))?;
        }
        let mut batched = FixedTnv::new();
        feed_batches(&mut batched, &stream, &sizes);
        assert_same(&batched, &reference, &format!("batches {sizes:?}"))?;

        // Merge at a random cut of a random prefix, then observe the rest
        // of the stream into the merged table.
        let end = (end % (stream.len() as u64 + 1)) as usize;
        let cut = (cut % (end as u64 + 1)) as usize;
        let (left, right, after) = (&stream[..cut], &stream[cut..end], &stream[end..]);
        let mut merged_ref = reference_of(left);
        merged_ref.merge(&reference_of(right));
        let mut merged = FixedTnv::new();
        feed_batches(&mut merged, left, &sizes);
        let mut later = FixedTnv::new();
        feed_batches(&mut later, right, &sizes);
        merged.merge(&later);
        let at = format!("merge at {cut} of {end}");
        assert_same(&merged, &merged_ref, &at)?;
        after.iter().for_each(|&v| merged_ref.observe(v));
        feed_batches(&mut merged, after, &sizes);
        assert_same(&merged, &merged_ref, &format!("{at}, then {} more", after.len()))?;
    }
}
