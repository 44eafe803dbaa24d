//! Property test: `EntityTable` is a `u32 → V` map.
//!
//! Random sequences of inserts, lookups, in-place updates, removals and
//! re-inserts run against the table and against a `BTreeMap` reference.
//! Keys mix small dense pcs with the edges of the dense index
//! (`DENSE_CAP - 1` is the last dense key, `DENSE_CAP` the first overflow
//! key) and with `u32::MAX`, so every operation crosses both halves and
//! every dense removal moves some other slot. After each step the table
//! must hold exactly the reference's entries, in any order.

use std::collections::BTreeMap;

use proptest::prelude::*;
use value_profiling::core::arena::{EntityTable, DENSE_CAP};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u64),
    GetOrInsert(u32, u64),
    Get(u32),
    Bump(u32, u64),
    Remove(u32),
}

fn arb_key() -> impl Strategy<Value = u32> {
    prop_oneof![
        6 => 0u32..24,
        1 => Just(DENSE_CAP - 1),
        1 => Just(DENSE_CAP),
        1 => Just(u32::MAX),
        1 => (DENSE_CAP - 3)..(DENSE_CAP + 3),
        1 => any::<u32>(),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        3 => (arb_key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => (arb_key(), any::<u64>()).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
        2 => arb_key().prop_map(Op::Get),
        2 => (arb_key(), 1u64..100).prop_map(|(k, by)| Op::Bump(k, by)),
        3 => arb_key().prop_map(Op::Remove),
    ];
    prop::collection::vec(op, 1..200)
}

/// The table's entries, sorted by key.
fn entries(table: &EntityTable<u64>) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entity_table_matches_a_btree_map(ops in arb_ops()) {
        let mut table: EntityTable<u64> = EntityTable::new();
        let mut reference: BTreeMap<u32, u64> = BTreeMap::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(table.insert(k, v), reference.insert(k, v));
                }
                Op::GetOrInsert(k, v) => {
                    let got = *table.get_or_insert_with(k, || v);
                    prop_assert_eq!(got, *reference.entry(k).or_insert(v));
                }
                Op::Get(k) => {
                    prop_assert_eq!(table.get(k), reference.get(&k));
                    prop_assert_eq!(table.contains_key(k), reference.contains_key(&k));
                }
                Op::Bump(k, by) => {
                    if let Some(v) = table.get_mut(k) {
                        *v = v.wrapping_add(by);
                    }
                    if let Some(v) = reference.get_mut(&k) {
                        *v = v.wrapping_add(by);
                    }
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(k), reference.remove(&k));
                    prop_assert!(!table.contains_key(k), "step {}: {:?} still present", step, op);
                }
            }
            prop_assert_eq!(table.len(), reference.len());
            prop_assert_eq!(table.is_empty(), reference.is_empty());
            let want: Vec<(u32, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(entries(&table), want);
            for (&k, v) in &reference {
                prop_assert_eq!(table.get(k), Some(v));
            }
        }
        let mut keys: Vec<u32> = table.keys().collect();
        keys.sort_unstable();
        prop_assert_eq!(keys, reference.keys().copied().collect::<Vec<u32>>());
        let mut values: Vec<u64> = table.values().copied().collect();
        values.sort_unstable();
        let mut want_values: Vec<u64> = reference.values().copied().collect();
        want_values.sort_unstable();
        prop_assert_eq!(values, want_values);
        let mut owned: Vec<(u32, u64)> = table.into_iter().collect();
        owned.sort_unstable();
        prop_assert_eq!(owned, reference.into_iter().collect::<Vec<(u32, u64)>>());
    }
}
