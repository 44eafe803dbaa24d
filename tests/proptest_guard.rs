//! Property test: the guard chain is *total* protection.
//!
//! For arbitrary forced candidate values — right, stale or plain wrong —
//! and arbitrary input streams rewriting the configuration at arbitrary
//! points, the guarded specialized program must stay observably
//! equivalent to the original, for chains of one value and of several,
//! and the guard hit/miss accounting must be exact: one hit or one miss
//! per dynamic execution of the site, hits exactly when the loaded value
//! is in the guarded set.

use proptest::prelude::*;
use value_profiling::sim::InputSet;
use value_profiling::specialize::{demo, evaluate, specialize_all, Candidate};

const BUDGET: u64 = 10_000_000;

/// The demo kernel's built-in initial configuration value.
const BASE_CONFIG: u64 = 0x1234;

/// Wraps a directive stream (0 = keep the current configuration, any
/// other value replaces it) into the demo kernel's input format.
fn demo_input(directives: &[u64]) -> InputSet {
    let mut values = vec![directives.len() as u64];
    values.extend_from_slice(directives);
    InputSet::named("prop", values)
}

/// Replays the configuration evolution and counts loads whose value is in
/// the guarded set — the ground truth for the hit counter.
fn expected_hits(directives: &[u64], guarded: &[u64]) -> u64 {
    let mut config = BASE_CONFIG;
    let mut hits = 0;
    for &d in directives {
        if d != 0 {
            config = d;
        }
        if guarded.contains(&config) {
            hits += 1;
        }
    }
    hits
}

/// A directive stream biased toward "keep" so the load stays interesting,
/// with occasional rewrites to the base value (stale-looking), a near
/// neighbour, or anything at all.
fn arb_directives() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            5 => Just(0u64),
            1 => Just(BASE_CONFIG),
            1 => (1u64..=64).prop_map(|d| BASE_CONFIG + d),
            1 => any::<u64>().prop_map(|v| v | 1),
        ],
        1..160,
    )
}

/// An arbitrary guard value: sometimes the right one, sometimes close,
/// sometimes anything.
fn arb_guard_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(BASE_CONFIG),
        1 => (1u64..=64).prop_map(|d| BASE_CONFIG + d),
        2 => any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A chain of one value: whatever value the guard tests and whatever
    /// the input does to the configuration, behaviour is preserved and
    /// every dynamic execution is accounted as exactly one hit or one miss.
    #[test]
    fn single_way_guard_is_total(
        directives in arb_directives(),
        guard_value in arb_guard_value(),
    ) {
        let program = demo::program();
        let load_index = demo::config_load_index(&program);
        let candidate = Candidate {
            load_index,
            values: vec![guard_value],
            invariance: 1.0,
            executions: directives.len() as u64,
        };
        let (specialized, sites) =
            specialize_all(&program, std::slice::from_ref(&candidate)).expect("specialize");
        prop_assert_eq!(sites[0].guard_indices.len(), 1, "one guard for one value");
        let input = demo_input(&directives);
        let report = evaluate(&program, &specialized, &sites, &input, BUDGET).expect("evaluate");
        prop_assert!(report.speedup.equivalent, "guarded output diverged");
        let g = &report.guards[0];
        prop_assert_eq!(g.hits + g.misses, directives.len() as u64, "one guard event per load");
        prop_assert_eq!(g.hits, expected_hits(&directives, &[guard_value]));
    }

    /// A chain of up to three arbitrary guard values behaves the same:
    /// equivalent output, exact accounting, a hit whenever the loaded
    /// value is anywhere in the chain.
    #[test]
    fn multi_way_guard_is_total(
        directives in arb_directives(),
        values in prop::collection::vec(arb_guard_value(), 1..=3),
    ) {
        let mut guarded = Vec::new();
        for v in values {
            if !guarded.contains(&v) {
                guarded.push(v);
            }
        }
        let program = demo::program();
        let load_index = demo::config_load_index(&program);
        let candidate = Candidate {
            load_index,
            values: guarded.clone(),
            invariance: 1.0,
            executions: directives.len() as u64,
        };
        let (specialized, sites) =
            specialize_all(&program, std::slice::from_ref(&candidate)).expect("specialize");
        prop_assert_eq!(sites[0].guard_indices.len(), guarded.len(), "one guard per value");
        let input = demo_input(&directives);
        let report = evaluate(&program, &specialized, &sites, &input, BUDGET).expect("evaluate");
        prop_assert!(report.speedup.equivalent, "guarded output diverged");
        let g = &report.guards[0];
        prop_assert_eq!(g.hits + g.misses, directives.len() as u64, "one guard event per load");
        prop_assert_eq!(g.hits, expected_hits(&directives, &guarded));
    }
}
