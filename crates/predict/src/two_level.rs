//! Two-level (context-based) value prediction.
//!
//! Sazeides & Smith \[34\] distinguish *computational* predictors (stride)
//! from *context-based* predictors, which predict values that follow a
//! finite repeating pattern. This implementation keeps, per PC, a value
//! history table (VHT) of the last few distinct values plus a history of
//! which of them occurred, and a pattern table (PHT) mapping recent history
//! to the value most likely to come next.

use std::collections::HashMap;

use crate::Predictor;

const HISTORY: usize = 4;
const VALUES_PER_PC: usize = 4;

#[derive(Debug, Clone)]
struct PcState {
    /// Recently seen distinct values (the per-PC value dictionary).
    values: Vec<u64>,
    /// Indices into `values` of the last `HISTORY` outcomes.
    history: Vec<u8>,
}

impl PcState {
    fn new() -> PcState {
        PcState { values: Vec::new(), history: Vec::new() }
    }

    fn history_key(&self) -> u64 {
        self.history.iter().fold(0u64, |acc, &i| (acc << 2) | u64::from(i))
    }

    fn value_index(&mut self, value: u64) -> u8 {
        if let Some(i) = self.values.iter().position(|&v| v == value) {
            return i as u8;
        }
        if self.values.len() < VALUES_PER_PC {
            self.values.push(value);
            (self.values.len() - 1) as u8
        } else {
            // Replace the dictionary slot least recently referenced by the
            // outcome history.
            let victim = (0..VALUES_PER_PC as u8).find(|i| !self.history.contains(i)).unwrap_or(0);
            self.values[victim as usize] = value;
            victim
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PatternEntry {
    value_index: u8,
    confidence: u8,
}

/// A two-level context predictor: level 1 is the per-PC outcome history,
/// level 2 a pattern table predicting the next value index from that
/// history.
///
/// ```
/// use vp_predict::{Predictor, TwoLevelPredictor};
///
/// // The period-2 pattern 3,9,3,9,... defeats last-value prediction but
/// // is learned by a context predictor.
/// let mut p = TwoLevelPredictor::new();
/// let mut hits = 0;
/// for i in 0..200u64 {
///     let actual = if i % 2 == 0 { 3 } else { 9 };
///     if p.predict(0) == Some(actual) {
///         hits += 1;
///     }
///     p.update(0, actual);
/// }
/// assert!(hits > 150);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoLevelPredictor {
    states: HashMap<u32, PcState>,
    patterns: HashMap<(u32, u64), PatternEntry>,
}

impl TwoLevelPredictor {
    /// Creates an empty two-level predictor.
    pub fn new() -> TwoLevelPredictor {
        TwoLevelPredictor::default()
    }
}

impl Predictor for TwoLevelPredictor {
    fn predict(&mut self, pc: u32) -> Option<u64> {
        let state = self.states.get(&pc)?;
        if state.history.len() < HISTORY {
            return None;
        }
        let entry = self.patterns.get(&(pc, state.history_key()))?;
        (entry.confidence >= 2)
            .then(|| state.values.get(entry.value_index as usize).copied())
            .flatten()
    }

    fn update(&mut self, pc: u32, actual: u64) {
        let state = self.states.entry(pc).or_insert_with(PcState::new);
        let full = state.history.len() >= HISTORY;
        let key = state.history_key();
        let idx = state.value_index(actual);
        if full {
            let entry = self.patterns.entry((pc, key)).or_default();
            if entry.value_index == idx {
                entry.confidence = (entry.confidence + 1).min(3);
            } else if entry.confidence == 0 {
                entry.value_index = idx;
                entry.confidence = 1;
            } else {
                entry.confidence -= 1;
            }
        }
        state.history.push(idx);
        if state.history.len() > HISTORY {
            state.history.remove(0);
        }
    }

    fn name(&self) -> &'static str {
        "two-level"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit_rate(pattern: &[u64], rounds: usize) -> f64 {
        let mut p = TwoLevelPredictor::new();
        let mut hits = 0u64;
        let mut total = 0u64;
        for i in 0..rounds {
            let actual = pattern[i % pattern.len()];
            if p.predict(0) == Some(actual) {
                hits += 1;
            }
            p.update(0, actual);
            total += 1;
        }
        hits as f64 / total as f64
    }

    #[test]
    fn learns_periodic_patterns() {
        assert!(hit_rate(&[1, 2, 3], 300) > 0.8, "period 3");
        assert!(hit_rate(&[5], 300) > 0.9, "constant");
        assert!(hit_rate(&[1, 1, 2, 2], 400) > 0.8, "period 4");
    }

    #[test]
    fn cold_pc_does_not_predict() {
        let mut p = TwoLevelPredictor::new();
        assert_eq!(p.predict(7), None);
        p.update(7, 1);
        assert_eq!(p.predict(7), None, "history not yet full");
    }

    #[test]
    fn distinct_pcs_are_independent() {
        let mut p = TwoLevelPredictor::new();
        for _ in 0..50 {
            p.update(1, 10);
            p.update(2, 20);
        }
        assert_eq!(p.predict(1), Some(10));
        assert_eq!(p.predict(2), Some(20));
    }

    #[test]
    fn dictionary_replacement_keeps_working() {
        // More distinct values than dictionary slots: predictor must not
        // panic and should stay silent or recover.
        let mut p = TwoLevelPredictor::new();
        for i in 0..100u64 {
            p.update(0, i % 7);
        }
        let _ = p.predict(0);
    }
}
