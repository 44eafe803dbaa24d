//! Profile-guided predictor filtering.
//!
//! The paper's proposed use of value profiles for prediction (after Gabbay
//! & Mendelson \[18\]): classify instructions by profiled invariance/LVP and
//! only dedicate predictor-table space to those classified predictable.
//! This raises table utilization and cuts mispredictions.

use std::collections::HashSet;

use vp_core::EntityMetrics;

use crate::Predictor;

/// Wraps a predictor so that only instructions in an allow-set are
/// predicted or trained.
///
/// ```
/// use vp_predict::{FilteredPredictor, LastValuePredictor, Predictor};
///
/// let allowed = [4u32].into_iter().collect();
/// let mut p = FilteredPredictor::new(LastValuePredictor::new(16), allowed);
/// for _ in 0..3 {
///     p.update(4, 7);
///     p.update(8, 7);
/// }
/// assert_eq!(p.predict(4), Some(7));
/// assert_eq!(p.predict(8), None); // filtered out
/// ```
#[derive(Debug, Clone)]
pub struct FilteredPredictor<P> {
    inner: P,
    allowed: HashSet<u32>,
}

impl<P: Predictor> FilteredPredictor<P> {
    /// Creates a filter allowing exactly the PCs in `allowed`.
    pub fn new(inner: P, allowed: HashSet<u32>) -> FilteredPredictor<P> {
        FilteredPredictor { inner, allowed }
    }

    /// Builds the allow-set from a value profile: instructions whose
    /// profiled `lvp` meets `min_lvp` are considered predictable.
    ///
    /// (The paper filters on LVP for a last-value predictor; pass an
    /// `Inv-Top`-based selection for specialization-style uses instead.)
    pub fn from_profile(inner: P, metrics: &[EntityMetrics], min_lvp: f64) -> FilteredPredictor<P> {
        let allowed = metrics
            .iter()
            .filter(|m| m.lvp >= min_lvp && m.executions > 0)
            .map(|m| m.id as u32)
            .collect();
        FilteredPredictor { inner, allowed }
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Predictor> Predictor for FilteredPredictor<P> {
    fn predict(&mut self, pc: u32) -> Option<u64> {
        self.allowed.contains(&pc).then(|| self.inner.predict(pc)).flatten()
    }

    fn update(&mut self, pc: u32, actual: u64) {
        if self.allowed.contains(&pc) {
            self.inner.update(pc, actual);
        }
    }

    fn name(&self) -> &'static str {
        "filtered"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::lvp::LastValuePredictor;

    fn metrics(id: u64, lvp: f64) -> EntityMetrics {
        EntityMetrics {
            id,
            executions: 100,
            lvp,
            inv_top1: lvp,
            inv_topn: lvp,
            inv_all1: None,
            inv_alln: None,
            pct_zero: 0.0,
            distinct: None,
            top_value: None,
        }
    }

    #[test]
    fn from_profile_selects_by_lvp() {
        let profile = vec![metrics(0, 0.95), metrics(1, 0.2), metrics(2, 0.8)];
        let mut f = FilteredPredictor::from_profile(LastValuePredictor::new(8), &profile, 0.5);
        assert_eq!(f.inner().len(), 8);
        // Confidence builds over repeated values; only allowed PCs train.
        for _ in 0..3 {
            for pc in 0..3 {
                f.update(pc, 5);
            }
        }
        let predicted: Vec<_> = (0..3).map(|pc| f.predict(pc)).collect();
        assert_eq!(predicted, [Some(5), None, Some(5)]);
    }

    #[test]
    fn filtering_avoids_aliasing_mispredictions() {
        // Two PCs alias in a 1-entry table. PC 0 is constant, PC 1 random.
        // Unfiltered, PC 1 keeps evicting PC 0's entry; filtered on the
        // profile, PC 0 predicts nearly perfectly.
        let stream: Vec<(u32, u64)> =
            (0..1000u64).map(|i| if i % 2 == 0 { (0u32, 7u64) } else { (1u32, i) }).collect();

        let mut unfiltered = LastValuePredictor::new(1);
        let u = evaluate(&mut unfiltered, stream.iter().copied());

        let profile = vec![metrics(0, 0.99), metrics(1, 0.0)];
        let mut filtered =
            FilteredPredictor::from_profile(LastValuePredictor::new(1), &profile, 0.5);
        let f = evaluate(&mut filtered, stream.iter().copied());

        assert!(f.hits > u.hits, "filtered {} vs unfiltered {}", f.hits, u.hits);
        assert!(f.mispredictions < u.mispredictions.max(1));
    }

    #[test]
    fn disallowed_pcs_never_predict() {
        let mut p = FilteredPredictor::new(LastValuePredictor::new(8), HashSet::new());
        for _ in 0..5 {
            p.update(3, 1);
        }
        assert_eq!(p.predict(3), None);
        assert_eq!(p.name(), "filtered");
    }
}
