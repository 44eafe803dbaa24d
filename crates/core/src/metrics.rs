//! Derived metrics and program-level aggregation.
//!
//! The paper reports, per benchmark: `LVP`, `Inv-Top` (TNV-estimated
//! invariance), `Inv-All` (exact invariance), `% zero` and `Diff (L/I)`
//! (distinct values per dynamic execution), each aggregated over all
//! profiled entities *weighted by execution frequency*; plus
//! execution-weighted invariance histograms (the figures).

use crate::track::ValueTracker;

/// Metric snapshot of one profiled entity (instruction, memory location or
/// procedure parameter slot).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityMetrics {
    /// Entity identifier (instruction index, address, or parameter id).
    pub id: u64,
    /// Dynamic executions observed.
    pub executions: u64,
    /// Last-value predictability.
    pub lvp: f64,
    /// TNV-estimated invariance of the single most frequent value.
    pub inv_top1: f64,
    /// TNV-estimated invariance over the whole table (top N).
    pub inv_topn: f64,
    /// Exact invariance of the most frequent value (needs the full profile).
    pub inv_all1: Option<f64>,
    /// Exact invariance over the top N values (needs the full profile).
    pub inv_alln: Option<f64>,
    /// Fraction of executions producing zero.
    pub pct_zero: f64,
    /// Distinct values produced (needs the full profile).
    pub distinct: Option<u64>,
    /// Most frequent resident value in the TNV table.
    pub top_value: Option<u64>,
}

impl EntityMetrics {
    /// Extracts metrics from a tracker. `n` is the TNV width used for the
    /// `*_topn`/`*_alln` metrics (the paper uses the table capacity).
    pub fn from_tracker(id: u64, tracker: &ValueTracker, n: usize) -> EntityMetrics {
        // One top-n selection serves both exact metrics.
        let (inv_all1, inv_alln) = tracker.full().map(|f| f.inv_all_1_n(n)).unzip();
        EntityMetrics {
            id,
            executions: tracker.executions(),
            lvp: tracker.lvp(),
            inv_top1: tracker.inv_top(1),
            inv_topn: tracker.inv_top(n),
            inv_all1,
            inv_alln,
            pct_zero: tracker.pct_zero(),
            distinct: tracker.distinct(),
            top_value: tracker.tnv().top_value(),
        }
    }
}

/// Execution-weighted aggregate over a set of entities: one benchmark row
/// of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Number of entities with at least one execution.
    pub entities: usize,
    /// Total dynamic executions across entities.
    pub executions: u64,
    /// Weighted mean LVP.
    pub lvp: f64,
    /// Weighted mean Inv-Top(1).
    pub inv_top1: f64,
    /// Weighted mean Inv-Top(N).
    pub inv_topn: f64,
    /// Weighted mean Inv-All(1) over entities that have it.
    pub inv_all1: Option<f64>,
    /// Weighted mean Inv-All(N) over entities that have it.
    pub inv_alln: Option<f64>,
    /// Weighted mean fraction of zero values.
    pub pct_zero: f64,
    /// `Diff (L/I)`: total distinct values / total executions, when full
    /// profiles were kept.
    pub diff_ratio: Option<f64>,
}

/// Aggregates entity metrics, weighting every per-entity ratio by that
/// entity's execution count (the paper's convention).
pub fn aggregate(metrics: &[EntityMetrics]) -> Aggregate {
    let live: Vec<&EntityMetrics> = metrics.iter().filter(|m| m.executions > 0).collect();
    let total: u64 = live.iter().map(|m| m.executions).sum();
    if total == 0 {
        return Aggregate::default();
    }
    let w = |f: &dyn Fn(&EntityMetrics) -> f64| -> f64 {
        live.iter().map(|m| f(m) * m.executions as f64).sum::<f64>() / total as f64
    };
    // Weighted mean over the entities that have the metric: entities
    // profiled without a full histogram are skipped, not fatal. `None`
    // only when no live entity has it.
    let opt_w = |f: &dyn Fn(&EntityMetrics) -> Option<f64>| -> Option<f64> {
        let mut num = 0.0;
        let mut den = 0u64;
        for m in &live {
            if let Some(v) = f(m) {
                num += v * m.executions as f64;
                den += m.executions;
            }
        }
        (den > 0).then(|| num / den as f64)
    };
    let diff_ratio = {
        let mut distinct = 0u64;
        let mut any = true;
        for m in &live {
            match m.distinct {
                Some(d) => distinct += d,
                None => {
                    any = false;
                    break;
                }
            }
        }
        (any && total > 0).then(|| distinct as f64 / total as f64)
    };
    Aggregate {
        entities: live.len(),
        executions: total,
        lvp: w(&|m| m.lvp),
        inv_top1: w(&|m| m.inv_top1),
        inv_topn: w(&|m| m.inv_topn),
        inv_all1: opt_w(&|m| m.inv_all1),
        inv_alln: opt_w(&|m| m.inv_alln),
        pct_zero: w(&|m| m.pct_zero),
        diff_ratio,
    }
}

/// Merges two metric collections keyed by entity id, for combining
/// per-shard *snapshots* when the underlying trackers are gone.
///
/// Entities present in only one input pass through unchanged. For shared
/// ids, `executions` sum and every ratio becomes the execution-weighted
/// mean of the inputs. That is exact for `pct_zero`, but only an
/// approximation for the invariance metrics and `lvp` (each shard's top
/// value may differ, and the shard-boundary LVP hit is unobservable here)
/// — merge the trackers or profilers themselves when exactness matters.
/// `inv_all*` survive only when both sides have them; `distinct` becomes
/// an **upper bound** (shards may share values); `top_value` follows the
/// side with more executions.
pub fn merge_entity_metrics(a: &[EntityMetrics], b: &[EntityMetrics]) -> Vec<EntityMetrics> {
    let mut by_id: std::collections::HashMap<u64, EntityMetrics> =
        a.iter().map(|m| (m.id, m.clone())).collect();
    for m in b {
        match by_id.entry(m.id) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(m.clone());
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let mine = e.get_mut();
                let total = mine.executions + m.executions;
                let wmean = |x: f64, y: f64| {
                    if total == 0 {
                        0.0
                    } else {
                        (x * mine.executions as f64 + y * m.executions as f64) / total as f64
                    }
                };
                let opt_wmean = |x: Option<f64>, y: Option<f64>| Some(wmean(x?, y?));
                mine.lvp = wmean(mine.lvp, m.lvp);
                mine.inv_top1 = wmean(mine.inv_top1, m.inv_top1);
                mine.inv_topn = wmean(mine.inv_topn, m.inv_topn);
                mine.inv_all1 = opt_wmean(mine.inv_all1, m.inv_all1);
                mine.inv_alln = opt_wmean(mine.inv_alln, m.inv_alln);
                mine.pct_zero = wmean(mine.pct_zero, m.pct_zero);
                mine.distinct = match (mine.distinct, m.distinct) {
                    (Some(x), Some(y)) => Some(x + y),
                    _ => None,
                };
                if m.executions > mine.executions {
                    mine.top_value = m.top_value;
                }
                mine.executions = total;
            }
        }
    }
    let mut out: Vec<EntityMetrics> = by_id.into_values().collect();
    out.sort_by_key(|m| m.id);
    out
}

/// An execution-weighted histogram over 10 invariance buckets
/// (0–10%, …, 90–100%): the data behind the paper's invariance-distribution
/// figures. `key` selects the bucketed metric (e.g. `|m| m.inv_top1`).
///
/// The returned weights sum to 1 (when any executions exist).
pub fn invariance_histogram<F>(metrics: &[EntityMetrics], key: F) -> [f64; 10]
where
    F: Fn(&EntityMetrics) -> f64,
{
    let mut buckets = [0.0f64; 10];
    let total: u64 = metrics.iter().map(|m| m.executions).sum();
    if total == 0 {
        return buckets;
    }
    for m in metrics {
        if m.executions == 0 {
            continue;
        }
        let v = key(m).clamp(0.0, 1.0);
        let idx = ((v * 10.0) as usize).min(9);
        buckets[idx] += m.executions as f64 / total as f64;
    }
    buckets
}

/// Pearson correlation coefficient between two equally long metric series
/// (used for the train-vs-test stability experiment E8). Returns 0 for
/// degenerate inputs (length < 2 or zero variance).
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs equal-length series");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track::TrackerConfig;

    fn entity(id: u64, executions: u64, inv: f64, lvp: f64) -> EntityMetrics {
        EntityMetrics {
            id,
            executions,
            lvp,
            inv_top1: inv,
            inv_topn: inv,
            inv_all1: Some(inv),
            inv_alln: Some(inv),
            pct_zero: 0.0,
            distinct: Some(2),
            top_value: Some(0),
        }
    }

    #[test]
    fn aggregate_weighting() {
        // 90 executions at invariance 1.0, 10 at invariance 0.0.
        let ms = vec![entity(0, 90, 1.0, 1.0), entity(1, 10, 0.0, 0.0)];
        let a = aggregate(&ms);
        assert!((a.inv_top1 - 0.9).abs() < 1e-12);
        assert!((a.lvp - 0.9).abs() < 1e-12);
        assert_eq!(a.executions, 100);
        assert_eq!(a.entities, 2);
        assert_eq!(a.diff_ratio, Some(4.0 / 100.0));
    }

    #[test]
    fn aggregate_skips_dead_entities() {
        let ms = vec![entity(0, 0, 0.3, 0.3), entity(1, 10, 1.0, 1.0)];
        let a = aggregate(&ms);
        assert_eq!(a.entities, 1);
        assert!((a.inv_top1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_empty() {
        assert_eq!(aggregate(&[]), Aggregate::default());
    }

    #[test]
    fn aggregate_without_full_profiles() {
        let mut m = entity(0, 10, 0.5, 0.5);
        m.inv_all1 = None;
        m.inv_alln = None;
        m.distinct = None;
        let a = aggregate(&[m]);
        assert_eq!(a.inv_all1, None);
        assert_eq!(a.diff_ratio, None);
    }

    #[test]
    fn aggregate_mixes_full_and_tnv_only_entities() {
        // Regression: one TNV-only entity must not erase Inv-All for the
        // whole aggregate — the weighted mean runs over the entities that
        // have it (here: only entity 0, at invariance 0.8).
        let full = entity(0, 60, 0.8, 0.5);
        let mut tnv_only = entity(1, 40, 0.4, 0.5);
        tnv_only.inv_all1 = None;
        tnv_only.inv_alln = None;
        tnv_only.distinct = None;
        let a = aggregate(&[full, tnv_only]);
        assert_eq!(a.entities, 2);
        let inv_all1 = a.inv_all1.expect("full-profile entity still contributes");
        assert!((inv_all1 - 0.8).abs() < 1e-12, "inv_all1 {inv_all1}");
        assert_eq!(a.inv_alln, Some(0.8));
        // Inv-Top spans both entities: (0.8*60 + 0.4*40) / 100.
        assert!((a.inv_top1 - 0.64).abs() < 1e-12);
        // diff_ratio stays all-or-nothing: a partial distinct sum over the
        // full execution total would understate Diff.
        assert_eq!(a.diff_ratio, None);
    }

    #[test]
    fn merge_entity_metrics_weights_shared_ids() {
        let a = vec![entity(0, 30, 1.0, 1.0), entity(1, 10, 0.5, 0.5)];
        let b = vec![entity(1, 30, 0.9, 0.1), entity(2, 5, 0.2, 0.2)];
        let merged = merge_entity_metrics(&a, &b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0], a[0]);
        assert_eq!(merged[2], b[1]);
        let shared = &merged[1];
        assert_eq!(shared.executions, 40);
        assert!((shared.inv_top1 - 0.8).abs() < 1e-12); // (0.5*10 + 0.9*30)/40
        assert!((shared.lvp - 0.2).abs() < 1e-12);
        assert_eq!(shared.distinct, Some(4), "upper bound: shard distincts sum");
    }

    #[test]
    fn merge_entity_metrics_drops_inv_all_when_one_side_lacks_it() {
        let a = vec![entity(0, 10, 0.5, 0.5)];
        let mut b0 = entity(0, 10, 0.7, 0.7);
        b0.inv_all1 = None;
        b0.inv_alln = None;
        b0.distinct = None;
        let merged = merge_entity_metrics(&a, &[b0]);
        assert_eq!(merged[0].inv_all1, None);
        assert_eq!(merged[0].distinct, None);
        assert!((merged[0].inv_top1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let ms = vec![entity(0, 50, 0.95, 0.0), entity(1, 25, 0.5, 0.0), entity(2, 25, 0.05, 0.0)];
        let h = invariance_histogram(&ms, |m| m.inv_top1);
        assert!((h[9] - 0.5).abs() < 1e-12);
        assert!((h[5] - 0.25).abs() < 1e-12);
        assert!((h[0] - 0.25).abs() < 1e-12);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // 1.0 lands in the last bucket, not out of range.
        let ms = vec![entity(0, 1, 1.0, 0.0)];
        let h = invariance_histogram(&ms, |m| m.inv_top1);
        assert!((h[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_basic() {
        assert!((correlation(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((correlation(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&[1.0], &[1.0]), 0.0);
        assert_eq!(correlation(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn from_tracker_round_trip() {
        let mut t = ValueTracker::new(TrackerConfig::with_full());
        for v in [3, 3, 3, 0] {
            t.observe(v);
        }
        let m = EntityMetrics::from_tracker(17, &t, 8);
        assert_eq!(m.id, 17);
        assert_eq!(m.executions, 4);
        assert!((m.inv_top1 - 0.75).abs() < 1e-12);
        assert_eq!(m.inv_alln, Some(1.0));
        assert!((m.pct_zero - 0.25).abs() < 1e-12);
        assert_eq!(m.distinct, Some(2));
        assert_eq!(m.top_value, Some(3));
    }
}
