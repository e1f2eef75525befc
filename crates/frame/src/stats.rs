//! Column statistics: moments, correlation, entropy, mutual information.
//!
//! Used by the feature-evaluation step (correlation pruning), the baselines
//! (Featuretools-style selection), and Table 6's information-gain metric.

use crate::column::Column;

/// Summary statistics over the non-null cells of a numeric column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Count of non-null cells.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarize the non-null cells of a numeric slice. Returns `None` if no
/// values are present.
pub fn summarize(values: &[Option<f64>]) -> Option<Summary> {
    let xs: Vec<f64> = values.iter().flatten().copied().collect();
    if xs.is_empty() {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    Some(Summary {
        count: xs.len(),
        mean,
        std: var.sqrt(),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// Pearson correlation over rows where both columns are non-null.
/// Returns `None` when fewer than two complete pairs exist or either side
/// has zero variance.
pub fn pearson(a: &[Option<f64>], b: &[Option<f64>]) -> Option<f64> {
    pearson_pairs(|| a.iter().zip(b).filter_map(|(x, y)| Some(((*x)?, (*y)?))))
}

/// [`pearson`] over the pairs `pairs()` yields, without collecting them.
/// `pairs` is called twice and must yield the same pairs in the same
/// order both times. The means are plain row-order sums (starting, like
/// `Iterator::sum`, from `-0.0`) and the deviation sums run in row order
/// too, so any two pair sources yielding the same sequence get a
/// bit-identical `r`.
pub fn pearson_pairs<I>(pairs: impl Fn() -> I) -> Option<f64>
where
    I: Iterator<Item = (f64, f64)>,
{
    let (count, sx, sy) = pairs().fold((0usize, -0.0, -0.0), |(c, sx, sy), (x, y)| {
        (c + 1, sx + x, sy + y)
    });
    if count < 2 {
        return None;
    }
    let n = count as f64;
    let mx = sx / n;
    let my = sy / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in pairs() {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Pearson correlation between two columns' numeric views.
pub fn column_pearson(a: &Column, b: &Column) -> Option<f64> {
    pearson(&a.to_f64(), &b.to_f64())
}

/// Shannon entropy (nats) of a discrete distribution given by counts.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Equal-width discretization of a numeric slice into `bins` buckets over
/// the observed range. Nulls map to `None`; constant columns map to bin 0.
pub fn discretize(values: &[Option<f64>], bins: usize) -> Vec<Option<usize>> {
    let bins = bins.max(1);
    let summary = match summarize(values) {
        Some(s) => s,
        None => return vec![None; values.len()],
    };
    let range = summary.max - summary.min;
    values
        .iter()
        .map(|v| {
            v.map(|x| {
                if range == 0.0 {
                    0
                } else {
                    (((x - summary.min) / range * bins as f64) as usize).min(bins - 1)
                }
            })
        })
        .collect()
}

/// Mutual information (nats) between a discretized feature and binary
/// labels, computed over rows where the feature is non-null.
///
/// This is the reproduction of sklearn's `mutual_info_classif` as used for
/// Table 6's IG metric (a histogram estimator rather than k-NN: monotone in
/// the same orderings for the planted workloads, and deterministic).
pub fn mutual_information(values: &[Option<f64>], labels: &[u8], bins: usize) -> f64 {
    debug_assert_eq!(values.len(), labels.len());
    let discrete = discretize(values, bins);
    let bins = bins.max(1);
    let mut joint = vec![[0usize; 2]; bins];
    let mut total = 0usize;
    for (d, &y) in discrete.iter().zip(labels) {
        if let Some(b) = d {
            joint[*b][(y != 0) as usize] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    let total_f = total as f64;
    let mut mi = 0.0;
    let class_counts = [
        joint.iter().map(|j| j[0]).sum::<usize>(),
        joint.iter().map(|j| j[1]).sum::<usize>(),
    ];
    for row in &joint {
        let row_total = row[0] + row[1];
        if row_total == 0 {
            continue;
        }
        for (cls, &cnt) in row.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let pxy = cnt as f64 / total_f;
            let px = row_total as f64 / total_f;
            let py = class_counts[cls] as f64 / total_f;
            mi += pxy * (pxy / (px * py)).ln();
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basic() {
        let s = summarize(&[Some(1.0), Some(2.0), Some(3.0), None]).unwrap();
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summarize_empty_is_none() {
        assert!(summarize(&[None, None]).is_none());
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a = vec![Some(1.0), Some(2.0), Some(3.0)];
        let b = vec![Some(2.0), Some(4.0), Some(6.0)];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = vec![Some(3.0), Some(2.0), Some(1.0)];
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_none() {
        let a = vec![Some(1.0), Some(1.0), Some(1.0)];
        let b = vec![Some(1.0), Some(2.0), Some(3.0)];
        assert!(pearson(&a, &b).is_none());
    }

    #[test]
    fn pearson_skips_null_pairs() {
        let a = vec![Some(1.0), None, Some(3.0), Some(5.0)];
        let b = vec![Some(1.0), Some(99.0), Some(3.0), Some(5.0)];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_uniform_vs_point() {
        assert!(entropy(&[5, 5]) > entropy(&[9, 1]));
        assert_eq!(entropy(&[10, 0]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert!((entropy(&[1, 1]) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn discretize_covers_range() {
        let vals = vec![Some(0.0), Some(5.0), Some(10.0), None];
        let d = discretize(&vals, 2);
        assert_eq!(d, vec![Some(0), Some(1), Some(1), None]);
    }

    #[test]
    fn discretize_constant() {
        let vals = vec![Some(7.0), Some(7.0)];
        assert_eq!(discretize(&vals, 4), vec![Some(0), Some(0)]);
    }

    #[test]
    fn mutual_information_detects_perfect_predictor() {
        // Feature perfectly separates classes ⇒ MI = H(Y) = ln 2.
        let values: Vec<Option<f64>> = (0..100)
            .map(|i| Some(if i < 50 { 0.0 } else { 1.0 }))
            .collect();
        let labels: Vec<u8> = (0..100).map(|i| u8::from(i >= 50)).collect();
        let mi = mutual_information(&values, &labels, 2);
        assert!((mi - (2.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn mutual_information_independent_is_zero() {
        let values: Vec<Option<f64>> = (0..100).map(|i| Some((i % 2) as f64)).collect();
        let labels: Vec<u8> = (0..100).map(|i| u8::from((i / 2) % 2 == 0)).collect();
        let mi = mutual_information(&values, &labels, 2);
        assert!(mi.abs() < 1e-9);
    }

    #[test]
    fn mutual_information_all_null_is_zero() {
        let values = vec![None, None];
        assert_eq!(mutual_information(&values, &[0, 1], 4), 0.0);
    }
}
