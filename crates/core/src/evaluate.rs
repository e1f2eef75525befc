//! Feature evaluation (paper Section 3.3, "Evaluating generated features"):
//! a verification mechanism that rejects low-quality generated columns —
//! highly null, single-valued, or duplicating an existing column.
//! (High-cardinality dummy expansion is rejected earlier, at transform
//! execution, by the cardinality guard.)

use std::borrow::Cow;
use std::sync::Arc;

use smartfeat_frame::stats::pearson_pairs;
use smartfeat_frame::{Column, DataFrame, Dictionary, NullBitmap, NumericView};

use crate::report::SkipReason;

/// Check one freshly-generated column against the frame it would join.
/// Returns the reason to skip it, or `None` if it passes.
pub fn check_new_column(
    col: &Column,
    df: &DataFrame,
    max_null_fraction: f64,
) -> Option<SkipReason> {
    check_new_column_threaded(col, df, max_null_fraction, 1)
}

/// [`check_new_column`] with an explicit thread count for the duplicate
/// scan (0 = auto, 1 = exact serial path). The scan compares the candidate
/// against every existing column; columns are independent, so the pool
/// splits them and the **lowest-index** match is reported — the same
/// verdict the serial left-to-right scan returns.
pub fn check_new_column_threaded(
    col: &Column,
    df: &DataFrame,
    max_null_fraction: f64,
    threads: usize,
) -> Option<SkipReason> {
    let null_fraction = col.null_fraction();
    if null_fraction > max_null_fraction {
        return Some(SkipReason::HighNull(null_fraction));
    }
    if col.is_constant() {
        return Some(SkipReason::SingleValued);
    }
    if df.has_column(col.name()) {
        return Some(SkipReason::Duplicate(col.name().to_string()));
    }
    // A column that is an exact or affine duplicate of an existing one
    // adds no information (identity transforms, min-max/z-score rescales
    // of a column that is still present) — it only double-counts evidence
    // for models like naive Bayes.
    let candidate = Candidate::new(col);
    let existing = df.columns();
    let threads = smartfeat_par::resolve_threads(threads);
    smartfeat_par::par_map_indexed(threads, existing.len(), |i| {
        duplicate_of(&candidate, &existing[i])
    })
    .into_iter()
    .flatten()
    .next()
}

/// The candidate as the duplicate scan reads it, prepared once per check
/// instead of once per existing column.
struct Candidate<'a> {
    col: &'a Column,
    /// Numeric storage as one dense `f64` buffer — borrowed for `Float`
    /// storage — beside its validity. Null slots are never read.
    numeric: Option<(Cow<'a, [f64]>, &'a NullBitmap)>,
}

impl<'a> Candidate<'a> {
    fn new(col: &'a Column) -> Self {
        let numeric = col.numeric_view().ok().map(|view| match view {
            NumericView::Float { values, validity } => (Cow::Borrowed(values), validity),
            NumericView::Int { values, validity } => (dense(values), validity),
            NumericView::Bool { values, validity } => (dense(values), validity),
        });
        Candidate { col, numeric }
    }
}

fn dense<T: AsF64>(values: &[T]) -> Cow<'static, [f64]> {
    Cow::Owned(values.iter().map(|&v| v.as_f64()).collect())
}

/// A numeric storage cell read as `f64`, coerced the way
/// [`Column::to_f64`] coerces it.
trait AsF64: Copy {
    fn as_f64(self) -> f64;
}

impl AsF64 for f64 {
    fn as_f64(self) -> f64 {
        self
    }
}

impl AsF64 for i64 {
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl AsF64 for bool {
    fn as_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
}

/// Is the candidate an exact or positive-affine duplicate of `existing`?
fn duplicate_of(cand: &Candidate<'_>, existing: &Column) -> Option<SkipReason> {
    let duplicate = match (&cand.numeric, existing.numeric_view()) {
        (Some((xs, xv)), Ok(view)) => match view {
            NumericView::Float { values, validity } => numeric_duplicate(xs, xv, values, validity),
            NumericView::Int { values, validity } => numeric_duplicate(xs, xv, values, validity),
            NumericView::Bool { values, validity } => numeric_duplicate(xs, xv, values, validity),
        },
        // Every other pair compares cells as rendered text; two `Str`
        // columns do so through their books without rendering.
        _ => match (cand.col.dict_parts(), existing.dict_parts()) {
            (Some(a), Some(b)) => dict_identical(a, b),
            _ => rendered_identical(cand.col, existing),
        },
    };
    duplicate.then(|| SkipReason::Duplicate(existing.name().to_string()))
}

/// Numeric pair: an exact duplicate, or `r > 0.9999`.
///
/// Positive-affine rescales of a surviving column (min-max / z-score
/// copies) only double-count evidence; r = +1 with ≥ 3 overlapping
/// points identifies them. Negative-affine derivations (e.g. the
/// paper's manufacturing year = 2024 − car age) re-express the
/// quantity on a meaningful scale and are kept, as the paper does.
fn numeric_duplicate<T: AsF64>(xs: &[f64], xv: &NullBitmap, ys: &[T], yv: &NullBitmap) -> bool {
    numeric_identical(xs, xv, ys, yv)
        || complete_pearson(xs, xv, ys, yv).is_some_and(|r| r > 0.9999)
}

/// Value-level equality: nulls align and present values are equal as
/// `f64`, so `Int`-vs-`Float` storage of the same values matches. Both
/// buffers are read in place; the scan stops at the first differing row.
fn numeric_identical<T: AsF64>(xs: &[f64], xv: &NullBitmap, ys: &[T], yv: &NullBitmap) -> bool {
    xv == yv
        && if xv.all_are_valid() {
            xs.iter().zip(ys).all(|(&x, &y)| x == y.as_f64())
        } else {
            xs.iter()
                .zip(ys)
                .zip(xv.iter())
                .all(|((&x, &y), ok)| !ok || x == y.as_f64())
        }
}

/// Pearson `r` over the rows where both sides are present, or `None`
/// below 3 such rows. When neither side has a null the passes run over
/// the raw slices; otherwise they skip incomplete rows. Either way
/// `pearson_pairs` sees the complete pairs in row order — the sequence
/// `stats::pearson` sees over the materialized columns — so `r` is
/// bit-identical to it.
fn complete_pearson<T: AsF64>(
    xs: &[f64],
    xv: &NullBitmap,
    ys: &[T],
    yv: &NullBitmap,
) -> Option<f64> {
    if xv.count_valid_and(yv) < 3 {
        return None;
    }
    if xv.all_are_valid() && yv.all_are_valid() {
        pearson_pairs(|| xs.iter().zip(ys).map(|(&x, &y)| (x, y.as_f64())))
    } else {
        pearson_pairs(|| {
            xs.iter()
                .zip(ys)
                .zip(xv.iter().zip(yv.iter()))
                .filter(|&(_, (x_ok, y_ok))| x_ok && y_ok)
                .map(|((&x, &y), _)| (x, y.as_f64()))
        })
    }
}

/// A `Str` column's borrowed storage: `(codes, validity, book)`.
type DictParts<'a> = (&'a [u32], &'a NullBitmap, &'a Arc<Dictionary>);

/// Two `Str` columns hold the same cells: nulls align and present codes
/// name equal strings, compared as `&str` across the two books.
fn dict_identical((ca, va, da): DictParts<'_>, (cb, vb, db): DictParts<'_>) -> bool {
    va == vb
        && ca
            .iter()
            .zip(cb)
            .zip(va.iter())
            .all(|((&a, &b), ok)| !ok || da.get(a) == db.get(b))
}

/// Value-level equality of a numeric and a `Str` column: nulls align and
/// present cells render equal, so `"1"`, `"2"`, … duplicates the `Int`
/// column 1, 2, …. The scan stops at the first differing row.
fn rendered_identical(a: &Column, b: &Column) -> bool {
    a.len() == b.len()
        && (0..a.len()).all(|i| match (a.is_null(i), b.is_null(i)) {
            (true, true) => true,
            (false, false) => a.get(i).render() == b.get(i).render(),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_frame::DataFrame;

    fn base() -> DataFrame {
        DataFrame::from_columns(vec![
            Column::from_i64("a", vec![1, 2, 3, 4]),
            Column::from_f64("b", vec![0.5, 1.0, 1.5, 2.0]),
        ])
        .unwrap()
    }

    #[test]
    fn passes_a_good_column() {
        let c = Column::from_f64("new", vec![9.0, 1.0, 7.0, 3.0]);
        assert_eq!(check_new_column(&c, &base(), 0.5), None);
    }

    #[test]
    fn rejects_positive_affine_duplicate_keeps_negated() {
        // 2x + 1 of column "a": same information, rescaled.
        let c = Column::from_f64("a_scaled", vec![3.0, 5.0, 7.0, 9.0]);
        assert!(matches!(
            check_new_column(&c, &base(), 0.5),
            Some(SkipReason::Duplicate(n)) if n == "a"
        ));
        // 2024 − a (the paper's F2 shape): kept.
        let f2 = Column::from_f64("year", vec![2023.0, 2022.0, 2021.0, 2020.0]);
        assert_eq!(check_new_column(&f2, &base(), 0.5), None);
    }

    #[test]
    fn rejects_high_null() {
        let c = Column::from_floats("new", vec![Some(1.0), None, None, None]);
        assert!(matches!(
            check_new_column(&c, &base(), 0.5),
            Some(SkipReason::HighNull(f)) if f == 0.75
        ));
    }

    #[test]
    fn rejects_constant() {
        let c = Column::from_i64("new", vec![7, 7, 7, 7]);
        assert_eq!(
            check_new_column(&c, &base(), 0.5),
            Some(SkipReason::SingleValued)
        );
    }

    #[test]
    fn rejects_name_clash() {
        let c = Column::from_f64("a", vec![9.0, 8.0, 7.0, 6.0]);
        assert!(matches!(
            check_new_column(&c, &base(), 0.5),
            Some(SkipReason::Duplicate(n)) if n == "a"
        ));
    }

    #[test]
    fn rejects_value_duplicate_across_storage_types() {
        // Same values as integer column "a" but stored as floats.
        let c = Column::from_f64("a_copy", vec![1.0, 2.0, 3.0, 4.0]);
        assert!(matches!(
            check_new_column(&c, &base(), 0.5),
            Some(SkipReason::Duplicate(n)) if n == "a"
        ));
    }

    #[test]
    fn null_alignment_matters_for_duplicates() {
        let df = DataFrame::from_columns(vec![Column::from_floats(
            "x",
            vec![Some(1.0), None, Some(3.0)],
        )])
        .unwrap();
        let same = Column::from_floats("y", vec![Some(1.0), None, Some(3.0)]);
        assert!(matches!(
            check_new_column(&same, &df, 0.5),
            Some(SkipReason::Duplicate(_))
        ));
        // Only two overlapping pairs with "x": too little evidence for the
        // affine-duplicate check, so the column passes.
        let different = Column::from_floats("z", vec![Some(1.0), Some(9.0), Some(2.0)]);
        assert_eq!(check_new_column(&different, &df, 0.5), None);
    }

    #[test]
    fn threaded_scan_reports_lowest_index_duplicate() {
        // Two existing columns both duplicate the candidate; the verdict
        // must name the leftmost one regardless of worker scheduling.
        let df = DataFrame::from_columns(vec![
            Column::from_i64("first", vec![1, 2, 3, 4]),
            Column::from_i64("second", vec![1, 2, 3, 4]),
        ])
        .unwrap();
        let c = Column::from_i64("copy", vec![1, 2, 3, 4]);
        for threads in [1usize, 2, 4, 8] {
            assert!(matches!(
                check_new_column_threaded(&c, &df, 0.5, threads),
                Some(SkipReason::Duplicate(n)) if n == "first"
            ));
        }
    }

    #[test]
    fn all_null_column_rejected_as_high_null() {
        let c = Column::from_floats("new", vec![None, None, None, None]);
        assert!(matches!(
            check_new_column(&c, &base(), 0.5),
            Some(SkipReason::HighNull(_))
        ));
    }

    /// `r` from the in-place passes, for a candidate prepared the way the
    /// scan prepares it.
    fn in_place_r(cand: &Column, existing: &Column) -> Option<f64> {
        let prepared = Candidate::new(cand);
        let (xs, xv) = prepared.numeric.as_ref()?;
        match existing.numeric_view().ok()? {
            NumericView::Float { values, validity } => complete_pearson(xs, xv, values, validity),
            NumericView::Int { values, validity } => complete_pearson(xs, xv, values, validity),
            NumericView::Bool { values, validity } => complete_pearson(xs, xv, values, validity),
        }
    }

    #[test]
    fn in_place_r_is_bit_identical_to_materialized_pearson() {
        use smartfeat_rng::{check, Rng};
        fn column(rng: &mut Rng, name: &str, n: usize) -> Column {
            let nulls = [0.0, 0.3][rng.gen_range(0..2usize)];
            match rng.gen_range(0..3u32) {
                0 => Column::from_floats(
                    name,
                    (0..n)
                        .map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_range(-1e6..1e6)))
                        .collect(),
                ),
                1 => Column::from_ints(
                    name,
                    (0..n)
                        .map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_range(-1000i64..1000)))
                        .collect(),
                ),
                _ => Column::from_bools(
                    name,
                    (0..n)
                        .map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_bool(0.5)))
                        .collect(),
                ),
            }
        }
        check::cases(200, |rng| {
            let n = rng.gen_range(0..300usize);
            let a = column(rng, "a", n);
            let b = column(rng, "b", n);
            let (fa, fb) = (a.to_f64(), b.to_f64());
            let complete = fa
                .iter()
                .zip(&fb)
                .filter(|(x, y)| x.is_some() && y.is_some());
            let expected = if complete.count() >= 3 {
                smartfeat_frame::stats::pearson(&fa, &fb)
            } else {
                None
            };
            assert_eq!(
                in_place_r(&a, &b).map(f64::to_bits),
                expected.map(f64::to_bits)
            );
        });
    }
}
