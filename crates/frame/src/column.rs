//! Typed columns with per-cell nulls — v2 columnar storage.
//!
//! Layout (v2): every variant stores a dense value buffer plus a
//! [`NullBitmap`], replacing the v1 `Vec<Option<T>>` layout. Categorical
//! (`Str`) columns are dictionary-encoded: a `Vec<u32>` of codes into an
//! `Arc`-shared interned [`Dictionary`] book, so `take`/`Clone` copy
//! 4 bytes per row instead of cloning every string. Cells at null
//! positions hold an arbitrary (zeroed) value; all reads go through the
//! bitmap first.
//!
//! The public API is unchanged from v1 — `ColumnData` variants are only
//! ever matched inside this module, and equality is semantic (per-row
//! value + validity), so two columns with different dictionary books but
//! the same logical cells compare equal.

use std::sync::Arc;

use crate::bitmap::{BitmapBuilder, NullBitmap};
use crate::dict::Dictionary;
use crate::dtype::DType;
use crate::error::{FrameError, Result};
use crate::value::Value;
use crate::view::{KeysView, NumericView};
use std::collections::BTreeMap;

/// Typed storage backing a [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers + validity. Null rows hold 0.
    Int {
        values: Vec<i64>,
        validity: NullBitmap,
    },
    /// 64-bit floats + validity. Stored floats are never `NaN`; `NaN` is
    /// normalized to null on insertion so null handling is uniform. Null
    /// rows hold 0.0.
    Float {
        values: Vec<f64>,
        validity: NullBitmap,
    },
    /// Booleans + validity. Null rows hold `false`.
    Bool {
        values: Vec<bool>,
        validity: NullBitmap,
    },
    /// Dictionary-encoded strings: codes into a shared interned book.
    /// Null rows hold code 0 (never read through the bitmap gate).
    Dict {
        codes: Vec<u32>,
        validity: NullBitmap,
        dict: Arc<Dictionary>,
    },
}

impl ColumnData {
    /// Pack nullable ints into values + bitmap.
    pub fn from_opt_ints(values: Vec<Option<i64>>) -> Self {
        let validity = NullBitmap::from_flags(values.iter().map(Option::is_some));
        ColumnData::Int {
            values: values.into_iter().map(|v| v.unwrap_or(0)).collect(),
            validity,
        }
    }

    /// Pack nullable floats into values + bitmap (no NaN normalization —
    /// use [`Column::from_floats`] for that).
    pub fn from_opt_floats(values: Vec<Option<f64>>) -> Self {
        let validity = NullBitmap::from_flags(values.iter().map(Option::is_some));
        ColumnData::Float {
            values: values.into_iter().map(|v| v.unwrap_or(0.0)).collect(),
            validity,
        }
    }

    /// Pack nullable bools into values + bitmap.
    pub fn from_opt_bools(values: Vec<Option<bool>>) -> Self {
        let validity = NullBitmap::from_flags(values.iter().map(Option::is_some));
        ColumnData::Bool {
            values: values.into_iter().map(|v| v.unwrap_or(false)).collect(),
            validity,
        }
    }

    /// Dictionary-encode nullable strings (codes in first-occurrence order).
    pub fn from_opt_strs(values: Vec<Option<String>>) -> Self {
        let validity = NullBitmap::from_flags(values.iter().map(Option::is_some));
        let mut dict = Dictionary::new();
        let codes = values
            .into_iter()
            .map(|v| v.map_or(0, |s| dict.intern(&s)))
            .collect();
        ColumnData::Dict {
            codes,
            validity,
            dict: dict.into_shared(),
        }
    }

    /// Number of cells (including nulls).
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Bool { values, .. } => values.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
        }
    }

    /// True if the column holds zero cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage dtype. Dictionary-encoded columns present as `Str`.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::Int { .. } => DType::Int,
            ColumnData::Float { .. } => DType::Float,
            ColumnData::Bool { .. } => DType::Bool,
            ColumnData::Dict { .. } => DType::Str,
        }
    }

    /// The validity bitmap.
    pub fn validity(&self) -> &NullBitmap {
        match self {
            ColumnData::Int { validity, .. } => validity,
            ColumnData::Float { validity, .. } => validity,
            ColumnData::Bool { validity, .. } => validity,
            ColumnData::Dict { validity, .. } => validity,
        }
    }
}

/// Semantic equality: same dtype, same per-row validity, and equal values
/// at valid rows. Buffer contents at null positions and dictionary book
/// layout (shared vs. compact) are representation details and ignored.
impl PartialEq for ColumnData {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self, other) {
            (
                ColumnData::Int {
                    values: a,
                    validity: va,
                },
                ColumnData::Int {
                    values: b,
                    validity: vb,
                },
            ) => (0..a.len())
                .all(|i| va.is_valid(i) == vb.is_valid(i) && (!va.is_valid(i) || a[i] == b[i])),
            (
                ColumnData::Float {
                    values: a,
                    validity: va,
                },
                ColumnData::Float {
                    values: b,
                    validity: vb,
                },
            ) => (0..a.len())
                .all(|i| va.is_valid(i) == vb.is_valid(i) && (!va.is_valid(i) || a[i] == b[i])),
            (
                ColumnData::Bool {
                    values: a,
                    validity: va,
                },
                ColumnData::Bool {
                    values: b,
                    validity: vb,
                },
            ) => (0..a.len())
                .all(|i| va.is_valid(i) == vb.is_valid(i) && (!va.is_valid(i) || a[i] == b[i])),
            (
                ColumnData::Dict {
                    codes: a,
                    validity: va,
                    dict: da,
                },
                ColumnData::Dict {
                    codes: b,
                    validity: vb,
                    dict: db,
                },
            ) => (0..a.len()).all(|i| {
                va.is_valid(i) == vb.is_valid(i)
                    && (!va.is_valid(i) || da.get(a[i]) == db.get(b[i]))
            }),
            _ => false,
        }
    }
}

/// A named, typed, nullable column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Create a column from typed storage.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
        }
    }

    /// Build an int column. `None` entries are nulls.
    pub fn from_ints(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        Column::new(name, ColumnData::from_opt_ints(values))
    }

    /// Build a float column. `NaN` entries are normalized to nulls.
    pub fn from_floats(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        let values = values
            .into_iter()
            .map(|v| v.filter(|x| !x.is_nan()))
            .collect();
        Column::new(name, ColumnData::from_opt_floats(values))
    }

    /// Build a float column with no nulls. `NaN` entries become nulls.
    pub fn from_f64(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column::from_floats(name, values.into_iter().map(Some).collect())
    }

    /// Build a float column from an iterator in a single pass, packing
    /// values and validity directly — no intermediate `Vec<Option<f64>>`.
    /// `NaN` entries are normalized to nulls like [`Column::from_floats`].
    /// This is the transform hot-path constructor: ops stream view reads
    /// straight into packed storage.
    pub fn from_float_iter(
        name: impl Into<String>,
        iter: impl IntoIterator<Item = Option<f64>>,
    ) -> Self {
        let iter = iter.into_iter();
        let hint = iter.size_hint().0;
        let mut values = Vec::with_capacity(hint);
        let mut validity = BitmapBuilder::with_capacity(hint);
        // Internal iteration (`for_each` lowers to `fold`) keeps view
        // iterators on their monomorphic fast path; the builder buffers
        // validity bits in a register word flushed every 64 rows.
        iter.for_each(|v| match v {
            Some(x) if !x.is_nan() => {
                values.push(x);
                validity.push(true);
            }
            _ => {
                values.push(0.0);
                validity.push(false);
            }
        });
        Column::new(
            name,
            ColumnData::Float {
                values,
                validity: validity.finish(),
            },
        )
    }

    /// Adopt an already-packed float buffer + validity bitmap (the
    /// [`NumericView::map_packed_f64`](crate::view::NumericView) output
    /// shape). Null slots must already be zeroed. The no-NaN storage
    /// invariant is enforced here: the common case pays one vectorizable
    /// scan, and only a buffer that actually contains NaN falls back to
    /// the streaming NaN→null rebuild.
    pub(crate) fn from_packed_floats(
        name: impl Into<String>,
        values: Vec<f64>,
        validity: NullBitmap,
    ) -> Self {
        debug_assert_eq!(values.len(), validity.len());
        if values.iter().copied().any(f64::is_nan) {
            return Column::from_float_iter(
                name,
                values
                    .iter()
                    .zip(validity.iter())
                    .map(|(&v, ok)| ok.then_some(v)),
            );
        }
        Column::new(name, ColumnData::Float { values, validity })
    }

    /// Adopt an already-packed int buffer + validity bitmap. Null slots
    /// must already be zeroed.
    pub(crate) fn from_packed_ints(
        name: impl Into<String>,
        values: Vec<i64>,
        validity: NullBitmap,
    ) -> Self {
        debug_assert_eq!(values.len(), validity.len());
        Column::new(name, ColumnData::Int { values, validity })
    }

    /// Build an int column from an iterator in a single pass (see
    /// [`Column::from_float_iter`]).
    pub fn from_int_iter(
        name: impl Into<String>,
        iter: impl IntoIterator<Item = Option<i64>>,
    ) -> Self {
        let iter = iter.into_iter();
        let hint = iter.size_hint().0;
        let mut values = Vec::with_capacity(hint);
        let mut validity = BitmapBuilder::with_capacity(hint);
        iter.for_each(|v| {
            values.push(v.unwrap_or(0));
            validity.push(v.is_some());
        });
        Column::new(
            name,
            ColumnData::Int {
                values,
                validity: validity.finish(),
            },
        )
    }

    /// Build an int column with no nulls.
    pub fn from_i64(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::from_ints(name, values.into_iter().map(Some).collect())
    }

    /// Build a string column. Empty strings are kept (they are not nulls).
    pub fn from_strs(name: impl Into<String>, values: Vec<Option<String>>) -> Self {
        Column::new(name, ColumnData::from_opt_strs(values))
    }

    /// Build a string column from `&str` values with no nulls.
    pub fn from_str_slice(name: impl Into<String>, values: &[&str]) -> Self {
        Column::from_strs(name, values.iter().map(|s| Some(s.to_string())).collect())
    }

    /// Build a bool column.
    pub fn from_bools(name: impl Into<String>, values: Vec<Option<bool>>) -> Self {
        Column::new(name, ColumnData::from_opt_bools(values))
    }

    /// Build a column by inferring a common dtype from dynamic values.
    ///
    /// Promotion rules: any `Str` ⇒ `Str` column (non-strings are rendered);
    /// else any `Float` ⇒ `Float`; else any `Int` ⇒ `Int`; else `Bool`;
    /// an all-null input becomes a `Float` column of nulls.
    pub fn from_values(name: impl Into<String>, values: Vec<Value>) -> Self {
        let mut has_str = false;
        let mut has_float = false;
        let mut has_int = false;
        let mut has_bool = false;
        for v in &values {
            match v {
                Value::Str(_) => has_str = true,
                Value::Float(_) => has_float = true,
                Value::Int(_) => has_int = true,
                Value::Bool(_) => has_bool = true,
                Value::Null => {}
            }
        }
        let name = name.into();
        if has_str {
            let data = values
                .into_iter()
                .map(|v| match v {
                    Value::Null => None,
                    other => Some(other.render()),
                })
                .collect();
            Column::from_strs(name, data)
        } else if has_float || (has_int && has_bool) {
            let data = values.into_iter().map(|v| v.as_f64()).collect();
            Column::new(name, ColumnData::from_opt_floats(data))
        } else if has_int {
            let data = values
                .into_iter()
                .map(|v| match v {
                    Value::Int(i) => Some(i),
                    _ => None,
                })
                .collect();
            Column::from_ints(name, data)
        } else if has_bool {
            let data = values
                .into_iter()
                .map(|v| match v {
                    Value::Bool(b) => Some(b),
                    _ => None,
                })
                .collect();
            Column::from_bools(name, data)
        } else {
            Column::new(name, ColumnData::from_opt_floats(vec![None; values.len()]))
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename in place.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Storage dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Borrow the typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dynamic view of one cell.
    pub fn get(&self, i: usize) -> Value {
        match &self.data {
            ColumnData::Int { values, validity } => {
                if validity.is_valid(i) {
                    Value::Int(values[i])
                } else {
                    Value::Null
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.is_valid(i) {
                    Value::Float(values[i])
                } else {
                    Value::Null
                }
            }
            ColumnData::Bool { values, validity } => {
                if validity.is_valid(i) {
                    Value::Bool(values[i])
                } else {
                    Value::Null
                }
            }
            ColumnData::Dict {
                codes,
                validity,
                dict,
            } => {
                if validity.is_valid(i) {
                    Value::Str(dict.get(codes[i]).to_string())
                } else {
                    Value::Null
                }
            }
        }
    }

    /// True if cell `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        !self.data.validity().is_valid(i)
    }

    /// Count of null cells — a bitmap popcount, not a scan.
    pub fn null_count(&self) -> usize {
        self.data.validity().count_null()
    }

    /// Fraction of null cells; 0.0 for an empty column.
    pub fn null_fraction(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.len() as f64
        }
    }

    /// True if the dtype participates in arithmetic.
    pub fn is_numeric(&self) -> bool {
        self.dtype().is_numeric()
    }

    /// Zero-copy numeric read-view. Errors for `Str` columns.
    pub fn numeric_view(&self) -> Result<NumericView<'_>> {
        match &self.data {
            ColumnData::Int { values, validity } => Ok(NumericView::Int { values, validity }),
            ColumnData::Float { values, validity } => Ok(NumericView::Float { values, validity }),
            ColumnData::Bool { values, validity } => Ok(NumericView::Bool { values, validity }),
            ColumnData::Dict { .. } => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: "numeric",
            }),
        }
    }

    /// Categorical read-view: zero-copy for `Str` columns, rendered
    /// fallback (one allocation pass) for numeric dtypes.
    pub fn keys_view(&self) -> KeysView<'_> {
        match &self.data {
            ColumnData::Dict {
                codes,
                validity,
                dict,
            } => KeysView::Dict {
                codes,
                validity,
                dict,
            },
            _ => KeysView::Owned(
                (0..self.len())
                    .map(|i| {
                        let v = self.get(i);
                        if v.is_null() {
                            None
                        } else {
                            Some(v.render())
                        }
                    })
                    .collect(),
            ),
        }
    }

    /// Borrow the dictionary-encoded parts of a `Str` column:
    /// `(codes, validity, book)`. `None` for numeric dtypes.
    pub fn dict_parts(&self) -> Option<(&[u32], &NullBitmap, &Arc<Dictionary>)> {
        match &self.data {
            ColumnData::Dict {
                codes,
                validity,
                dict,
            } => Some((codes, validity, dict)),
            _ => None,
        }
    }

    /// Numeric view of the whole column: ints/floats/bools coerce,
    /// strings and nulls are `None`. Materializes; the ops hot paths use
    /// [`Column::numeric_view`] instead.
    pub fn to_f64(&self) -> Vec<Option<f64>> {
        match self.numeric_view() {
            Ok(v) => v.to_vec(),
            Err(_) => vec![None; self.len()],
        }
    }

    /// Materialized numeric view that requires the column to be numeric.
    pub fn numeric(&self) -> Result<Vec<Option<f64>>> {
        Ok(self.numeric_view()?.to_vec())
    }

    /// Rendered-string view of every cell (nulls are `None`). Used for
    /// group keys and categorical handling so ints and strings group alike.
    /// Materializes; hot paths use [`Column::keys_view`].
    pub fn to_keys(&self) -> Vec<Option<String>> {
        match self.keys_view() {
            KeysView::Owned(v) => v,
            view => view.iter().map(|k| k.map(str::to_string)).collect(),
        }
    }

    /// Distinct non-null rendered values, sorted, with occurrence counts.
    ///
    /// The sorted `BTreeMap` return is a contract (`get_dummies` derives
    /// its column order from it); accumulation is O(n) over dictionary
    /// codes for `Str` columns rather than a per-row map lookup.
    pub fn value_counts(&self) -> BTreeMap<String, usize> {
        if let Some((codes, validity, dict)) = self.dict_parts() {
            let mut per_code = vec![0usize; dict.len()];
            for (i, &c) in codes.iter().enumerate() {
                if validity.is_valid(i) {
                    per_code[c as usize] += 1;
                }
            }
            return dict
                .iter()
                .filter(|&(c, _)| per_code[c as usize] > 0)
                .map(|(c, s)| (s.to_string(), per_code[c as usize]))
                .collect();
        }
        let mut out = BTreeMap::new();
        for key in self.to_keys().into_iter().flatten() {
            *out.entry(key).or_insert(0) += 1;
        }
        out
    }

    /// Number of distinct non-null values — `value_counts().len()`
    /// without rendering a key per row.
    ///
    /// Numeric columns count distinct bit patterns of the present cells,
    /// which equals the number of distinct rendered keys because
    /// rendering is injective on stored cells: ints and bools print
    /// exactly, integral floats below 1e15 print as `{:.1}` (exact) and
    /// every other float as its shortest round-trip form, `-0.0` prints
    /// as `"-0.0"`, and `NaN` (normalized to null on insertion) would
    /// render as `""`, so all of them share one key.
    pub fn cardinality(&self) -> usize {
        match &self.data {
            ColumnData::Dict {
                codes,
                validity,
                dict,
            } => {
                // A take()-derived column shares a larger parent book, so
                // count codes actually present, not the book size.
                let mut seen = vec![false; dict.len()];
                let mut distinct = 0;
                for (i, &c) in codes.iter().enumerate() {
                    if validity.is_valid(i) && !seen[c as usize] {
                        seen[c as usize] = true;
                        distinct += 1;
                    }
                }
                distinct
            }
            ColumnData::Int { values, validity } => distinct_keys(values, validity, |v| v as u64),
            ColumnData::Bool { values, validity } => distinct_keys(values, validity, u64::from),
            ColumnData::Float { values, validity } => distinct_keys(values, validity, |v| {
                if v.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            }),
        }
    }

    /// True if all non-null values are identical (or the column is all-null).
    ///
    /// Numeric columns scan the packed value buffer directly (floats
    /// compare by bits, so `-0.0` and `0.0` stay distinct — matching the
    /// rendered-key distinction `cardinality` draws) instead of paying
    /// `value_counts`' per-row string rendering. This is an evaluation-
    /// stage read: `check_new_column` calls it on every realized
    /// candidate.
    pub fn is_constant(&self) -> bool {
        match &self.data {
            ColumnData::Int { values, validity } => packed_is_constant(values, validity),
            ColumnData::Bool { values, validity } => packed_is_constant(values, validity),
            ColumnData::Float { values, validity } => {
                packed_is_constant_by(values, validity, |v| v.to_bits())
            }
            ColumnData::Dict { .. } => self.cardinality() <= 1,
        }
    }

    /// Gather a subset of rows into a new column (used by splits / folds).
    /// `Str` columns share the dictionary book (refcount bump, no string
    /// clones).
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: validity.take(indices),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: validity.take(indices),
            },
            ColumnData::Bool { values, validity } => ColumnData::Bool {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: validity.take(indices),
            },
            ColumnData::Dict {
                codes,
                validity,
                dict,
            } => ColumnData::Dict {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                validity: validity.take(indices),
                dict: Arc::clone(dict),
            },
        };
        Column::new(self.name.clone(), data)
    }

    /// Iterate cells as dynamic values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Distinct `key`s over the present values: one `u64` per present row,
/// sorted and deduplicated.
fn distinct_keys<T: Copy>(values: &[T], validity: &NullBitmap, key: impl Fn(T) -> u64) -> usize {
    let mut keys: Vec<u64> = if validity.all_are_valid() {
        values.iter().map(|&v| key(v)).collect()
    } else {
        values
            .iter()
            .zip(validity.iter())
            .filter(|&(_, ok)| ok)
            .map(|(&v, _)| key(v))
            .collect()
    };
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// All present values equal? All-valid columns scan the raw slice
/// (vectorizable, no per-row validity logic); columns with nulls stream
/// values through the bitmap.
fn packed_is_constant<T: Copy + PartialEq>(values: &[T], validity: &NullBitmap) -> bool {
    packed_is_constant_by(values, validity, |v| v)
}

/// [`packed_is_constant`] under a key function (floats compare by bits).
fn packed_is_constant_by<T: Copy, K: PartialEq>(
    values: &[T],
    validity: &NullBitmap,
    key: impl Fn(T) -> K,
) -> bool {
    if validity.all_are_valid() {
        return values
            .first()
            .map(|&f| values.iter().all(|&v| key(v) == key(f)))
            .unwrap_or(true);
    }
    let mut present = values
        .iter()
        .zip(validity.iter())
        .filter(|&(_, ok)| ok)
        .map(|(&v, _)| key(v));
    match present.next() {
        None => true,
        Some(f) => present.all(|k| k == f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_nan_normalized_to_null() {
        let c = Column::from_f64("x", vec![1.0, f64::NAN, 3.0]);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert_eq!(c.get(0), Value::Float(1.0));
    }

    #[test]
    fn from_values_infers_str_on_mixed() {
        let c = Column::from_values(
            "m",
            vec![Value::Int(1), Value::Str("a".into()), Value::Null],
        );
        assert_eq!(c.dtype(), DType::Str);
        assert_eq!(c.get(0), Value::Str("1".into()));
        assert!(c.is_null(2));
    }

    #[test]
    fn from_values_promotes_int_plus_float() {
        let c = Column::from_values("m", vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.get(0), Value::Float(1.0));
    }

    #[test]
    fn from_values_all_null_is_float() {
        let c = Column::from_values("m", vec![Value::Null, Value::Null]);
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn to_f64_coerces_bools() {
        let c = Column::from_bools("b", vec![Some(true), Some(false), None]);
        assert_eq!(c.to_f64(), vec![Some(1.0), Some(0.0), None]);
    }

    #[test]
    fn numeric_rejects_strings() {
        let c = Column::from_str_slice("s", &["a", "b"]);
        assert!(matches!(c.numeric(), Err(FrameError::TypeMismatch { .. })));
    }

    #[test]
    fn cardinality_and_constant() {
        let c = Column::from_i64("x", vec![3, 3, 3]);
        assert!(c.is_constant());
        assert_eq!(c.cardinality(), 1);
        let d = Column::from_i64("y", vec![1, 2, 2]);
        assert!(!d.is_constant());
        assert_eq!(d.cardinality(), 2);
    }

    #[test]
    fn constant_skips_nulls_and_keeps_signed_zero_distinct() {
        // Nulls don't break a constant run (the packed scan must read
        // through the bitmap, not the zeroed value slots).
        let c = Column::from_floats("x", vec![Some(7.0), None, Some(7.0)]);
        assert!(c.is_constant());
        // Null slots store 0.0 — a constant 7.0 column with a null must
        // not be declared non-constant by the raw slice.
        let d = Column::from_ints("y", vec![Some(5), None]);
        assert!(d.is_constant());
        // -0.0 vs 0.0 compare by bits, matching cardinality's rendered
        // keys ("-0" vs "0").
        let z = Column::from_f64("z", vec![0.0, -0.0]);
        assert!(!z.is_constant());
        assert_eq!(z.cardinality(), 2);
        // Str columns still route through the dictionary.
        let s = Column::from_str_slice("s", &["a", "a"]);
        assert!(s.is_constant());
    }

    #[test]
    fn all_null_column_is_constant() {
        let c = Column::from_floats("x", vec![None, None]);
        assert!(c.is_constant());
        assert_eq!(c.cardinality(), 0);
    }

    #[test]
    fn take_gathers_rows() {
        let c = Column::from_i64("x", vec![10, 20, 30, 40]);
        let t = c.take(&[3, 1]);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(1), Value::Int(20));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn value_counts_sorted() {
        let c = Column::from_str_slice("s", &["b", "a", "b"]);
        let counts = c.value_counts();
        let keys: Vec<_> = counts.keys().cloned().collect();
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(counts["b"], 2);
    }

    #[test]
    fn keys_render_ints_like_strings() {
        let c = Column::from_i64("x", vec![5, 7]);
        assert_eq!(
            c.to_keys(),
            vec![Some("5".to_string()), Some("7".to_string())]
        );
    }

    #[test]
    fn take_shares_dictionary_book() {
        let c = Column::from_str_slice("s", &["p", "q", "p", "r"]);
        let t = c.take(&[3, 0]);
        let (_, _, parent) = c.dict_parts().unwrap();
        let (codes, _, child) = t.dict_parts().unwrap();
        assert!(Arc::ptr_eq(parent, child));
        assert_eq!(codes.len(), 2);
        assert_eq!(t.get(0), Value::Str("r".into()));
        // Cardinality counts codes present, not the shared book size.
        assert_eq!(t.cardinality(), 2);
        assert_eq!(child.len(), 3);
    }

    #[test]
    fn equality_is_semantic_across_books() {
        // A take()-derived column (shared 3-entry book) equals a freshly
        // built column (compact 2-entry book) with the same logical cells.
        let big = Column::from_strs(
            "s",
            vec![Some("a".into()), Some("b".into()), Some("c".into()), None],
        );
        let sub = big.take(&[2, 0, 3]);
        let fresh = Column::from_strs("s", vec![Some("c".into()), Some("a".into()), None]);
        assert_eq!(sub, fresh);
        assert_ne!(
            sub,
            Column::from_strs("s", vec![Some("c".into()), Some("b".into()), None])
        );
    }

    #[test]
    fn null_slots_do_not_affect_equality() {
        let a = Column::from_ints("x", vec![Some(1), None]);
        let b = Column::from_ints("x", vec![Some(1), None]);
        assert_eq!(a, b);
        assert_ne!(a, Column::from_ints("x", vec![Some(1), Some(0)]));
    }
}
