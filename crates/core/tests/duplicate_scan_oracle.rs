//! Differential check of the evaluation stage's duplicate scan.
//!
//! `check_new_column_threaded` reads existing columns through their
//! borrowed buffers. The oracle below is the earlier implementation, kept
//! verbatim: it materializes both columns with `to_f64()` per pair,
//! compares cells through `get()`/`render()`, and collects Pearson pairs
//! into a `Vec`. Over random frames both must return the same verdict, at
//! 1 and at 4 threads. The generators aim at the cases the scan has to get
//! right: `Int` vs `Float` storage of the same values, `Bool` vs `Int`,
//! positive and negative affine rescales, misaligned nulls, fewer than 3
//! complete pairs, `Str` duplicates whose dictionary books differ, and
//! `Str` columns that render like a numeric one.

use smartfeat::evaluate::check_new_column_threaded;
use smartfeat::SkipReason;
use smartfeat_frame::{Column, DataFrame};
use smartfeat_rng::{check, Rng};

// ---- oracle: the materializing duplicate scan, verbatim ----

fn oracle_check(col: &Column, df: &DataFrame, max_null_fraction: f64) -> Option<SkipReason> {
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
    df.columns()
        .iter()
        .find_map(|existing| duplicate_of(col, existing))
}

/// Is `col` an exact or positive-affine duplicate of `existing`?
fn duplicate_of(col: &Column, existing: &Column) -> Option<SkipReason> {
    if columns_identical(col, existing) {
        return Some(SkipReason::Duplicate(existing.name().to_string()));
    }
    if existing.is_numeric() && col.is_numeric() {
        let a = col.to_f64();
        let b = existing.to_f64();
        let complete = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.is_some() && y.is_some())
            .count();
        if complete >= 3 {
            if let Some(r) = pearson(&a, &b) {
                if r > 0.9999 {
                    return Some(SkipReason::Duplicate(existing.name().to_string()));
                }
            }
        }
    }
    None
}

/// Value-level equality of two columns (nulls align, values render equal).
fn columns_identical(a: &Column, b: &Column) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for i in 0..a.len() {
        match (a.is_null(i), b.is_null(i)) {
            (true, true) => continue,
            (false, false) => {
                let av = a.get(i);
                let bv = b.get(i);
                let equal = match (av.as_f64(), bv.as_f64()) {
                    (Some(x), Some(y)) => x == y,
                    _ => av.render() == bv.render(),
                };
                if !equal {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

fn pearson(a: &[Option<f64>], b: &[Option<f64>]) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .zip(b)
        .filter_map(|(x, y)| Some(((*x)?, (*y)?)))
        .collect();
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

// ---- generators ----

/// Raw cells of one column, before storage.
#[derive(Clone, Debug)]
enum Cells {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Bool(Vec<Option<bool>>),
    Str(Vec<Option<String>>),
}

impl Cells {
    fn build(&self, name: &str) -> Column {
        match self {
            Cells::Int(v) => Column::from_ints(name, v.clone()),
            Cells::Float(v) => Column::from_floats(name, v.clone()),
            Cells::Bool(v) => Column::from_bools(name, v.clone()),
            Cells::Str(v) => Column::from_strs(name, v.clone()),
        }
    }

    /// Numeric cells as `f64`, or `None` for `Str`.
    fn floats(&self) -> Option<Vec<Option<f64>>> {
        match self {
            Cells::Int(v) => Some(v.iter().map(|c| c.map(|x| x as f64)).collect()),
            Cells::Float(v) => Some(v.clone()),
            Cells::Bool(v) => Some(
                v.iter()
                    .map(|c| c.map(|b| f64::from(u8::from(b))))
                    .collect(),
            ),
            Cells::Str(_) => None,
        }
    }

    /// Every cell as the text `Value::render` gives it.
    fn rendered(&self) -> Vec<Option<String>> {
        let col = self.build("rendered");
        (0..col.len())
            .map(|i| (!col.is_null(i)).then(|| col.get(i).render()))
            .collect()
    }
}

fn random_cells(rng: &mut Rng, n: usize) -> Cells {
    let nulls = [0.0, 0.0, 0.2, 0.7][rng.gen_range(0..4usize)];
    let cell = |rng: &mut Rng| !rng.gen_bool(nulls);
    match rng.gen_range(0..5u32) {
        0 => Cells::Int(
            (0..n)
                .map(|_| cell(rng).then(|| rng.gen_range(-4i64..5)))
                .collect(),
        ),
        1 => Cells::Float(
            (0..n)
                .map(|_| cell(rng).then(|| rng.gen_range(-8i64..8) as f64 / 4.0))
                .collect(),
        ),
        2 => Cells::Float(
            (0..n)
                .map(|_| cell(rng).then(|| rng.gen_range(-1e3..1e3)))
                .collect(),
        ),
        3 => Cells::Bool(
            (0..n)
                .map(|_| cell(rng).then(|| rng.gen_bool(0.5)))
                .collect(),
        ),
        _ => {
            const WORDS: &[&str] = &["a", "b", "c", "1", "2", "1.0", "true"];
            Cells::Str(
                (0..n)
                    .map(|_| cell(rng).then(|| WORDS[rng.gen_range(0..WORDS.len())].to_string()))
                    .collect(),
            )
        }
    }
}

/// The same `Str` cells under a different dictionary book: extra strings
/// are interned first and the rows arrive reversed, so every code differs
/// from a fresh `from_strs` encoding; `take` then restores the row order
/// while sharing the larger book.
fn str_with_other_book(name: &str, cells: &[Option<String>]) -> Column {
    let extra = ["zz", "yy", "xx"];
    let mut all: Vec<Option<String>> = extra.iter().map(|s| Some(s.to_string())).collect();
    all.extend(cells.iter().rev().cloned());
    let rows: Vec<usize> = (extra.len()..all.len()).rev().collect();
    Column::from_strs(name, all).take(&rows)
}

/// A candidate derived from `base` (or fresh), aimed at one duplicate-scan
/// case.
fn derive(rng: &mut Rng, base: &Cells, n: usize) -> Column {
    const NAME: &str = "cand";
    match (rng.gen_range(0..9u32), base) {
        // Re-store the same values under another numeric dtype.
        (0, Cells::Int(v)) => {
            Column::from_floats(NAME, v.iter().map(|c| c.map(|x| x as f64)).collect())
        }
        (0, Cells::Float(v)) if v.iter().flatten().all(|x| x.fract() == 0.0) => {
            Column::from_ints(NAME, v.iter().map(|c| c.map(|x| x as i64)).collect())
        }
        (0, Cells::Bool(v)) => {
            Column::from_ints(NAME, v.iter().map(|c| c.map(i64::from)).collect())
        }
        (0 | 1, Cells::Str(v)) => str_with_other_book(NAME, v),
        // Int 0/1 stored as Bool.
        (1, Cells::Int(v)) => {
            Column::from_bools(NAME, v.iter().map(|c| c.map(|x| x > 0)).collect())
        }
        // Positive or negative affine rescale.
        (2 | 3, _) if base.floats().is_some() => {
            let a = [2.0, 0.5, 1.0, -1.0, -3.0][rng.gen_range(0..5usize)];
            let b = [0.0, 1.0, -7.5][rng.gen_range(0..3usize)];
            let xs = base.floats().unwrap_or_default();
            Column::from_floats(NAME, xs.iter().map(|c| c.map(|x| a * x + b)).collect())
        }
        // Misaligned nulls: flip one row's validity.
        (4, _) if n > 0 => {
            let mut xs = base.floats().unwrap_or_else(|| vec![Some(1.0); n]);
            let row = rng.gen_range(0..n);
            xs[row] = match xs[row] {
                Some(_) => None,
                None => Some(0.25),
            };
            Column::from_floats(NAME, xs)
        }
        // Fewer than 3 complete pairs: keep at most two present rows.
        (5, _) if base.floats().is_some() => {
            let xs = base.floats().unwrap_or_default();
            let keep = rng.gen_range(0..3usize);
            let mut present = 0;
            let thinned = xs
                .iter()
                .map(|c| {
                    let x = c.filter(|_| present < keep)?;
                    present += 1;
                    Some(x * 3.0 + 1.0)
                })
                .collect();
            Column::from_floats(NAME, thinned)
        }
        // A `Str` column that renders exactly like a numeric base.
        (6, _) if base.floats().is_some() => Column::from_strs(NAME, base.rendered()),
        // A near-duplicate: one value nudged.
        (7, _) if n > 0 && base.floats().is_some() => {
            let mut xs = base.floats().unwrap_or_default();
            let row = rng.gen_range(0..n);
            xs[row] = xs[row].map(|x| x + [1e-9, 1e-3, 1.0][rng.gen_range(0..3usize)]);
            Column::from_floats(NAME, xs)
        }
        _ => random_cells(rng, n).build(NAME),
    }
}

fn random_frame(rng: &mut Rng, n: usize) -> (DataFrame, Vec<Cells>) {
    let width = rng.gen_range(1..6usize);
    let mut cells: Vec<Cells> = Vec::with_capacity(width);
    for _ in 0..width {
        // Sometimes repeat an earlier column so several columns match and
        // the lowest index must win.
        let repeat = !cells.is_empty() && rng.gen_bool(0.2);
        let next = if repeat {
            cells[rng.gen_range(0..cells.len())].clone()
        } else {
            random_cells(rng, n)
        };
        cells.push(next);
    }
    let columns = cells
        .iter()
        .enumerate()
        .map(|(i, c)| c.build(&format!("c{i}")))
        .collect();
    (
        DataFrame::from_columns(columns).expect("equal-length columns"),
        cells,
    )
}

#[test]
fn threaded_scan_matches_the_materializing_oracle() {
    let mut duplicates = 0usize;
    let mut passes = 0usize;
    check::cases(600, |rng| {
        let n = [0, 2, 3, 4, 7, 16, 40][rng.gen_range(0..7usize)];
        let (df, cells) = random_frame(rng, n);
        let base = &cells[rng.gen_range(0..cells.len())];
        let cand = derive(rng, base, n);
        let max_null_fraction = [0.5, 1.0][rng.gen_range(0..2usize)];
        let expected = oracle_check(&cand, &df, max_null_fraction);
        for threads in [1usize, 4] {
            let got = check_new_column_threaded(&cand, &df, max_null_fraction, threads);
            assert_eq!(got, expected, "threads={threads} cand={cand:?} df={df:?}");
        }
        match expected {
            Some(SkipReason::Duplicate(_)) => duplicates += 1,
            None => passes += 1,
            _ => {}
        }
    });
    // The generators must exercise both verdicts, not only the early-outs.
    assert!(duplicates >= 100, "only {duplicates} duplicate verdicts");
    assert!(passes >= 100, "only {passes} passing verdicts");
}

#[test]
fn allocation_free_pearson_is_bit_identical_to_the_collecting_one() {
    check::cases(300, |rng| {
        let n = rng.gen_range(0..200usize);
        let nulls = [0.0, 0.3, 0.9][rng.gen_range(0..3usize)];
        let side = |rng: &mut Rng| -> Vec<Option<f64>> {
            (0..n)
                .map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_range(-1e6..1e6)))
                .collect()
        };
        let a = side(rng);
        let b = side(rng);
        // An exact positive rescale, where rounding decides `r > 0.9999`.
        let c: Vec<Option<f64>> = a.iter().map(|x| x.map(|v| 0.37 * v - 11.0)).collect();
        for (x, y) in [(&a, &b), (&a, &c), (&c, &a)] {
            assert_eq!(
                smartfeat_frame::stats::pearson(x, y).map(f64::to_bits),
                pearson(x, y).map(f64::to_bits)
            );
        }
    });
}
