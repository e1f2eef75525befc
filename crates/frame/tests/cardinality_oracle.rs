//! Differential check: `Column::cardinality` on numeric columns counts
//! distinct bit patterns, and must agree with the rendered-key count
//! `value_counts().len()` it replaced. The generators aim at the edges of
//! the injectivity argument: nulls, `0.0` against `-0.0`, integral floats
//! on both sides of the 1e15 switch between `{:.1}` and shortest
//! round-trip rendering, neighbouring floats one ulp apart, infinities,
//! and `i64::MIN`/`i64::MAX`.

use smartfeat_frame::Column;
use smartfeat_rng::{check, Rng};

/// Floats whose renderings sit at the edges of `format_float`.
const EDGE_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    999_999_999_999_999.0,
    -999_999_999_999_999.0,
    999_999_999_999_999.5,
    1e15,
    -1e15,
    1e15 + 2.0,
    9_007_199_254_740_992.0,
    1e16,
    1e300,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const EDGE_INTS: &[i64] = &[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

/// The probability of a null cell: none, few, many, or all.
fn null_rate(rng: &mut Rng) -> f64 {
    [0.0, 0.1, 0.5, 1.0][rng.gen_range(0..4usize)]
}

fn float_cell(rng: &mut Rng, nulls: f64) -> Option<f64> {
    if rng.gen_bool(nulls) {
        return None;
    }
    Some(match rng.gen_range(0..5u32) {
        0 => EDGE_FLOATS[rng.gen_range(0..EDGE_FLOATS.len())],
        // Small integers rendered with a trailing ".0": many repeats.
        1 => rng.gen_range(-3i64..4) as f64,
        // A value and its next representable neighbour.
        2 => {
            let base: f64 = [0.1, 1e15, 1e15 - 1.0, 123.456][rng.gen_range(0..4usize)];
            if rng.gen_bool(0.5) {
                f64::from_bits(base.to_bits() + 1)
            } else {
                base
            }
        }
        // Quarter steps: non-integral values with repeats.
        3 => rng.gen_range(-8i64..8) as f64 / 4.0,
        _ => rng.gen_range(-1e3..1e3),
    })
}

fn int_cell(rng: &mut Rng, nulls: f64) -> Option<i64> {
    if rng.gen_bool(nulls) {
        return None;
    }
    Some(match rng.gen_range(0..3u32) {
        0 => EDGE_INTS[rng.gen_range(0..EDGE_INTS.len())],
        1 => rng.gen_range(-5i64..5),
        _ => rng.next_u64() as i64,
    })
}

fn assert_agrees(col: &Column) {
    let rendered = col.value_counts().len();
    assert_eq!(col.cardinality(), rendered, "{col:?}");
    assert_eq!(col.is_constant(), rendered <= 1, "{col:?}");
}

#[test]
fn numeric_cardinality_matches_rendered_key_count() {
    check::cases(256, |rng| {
        let n = rng.gen_range(0..80usize);
        let nulls = null_rate(rng);
        let floats: Vec<Option<f64>> = (0..n).map(|_| float_cell(rng, nulls)).collect();
        let ints: Vec<Option<i64>> = (0..n).map(|_| int_cell(rng, nulls)).collect();
        let bools: Vec<Option<bool>> = (0..n)
            .map(|_| (!rng.gen_bool(nulls)).then(|| rng.gen_bool(0.5)))
            .collect();
        for col in [
            Column::from_floats("f", floats),
            Column::from_ints("i", ints),
            Column::from_bools("b", bools),
        ] {
            assert_agrees(&col);
            // A gathered copy reads the same buffers through another
            // validity layout.
            let rows: Vec<usize> = (0..col.len()).rev().step_by(2).collect();
            assert_agrees(&col.take(&rows));
        }
    });
}

#[test]
fn signed_zero_and_the_1e15_switch_stay_distinct() {
    let col = Column::from_f64("z", vec![0.0, -0.0, 0.0, 1e15, 1e15, 1e15 - 1.0]);
    assert_eq!(col.cardinality(), 4);
    assert_eq!(col.value_counts().len(), 4);
    let ints = Column::from_i64("i", vec![i64::MIN, i64::MAX, i64::MIN, -1]);
    assert_eq!(ints.cardinality(), 3);
}
