//! Bit-level golden for the MLP: pins the `to_bits()` digest of
//! `predict_proba` after `fit`, over shapes that exercise every remainder
//! path of the mini-batch kernel — input widths that are not a multiple of
//! the 4-wide tile, partial last batches, odd hidden widths, a batch size
//! below one tile, and a predict set spanning several 64-row blocks.
//!
//! Any change to the MLP's floating-point operation order shows up here as
//! a digest mismatch; the failure message lists the digests the current
//! code produces.

use smartfeat_ml::nn::MlpClassifier;
use smartfeat_ml::{Classifier, Matrix};
use smartfeat_rng::Rng;

/// Rows of the predict set: two full 64-row blocks plus a partial one.
const PREDICT_ROWS: usize = 150;

/// Uniform features in [-2, 2) and a noisy linear label.
fn data(rows: usize, d: usize, seed: u64) -> (Matrix, Vec<u8>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut values = Vec::with_capacity(rows * d);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let row: Vec<f64> = (0..d).map(|_| rng.gen_f64() * 4.0 - 2.0).collect();
        let score: f64 = row
            .iter()
            .enumerate()
            .map(|(j, v)| if j % 2 == 0 { *v } else { -0.5 * v })
            .sum::<f64>()
            + (rng.gen_f64() - 0.5);
        y.push(u8::from(score > 0.0));
        values.extend(row);
    }
    (Matrix::new(values, rows, d).unwrap(), y)
}

/// FNV-1a over the probabilities' bit patterns.
fn digest(p: &[f64]) -> u64 {
    p.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn case_digest(d: usize, n: usize, hidden: &[usize], batch_size: usize) -> u64 {
    let (x, y) = data(n, d, (d * 1000 + n) as u64);
    let (xp, _) = data(PREDICT_ROWS, d, 7 + d as u64);
    let mut mlp = MlpClassifier::default_params(11);
    mlp.hidden = hidden.to_vec();
    mlp.batch_size = batch_size;
    mlp.max_epochs = 3;
    mlp.fit(&x, &y).unwrap();
    let p = mlp.predict_proba(&xp).unwrap();
    assert_eq!(p.len(), PREDICT_ROWS);
    digest(&p)
}

/// `(d, n, hidden, batch_size, digest)`.
const GOLDEN: &[(usize, usize, &[usize], usize, u64)] = &[
    (1, 63, &[7, 5], 5, 0xa715d173f3fbf067),
    (1, 63, &[7, 5], 64, 0x5360098f00351958),
    (1, 63, &[100, 100], 5, 0xa9c712116fd50aa5),
    (1, 63, &[100, 100], 64, 0xae4b7369647c9ac0),
    (1, 65, &[7, 5], 5, 0x667de5e2456cb7d2),
    (1, 65, &[7, 5], 64, 0x399ab3b23975b346),
    (1, 65, &[100, 100], 5, 0x7dfb27fff5584938),
    (1, 65, &[100, 100], 64, 0x5366253567bb2797),
    (1, 130, &[7, 5], 5, 0x1b0a57861d438150),
    (1, 130, &[7, 5], 64, 0x23e699be794a0902),
    (1, 130, &[100, 100], 5, 0x0841ff4c900bd575),
    (1, 130, &[100, 100], 64, 0xa08c464b8c7c0530),
    (3, 63, &[7, 5], 5, 0x056f68960194fec6),
    (3, 63, &[7, 5], 64, 0x9bfdf7be5b4cc12d),
    (3, 63, &[100, 100], 5, 0x84226b691d1a2d21),
    (3, 63, &[100, 100], 64, 0x41ca573ba127e39b),
    (3, 65, &[7, 5], 5, 0x5b497759fbbf4ccc),
    (3, 65, &[7, 5], 64, 0xd4933f3d5d94b63b),
    (3, 65, &[100, 100], 5, 0x8d8e14cd33f041fa),
    (3, 65, &[100, 100], 64, 0x507049d4aa00ec5c),
    (3, 130, &[7, 5], 5, 0x6849982beb2671dc),
    (3, 130, &[7, 5], 64, 0x63c522ef238772f3),
    (3, 130, &[100, 100], 5, 0xb9c904a3546b3fdd),
    (3, 130, &[100, 100], 64, 0xf2bbc5f908f9eeba),
    (14, 63, &[7, 5], 5, 0x615c6bde64d03234),
    (14, 63, &[7, 5], 64, 0xb2ee84d848084b4b),
    (14, 63, &[100, 100], 5, 0xbbe01a941fce1d8a),
    (14, 63, &[100, 100], 64, 0xd8160e9f72b4fe67),
    (14, 65, &[7, 5], 5, 0x2568e094dd6ff20c),
    (14, 65, &[7, 5], 64, 0xfa739c09806a350e),
    (14, 65, &[100, 100], 5, 0xcad84af4f5beb067),
    (14, 65, &[100, 100], 64, 0x0bbfda88cc0f31ac),
    (14, 130, &[7, 5], 5, 0xbd078c52271ea65e),
    (14, 130, &[7, 5], 64, 0xffe661935f3e2b17),
    (14, 130, &[100, 100], 5, 0x6be1c39580154855),
    (14, 130, &[100, 100], 64, 0xc1ed19ba948e5ac6),
];

#[test]
fn predict_proba_bits_are_pinned() {
    let mut actual = Vec::new();
    for d in [1, 3, 14] {
        for n in [63, 65, 130] {
            for hidden in [&[7, 5][..], &[100, 100][..]] {
                for batch_size in [5, 64] {
                    actual.push((
                        d,
                        n,
                        hidden,
                        batch_size,
                        case_digest(d, n, hidden, batch_size),
                    ));
                }
            }
        }
    }
    let listing: String = actual
        .iter()
        .map(|(d, n, h, b, g)| format!("    ({d}, {n}, &{h:?}, {b}, {g:#018x}),\n"))
        .collect();
    assert_eq!(actual.as_slice(), GOLDEN, "current digests:\n{listing}");
}
