//! The paper's "DNN": a two-hidden-layer (100×100) ReLU MLP with a sigmoid
//! output, trained with Adam on mini-batches of binary cross-entropy.
//!
//! Training and prediction are batch-major: a mini-batch (or a 64-row
//! prediction block) is held feature-major, one row per unit and one column
//! per sample, and every forward, backward and gradient product is a call
//! to one matrix kernel, [`gemm`]. The kernel adds the terms of each output
//! in the same order a per-sample scalar loop would, so the fitted weights
//! and the predictions are bit-identical to that loop's.

use smartfeat_rng::Rng;

use crate::error::{MlError, Result};
use crate::logistic::sigmoid;
use crate::matrix::Matrix;
use crate::model::Classifier;

/// Rows per block in `predict_proba`.
const PREDICT_BLOCK: usize = 64;

/// One dense layer's parameters and Adam state.
#[derive(Debug, Clone)]
struct Dense {
    w: Vec<f64>, // out × in, row-major
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng) -> Self {
        // He initialization for ReLU layers.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.gen_f64() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// `z = W·x + b` for a batch of `nb` samples: `x` is `n_in × nb` and
    /// `z` is `n_out × nb`, both feature-major.
    fn forward(&self, x: &[f64], nb: usize, z: &mut [f64], panel: &mut Vec<f64>) {
        for (row, &b) in z.chunks_exact_mut(nb).zip(&self.b) {
            row.fill(b);
        }
        gemm(z, &self.w, x, self.n_out, self.n_in, nb, panel);
    }
}

/// `c[m×n] += a[m×p]·b[p×n]`, all row-major.
///
/// Accumulation-order contract: each `c[i][j]` starts from its value on
/// entry and adds `a[i][k] * b[k][j]` for `k = 0, 1, …, p-1` in that
/// order, one rounded multiply and one rounded add per term — exactly the
/// scalar loop `for k in 0..p { c += a[i][k] * b[k][j] }`. So the result
/// is bit-identical to that loop, whatever the shape.
///
/// Speed comes from reuse, not reordering: four rows of `a` are packed
/// k-major into `panel` (zero-padded past `m`), and each 4×4 tile of `c`
/// stays in registers for the whole `k` loop, loading one 4-wide panel
/// slice and one 4-wide row slice of `b` per step.
fn gemm(c: &mut [f64], a: &[f64], b: &[f64], m: usize, p: usize, n: usize, panel: &mut Vec<f64>) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * p);
    debug_assert_eq!(b.len(), p * n);
    if n == 0 {
        return;
    }
    panel.resize(4 * p, 0.0);
    for i0 in (0..m).step_by(4) {
        let mr = (m - i0).min(4);
        for (k, slot) in panel.chunks_exact_mut(4).enumerate() {
            for (r, v) in slot.iter_mut().enumerate() {
                *v = if r < mr { a[(i0 + r) * p + k] } else { 0.0 };
            }
        }
        let c_rows = &mut c[i0 * n..(i0 + mr) * n];
        let mut j0 = 0;
        while j0 + 4 <= n {
            let mut acc = [[0.0f64; 4]; 4];
            for (acc_r, c_row) in acc.iter_mut().zip(c_rows.chunks_exact(n)) {
                acc_r.copy_from_slice(&c_row[j0..j0 + 4]);
            }
            for (ak, b_row) in panel.chunks_exact(4).zip(b.chunks_exact(n)) {
                let bk = &b_row[j0..j0 + 4];
                for (acc_r, &av) in acc.iter_mut().zip(ak) {
                    for (cv, &bv) in acc_r.iter_mut().zip(bk) {
                        *cv += av * bv;
                    }
                }
            }
            for (acc_r, c_row) in acc.iter().zip(c_rows.chunks_exact_mut(n)) {
                c_row[j0..j0 + 4].copy_from_slice(acc_r);
            }
            j0 += 4;
        }
        // Column remainder: one column of the tile at a time.
        for j in j0..n {
            let mut acc = [0.0f64; 4];
            for (cv, c_row) in acc.iter_mut().zip(c_rows.chunks_exact(n)) {
                *cv = c_row[j];
            }
            for (ak, b_row) in panel.chunks_exact(4).zip(b.chunks_exact(n)) {
                let bv = b_row[j];
                for (cv, &av) in acc.iter_mut().zip(ak) {
                    *cv += av * bv;
                }
            }
            for (&cv, c_row) in acc.iter().zip(c_rows.chunks_exact_mut(n)) {
                c_row[j] = cv;
            }
        }
    }
}

/// `out = srcᵀ`: `src` is `rows × cols`, `out` becomes `cols × rows`.
fn transpose(src: &[f64], rows: usize, cols: usize, out: &mut Vec<f64>) {
    out.resize(rows * cols, 0.0);
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
}

/// Gather `rows` of `x` feature-major: `out` becomes `x.cols() × rows.len()`.
fn gather(x: &Matrix, rows: &[usize], out: &mut Vec<f64>) {
    let nb = rows.len();
    out.resize(x.cols() * nb, 0.0);
    for (s, &r) in rows.iter().enumerate() {
        for (i, &v) in x.row(r).iter().enumerate() {
            out[i * nb + s] = v;
        }
    }
}

/// MLP hyper-parameters and fitted state.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    /// Hidden layer widths (the paper uses `[100, 100]`).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Cap on total mini-batch updates — keeps wall-clock bounded on the
    /// large datasets (Bank/Adult), where the paper itself reports DNN
    /// timeouts for the costlier baselines.
    pub max_updates: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
    seed: u64,
    layers: Vec<Dense>,
    n_features: usize,
    fitted: bool,
}

impl MlpClassifier {
    /// The paper's architecture: two hidden layers of 100 ReLU units.
    pub fn default_params(seed: u64) -> Self {
        MlpClassifier {
            hidden: vec![100, 100],
            learning_rate: 1e-3,
            batch_size: 64,
            max_epochs: 30,
            max_updates: 6000,
            weight_decay: 1e-5,
            seed,
            layers: Vec::new(),
            n_features: 0,
            fitted: false,
        }
    }
}

impl Classifier for MlpClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u8]) -> Result<()> {
        if self.batch_size == 0 {
            return Err(MlError::InvalidParameter(
                "MLP batch_size must be at least 1".into(),
            ));
        }
        x.check_training(y)?;
        if !x.is_finite() {
            return Err(MlError::NonFinite("training features"));
        }
        let n = x.rows();
        let d = x.cols();
        self.n_features = d;
        let mut rng = Rng::seed_from_u64(self.seed);

        // Build layers: d → hidden… → 1.
        let mut sizes = vec![d];
        sizes.extend(&self.hidden);
        sizes.push(1);
        self.layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();

        let last = self.layers.len() - 1;
        // Per-layer batch buffers, feature-major (units × batch): the
        // pre-activations, activations and deltas.
        let max_batch = self.batch_size.min(n);
        let batch_bufs = || -> Vec<Vec<f64>> {
            sizes[1..]
                .iter()
                .map(|&s| vec![0.0; s * max_batch])
                .collect()
        };
        let mut zs = batch_bufs();
        let mut activations = batch_bufs();
        let mut deltas = batch_bufs();
        // Gradient accumulators per layer.
        let mut gw: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
        // Kernel scratch: the gathered input batch, the `a` panel, a
        // transposed weight matrix and a transposed (batch-major) source.
        let mut xb = Vec::new();
        let mut panel = Vec::new();
        let mut wt = Vec::new();
        let mut src_t = Vec::new();

        let mut order: Vec<usize> = (0..n).collect();
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut t = 0usize; // Adam step counter
        'training: for _epoch in 0..self.max_epochs {
            // Fisher–Yates with the fitted rng for deterministic shuffling.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for batch in order.chunks(self.batch_size) {
                if t >= self.max_updates {
                    break 'training;
                }
                let nb = batch.len();
                gather(x, batch, &mut xb);
                // Forward.
                for (l, layer) in self.layers.iter().enumerate() {
                    let src: &[f64] = if l == 0 {
                        &xb
                    } else {
                        &activations[l - 1][..layer.n_in * nb]
                    };
                    let z = &mut zs[l][..layer.n_out * nb];
                    layer.forward(src, nb, z, &mut panel);
                    let act = &mut activations[l][..layer.n_out * nb];
                    if l < last {
                        for (a, &zv) in act.iter_mut().zip(z.iter()) {
                            *a = zv.max(0.0); // ReLU
                        }
                    } else {
                        for (a, &zv) in act.iter_mut().zip(z.iter()) {
                            *a = sigmoid(zv);
                        }
                    }
                }
                // Backward: BCE + sigmoid ⇒ delta = p - y; then
                // delta_l = (W_{l+1}ᵀ · delta_{l+1}) masked by ReLU'.
                for ((dv, &p), &sample) in
                    deltas[last].iter_mut().zip(&activations[last]).zip(batch)
                {
                    *dv = p - f64::from(y[sample]);
                }
                for l in (0..last).rev() {
                    let next = &self.layers[l + 1];
                    transpose(&next.w, next.n_out, next.n_in, &mut wt);
                    let (lower, upper) = deltas.split_at_mut(l + 1);
                    let delta_here = &mut lower[l][..next.n_in * nb];
                    delta_here.fill(0.0);
                    gemm(
                        delta_here,
                        &wt,
                        &upper[0][..next.n_out * nb],
                        next.n_in,
                        next.n_out,
                        nb,
                        &mut panel,
                    );
                    for (dh, &z) in delta_here.iter_mut().zip(&zs[l]) {
                        *dh = if z > 0.0 { *dh } else { 0.0 };
                    }
                }
                // Gradients, summed over the batch in sample order:
                // gw_l = delta_l · srcᵀ.
                for (l, layer) in self.layers.iter().enumerate() {
                    let src: &[f64] = if l == 0 {
                        &xb
                    } else {
                        &activations[l - 1][..layer.n_in * nb]
                    };
                    transpose(src, layer.n_in, nb, &mut src_t);
                    let delta = &deltas[l][..layer.n_out * nb];
                    gw[l].fill(0.0);
                    gemm(
                        &mut gw[l],
                        delta,
                        &src_t,
                        layer.n_out,
                        nb,
                        layer.n_in,
                        &mut panel,
                    );
                    for (g, row) in gb[l].iter_mut().zip(delta.chunks_exact(nb)) {
                        *g = row.iter().fold(0.0, |acc, &dv| acc + dv);
                    }
                }
                // Adam update.
                t += 1;
                let inv_batch = 1.0 / nb as f64;
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for ((layer, gw_l), gb_l) in self.layers.iter_mut().zip(&gw).zip(&gb) {
                    let params = layer.w.iter_mut().zip(&mut layer.mw).zip(&mut layer.vw);
                    for (((w, m), v), &gsum) in params.zip(gw_l) {
                        let g = gsum * inv_batch + self.weight_decay * *w;
                        *m = beta1 * *m + (1.0 - beta1) * g;
                        *v = beta2 * *v + (1.0 - beta2) * g * g;
                        let mhat = *m / bc1;
                        let vhat = *v / bc2;
                        *w -= self.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                    let params = layer.b.iter_mut().zip(&mut layer.mb).zip(&mut layer.vb);
                    for (((b, m), v), &gsum) in params.zip(gb_l) {
                        let g = gsum * inv_batch;
                        *m = beta1 * *m + (1.0 - beta1) * g;
                        *v = beta2 * *v + (1.0 - beta2) * g * g;
                        let mhat = *m / bc1;
                        let vhat = *v / bc2;
                        *b -= self.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(MlError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(MlError::FeatureMismatch {
                fitted: self.n_features,
                given: x.cols(),
            });
        }
        let mut out = Vec::with_capacity(x.rows());
        let rows: Vec<usize> = (0..x.rows()).collect();
        let (mut src, mut dst, mut panel) = (Vec::new(), Vec::new(), Vec::new());
        for block in rows.chunks(PREDICT_BLOCK) {
            let nb = block.len();
            gather(x, block, &mut src);
            for (l, layer) in self.layers.iter().enumerate() {
                dst.resize(layer.n_out * nb, 0.0);
                layer.forward(&src, nb, &mut dst, &mut panel);
                if l + 1 < self.layers.len() {
                    for v in dst.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                std::mem::swap(&mut src, &mut dst);
            }
            out.extend(
                src.iter()
                    .map(|&z| sigmoid(z.clamp(-60.0, 60.0)).clamp(0.0, 1.0)),
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use crate::preprocess::Standardizer;

    fn xor_data(n: usize) -> (Matrix, Vec<u8>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = f64::from(i % 2 == 0);
            let b = f64::from((i / 2) % 2 == 0);
            let jitter = ((i * 37) % 100) as f64 * 0.002;
            rows.push(vec![a + jitter, b - jitter]);
            y.push(u8::from((a > 0.5) != (b > 0.5)));
        }
        (Matrix::from_rows(rows).unwrap(), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data(400);
        let s = Standardizer::fit(&x).unwrap();
        let xs = s.transform(&x).unwrap();
        let mut mlp = MlpClassifier::default_params(1);
        mlp.fit(&xs, &y).unwrap();
        let p = mlp.predict_proba(&xs).unwrap();
        assert!(roc_auc(&y, &p) > 0.98, "AUC = {}", roc_auc(&y, &p));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data(100);
        let mut a = MlpClassifier::default_params(5);
        let mut b = MlpClassifier::default_params(5);
        a.max_epochs = 3;
        b.max_epochs = 3;
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn update_budget_caps_work() {
        let (x, y) = xor_data(2000);
        let mut mlp = MlpClassifier::default_params(0);
        mlp.max_updates = 10; // tiny budget: must still finish and predict
        mlp.fit(&x, &y).unwrap();
        let p = mlp.predict_proba(&x).unwrap();
        assert_eq!(p.len(), 2000);
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = xor_data(200);
        let mut mlp = MlpClassifier::default_params(2);
        mlp.max_epochs = 5;
        mlp.fit(&x, &y).unwrap();
        assert!(mlp
            .predict_proba(&x)
            .unwrap()
            .iter()
            .all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let (x, y) = xor_data(20);
        let mut mlp = MlpClassifier::default_params(0);
        mlp.batch_size = 0;
        assert!(matches!(mlp.fit(&x, &y), Err(MlError::InvalidParameter(_))));
    }

    #[test]
    fn gemm_matches_the_scalar_loop_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(3);
        let mut panel = Vec::new();
        // Every remainder of m and n modulo the 4×4 tile, p = 0 included.
        for (m, p, n) in [
            (1, 3, 1),
            (3, 5, 7),
            (4, 4, 4),
            (5, 0, 6),
            (9, 13, 10),
            (7, 64, 5),
        ] {
            let mut draw =
                |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_f64() * 2.0 - 1.0).collect() };
            let (a, b, c0) = (draw(m * p), draw(p * n), draw(m * n));
            let mut expected = c0.clone();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = expected[i * n + j];
                    for k in 0..p {
                        acc += a[i * p + k] * b[k * n + j];
                    }
                    expected[i * n + j] = acc;
                }
            }
            let mut c = c0;
            gemm(&mut c, &a, &b, m, p, n, &mut panel);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c), bits(&expected), "shape {m}x{p}x{n}");
        }
    }

    #[test]
    fn rejects_nonfinite() {
        let x = Matrix::from_rows(vec![vec![f64::NAN], vec![1.0]]).unwrap();
        // `Matrix` keeps the NaN as given and `check_training` only looks at
        // shape and labels, so the rejection must come from `is_finite()`.
        let mut mlp = MlpClassifier::default_params(0);
        assert!(matches!(mlp.fit(&x, &[0, 1]), Err(MlError::NonFinite(_))));
    }
}
