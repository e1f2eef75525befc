//! CAAFE baseline: FM-driven iterative feature generation with a
//! validation-set accept/reject step.
//!
//! Differences from SMARTFEAT, per the paper:
//! - **No operator selector**: every iteration asks the FM for one
//!   transformation free-form; the proposals are dominated by numeric
//!   combinations (with a taste for ratio features).
//! - **Validation step**: a downstream model is retrained on the
//!   validation split after every accepted candidate — the step that makes
//!   CAAFE effective ("only retains the ones that improve performance")
//!   but also slow: it is the reason it times out with the DNN on the
//!   large datasets.
//! - **Unguarded code**: generated transformations are applied as-is; a
//!   division whose denominator contains zeros produces non-finite values
//!   and crashes model training — the failure the paper reports on
//!   Diabetes.

use std::time::Duration;

use smartfeat_obs::global::stopwatch;

use smartfeat::fmout;
use smartfeat::prompts;
use smartfeat::DataAgenda;
use smartfeat_fm::FoundationModel;
use smartfeat_frame::ops::{binary_op, binary_op_unsafe, groupby_transform, AggFunc, BinaryOp};
use smartfeat_frame::sample::train_test_split;
use smartfeat_frame::{Column, DataFrame};
use smartfeat_ml::{roc_auc, Matrix, ModelKind, Standardizer};

use smartfeat_rng::Rng;

use crate::method::{AfeMethod, MethodOutput};

/// The CAAFE-style baseline.
pub struct Caafe<'a> {
    fm: &'a dyn FoundationModel,
    agenda: DataAgenda,
    /// Model used in the validation accept/reject step.
    pub validation_model: ModelKind,
    /// Feature-generation iterations (the paper uses 10).
    pub iterations: usize,
    /// Seed for the op-preference sampling.
    pub seed: u64,
}

impl<'a> Caafe<'a> {
    /// Create a CAAFE run bound to an FM handle and a dataset's agenda.
    pub fn new(
        fm: &'a dyn FoundationModel,
        agenda: DataAgenda,
        validation_model: ModelKind,
        seed: u64,
    ) -> Self {
        Caafe {
            fm,
            agenda,
            validation_model,
            iterations: 10,
            seed,
        }
    }

    /// One FM-proposed transformation. CAAFE's free-form code generation is
    /// dominated by binary numeric combinations, occasionally a group-by.
    ///
    /// Whether a generated division is zero-guarded follows CAAFE's value
    /// sampling: the prompt shows the model a handful of example rows, so
    /// the generated code handles zeros *only if the sample happened to
    /// contain one*. Columns with rare zeros slip through unguarded — the
    /// mechanism behind the paper's Diabetes failure.
    fn propose(
        &self,
        df: &DataFrame,
        agenda: &DataAgenda,
        rng: &mut Rng,
    ) -> Option<CaafeCandidate> {
        if rng.gen_f64() < 0.65 {
            let prompt = prompts::binary_sample(agenda);
            let text = self.fm.complete(&prompt).ok()?.text;
            let dict = fmout::parse_dict(&text)?;
            let left = dict.get("left")?.as_str()?;
            let right = dict.get("right")?.as_str()?;
            let op = match dict.get("op")?.as_str()?.as_str() {
                "+" => BinaryOp::Add,
                "-" => BinaryOp::Sub,
                "*" => BinaryOp::Mul,
                "/" => BinaryOp::Div,
                _ => return None,
            };
            if !agenda.has(&left) || !agenda.has(&right) || left == right {
                return None;
            }
            let guarded = op != BinaryOp::Div || sample_shows_zero(df, &right, rng);
            Some(CaafeCandidate::Binary {
                left,
                right,
                op,
                guarded,
            })
        } else {
            let prompt = prompts::highorder_sample(agenda);
            let text = self.fm.complete(&prompt).ok()?.text;
            let dict = fmout::parse_dict(&text)?;
            let group = dict.get("groupby_col")?.as_list();
            let agg_col = dict.get("agg_col")?.as_str()?;
            let func = AggFunc::parse(&dict.get("function")?.as_str()?)?;
            if group.is_empty() || group.iter().any(|g| !agenda.has(g)) || !agenda.has(&agg_col) {
                return None;
            }
            Some(CaafeCandidate::Groupby {
                group,
                agg_col,
                func,
            })
        }
    }

    /// Validation AUC of the model on (train, valid) with a feature set.
    /// Non-finite features make the fit fail — surfaced as `None`.
    fn validation_auc(
        &self,
        train: &DataFrame,
        valid: &DataFrame,
        target: &str,
        features: &[String],
    ) -> Option<f64> {
        let names: Vec<&str> = features.iter().map(String::as_str).collect();
        let x_train = raw_matrix(train, &names)?;
        let x_valid = raw_matrix(valid, &names)?;
        let y_train = train.to_labels(target).ok()?;
        let y_valid = valid.to_labels(target).ok()?;
        let (xt, xv) = if self.validation_model.wants_standardized_input() {
            // CAAFE's generated sklearn pipelines standardize; a non-finite
            // input makes StandardScaler/fit raise — reproduce by failing.
            if !x_train.is_finite() || !x_valid.is_finite() {
                return None;
            }
            Standardizer::fit_transform(&x_train, &x_valid).ok()?
        } else {
            (x_train, x_valid)
        };
        // Validation-time models run on a reduced budget (validation is a
        // screen, not the final fit); the DNN still scales with the data
        // and is what blows the wall-clock limit on the large datasets.
        let mut model: Box<dyn smartfeat_ml::Classifier> =
            if self.validation_model == ModelKind::DNN {
                let mut mlp = smartfeat_ml::nn::MlpClassifier::default_params(self.seed);
                mlp.max_epochs = 10;
                Box::new(mlp)
            } else {
                self.validation_model.build(self.seed)
            };
        model.fit(&xt, &y_train).ok()?;
        let p = model.predict_proba(&xv).ok()?;
        Some(roc_auc(&y_valid, &p))
    }
}

/// Feature matrix that *keeps* non-finite values (unlike
/// [`DataFrame::to_matrix`], which masks them) — CAAFE's generated pandas
/// code performs no such masking, so neither do we.
fn raw_matrix(df: &DataFrame, features: &[&str]) -> Option<Matrix> {
    let cols: Vec<Vec<Option<f64>>> = features
        .iter()
        .map(|&n| df.column(n).ok().map(|c| c.to_f64()))
        .collect::<Option<_>>()?;
    let n = df.n_rows();
    let mut data = Vec::with_capacity(n * cols.len());
    for i in 0..n {
        data.extend(cols.iter().map(|col| col[i].unwrap_or(0.0)));
    }
    Matrix::new(data, n, cols.len()).ok()
}

/// Did the FM's sampled example rows contain a zero in `col`? (5 rows,
/// like the "several examples" CAAFE serializes into its prompt.)
fn sample_shows_zero(df: &DataFrame, col: &str, rng: &mut Rng) -> bool {
    let Ok(column) = df.column(col) else {
        return true; // be conservative
    };
    let values = column.to_f64();
    if values.is_empty() {
        return true;
    }
    (0..5).any(|_| {
        let i = rng.gen_range(0..values.len());
        values[i] == Some(0.0)
    })
}

enum CaafeCandidate {
    Binary {
        left: String,
        right: String,
        op: BinaryOp,
        guarded: bool,
    },
    Groupby {
        group: Vec<String>,
        agg_col: String,
        func: AggFunc,
    },
}

impl CaafeCandidate {
    fn name(&self) -> String {
        match self {
            CaafeCandidate::Binary {
                left, right, op, ..
            } => {
                format!("caafe_{}_{}_{}", left, op.token(), right)
            }
            CaafeCandidate::Groupby {
                group,
                agg_col,
                func,
            } => format!("caafe_gb_{}_{}_{}", group.join("_"), func.name(), agg_col),
        }
    }

    /// Apply with CAAFE's generated-code semantics: guarded divisions use
    /// null-on-zero, unguarded ones produce infinities.
    fn apply(&self, df: &DataFrame) -> Option<Column> {
        match self {
            CaafeCandidate::Binary {
                left,
                right,
                op,
                guarded,
            } => {
                let (a, b) = (df.column(left).ok()?, df.column(right).ok()?);
                if *guarded {
                    binary_op(a, b, *op, &self.name()).ok()
                } else {
                    binary_op_unsafe(a, b, *op, &self.name()).ok()
                }
            }
            CaafeCandidate::Groupby {
                group,
                agg_col,
                func,
            } => {
                let groups: Vec<&str> = group.iter().map(String::as_str).collect();
                groupby_transform(df, &groups, agg_col, *func, &self.name()).ok()
            }
        }
    }
}

impl AfeMethod for Caafe<'_> {
    fn name(&self) -> &'static str {
        "CAAFE"
    }

    fn run(
        &self,
        df: &DataFrame,
        target: &str,
        _categorical: &[String],
        deadline: Duration,
    ) -> MethodOutput {
        let start = stopwatch("baselines.caafe.run");
        let mut rng = Rng::seed_from_u64(self.seed);
        let Ok((train, valid)) = train_test_split(df, 0.75, self.seed) else {
            let mut out = MethodOutput::passthrough(df);
            out.failure = Some("could not split validation set".into());
            return out;
        };

        let mut agenda = self.agenda.clone();
        let mut features: Vec<String> = df
            .column_names()
            .into_iter()
            .filter(|n| *n != target)
            .map(str::to_string)
            .collect();
        let mut frame = df.clone();
        let mut train_frame = train;
        let mut valid_frame = valid;
        let mut new_features = Vec::new();
        let mut generated_count = 0usize;
        let mut timed_out = false;

        let Some(mut best_auc) = self.validation_auc(&train_frame, &valid_frame, target, &features)
        else {
            let mut out = MethodOutput::passthrough(df);
            out.failure = Some("initial validation training failed".into());
            return out;
        };

        for _ in 0..self.iterations {
            if start.exceeded(deadline) {
                timed_out = true;
                break;
            }
            let Some(cand) = self.propose(&frame, &agenda, &mut rng) else {
                continue;
            };
            generated_count += 1;
            let name = cand.name();
            if frame.has_column(&name) {
                continue;
            }
            let (Some(full_col), Some(train_col), Some(valid_col)) = (
                cand.apply(&frame),
                cand.apply(&train_frame),
                cand.apply(&valid_frame),
            ) else {
                continue;
            };
            // Tentatively attach and validate.
            train_frame.add_column(train_col).expect("unique");
            valid_frame.add_column(valid_col).expect("unique");
            features.push(name.clone());
            match self.validation_auc(&train_frame, &valid_frame, target, &features) {
                Some(auc) if auc > best_auc => {
                    best_auc = auc;
                    frame.add_column(full_col).expect("unique");
                    agenda.push_generated(
                        &name,
                        "float",
                        None,
                        "CAAFE-generated transformation",
                        smartfeat::config::OperatorFamily::Binary,
                    );
                    new_features.push(name);
                }
                Some(_) => {
                    // Rejected: revert.
                    features.pop();
                    let _ = train_frame.drop_column(&name);
                    let _ = valid_frame.drop_column(&name);
                }
                None => {
                    // Model training crashed — the generated code poisoned
                    // the features (the paper's Diabetes divide-by-zero).
                    return MethodOutput {
                        frame: df.clone(),
                        new_features: Vec::new(),
                        generated_count,
                        selected_count: 0,
                        timed_out,
                        failure: Some(format!(
                            "generated transformation {name} produced non-finite values; \
                             downstream model training failed"
                        )),
                    };
                }
            }
        }

        MethodOutput {
            frame,
            selected_count: new_features.len(),
            new_features,
            generated_count,
            timed_out,
            failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartfeat_datasets as datasets;
    use smartfeat_fm::SimulatedFm;

    #[test]
    fn accepts_only_improving_features_on_housing() {
        let ds = datasets::by_name("Housing", 400, 3).unwrap();
        let mut df = ds.frame.clone();
        df.factorize_strings();
        let fm = SimulatedFm::gpt4(1);
        let caafe = Caafe::new(&fm, ds.agenda("RF"), ModelKind::LR, 5);
        let out = caafe.run(&df, ds.target, &[], Duration::from_secs(60));
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.generated_count > 0);
        assert!(out.selected_count <= out.generated_count);
        for f in &out.new_features {
            assert!(out.frame.has_column(f));
        }
    }

    #[test]
    fn fails_on_diabetes_divide_by_zero() {
        // Across a few seeds, at least one Diabetes run must crash on an
        // unguarded ratio against a zero-bearing denominator (paper §4.2).
        let ds = datasets::by_name("Diabetes", 300, 1).unwrap();
        let mut failed = false;
        for seed in 0..6 {
            let fm = SimulatedFm::gpt4(seed);
            let caafe = Caafe::new(&fm, ds.agenda("LR"), ModelKind::LR, seed);
            let out = caafe.run(&ds.frame, ds.target, &[], Duration::from_secs(60));
            if out.failure.is_some() {
                failed = true;
                assert!(out.new_features.is_empty());
                break;
            }
        }
        assert!(failed, "no Diabetes run hit the divide-by-zero failure");
    }

    #[test]
    fn respects_deadline() {
        let ds = datasets::by_name("Tennis", 300, 2).unwrap();
        let fm = SimulatedFm::gpt4(3);
        let caafe = Caafe::new(&fm, ds.agenda("RF"), ModelKind::RF, 3);
        let out = caafe.run(&ds.frame, ds.target, &[], Duration::ZERO);
        assert!(out.timed_out);
    }

    #[test]
    fn tennis_features_are_numeric_combinations() {
        let ds = datasets::by_name("Tennis", 400, 4).unwrap();
        let fm = SimulatedFm::gpt4(5);
        let caafe = Caafe::new(&fm, ds.agenda("RF"), ModelKind::LR, 5);
        let out = caafe.run(&ds.frame, ds.target, &[], Duration::from_secs(120));
        assert!(out.failure.is_none());
        for f in &out.new_features {
            assert!(f.starts_with("caafe_"), "{f}");
        }
    }
}
