//! The three workloads: inputs, operation lists, and the measured loop.

use std::collections::BTreeMap;
use std::sync::Arc;

use smartfeat::{
    build_role_fms, CascadeConfig, SearchConfig, SearchStrategyKind, SkipReason, SmartFeat,
    SmartFeatConfig,
};
use smartfeat_baselines::{AfeMethod, Caafe, MethodOutput};
use smartfeat_bench::evalml::{evaluate_frame_models, matrix_and_labels, split_indices};
use smartfeat_bench::grid::GridConfig;
use smartfeat_bench::methods::run_method;
use smartfeat_bench::prep::{prepare, Prepared};
use smartfeat_bench::MethodName;
use smartfeat_datasets::Dataset;
use smartfeat_fm::{FoundationModel, SimulatedFm, UsageSnapshot};
use smartfeat_frame::json::JsonValue;
use smartfeat_frame::DataFrame;
use smartfeat_ml::cv::evaluate_models;
use smartfeat_ml::ModelKind;

use crate::check::{self, Digest, DigestKey};
use crate::clock;
use crate::fm::{FmTime, TimedFm};
use crate::host::HostSpeed;

/// Fraction of the paper's row counts the grid workload runs at.
pub const GRID_SCALE: f64 = 0.05;

/// Set-up blocks per run; `setup_s` is the median of their per-set-up
/// means.
pub const SETUP_BLOCKS: usize = 5;

/// Each set-up block repeats set-up until it has taken at least this
/// many seconds, so a block of the millisecond set-ups is long enough to
/// time steadily.
pub const SETUP_BLOCK_S: f64 = 0.5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SMARTFEAT `one_shot` on the eight Table 3 datasets at paper size.
    ConstructPaper,
    /// Every search strategy, single-model and cascade, on three datasets.
    SearchMix,
    /// The Table 4 grid at [`GRID_SCALE`].
    GridSmall,
}

impl Workload {
    /// All workloads.
    pub fn all() -> [Workload; 3] {
        [
            Workload::ConstructPaper,
            Workload::SearchMix,
            Workload::GridSmall,
        ]
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConstructPaper => "construct_paper",
            Workload::SearchMix => "search_mix",
            Workload::GridSmall => "grid_small",
        }
    }

    /// Independent input sets per pass. Each replica is the workload's
    /// whole dataset list generated from its own seed, so one pass
    /// averages over several draws and a run's figures depend less on
    /// which seed it was given.
    pub fn replicas(self) -> u64 {
        match self {
            Workload::ConstructPaper => 2,
            Workload::SearchMix => 3,
            Workload::GridSmall => 1,
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name() == name)
    }
}

/// One prepared dataset.
struct Input {
    /// The generated dataset (its agenda and target).
    dataset: Dataset,
    /// The cleaned, factorized frame the methods run on.
    prep: Prepared,
    /// Seed of the dataset and of everything run on it.
    seed: u64,
    /// Operation-label prefix naming the replica (empty for one replica).
    tag: String,
}

/// What one operation does.
#[derive(Debug, Clone)]
enum Task {
    /// One SMARTFEAT run.
    Construct(Box<SmartFeatConfig>),
    /// The grid's no-feature-engineering evaluation.
    Initial,
    /// One method cell of the grid.
    Method(MethodName),
}

/// One operation of a pass.
#[derive(Debug, Clone)]
struct Op {
    label: String,
    input: usize,
    task: Task,
}

/// Per-layer totals of one pass, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    /// Add `v` to `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// The total of `name`, 0 when nothing was added.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A workload's inputs and operation list for one seed.
pub struct Bench {
    inputs: Vec<Input>,
    ops: Vec<Op>,
}

/// What one pass over the operation list measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Traced pass (FM wrappers, wall-mode report, per-kind evaluation).
    pub traced: bool,
    /// Wall seconds for the whole list, host samples left out.
    pub wall_s: f64,
    /// CPU seconds for the whole list, host samples left out.
    pub cpu_s: f64,
    /// The host's speed, sampled after every operation.
    pub host: HostSpeed,
    /// FM usage summed over every handle the pass used.
    pub usage: UsageSnapshot,
    /// Operations run.
    pub attempted: u64,
    /// `(operation, why)` for each operation that errored, timed out, or
    /// failed its output check.
    pub failures: Vec<(String, String)>,
    /// `(operation, digest)` for each operation that passed its checks.
    pub digests: Vec<(String, u64)>,
    /// `(operation, AUC×100 by model)` for each passed operation that
    /// scored a frame, as the grid reports it: a crashed CAAFE cell
    /// scores nothing.
    pub scores: Vec<(String, Vec<(ModelKind, f64)>)>,
    /// Per-layer totals.
    pub layers: Tally,
}

/// A workload's datasets for one seed, in run order.
fn datasets_of(workload: Workload, seed: u64) -> Result<Vec<Dataset>, String> {
    Ok(match workload {
        Workload::ConstructPaper => smartfeat_datasets::all_paper_size(seed),
        Workload::SearchMix => vec![
            smartfeat_datasets::insurance::generate(2000, seed),
            smartfeat_datasets::by_name("Heart", 3657, seed).ok_or("unknown dataset Heart")?,
            smartfeat_datasets::by_name("Tennis", 944, seed).ok_or("unknown dataset Tennis")?,
        ],
        // The grid's own datasets: `smartfeat_bench::grid::run_grid`.
        Workload::GridSmall => smartfeat_datasets::all_scaled(GRID_SCALE, seed),
    })
}

/// Prepare `datasets`, adding `bench.prepare_s` to `layers`.
fn prepared(datasets: Vec<Dataset>, seed: u64, tag: &str, layers: &mut Tally) -> Vec<Input> {
    datasets
        .into_iter()
        .map(|dataset| {
            let (prep, secs) = clock::timed(|| prepare(&dataset));
            layers.add("bench.prepare_s", secs);
            Input {
                dataset,
                prep,
                seed,
                tag: tag.to_string(),
            }
        })
        .collect()
}

fn ops_of(workload: Workload, inputs: &[Input]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let name = format!("{}{}", input.tag, input.dataset.name);
        let base = SmartFeatConfig {
            seed: input.seed,
            ..SmartFeatConfig::default()
        };
        match workload {
            Workload::ConstructPaper => ops.push(Op {
                label: name.clone(),
                input: i,
                task: Task::Construct(Box::new(base.clone())),
            }),
            Workload::SearchMix => {
                for strategy in SearchStrategyKind::all() {
                    let config = SmartFeatConfig {
                        search: SearchConfig {
                            strategy,
                            ..SearchConfig::default()
                        },
                        ..base.clone()
                    };
                    let cascade = matches!(
                        strategy,
                        SearchStrategyKind::OneShot | SearchStrategyKind::Evolutionary
                    );
                    ops.push(Op {
                        label: format!("{name}/{}", strategy.name()),
                        input: i,
                        task: Task::Construct(Box::new(config.clone())),
                    });
                    if cascade {
                        ops.push(Op {
                            label: format!("{name}/{}+cascade", strategy.name()),
                            input: i,
                            task: Task::Construct(Box::new(SmartFeatConfig {
                                cascade: CascadeConfig {
                                    enabled: true,
                                    ..CascadeConfig::default()
                                },
                                ..config
                            })),
                        });
                    }
                }
            }
            Workload::GridSmall => {
                ops.push(Op {
                    label: format!("{name}/initial"),
                    input: i,
                    task: Task::Initial,
                });
                for method in MethodName::all() {
                    ops.push(Op {
                        label: format!("{name}/{}", method.name()),
                        input: i,
                        task: Task::Method(method),
                    });
                }
            }
        }
    }
    ops
}

/// The FM handles one operation uses, built fresh so every pass starts
/// from the same oracle state. Grid cells use the seeds
/// `smartfeat_bench::methods::run_method` uses.
fn fms_of(op: &Op, seed: u64) -> Vec<Box<dyn FoundationModel>> {
    match &op.task {
        Task::Construct(config) => {
            let (selector, generator) = build_role_fms(config);
            vec![selector, generator]
        }
        Task::Initial => Vec::new(),
        Task::Method(MethodName::SmartFeat) => vec![
            Box::new(SimulatedFm::gpt4(seed)),
            Box::new(SimulatedFm::gpt35(seed.wrapping_add(0x9e37_79b9))),
        ],
        Task::Method(MethodName::Caafe) => ModelKind::all()
            .iter()
            .map(|_| Box::new(SimulatedFm::gpt4(seed.wrapping_add(17))) as Box<dyn FoundationModel>)
            .collect(),
        Task::Method(_) => Vec::new(),
    }
}

fn add_usage(a: &mut UsageSnapshot, b: &UsageSnapshot) {
    a.calls += b.calls;
    a.prompt_tokens += b.prompt_tokens;
    a.completion_tokens += b.completion_tokens;
    a.cost_usd += b.cost_usd;
    a.latency += b.latency;
}

fn metered(fms: &[Box<dyn FoundationModel>]) -> UsageSnapshot {
    let mut total = UsageSnapshot::default();
    for fm in fms {
        add_usage(&mut total, &fm.meter().snapshot());
    }
    total
}

impl Bench {
    /// Generate and prepare the workload's datasets for `seed`, and build
    /// one pass's FM handles. Adds `datasets.generate_s` and
    /// `bench.prepare_s` to `layers`.
    pub fn setup(workload: Workload, seed: u64, layers: &mut Tally) -> Result<Bench, String> {
        let replicas = workload.replicas();
        let mut inputs = Vec::new();
        for r in 0..replicas {
            // Distinct for every (seed, replica) pair.
            let seed = seed.wrapping_mul(replicas).wrapping_add(r);
            let tag = if replicas == 1 {
                String::new()
            } else {
                format!("r{r}/")
            };
            let (datasets, secs) = clock::timed(|| datasets_of(workload, seed));
            layers.add("datasets.generate_s", secs);
            inputs.extend(prepared(datasets?, seed, &tag, layers));
        }
        let ops = ops_of(workload, &inputs);
        for op in &ops {
            drop(fms_of(op, inputs[op.input].seed));
        }
        Ok(Bench { inputs, ops })
    }

    /// The workload's operation list over the given datasets, one replica
    /// generated from `seed`.
    pub fn over(workload: Workload, datasets: Vec<Dataset>, seed: u64) -> Bench {
        let inputs = prepared(datasets, seed, "", &mut Tally::default());
        let ops = ops_of(workload, &inputs);
        Bench { inputs, ops }
    }

    /// Run every operation once, in order, each after the previous one
    /// finished. A traced pass wraps every FM handle in [`TimedFm`],
    /// turns on the pipeline's metrics report, and evaluates grid frames
    /// one model kind at a time.
    pub fn pass(&self, traced: bool) -> Result<Pass, String> {
        let time = Arc::new(FmTime::default());
        let op_fms: Vec<Vec<Box<dyn FoundationModel>>> = self
            .ops
            .iter()
            .map(|op| {
                fms_of(op, self.inputs[op.input].seed)
                    .into_iter()
                    .map(|fm| {
                        if traced {
                            Box::new(TimedFm::new(fm, Arc::clone(&time)))
                                as Box<dyn FoundationModel>
                        } else {
                            fm
                        }
                    })
                    .collect()
            })
            .collect();
        let mut pass = Pass {
            traced,
            wall_s: 0.0,
            cpu_s: 0.0,
            host: HostSpeed::default(),
            usage: UsageSnapshot::default(),
            attempted: 0,
            failures: Vec::new(),
            digests: Vec::new(),
            scores: Vec::new(),
            layers: Tally::default(),
        };
        let pool_before = smartfeat_par::pool_stats();
        let work_before = smartfeat_obs::global::snapshot();
        let cpu_before = clock::cpu_seconds()?;
        for (op, fms) in self.ops.iter().zip(&op_fms) {
            pass.attempted += 1;
            let op_start = clock::now();
            match self.run_op(op, fms, traced, &mut pass.layers) {
                Ok((digest, scores)) => {
                    pass.digests.push((op.label.clone(), digest));
                    if !scores.is_empty() {
                        pass.scores.push((op.label.clone(), scores));
                    }
                }
                Err(why) => pass.failures.push((op.label.clone(), why)),
            }
            let op_s = clock::secs_since(op_start);
            pass.wall_s += op_s;
            pass.host.sample_after(op_s);
        }
        // Each probe thread is busy for as long as its calls took.
        pass.cpu_s = clock::cpu_seconds()? - cpu_before - pass.host.call_s;

        for fms in &op_fms {
            add_usage(&mut pass.usage, &metered(fms));
            for fm in fms {
                let escalations: usize = fm
                    .routing()
                    .unwrap_or_default()
                    .values()
                    .map(|r| r.escalations)
                    .sum();
                pass.layers.add("fm.escalations", escalations as f64);
            }
        }
        let l = &mut pass.layers;
        l.add("fm.calls", time.calls() as f64);
        l.add("fm.complete_s", time.busy().as_secs_f64());
        l.add("fm.prompt_tokens", pass.usage.prompt_tokens as f64);
        l.add("fm.completion_tokens", pass.usage.completion_tokens as f64);
        let pool = smartfeat_par::pool_stats().since(&pool_before);
        l.add("par.batches", pool.batches as f64);
        l.add("par.tasks", pool.tasks as f64);
        let work = smartfeat_obs::global::delta(&work_before, &smartfeat_obs::global::snapshot());
        let stat = |name: &str| work.get(name).copied().unwrap_or_default();
        l.add("ml.cv_folds", stat("ml.cv.fold").count as f64);
        l.add("ml.cv_s", stat("ml.cv.fold").ns as f64 / 1e9);
        l.add(
            "ml.forest_fits",
            (stat("ml.forest.fit").count + stat("ml.extra_trees.fit").count) as f64,
        );
        Ok(pass)
    }

    /// Run one operation; its digest and the AUCs it scored.
    fn run_op(
        &self,
        op: &Op,
        fms: &[Box<dyn FoundationModel>],
        traced: bool,
        layers: &mut Tally,
    ) -> Result<(u64, Scores), String> {
        let input = &self.inputs[op.input];
        match &op.task {
            Task::Construct(config) => Ok((
                run_smartfeat(input, config, fms, traced, layers)?.digest,
                Vec::new(),
            )),
            Task::Initial => {
                let scores = evaluate(
                    &input.prep.frame,
                    &input.prep.target,
                    &ModelKind::all(),
                    eval_seed(input.seed),
                    traced,
                    layers,
                )
                .ok_or("initial evaluation failed")?;
                let mut d = Digest::default();
                digest_scores(&mut d, &scores);
                Ok((d.value(), scores))
            }
            Task::Method(method) => self.run_cell(input, *method, fms, traced, layers),
        }
    }

    /// One grid cell, following `smartfeat_bench::grid`: CAAFE validates
    /// and is evaluated once per model kind, stopping at its first crash;
    /// the other methods run once and are evaluated by all five models.
    fn run_cell(
        &self,
        input: &Input,
        method: MethodName,
        fms: &[Box<dyn FoundationModel>],
        traced: bool,
        layers: &mut Tally,
    ) -> Result<(u64, Scores), String> {
        let deadline = GridConfig::default().method_deadline;
        let prep = &input.prep;
        let ds = &input.dataset;
        let run_s = format!("baselines.run_s.{}", method.name());
        let mut d = Digest::default();
        d.str(method.name());
        let mut cell_scores = Vec::new();
        let units: Vec<Option<ModelKind>> = if method == MethodName::Caafe {
            ModelKind::all().into_iter().map(Some).collect()
        } else {
            vec![None]
        };
        for (i, kind) in units.into_iter().enumerate() {
            let out = match (method, kind) {
                (MethodName::Caafe, Some(kind)) => {
                    let caafe = Caafe::new(fms[i].as_ref(), ds.agenda("RF"), kind, input.seed);
                    let (out, secs) = clock::timed(|| {
                        caafe.run(&prep.frame, ds.target, &prep.categorical, deadline)
                    });
                    layers.add(&run_s, secs);
                    out
                }
                (MethodName::SmartFeat, _) => {
                    let run =
                        run_smartfeat(input, &SmartFeatConfig::default(), fms, traced, layers)?;
                    layers.add(&run_s, run.secs);
                    d.u64(run.digest);
                    MethodOutput {
                        frame: run.frame,
                        new_features: Vec::new(),
                        generated_count: 0,
                        selected_count: 0,
                        timed_out: false,
                        failure: None,
                    }
                }
                _ => {
                    let (out, secs) = clock::timed(|| {
                        run_method(
                            method,
                            &prep.frame,
                            ds,
                            &prep.categorical,
                            ModelKind::RF,
                            deadline,
                            input.seed,
                        )
                    });
                    layers.add(&run_s, secs);
                    out
                }
            };
            d.u64(out.generated_count as u64)
                .u64(out.selected_count as u64);
            if out.timed_out {
                layers.add("baselines.timeouts", 1.0);
                return Err(format!("{} timed out", method.name()));
            }
            if let Some(failure) = out.failure {
                layers.add("baselines.failures", 1.0);
                // CAAFE runs its generated code unguarded and crashes when
                // that code yields non-finite values; the grid reports the
                // crash as a "-" cell, as the paper does for Diabetes, and
                // drops the column's scores. It is an output, not a
                // benchmark failure.
                if method == MethodName::Caafe {
                    d.str(&failure);
                    return Ok((d.value(), Vec::new()));
                }
                return Err(format!("{} failed: {failure}", method.name()));
            }
            let kinds = kind.map_or(ModelKind::all().to_vec(), |k| vec![k]);
            let seed = eval_seed(input.seed);
            let scores = evaluate(&out.frame, &prep.target, &kinds, seed, traced, layers)
                .ok_or_else(|| format!("evaluating {} output failed", method.name()))?;
            digest_scores(&mut d, &scores);
            cell_scores.extend(scores);
        }
        Ok((d.value(), cell_scores))
    }
}

/// Seed of the grid's downstream evaluation, as in
/// `smartfeat_bench::grid::run_dataset`.
fn eval_seed(seed: u64) -> u64 {
    seed.wrapping_add(1000)
}

/// A checked SMARTFEAT run.
struct SmartFeatRun {
    digest: u64,
    frame: DataFrame,
    secs: f64,
}

/// Run SMARTFEAT with the op's FM pair and check the report.
fn run_smartfeat(
    input: &Input,
    config: &SmartFeatConfig,
    fms: &[Box<dyn FoundationModel>],
    traced: bool,
    layers: &mut Tally,
) -> Result<SmartFeatRun, String> {
    let [selector, generator] = fms else {
        return Err("SMARTFEAT needs a selector and a generator FM".into());
    };
    let mut config = config.clone();
    config.observability.enabled = traced;
    let agenda = input.dataset.agenda("RF");
    let tool = SmartFeat::new(selector.as_ref(), generator.as_ref(), config);
    let (report, secs) = clock::timed(|| tool.run(&input.prep.frame, &agenda));
    layers.add("core.run_s", secs);
    let report = report.map_err(|e| format!("SMARTFEAT failed: {e}"))?;
    check::check_report(&report, input.prep.frame.n_rows(), &metered(fms))?;
    let pruned = report
        .skipped
        .iter()
        .filter(|s| s.reason == SkipReason::Pruned)
        .count();
    layers.add(
        "core.evaluate.kept",
        (report.generated.len() + pruned) as f64,
    );
    if let Some(metrics) = &report.metrics {
        core_layers(metrics, layers);
    }
    Ok(SmartFeatRun {
        digest: check::report_digest(&report),
        frame: report.frame,
        secs,
    })
}

/// Stage times and counts from the pipeline's wall-mode metrics report.
fn core_layers(metrics: &JsonValue, layers: &mut Tally) {
    let spans = metrics.get("spans");
    let span = |name: &str, field: &str| {
        spans
            .and_then(|s| s.get(name))
            .and_then(|s| s.get(field))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let secs = |name: &str| span(name, "ns") / 1e9;
    let search: f64 = match spans {
        Some(JsonValue::Object(map)) => map
            .keys()
            .filter(|k| k.starts_with("stage.search."))
            .map(|k| secs(k))
            .sum(),
        _ => 0.0,
    };
    let (select, walk) = (secs("stage.select"), secs("realize.fm_walk"));
    let (transforms, commit) = (secs("realize.transforms"), secs("realize.commit"));
    let evaluate = secs("stage.evaluate");
    layers.add("core.select_s", select);
    layers.add("core.generate_s", walk);
    layers.add("core.transform_s", transforms);
    layers.add("core.evaluate_s", evaluate);
    layers.add("core.commit_self_s", commit - evaluate);
    layers.add(
        "core.search_self_s",
        search - select - walk - transforms - commit,
    );
    layers.add("core.evaluate.checks", span("stage.evaluate", "count"));
    if let Some(JsonValue::Object(families)) = metrics.get("families") {
        for f in families.values() {
            let n = |k: &str| f.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            layers.add("core.candidates", n("candidates"));
            layers.add("core.generation_errors", n("generation_errors"));
        }
    }
}

/// AUC×100 by model kind, in evaluation order.
type Scores = Vec<(ModelKind, f64)>;

/// `evaluate_models` seeds the model at position `i` of its list with
/// `seed + i * MODEL_SEED_STRIDE`.
const MODEL_SEED_STRIDE: u64 = 7919;

/// Evaluate `frame` with `kinds` on the grid's 75/25 split. Untraced, this
/// is `evaluate_frame_models`; traced, the same steps are timed one by
/// one, each model kind in its own call, seeded as it is in the list call
/// so the scores are the same.
fn evaluate(
    frame: &DataFrame,
    target: &str,
    kinds: &[ModelKind],
    seed: u64,
    traced: bool,
    layers: &mut Tally,
) -> Option<Scores> {
    if !traced {
        return evaluate_frame_models(frame, target, kinds, seed).map(|s| s.scores);
    }
    let (xy, secs) = clock::timed(|| matrix_and_labels(frame, target));
    layers.add("bench.matrix_s", secs);
    let (x, y) = xy?;
    let (train_idx, test_idx) = split_indices(x.rows(), seed);
    let x_train = x.take_rows(&train_idx);
    let x_test = x.take_rows(&test_idx);
    let y_train: Vec<u8> = train_idx.iter().map(|&i| y[i]).collect();
    let y_test: Vec<u8> = test_idx.iter().map(|&i| y[i]).collect();
    let mut scores = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let kind_seed = seed.wrapping_add(i as u64 * MODEL_SEED_STRIDE);
        let (s, secs) = clock::timed(|| {
            evaluate_models(&[kind], &x_train, &y_train, &x_test, &y_test, kind_seed)
        });
        layers.add(&format!("ml.eval_s.{}", kind.name()), secs);
        layers.add(&format!("ml.evals.{}", kind.name()), 1.0);
        scores.extend(s.ok()?.scores);
    }
    Some(scores)
}

fn digest_scores(d: &mut Digest, scores: &[(ModelKind, f64)]) {
    for (kind, auc) in scores {
        d.str(kind.name()).f64(*auc);
    }
}

/// Check every pass's digests: all passes, traced or not, must agree, and
/// for a seed with recorded digests each operation must match its record.
/// Returns one `(operation, why)` per mismatching operation of a pass.
pub fn check_digests(
    workload: Workload,
    seed: u64,
    passes: &[Pass],
    recorded: &BTreeMap<DigestKey, u64>,
) -> Vec<(String, String)> {
    let has_record = recorded
        .keys()
        .any(|k| k.0 == seed && k.1 == workload.name());
    let mut first: BTreeMap<&str, (bool, u64)> = BTreeMap::new();
    let mut bad = Vec::new();
    let mode = |traced: bool| if traced { "traced" } else { "untraced" };
    for pass in passes {
        for (op, digest) in &pass.digests {
            if let Some(&(traced, want)) = first.get(op.as_str()) {
                if want != *digest {
                    bad.push((
                        op.clone(),
                        format!(
                            "{} digest {digest:016x}, first {} pass {want:016x}",
                            mode(pass.traced),
                            mode(traced)
                        ),
                    ));
                }
                continue;
            }
            first.insert(op, (pass.traced, *digest));
            if has_record {
                match recorded.get(&digest_key(workload, seed, op)) {
                    Some(want) if want == digest => {}
                    Some(want) => bad.push((
                        op.clone(),
                        format!("digest {digest:016x}, recorded {want:016x}"),
                    )),
                    None => bad.push((op.clone(), "no recorded digest".into())),
                }
            }
        }
    }
    bad
}

/// Key of an operation's digest.
pub fn digest_key(workload: Workload, seed: u64, op: &str) -> DigestKey {
    (seed, workload.name().to_string(), op.to_string())
}
