//! One benchmark run: set up, measure passes for the given seconds, check
//! outputs, and summarise the metrics.

use crate::check;
use crate::clock;
use crate::host::HostSpeed;
use crate::workloads::{check_digests, Bench, Pass, Tally, Workload, SETUP_BLOCKS, SETUP_BLOCK_S};

/// End-to-end metrics, reported by untraced runs: `(name, unit)`. The
/// times are seconds on the reference host of [`crate::host`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fm_calls", "count"),
    ("fm_tokens", "count"),
    ("fm_cost_usd", "USD"),
    ("fm_latency_s", "s"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("bench.prepare_s", "s"),
    ("core.run_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.commit_self_s", "s"),
    ("core.transform_s", "s"),
    ("core.select_s", "s"),
    ("core.generate_s", "s"),
    ("core.search_self_s", "s"),
    ("core.candidates", "count"),
    ("core.generation_errors", "count"),
    ("core.evaluate.checks", "count"),
    ("core.evaluate.kept_ratio", "ratio"),
    ("fm.complete_s", "s"),
    ("fm.calls", "count"),
    ("fm.prompt_tokens", "count"),
    ("fm.completion_tokens", "count"),
    ("fm.escalations", "count"),
    ("ml.eval_s.LR", "s"),
    ("ml.eval_s.NB", "s"),
    ("ml.eval_s.RF", "s"),
    ("ml.eval_s.ET", "s"),
    ("ml.eval_s.DNN", "s"),
    ("ml.evals.LR", "count"),
    ("ml.evals.NB", "count"),
    ("ml.evals.RF", "count"),
    ("ml.evals.ET", "count"),
    ("ml.evals.DNN", "count"),
    ("ml.cv_folds", "count"),
    ("ml.cv_s", "s"),
    ("ml.forest_fits", "count"),
    ("baselines.run_s.SMARTFEAT", "s"),
    ("baselines.run_s.CAAFE", "s"),
    ("baselines.run_s.Featuretools", "s"),
    ("baselines.run_s.AutoFeat", "s"),
    ("baselines.timeouts", "count"),
    ("baselines.failures", "count"),
    ("bench.matrix_s", "s"),
    ("par.batches", "count"),
    ("par.tasks", "count"),
    ("obs.overhead_frac", "ratio"),
    ("host.wall_s", "s"),
    ("host.kernel_s", "s"),
    ("quality.auc_mean", "AUCx100"),
    ("check.fail_frac", "ratio"),
];

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long to keep issuing passes; at least one pass of each kind
    /// runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// A run's summary.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations run over all passes.
    pub attempted: u64,
    /// `(operation, why)` for each failed operation.
    pub failures: Vec<(String, String)>,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest lines of the first pass, in the recorded format.
    pub digest_lines: Vec<String>,
    /// Wall seconds of each untraced pass, with the probe's wall seconds
    /// per kernel call, in run order.
    pub pass_walls: Vec<(f64, f64)>,
}

impl Outcome {
    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run one workload as `config` asks.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut setup_layers = Tally::default();
    let mut setup_reps = 0usize;
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_BLOCKS {
        let (mut reps, mut block_s) = (0usize, 0.0);
        let mut host = HostSpeed::default();
        while block_s < SETUP_BLOCK_S {
            // Only one set-up's inputs are alive at a time.
            drop(bench.take());
            let (b, secs) =
                clock::timed(|| Bench::setup(config.workload, config.seed, &mut setup_layers));
            bench = Some(b?);
            reps += 1;
            block_s += secs;
            host.sample_after(secs);
        }
        setup_reps += reps;
        setup_s.push(host.normalize_cpu(block_s / reps as f64));
    }
    let bench = bench.ok_or("no set-up ran")?;

    let start = clock::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let round = clock::now();
        passes.push(bench.pass(false)?);
        if config.trace {
            passes.push(bench.pass(true)?);
        }
        // Start another round only if it should end within the time.
        let took = clock::secs_since(round);
        if clock::secs_since(start) + took > config.seconds {
            break;
        }
    }

    let recorded = check::recorded()?;
    let mut failures: Vec<(String, String)> = passes
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .collect();
    failures.extend(check_digests(
        config.workload,
        config.seed,
        &passes,
        &recorded,
    ));
    let attempted = passes.iter().map(|p| p.attempted).sum();

    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let med = |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
    };

    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => median(&setup_s),
            "wall_s" => med(&plain, &|p| p.host.normalize_wall(p.wall_s)),
            "cpu_s" => med(&plain, &|p| p.host.normalize_cpu(p.cpu_s)),
            "fm_calls" => med(&plain, &|p| p.usage.calls as f64),
            "fm_tokens" => med(&plain, &|p| p.usage.total_tokens() as f64),
            "fm_cost_usd" => med(&plain, &|p| p.usage.cost_usd),
            "fm_latency_s" => med(&plain, &|p| p.usage.latency.as_secs_f64()),
            "datasets.generate_s" | "bench.prepare_s" => setup_layers.get(name) / setup_reps as f64,
            "core.evaluate.kept_ratio" => med(&traced, &|p| {
                ratio(
                    p.layers.get("core.evaluate.kept"),
                    p.layers.get("core.evaluate.checks"),
                )
            }),
            // From the untraced passes: the grid's own evaluation.
            "quality.auc_mean" => med(&plain, &|p| {
                let aucs: Vec<f64> = p.scores.iter().flat_map(|(_, s)| s).map(|s| s.1).collect();
                ratio(aucs.iter().sum(), aucs.len() as f64)
            }),
            // The first pass of a run warms caches; compare warm passes.
            "obs.overhead_frac" => {
                let warm = if plain.len() > 1 {
                    &plain[1..]
                } else {
                    &plain[..]
                };
                let wall = |p: &Pass| p.host.normalize_wall(p.wall_s);
                med(&traced, &wall) / med(warm, &wall) - 1.0
            }
            "host.wall_s" => med(&plain, &|p| p.wall_s),
            "host.kernel_s" => med(&plain, &|p| p.host.per_call_s()),
            "check.fail_frac" => failures.len() as f64 / attempted as f64,
            layer => med(&traced, &|p| p.layers.get(layer)),
        }
    };
    let table = if config.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let v = if name == "peak_rss_mb" {
            clock::peak_rss_mb()?
        } else {
            value(name)
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((name, v, unit));
    }

    let digest_lines = passes[0]
        .digests
        .iter()
        .map(|(op, digest)| {
            let key = crate::workloads::digest_key(config.workload, config.seed, op);
            check::digest_line(&key, *digest)
        })
        .collect();
    Ok(Outcome {
        attempted,
        failures,
        metrics,
        digest_lines,
        pass_walls: plain
            .iter()
            .map(|p| (p.wall_s, p.host.per_round_call_s()))
            .collect(),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
