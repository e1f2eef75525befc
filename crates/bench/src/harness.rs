//! A tiny Criterion-compatible benchmark harness: warmup, calibration,
//! median-of-N timing — no external crates (hermetic-build policy).
//!
//! The `benches/*.rs` files were written against `criterion`'s API; this
//! module re-implements the slice of that API they use (`Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Bencher`, `criterion_group!`,
//! `criterion_main!`), so the bench sources stay idiomatic while running
//! on a std-only harness.
//!
//! Methodology: each benchmark is first *calibrated* — the iteration count
//! per sample doubles until one sample takes ≥ 1 ms (capped) — then
//! `sample_size` samples are collected and the per-iteration median,
//! minimum, and maximum are reported. Set `SMARTFEAT_BENCH_JSON=<path>` to
//! also append one JSON line per benchmark for trajectory tracking.

use std::fmt::Display;
use std::hint::black_box;
use std::io::Write as _;
use std::time::Duration;

use smartfeat_obs::global::stopwatch;

/// Per-sample calibration target: grow the iteration batch until a single
/// timed sample takes at least this long.
const CALIBRATION_TARGET: Duration = Duration::from_millis(1);

/// Calibration stops doubling here even for very fast bodies.
const MAX_ITERS_PER_SAMPLE: u64 = 1 << 20;

/// The harness entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

/// Operator override for sample counts: `SMARTFEAT_BENCH_SAMPLES=<n>` wins
/// over both the default and explicit `sample_size()` calls, so CI smoke
/// runs can sweep every benchmark cheaply without editing bench sources.
fn sample_size_override() -> Option<usize> {
    // sfcheck:allow(env-dependence) operator knob for CI smoke runs; timings are volatile by design
    std::env::var("SMARTFEAT_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_benchmark(name, self.sample_size, f);
        self
    }
}

/// A named group sharing a `sample_size`, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark in the group with an explicit input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        run_benchmark(&label, self.sample_size, |b| f(b, input));
        self
    }

    /// Run one benchmark in the group by name.
    pub fn bench_function(&mut self, name: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let label = format!("{}/{}", self.name, name);
        run_benchmark(&label, self.sample_size, f);
        self
    }

    /// End the group (kept for API parity; nothing to flush).
    pub fn finish(self) {}
}

/// A benchmark identifier, mirroring `criterion::BenchmarkId`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function/parameter` id.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// The timing driver handed to each benchmark body, mirroring
/// `criterion::Bencher`.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `iters` calls of `f`, preventing the result from being
    /// optimized away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let start = stopwatch("bench.harness.sample");
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// One benchmark's summary statistics (per-iteration durations).
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Full benchmark label (`group/function/parameter`).
    pub label: String,
    /// Median per-iteration time across samples.
    pub median: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Slowest sample's per-iteration time.
    pub max: Duration,
    /// Samples collected.
    pub samples: usize,
    /// Iterations per sample (from calibration).
    pub iters_per_sample: u64,
}

fn run_benchmark(label: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher)) -> BenchStats {
    let sample_size = sample_size_override().unwrap_or(sample_size);
    // Calibrate: double the batch until one sample crosses the target.
    // The calibration runs double as warmup.
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= CALIBRATION_TARGET || iters >= MAX_ITERS_PER_SAMPLE {
            break;
        }
        iters *= 2;
    }

    // Order statistics run over whole-sample totals, which carry full
    // nanosecond precision; only the chosen ones are divided down.
    let mut totals: Vec<Duration> = (0..sample_size.max(1))
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed
        })
        .collect();
    totals.sort_unstable();

    let stats = BenchStats {
        label: label.to_string(),
        median: per_iteration(median_of_sorted(&totals), iters),
        min: per_iteration(totals[0], iters),
        max: per_iteration(totals[totals.len() - 1], iters),
        samples: totals.len(),
        iters_per_sample: iters,
    };
    println!(
        "bench {:<48} median {:>10}  (min {}, max {}; {} samples x {} iters)",
        stats.label,
        format_duration(stats.median),
        format_duration(stats.min),
        format_duration(stats.max),
        stats.samples,
        stats.iters_per_sample,
    );
    // sfcheck:allow(env-dependence) output-sink path chosen by the operator; timings are volatile by design
    if let Ok(path) = std::env::var("SMARTFEAT_BENCH_JSON") {
        // sfcheck:allow(determinism-taint) the env value picks where the file goes, not what it says
        append_json_line(&path, &stats);
    }
    stats
}

/// One iteration's share of a sample's `total`, rounded up to the next
/// whole nanosecond: a body faster than 1 ns reports 1 ns, never zero.
/// Truncating (`Duration / u32`) would floor every sub-nanosecond body
/// to 0, and the `as u32` cast would wrap a batch above `u32::MAX`.
fn per_iteration(total: Duration, iters: u64) -> Duration {
    let ns = total.as_nanos().div_ceil(u128::from(iters.max(1)));
    Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

/// Median of an already-sorted, non-empty sample vector. Odd counts take
/// the middle element; even counts average the two middle elements (the
/// textbook midpoint, not the upper-middle sample).
fn median_of_sorted(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

// sfcheck:output-sink
fn append_json_line(path: &str, s: &BenchStats) {
    use smartfeat_frame::json::JsonValue;
    let line = JsonValue::object([
        ("label", s.label.as_str().into()),
        ("median_ns", (s.median.as_nanos() as f64).into()),
        ("min_ns", (s.min.as_nanos() as f64).into()),
        ("max_ns", (s.max.as_nanos() as f64).into()),
        ("samples", s.samples.into()),
        ("iters_per_sample", (s.iters_per_sample as f64).into()),
    ])
    .emit();
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| writeln!(file, "{line}"));
    if let Err(e) = result {
        eprintln!("warning: could not append bench JSON to {path}: {e}");
    }
}

/// Human-readable duration with ns/µs/ms/s units.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Define a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define the bench binary's `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_and_stats_are_sane() {
        let stats = run_benchmark("test/sum", 5, |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(stats.samples, 5);
        assert!(stats.iters_per_sample >= 1);
        assert!(stats.min <= stats.median && stats.median <= stats.max);
        assert!(stats.median > Duration::ZERO);
    }

    #[test]
    fn group_and_id_compose_labels() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        let stats = {
            let id = BenchmarkId::new("f", 10);
            assert_eq!(id.label, "f/10");
            run_benchmark("g/f/10", 2, |b| b.iter(|| 1 + 1))
        };
        assert_eq!(stats.label, "g/f/10");
        assert_eq!(BenchmarkId::from_parameter("LR").label, "LR");
        group.finish();
    }

    #[test]
    fn median_averages_middle_pair_for_even_counts() {
        let ms = Duration::from_millis;
        // Odd count: exact middle element.
        assert_eq!(median_of_sorted(&[ms(1), ms(2), ms(9)]), ms(2));
        // Even count: midpoint of the two middle samples, NOT the
        // upper-middle element (the regression this pins down).
        assert_eq!(median_of_sorted(&[ms(1), ms(2), ms(4), ms(9)]), ms(3));
        assert_eq!(median_of_sorted(&[ms(2), ms(4)]), ms(3));
        // Single sample: that sample.
        assert_eq!(median_of_sorted(&[ms(7)]), ms(7));
    }

    #[test]
    fn per_iteration_rounds_up_instead_of_truncating() {
        let ns = Duration::from_nanos;
        assert_eq!(per_iteration(ns(300), 1_000), ns(1));
        assert_eq!(per_iteration(ns(3_000), 1_000), ns(3));
        assert_eq!(per_iteration(ns(3_001), 1_000), ns(4));
        assert_eq!(per_iteration(ns(5), 0), ns(5));
        assert_eq!(per_iteration(Duration::ZERO, 8), Duration::ZERO);
    }

    #[test]
    fn format_duration_units() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12ns");
        assert_eq!(format_duration(Duration::from_micros(3)), "3.00µs");
        assert_eq!(format_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
    }
}
