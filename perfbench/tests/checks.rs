//! The output check accepts real reports and fires on corrupted ones, and
//! the benchmark's metric tables match BENCHMARK.json.

use std::collections::BTreeMap;
use std::sync::Arc;

use smartfeat::{
    build_role_fms, CascadeConfig, GeneratedFeature, SearchConfig, SearchStrategyKind, SmartFeat,
    SmartFeatConfig, SmartFeatReport,
};
use smartfeat_fm::UsageSnapshot;
use smartfeat_frame::json::JsonValue;
use smartfeat_perfbench::check::{check_report, parse_digests, recorded, report_digest};
use smartfeat_perfbench::fm::{FmTime, TimedFm};
use smartfeat_perfbench::host::HostSpeed;
use smartfeat_perfbench::run::{median, END_TO_END, PER_LAYER};
use smartfeat_perfbench::workloads::{check_digests, digest_key, Pass, Tally, Workload};

fn configs() -> Vec<SmartFeatConfig> {
    let observed = |strategy, cascade| {
        let mut c = SmartFeatConfig {
            seed: 5,
            search: SearchConfig {
                strategy,
                ..SearchConfig::default()
            },
            cascade: CascadeConfig {
                enabled: cascade,
                ..CascadeConfig::default()
            },
            ..SmartFeatConfig::default()
        };
        c.observability.enabled = true;
        c
    };
    vec![
        observed(SearchStrategyKind::OneShot, false),
        observed(SearchStrategyKind::Beam, false),
        observed(SearchStrategyKind::Evolutionary, true),
    ]
}

fn run(config: &SmartFeatConfig) -> (SmartFeatReport, UsageSnapshot) {
    let ds = smartfeat_datasets::insurance::generate(300, 3);
    let (selector, generator) = build_role_fms(config);
    let report = SmartFeat::new(selector.as_ref(), generator.as_ref(), config.clone())
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs");
    let mut meters = selector.meter().snapshot();
    let g = generator.meter().snapshot();
    meters.calls += g.calls;
    meters.prompt_tokens += g.prompt_tokens;
    meters.completion_tokens += g.completion_tokens;
    meters.cost_usd += g.cost_usd;
    (report, meters)
}

#[test]
fn timed_fm_counts_every_completion() {
    let config = &configs()[0];
    let (selector, generator) = build_role_fms(config);
    let time = Arc::new(FmTime::default());
    let selector = TimedFm::new(selector, Arc::clone(&time));
    let generator = TimedFm::new(generator, Arc::clone(&time));
    let ds = smartfeat_datasets::insurance::generate(300, 3);
    let report = SmartFeat::new(&selector, &generator, config.clone())
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs");
    assert_eq!(time.calls(), report.total_usage().calls as u64);
    assert!(time.busy().as_nanos() > 0);
}

#[test]
fn check_accepts_a_real_report() {
    for config in configs() {
        let (report, meters) = run(&config);
        assert_eq!(check_report(&report, 300, &meters), Ok(()));
    }
}

#[test]
fn corrupted_reports_fail_the_check() {
    let (report, meters) = run(&configs()[0]);
    let first = report.generated[0].clone();
    let fails = |r: &SmartFeatReport, m: &UsageSnapshot, what: &str| {
        assert!(check_report(r, 300, m).is_err(), "{what} was not caught");
    };

    let mut r = report.clone();
    r.generated.push(GeneratedFeature {
        name: "Phantom".into(),
        ..first.clone()
    });
    fails(&r, &meters, "a generated column missing from the frame");

    let mut r = report.clone();
    r.agenda.remove(&first.name);
    fails(&r, &meters, "a generated column missing from the agenda");

    let mut r = report.clone();
    let dup = r.agenda.features[0].clone();
    r.agenda.features.push(dup);
    fails(&r, &meters, "a duplicated agenda column");

    let mut r = report.clone();
    let rows: Vec<usize> = (0..299).collect();
    r.frame = r.frame.take(&rows).expect("row subset");
    fails(&r, &meters, "a dropped row");

    let mut m = meters;
    m.calls += 1;
    fails(&report, &m, "usage that disagrees with the meters");

    let mut r = report.clone();
    if let Some(JsonValue::Object(top)) = &mut r.metrics {
        if let Some(JsonValue::Object(fm)) = top.get_mut("fm") {
            if let Some(JsonValue::Object(total)) = fm.get_mut("total") {
                total.insert("cost_usd".into(), JsonValue::Num(0.0));
            }
        }
    }
    fails(&r, &meters, "an fm.total that disagrees with the meters");
}

fn pass(traced: bool, digests: &[(&str, u64)]) -> Pass {
    Pass {
        traced,
        wall_s: 1.0,
        cpu_s: 1.0,
        host: HostSpeed::default(),
        usage: UsageSnapshot::default(),
        attempted: digests.len() as u64,
        failures: Vec::new(),
        digests: digests.iter().map(|(o, d)| (o.to_string(), *d)).collect(),
        scores: Vec::new(),
        layers: Tally::default(),
    }
}

#[test]
fn digest_mismatches_count_as_failures() {
    let w = Workload::SearchMix;
    let mut rec = BTreeMap::new();
    rec.insert(digest_key(w, 42, "a"), 1);
    rec.insert(digest_key(w, 42, "b"), 2);

    let ok = [
        pass(false, &[("a", 1), ("b", 2)]),
        pass(false, &[("a", 1), ("b", 2)]),
    ];
    assert!(check_digests(w, 42, &ok, &rec).is_empty());

    let wrong = [pass(false, &[("a", 1), ("b", 3)])];
    assert_eq!(check_digests(w, 42, &wrong, &rec).len(), 1);

    let unrecorded = [pass(false, &[("a", 1), ("b", 2), ("c", 4)])];
    assert_eq!(check_digests(w, 42, &unrecorded, &rec).len(), 1);

    // Seeds without a record are checked for agreement between passes.
    let drift = [pass(false, &[("a", 7)]), pass(false, &[("a", 8)])];
    assert!(check_digests(w, 9, &[pass(false, &[("a", 7)])], &rec).is_empty());
    assert_eq!(check_digests(w, 9, &drift, &rec).len(), 1);

    // A traced pass must match the same record and the untraced passes.
    assert!(check_digests(w, 42, &[pass(true, &[("a", 1)])], &rec).is_empty());
    let traced_drift = [pass(false, &[("a", 7)]), pass(true, &[("a", 8)])];
    assert_eq!(check_digests(w, 9, &traced_drift, &rec).len(), 1);
}

#[test]
fn recorded_digests_cover_the_default_seed() {
    let rec = recorded().expect("digests parse");
    for w in Workload::all() {
        assert!(
            rec.keys().any(|k| k.0 == 42 && k.1 == w.name()),
            "no digests for {}",
            w.name()
        );
    }
    assert!(parse_digests("1\tw\top").is_err());
}

#[test]
fn report_digest_sees_feature_changes() {
    let (report, _) = run(&configs()[0]);
    let mut r = report.clone();
    r.generated[0].transform.push('x');
    assert_ne!(report_digest(&report), report_digest(&r));
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn benchmark_json_names_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let spec = JsonValue::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::all()
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
}
