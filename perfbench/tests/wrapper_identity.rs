//! A run through the timing FM wrapper reports byte-identically to an
//! unwrapped run, so the traced benchmark measures the same program.
//!
//! The pipeline's metrics report includes process-wide pool and work
//! counters, so this file holds a single test: no other pipeline run in
//! the process may overlap it.

use std::sync::Arc;

use smartfeat::{
    build_role_fms, CascadeConfig, SearchConfig, SearchStrategyKind, SmartFeat, SmartFeatConfig,
    SmartFeatReport,
};
use smartfeat_fm::FoundationModel;
use smartfeat_frame::json::JsonValue;
use smartfeat_perfbench::fm::{FmTime, TimedFm};

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

fn run(config: &SmartFeatConfig, timed: bool) -> SmartFeatReport {
    let ds = smartfeat_datasets::insurance::generate(300, 3);
    let (selector, generator) = build_role_fms(config);
    let (selector, generator): (Box<dyn FoundationModel>, Box<dyn FoundationModel>) = if timed {
        let time = Arc::new(FmTime::default());
        (
            Box::new(TimedFm::new(selector, Arc::clone(&time))),
            Box::new(TimedFm::new(generator, time)),
        )
    } else {
        (selector, generator)
    };
    SmartFeat::new(selector.as_ref(), generator.as_ref(), config.clone())
        .run(&ds.frame, &ds.agenda("RF"))
        .expect("pipeline runs")
}

fn rendered(report: &SmartFeatReport) -> String {
    format!(
        "{}\n{:?}\n{:?}\n{:?}\n{:?}\n{}",
        smartfeat_frame::csv::write_csv_str(&report.frame),
        report.generated,
        report.skipped,
        report.selector_usage,
        report.generator_usage,
        report
            .metrics
            .as_ref()
            .map(JsonValue::emit)
            .unwrap_or_default(),
    )
}

#[test]
fn timed_fm_run_reports_byte_identically() {
    for config in configs() {
        let plain = run(&config, false);
        let timed = run(&config, true);
        assert!(
            plain.metrics.is_some(),
            "the metrics report is compared too"
        );
        assert_eq!(
            rendered(&plain),
            rendered(&timed),
            "{:?}",
            config.search.strategy
        );
    }
}
