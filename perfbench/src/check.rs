//! Output checks: report invariants, FM accounting, and per-operation
//! digests compared with the ones recorded for the default seed.

use std::collections::{BTreeMap, BTreeSet};

use smartfeat::SmartFeatReport;
use smartfeat_fm::UsageSnapshot;

/// The seed the recorded digests belong to, and the default `--seed`.
pub const DEFAULT_SEED: u64 = 42;

/// Recorded digests: one `seed<TAB>workload<TAB>operation<TAB>hex` line per
/// operation.
const RECORDED: &str = include_str!("../expected/digests.tsv");

/// FNV-1a over a canonical rendering of an operation's output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in raw bytes, then a separator so concatenations differ.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mix in a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Mix in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mix in a float by its bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Mix in FM usage: calls, tokens, and cost bits.
    pub fn usage(&mut self, u: &UsageSnapshot) -> &mut Self {
        self.u64(u.calls as u64)
            .u64(u.prompt_tokens as u64)
            .u64(u.completion_tokens as u64)
            .f64(u.cost_usd)
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digest of a SMARTFEAT report: kept features with their transforms,
/// retired originals, skip count, and FM usage.
pub fn report_digest(report: &SmartFeatReport) -> u64 {
    let mut d = Digest::default();
    for g in &report.generated {
        d.str(&g.name).str(&g.transform);
    }
    for name in &report.dropped_originals {
        d.str(name);
    }
    d.u64(report.skipped.len() as u64)
        .usage(&report.selector_usage)
        .usage(&report.generator_usage);
    d.value()
}

/// Check a SMARTFEAT report against its input and the FM meters:
///
/// - every generated column is in both the frame and the agenda;
/// - no column name appears twice in the frame or the agenda;
/// - the row count is unchanged;
/// - the report's FM usage, and `fm.total` in its metrics report when one
///   was produced, equal the usage the meters recorded.
pub fn check_report(
    report: &SmartFeatReport,
    input_rows: usize,
    meters: &UsageSnapshot,
) -> Result<(), String> {
    if report.frame.n_rows() != input_rows {
        return Err(format!(
            "row count changed: {} -> {}",
            input_rows,
            report.frame.n_rows()
        ));
    }
    let mut in_frame = BTreeSet::new();
    for name in report.frame.column_names() {
        if !in_frame.insert(name) {
            return Err(format!("column {name} appears twice in the frame"));
        }
    }
    let mut in_agenda = BTreeSet::new();
    for f in &report.agenda.features {
        if !in_agenda.insert(f.name.as_str()) {
            return Err(format!("column {} appears twice in the agenda", f.name));
        }
    }
    for g in &report.generated {
        if !report.frame.has_column(&g.name) {
            return Err(format!("generated {} is not in the frame", g.name));
        }
        if !report.agenda.has(&g.name) {
            return Err(format!("generated {} is not in the agenda", g.name));
        }
    }
    let total = report.total_usage();
    if !same_usage(&total, meters) {
        return Err(format!("report usage {total:?} != meters {meters:?}"));
    }
    if let Some(metrics) = &report.metrics {
        let fm_total = metrics
            .get("fm")
            .and_then(|f| f.get("total"))
            .ok_or("metrics report has no fm.total")?;
        let field = |k: &str| fm_total.get(k).and_then(|v| v.as_f64());
        let reported = (
            field("calls"),
            field("prompt_tokens"),
            field("completion_tokens"),
            field("cost_usd"),
        );
        let metered = (
            Some(meters.calls as f64),
            Some(meters.prompt_tokens as f64),
            Some(meters.completion_tokens as f64),
            Some(meters.cost_usd),
        );
        if reported != metered {
            return Err(format!("fm.total {reported:?} != meters {metered:?}"));
        }
    }
    Ok(())
}

fn same_usage(a: &UsageSnapshot, b: &UsageSnapshot) -> bool {
    a.calls == b.calls
        && a.prompt_tokens == b.prompt_tokens
        && a.completion_tokens == b.completion_tokens
        && a.cost_usd.to_bits() == b.cost_usd.to_bits()
}

/// Key of one recorded digest: (seed, workload, operation).
pub type DigestKey = (u64, String, String);

/// The recorded digests, keyed by (seed, workload, operation).
pub fn recorded() -> Result<BTreeMap<DigestKey, u64>, String> {
    parse_digests(RECORDED)
}

/// Parse digest lines; blank lines and `#` comments are skipped.
pub fn parse_digests(text: &str) -> Result<BTreeMap<DigestKey, u64>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [seed, workload, op, hex] = f[..] else {
            return Err(format!("malformed digest line: {line}"));
        };
        let seed = seed
            .parse()
            .map_err(|e| format!("bad seed in {line}: {e}"))?;
        let digest =
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest in {line}: {e}"))?;
        out.insert((seed, workload.to_string(), op.to_string()), digest);
    }
    Ok(out)
}

/// Render one digest line in the recorded format.
pub fn digest_line(key: &DigestKey, digest: u64) -> String {
    format!("{}\t{}\t{}\t{digest:016x}", key.0, key.1, key.2)
}
