//! The incremental analysis cache (`target/sfcheck-cache/`).
//!
//! Two levels, both keyed by FNV-1a content hashes and invalidated by a
//! version stamp derived from the lint suite:
//!
//! - **Full skip**: when every source and manifest hash matches the
//!   cached snapshot, the entire analysis — lex, parse, token lints,
//!   symbol table, call graph, and all cross-file passes — is skipped
//!   and the cached pre-baseline findings and waivers are replayed. The
//!   baseline partition, JSON report, and SARIF document are always
//!   rebuilt fresh (they are pure functions of the findings), so
//!   `--baseline`, `--baseline-remap`, and `--fix-dry-run` need not be
//!   part of the key and warm output is byte-identical to cold.
//! - **Partial**: on any change, per-file token-lint results
//!   (`files/<hash>.json`) are reused for unchanged files, and the
//!   cross-file passes re-run only over the **dirty** file set: the
//!   changed files closed under call-graph components of both the old
//!   and the new graph (a removed edge can retire a finding in a file
//!   the new graph no longer reaches). Clean files replay their cached
//!   cross-file findings. The closure is sound only while symbol-level
//!   context is unchanged, so a conservative **global fingerprint**
//!   (every fn qname, marker set, method-dispatch table, mutable
//!   statics, crate names, file membership, manifest hashes) guards the
//!   partial path — any signature-level change falls back to a full
//!   re-analysis. The seed-stream and volatile-discipline passes are
//!   global by nature — stream claims in unconnected crates collide, and
//!   the volatile-field set comes from comment annotations invisible to
//!   both the fingerprint and the call graph — and cheap, so they always
//!   re-run un-scoped and their findings never enter the cached
//!   `global_findings` bucket.
//!
//! Writes are temp-file + rename, so concurrent sfcheck processes (the
//! repo gate runs several) never observe torn entries; any read that
//! fails to parse or names an unknown lint id is a cache miss, never an
//! error. `stats.json` records what each run reused — counts only, no
//! wall times, because sfcheck lints itself and its own artifacts must
//! stay deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use smartfeat_frame::json::JsonValue;

use crate::callgraph::CallGraph;
use crate::lints::{Finding, Waived, Waiver, LINT_IDS};
use crate::resolve::Workspace;
use crate::walker::SourceFile;

/// Schema revision; bump when the cached shapes change. (v4: the
/// `global_findings` bucket now carries the lock-discipline findings,
/// and the global fingerprint hashes lock-relevant files whole — see
/// [`global_fingerprint`] — so older entries must not be replayed.)
const SCHEMA: &str = "v4";

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for content keys
/// (a collision only risks a stale replay, and the version stamp plus
/// hash length make that astronomically unlikely).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Object accessor (the frame JSON type exposes `get` but not the map).
fn as_map(v: &JsonValue) -> Option<&BTreeMap<String, JsonValue>> {
    match v {
        JsonValue::Object(m) => Some(m),
        _ => None,
    }
}

/// The version stamp: schema plus the shipped lint set, so adding or
/// renaming a lint invalidates every prior entry.
fn version() -> String {
    format!("{SCHEMA}:{}", LINT_IDS.join("+"))
}

/// What one run did with the cache, for `stats.json` and CI artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// `"cold"`, `"warm-full"`, or `"warm-partial"`.
    pub mode: &'static str,
    /// Source files in the workspace.
    pub files_total: usize,
    /// Files whose token-lint results were replayed from cache.
    pub files_reused: usize,
    /// `"skipped"`, `"full"`, or `"partial"` — the cross-file passes.
    pub global: &'static str,
    /// Files re-analyzed by the cross-file passes (equals `files_total`
    /// when `global` is `"full"`, 0 when `"skipped"`).
    pub dirty_files: usize,
}

impl Stats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("dirty_files", JsonValue::from(self.dirty_files as u64)),
            ("files_reused", JsonValue::from(self.files_reused as u64)),
            ("files_total", JsonValue::from(self.files_total as u64)),
            ("global", JsonValue::from(self.global)),
            ("mode", JsonValue::from(self.mode)),
            ("version", JsonValue::from(version().as_str())),
        ])
    }
}

/// A full-skip hit: everything `run_check` needs past the analysis.
pub struct FullHit {
    /// Pre-baseline findings (token + cross-file + manifest), sorted.
    pub findings: Vec<Finding>,
    /// Waived findings, sorted.
    pub waived: Vec<Waived>,
}

/// The plan for the cross-file passes on a cold/partial run.
pub struct GlobalPlan {
    /// Files the call-graph passes must re-analyze; `None` = all.
    pub dirty: Option<BTreeSet<usize>>,
    /// Cached cross-file findings for clean files (by file index).
    pub cached: BTreeMap<usize, Vec<Finding>>,
}

impl GlobalPlan {
    fn full() -> GlobalPlan {
        GlobalPlan {
            dirty: None,
            cached: BTreeMap::new(),
        }
    }
}

/// Handle on the cache directory; `None` inside means disabled.
pub struct Cache {
    dir: Option<PathBuf>,
    /// The parsed previous `workspace.json`, if any and valid.
    prior: Option<JsonValue>,
    /// Hash of each current source, aligned with the source list.
    src_hashes: Vec<u64>,
    man_hashes: Vec<u64>,
}

impl Cache {
    /// Open (or disable) the cache for a run.
    pub fn open(
        root: &Path,
        cache_dir: Option<&Path>,
        no_cache: bool,
        sources: &[SourceFile],
        manifests: &[SourceFile],
    ) -> Cache {
        let dir = if no_cache {
            None
        } else {
            Some(
                cache_dir
                    .map(Path::to_path_buf)
                    .unwrap_or_else(|| root.join("target").join("sfcheck-cache")),
            )
        };
        let src_hashes = sources.iter().map(|s| fnv1a(s.text.as_bytes())).collect();
        let man_hashes = manifests.iter().map(|m| fnv1a(m.text.as_bytes())).collect();
        let prior = dir.as_ref().and_then(|d| {
            let text = std::fs::read_to_string(d.join("workspace.json")).ok()?;
            let doc = JsonValue::parse(&text).ok()?;
            (doc.get("version")?.as_str()? == version()).then_some(doc)
        });
        Cache {
            dir,
            prior,
            src_hashes,
            man_hashes,
        }
    }

    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Do the cached snapshot's hashes match the current tree exactly?
    fn tree_unchanged(&self, sources: &[SourceFile], manifests: &[SourceFile]) -> bool {
        let Some(prior) = &self.prior else {
            return false;
        };
        for (kind, files, hashes) in [
            ("files", sources, &self.src_hashes),
            ("manifests", manifests, &self.man_hashes),
        ] {
            let Some(entries) = prior.get(kind).and_then(as_map) else {
                return false;
            };
            if entries.len() != files.len() {
                return false;
            }
            for (file, hash) in files.iter().zip(hashes) {
                if entries.get(&file.rel_path).and_then(JsonValue::as_str)
                    != Some(hex(*hash).as_str())
                {
                    return false;
                }
            }
        }
        true
    }

    /// Level 1: replay the whole run when nothing changed.
    pub fn try_full_hit(
        &self,
        sources: &[SourceFile],
        manifests: &[SourceFile],
    ) -> Option<FullHit> {
        if !self.tree_unchanged(sources, manifests) {
            return None;
        }
        let prior = self.prior.as_ref()?;
        let findings = findings_from_json(prior.get("findings")?)?;
        let waived = waived_from_json(prior.get("waived")?)?;
        Some(FullHit { findings, waived })
    }

    /// Level 2a: per-file token-lint results for an unchanged file.
    pub fn file_entry(&self, file: &SourceFile, hash: u64) -> Option<(Vec<Finding>, Vec<Waiver>)> {
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(dir.join("files").join(entry_name(file))).ok()?;
        let doc = JsonValue::parse(&text).ok()?;
        if doc.get("hash")?.as_str()? != hex(hash) || doc.get("version")?.as_str()? != version() {
            return None;
        }
        let findings = findings_from_json(doc.get("raw")?)?;
        let waivers = waivers_from_json(doc.get("waivers")?)?;
        Some((findings, waivers))
    }

    /// Level 2b: decide how much of the cross-file analysis must re-run.
    ///
    /// The partial path requires: same file membership, same manifests,
    /// and an identical global fingerprint — then `dirty` is the changed
    /// files closed under the old *and* new call-graph components.
    pub fn plan_global(
        &self,
        sources: &[SourceFile],
        manifests: &[SourceFile],
        ws: &Workspace,
        cg: &CallGraph,
    ) -> GlobalPlan {
        let Some(prior) = &self.prior else {
            return GlobalPlan::full();
        };
        let (Some(prior_files), Some(prior_mans)) = (
            prior.get("files").and_then(as_map),
            prior.get("manifests").and_then(as_map),
        ) else {
            return GlobalPlan::full();
        };
        if prior_files.len() != sources.len() || prior_mans.len() != manifests.len() {
            return GlobalPlan::full();
        }
        for (m, h) in manifests.iter().zip(&self.man_hashes) {
            if prior_mans.get(&m.rel_path).and_then(JsonValue::as_str) != Some(hex(*h).as_str()) {
                return GlobalPlan::full();
            }
        }
        if prior.get("global_fingerprint").and_then(JsonValue::as_str)
            != Some(hex(global_fingerprint(ws, manifests, &self.man_hashes)).as_str())
        {
            return GlobalPlan::full();
        }
        let mut changed: BTreeSet<usize> = BTreeSet::new();
        for (idx, (file, hash)) in sources.iter().zip(&self.src_hashes).enumerate() {
            match prior_files.get(&file.rel_path).and_then(JsonValue::as_str) {
                Some(h) if h == hex(*hash) => {}
                Some(_) => {
                    changed.insert(idx);
                }
                // Membership changed despite equal counts: renamed file.
                None => return GlobalPlan::full(),
            }
        }

        let index_of: BTreeMap<&str, usize> = sources
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel_path.as_str(), i))
            .collect();
        let mut dirty = changed.clone();
        // New-graph closure.
        let comp = file_components(ws, cg);
        for &idx in &changed {
            for (other, &c) in comp.iter().enumerate() {
                if c == comp[idx] {
                    dirty.insert(other);
                }
            }
        }
        // Old-graph closure, from the stored component membership.
        let Some(prior_comp) = prior.get("components").and_then(as_map) else {
            return GlobalPlan::full();
        };
        for &idx in &changed {
            let Some(members) = prior_comp
                .get(&sources[idx].rel_path)
                .and_then(JsonValue::as_array)
            else {
                return GlobalPlan::full();
            };
            for member in members {
                let Some(rel) = member.as_str() else {
                    return GlobalPlan::full();
                };
                match index_of.get(rel) {
                    Some(&i) => {
                        dirty.insert(i);
                    }
                    // A component member no longer exists — stale map.
                    None => return GlobalPlan::full(),
                }
            }
        }

        // Replay cached cross-file findings for every clean file.
        let Some(prior_global) = prior.get("global_findings").and_then(as_map) else {
            return GlobalPlan::full();
        };
        let mut cached = BTreeMap::new();
        for (idx, file) in sources.iter().enumerate() {
            if dirty.contains(&idx) {
                continue;
            }
            if let Some(list) = prior_global.get(&file.rel_path) {
                match findings_from_json(list) {
                    Some(fs) => {
                        if !fs.is_empty() {
                            cached.insert(idx, fs);
                        }
                    }
                    None => return GlobalPlan::full(),
                }
            }
        }
        GlobalPlan {
            dirty: Some(dirty),
            cached,
        }
    }

    /// Persist the run: snapshot, per-file entries, cross-file findings.
    #[allow(clippy::too_many_arguments)]
    pub fn store(
        &self,
        sources: &[SourceFile],
        manifests: &[SourceFile],
        ws: &Workspace,
        cg: &CallGraph,
        raw_by_file: &[(Vec<Finding>, Vec<Waiver>)],
        global_by_file: &BTreeMap<usize, Vec<Finding>>,
        findings: &[Finding],
        waived: &[Waived],
    ) {
        let Some(dir) = &self.dir else { return };
        let files_dir = dir.join("files");
        if std::fs::create_dir_all(&files_dir).is_err() {
            return;
        }
        for ((file, hash), (raw, waivers)) in sources.iter().zip(&self.src_hashes).zip(raw_by_file)
        {
            let doc = JsonValue::object([
                ("hash", JsonValue::from(hex(*hash).as_str())),
                ("path", JsonValue::from(file.rel_path.as_str())),
                ("raw", findings_to_json(raw)),
                ("version", JsonValue::from(version().as_str())),
                ("waivers", waivers_to_json(waivers)),
            ]);
            write_atomic(dir, &files_dir.join(entry_name(file)), &doc.emit());
        }

        let comp = file_components(ws, cg);
        let mut components: BTreeMap<String, JsonValue> = BTreeMap::new();
        let mut global: BTreeMap<String, JsonValue> = BTreeMap::new();
        for (idx, file) in sources.iter().enumerate() {
            let members: Vec<JsonValue> = sources
                .iter()
                .enumerate()
                .filter(|(j, _)| comp[*j] == comp[idx])
                .map(|(_, f)| JsonValue::from(f.rel_path.as_str()))
                .collect();
            components.insert(file.rel_path.clone(), JsonValue::Array(members));
            let fs = global_by_file.get(&idx).cloned().unwrap_or_default();
            global.insert(file.rel_path.clone(), findings_to_json(&fs));
        }
        let file_map: BTreeMap<String, JsonValue> = sources
            .iter()
            .zip(&self.src_hashes)
            .map(|(f, h)| (f.rel_path.clone(), JsonValue::from(hex(*h).as_str())))
            .collect();
        let man_map: BTreeMap<String, JsonValue> = manifests
            .iter()
            .zip(&self.man_hashes)
            .map(|(m, h)| (m.rel_path.clone(), JsonValue::from(hex(*h).as_str())))
            .collect();
        let doc = JsonValue::object([
            ("components", JsonValue::Object(components)),
            ("files", JsonValue::Object(file_map)),
            ("findings", findings_to_json(findings)),
            (
                "global_fingerprint",
                JsonValue::from(hex(global_fingerprint(ws, manifests, &self.man_hashes)).as_str()),
            ),
            ("global_findings", JsonValue::Object(global)),
            ("manifests", JsonValue::Object(man_map)),
            ("version", JsonValue::from(version().as_str())),
            ("waived", waived_to_json(waived)),
        ]);
        write_atomic(dir, &dir.join("workspace.json"), &doc.emit());
    }

    /// Record what this run reused.
    pub fn write_stats(&self, stats: &Stats) {
        let Some(dir) = &self.dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        write_atomic(dir, &dir.join("stats.json"), &stats.to_json().emit());
    }
}

fn entry_name(file: &SourceFile) -> String {
    format!("{}.json", hex(fnv1a(file.rel_path.as_bytes())))
}

/// Temp-file + rename; best-effort (a cache that fails to write is just
/// cold next time, never an error).
fn write_atomic(dir: &Path, path: &Path, text: &str) {
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::write(&tmp, text.as_bytes()).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Symbol-level context the partial path depends on: any change here
/// (new fn, changed marker, new method name flipping dispatch
/// uniqueness, renamed crate) forces a full cross-file re-analysis.
fn global_fingerprint(ws: &Workspace, manifests: &[SourceFile], man_hashes: &[u64]) -> u64 {
    let mut acc = String::new();
    for info in &ws.fns {
        acc.push_str(&info.qname);
        acc.push('|');
        for m in &info.markers {
            acc.push_str(m);
            acc.push(',');
        }
        acc.push(if info.is_pub { 'p' } else { '-' });
        acc.push(if info.is_test { 't' } else { '-' });
        acc.push_str(&ws.files[info.file].rel_path);
        acc.push('\n');
    }
    for (name, candidates) in &ws.methods {
        acc.push_str(name);
        acc.push(':');
        acc.push_str(&candidates.len().to_string());
        acc.push('\n');
    }
    for s in &ws.mut_statics {
        acc.push_str(s);
        acc.push('\n');
    }
    for c in &ws.crate_names {
        acc.push_str(c);
        acc.push('\n');
    }
    for f in &ws.files {
        acc.push_str(&f.rel_path);
        acc.push('\n');
    }
    for (m, h) in manifests.iter().zip(man_hashes) {
        acc.push_str(&m.rel_path);
        acc.push_str(&hex(*h));
        acc.push('\n');
    }
    // Lock footprint. A lock-order-inversion's two sides can live in
    // files with no call path between them, so the component closure
    // that bounds every other cross-file lint cannot bound the lock
    // pass. Hash every lock-relevant file whole: any edit to one forces
    // a full re-analysis, and edits elsewhere keep the partial path.
    for f in &ws.files {
        if lock_relevant(&f.text) {
            acc.push_str("lock:");
            acc.push_str(&f.rel_path);
            acc.push_str(&hex(fnv1a(f.text.as_bytes())));
            acc.push('\n');
        }
    }
    fnv1a(acc.as_bytes())
}

/// Could this file change what the lock pass computes anywhere?
/// Deliberately lexical and over-approximate — a false `true` costs one
/// full re-analysis, a false `false` would cost a stale finding.
fn lock_relevant(text: &str) -> bool {
    [
        "Mutex",
        "RwLock",
        ".lock()",
        "sfcheck:lock-helper",
        "sfcheck:io-blocking",
    ]
    .iter()
    .any(|needle| text.contains(needle))
}

/// Undirected connected components over files, induced by fn call edges.
fn file_components(ws: &Workspace, cg: &CallGraph) -> Vec<usize> {
    let n = ws.files.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (caller, callees) in cg.edges.iter().enumerate() {
        let fa = ws.fns[caller].file;
        for &callee in callees {
            let fb = ws.fns[callee].file;
            let (ra, rb) = (find(&mut parent, fa), find(&mut parent, fb));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

// ---- JSON round-tripping for findings / waivers -------------------------

fn finding_to_json(f: &Finding) -> JsonValue {
    let mut pairs = vec![
        ("col", JsonValue::from(u64::from(f.col))),
        ("file", JsonValue::from(f.file.as_str())),
        ("line", JsonValue::from(u64::from(f.line))),
        ("lint", JsonValue::from(f.lint)),
        ("message", JsonValue::from(f.message.as_str())),
        ("snippet", JsonValue::from(f.snippet.as_str())),
    ];
    if let Some(s) = &f.suggestion {
        pairs.push(("suggestion", JsonValue::from(s.as_str())));
    }
    JsonValue::object(pairs)
}

fn finding_from_json(v: &JsonValue) -> Option<Finding> {
    // Re-intern the lint id against the shipped set; an unknown id means
    // the entry predates a lint rename and must miss.
    let lint = LINT_IDS
        .iter()
        .find(|id| Some(**id) == v.get("lint").and_then(JsonValue::as_str))?;
    Some(Finding {
        file: v.get("file")?.as_str()?.to_string(),
        line: u32::try_from(v.get("line")?.as_u64()?).ok()?,
        col: u32::try_from(v.get("col")?.as_u64()?).ok()?,
        lint,
        message: v.get("message")?.as_str()?.to_string(),
        snippet: v.get("snippet")?.as_str()?.to_string(),
        suggestion: match v.get("suggestion") {
            Some(s) => Some(s.as_str()?.to_string()),
            None => None,
        },
    })
}

fn findings_to_json(findings: &[Finding]) -> JsonValue {
    JsonValue::Array(findings.iter().map(finding_to_json).collect())
}

fn findings_from_json(v: &JsonValue) -> Option<Vec<Finding>> {
    v.as_array()?.iter().map(finding_from_json).collect()
}

fn waivers_to_json(waivers: &[Waiver]) -> JsonValue {
    JsonValue::Array(
        waivers
            .iter()
            .map(|w| {
                JsonValue::object([
                    ("line", JsonValue::from(u64::from(w.line))),
                    (
                        "lints",
                        JsonValue::Array(
                            w.lints
                                .iter()
                                .map(|l| JsonValue::from(l.as_str()))
                                .collect(),
                        ),
                    ),
                    ("reason", JsonValue::from(w.reason.as_str())),
                ])
            })
            .collect(),
    )
}

fn waivers_from_json(v: &JsonValue) -> Option<Vec<Waiver>> {
    v.as_array()?
        .iter()
        .map(|w| {
            Some(Waiver {
                line: u32::try_from(w.get("line")?.as_u64()?).ok()?,
                lints: w
                    .get("lints")?
                    .as_array()?
                    .iter()
                    .map(|l| Some(l.as_str()?.to_string()))
                    .collect::<Option<Vec<String>>>()?,
                reason: w.get("reason")?.as_str()?.to_string(),
            })
        })
        .collect()
}

fn waived_to_json(waived: &[Waived]) -> JsonValue {
    JsonValue::Array(
        waived
            .iter()
            .map(|w| {
                JsonValue::object([
                    ("finding", finding_to_json(&w.finding)),
                    ("reason", JsonValue::from(w.reason.as_str())),
                ])
            })
            .collect(),
    )
}

fn waived_from_json(v: &JsonValue) -> Option<Vec<Waived>> {
    v.as_array()?
        .iter()
        .map(|w| {
            Some(Waived {
                finding: finding_from_json(w.get("finding")?)?,
                reason: w.get("reason")?.as_str()?.to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_distinguishes() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"sfcheck"), fnv1a(b"sfcheck"));
    }

    #[test]
    fn finding_roundtrip_preserves_everything() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 3,
            lint: "determinism-taint",
            message: "msg with \"quotes\" and \\ slashes".into(),
            snippet: "let x = 1;".into(),
            suggestion: Some("let y = 2;".into()),
        };
        let json = finding_to_json(&f).emit();
        let back = finding_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn unknown_lint_id_is_a_miss() {
        let doc = JsonValue::parse(
            "{\"col\":1,\"file\":\"f\",\"line\":1,\"lint\":\"retired-lint\",\
             \"message\":\"m\",\"snippet\":\"s\"}",
        )
        .unwrap();
        assert!(finding_from_json(&doc).is_none());
    }

    #[test]
    fn waiver_and_waived_roundtrip() {
        let w = Waiver {
            line: 12,
            lints: vec!["wall-clock".into(), "env-dependence".into()],
            reason: "sanctioned".into(),
        };
        let json = waivers_to_json(std::slice::from_ref(&w)).emit();
        let back = waivers_from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back[0].line, w.line);
        assert_eq!(back[0].lints, w.lints);
        assert_eq!(back[0].reason, w.reason);
    }
}
