//! Interprocedural determinism-taint analysis: the `determinism-taint`
//! and `obs-volatile-discipline` lints.
//!
//! The repo's output contract (DESIGN.md §7) is that every artifact —
//! metrics JSON, JSONL trace, CSV/JSON writers, `SMARTFEAT_BENCH_JSON`
//! lines — is a pure function of inputs and seed. This pass tracks
//! *values* that can violate that contract from their sources to the
//! fns that emit artifacts:
//!
//! - **sources** (the taint lattice is the powerset of these four kinds):
//!   - `Wall` — `Instant::now()` / `SystemTime::now()` outside the
//!     `obs::global::Stopwatch` gate (a Stopwatch read stays inside
//!     `crates/obs`, which this pass never treats as a source);
//!   - `Env` — `std::env::var`/`var_os`/`vars` outside `crates/{par,obs}`
//!     (the sanctioned resolution points);
//!   - `ThreadCount` — `smartfeat_par::resolve_threads` or
//!     `available_parallelism` results;
//!   - `HashIter` — iteration over a std `HashMap`/`HashSet` local.
//! - **propagation** — through let-bindings and pattern binds, field and
//!   index projections, method receivers, call arguments (when the callee
//!   returns a param-derived value), fn returns via per-fn summaries
//!   computed to a fixpoint over the call graph, and macro invocations:
//!   a macro's value carries the union of its argument taints plus any
//!   local interpolated by name inside a literal argument
//!   (`format!("{threads}")`). Macros are plain transformations — never
//!   a source or sink themselves — and tokens that parse as neither an
//!   argument expression nor a `{ident}` interpolation stay a blind
//!   spot. The interprocedural summaries see through rebindings: a
//!   `let s = n;` between a parameter and a macro or sink argument does
//!   not launder the parameter away ([`param_derived_bindings`]).
//! - **sinks** — fns marked `// sfcheck:output-sink` (and the
//!   `// sfcheck:metrics-report` recorder), plus any fn that forwards a
//!   parameter to a sink (a positionless summary, also a fixpoint).
//! - **blessing** — calls into `// sfcheck:parallel-entry` fns return
//!   untainted values: the ordered pool is deterministic by contract, so
//!   a thread count flowing *into* `par_map` never taints what flows out.
//!
//! A finding fires at a call site passing a tainted value (argument or
//! receiver) to a sink-reaching fn; the PR-3 `volatile` metrics section
//! is the one blessed route for such values, which the companion
//! `obs-volatile-discipline` lint enforces inside `crates/obs`: fields
//! annotated `// sfcheck:volatile-field(name)` may only appear in
//! `// sfcheck:metrics-report` statements that also mention the
//! `"volatile"` key. Both lints waive with the usual inline syntax.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, Pos, Stmt};
use crate::callgraph::STD_METHOD_NAMES;
use crate::dataflow::{finding_at, PARALLEL_ENTRY};
use crate::lexer::{lex, TokenKind};
use crate::lints::Finding;
use crate::resolve::{FnId, Workspace};
use crate::walker::FileClass;

/// Marker naming artifact-emitting fns (CSV/JSON writers, trace/metrics
/// recorders, bench emitters).
pub const OUTPUT_SINK: &str = "output-sink";
/// Marker naming the obs metrics-report builder.
pub const METRICS_REPORT: &str = "metrics-report";

/// One nondeterminism source kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Taint {
    Wall,
    Env,
    ThreadCount,
    HashIter,
}

impl Taint {
    fn name(self) -> &'static str {
        match self {
            Taint::Wall => "wall-clock",
            Taint::Env => "environment",
            Taint::ThreadCount => "thread-count",
            Taint::HashIter => "hash-iteration",
        }
    }
}

type Taints = BTreeSet<Taint>;

/// Receiver methods that iterate a hash collection.
const HASH_ITER_METHODS: [&str; 8] = [
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "values",
];

/// Per-fn interprocedural summaries, computed to a fixpoint.
struct Summaries {
    /// Taints of the fn's returned value (trailing expression).
    ret: Vec<Taints>,
    /// The fn emits to an artifact sink when passed data (marked, or
    /// forwards a parameter to a sink-reaching callee).
    sink: Vec<bool>,
    /// The trailing expression mentions a parameter or `self`, so
    /// argument taint flows through to the return value.
    param_to_ret: Vec<bool>,
    /// Parallel-entry fns: calls into these return untainted values.
    entries: BTreeSet<FnId>,
    /// Bodies in `crates/obs` are never analyzed (the sanctioned clock
    /// domain); only their markers participate.
    analyzed: Vec<bool>,
}

fn resolve_path_call(ws: &Workspace, caller: FnId, segments: &[String]) -> Vec<FnId> {
    let info = &ws.fns[caller];
    ws.resolve_path(info.file, &info.module, info.impl_ty.as_deref(), segments)
}

/// Unambiguous workspace method dispatch, minus std-shadowed names —
/// the same approximation the call graph uses.
fn resolve_method(ws: &Workspace, method: &str) -> Option<FnId> {
    if STD_METHOD_NAMES.contains(&method) {
        return None;
    }
    ws.methods
        .get(method)
        .filter(|c| c.len() == 1)
        .map(|c| c[0])
}

/// The trailing expression of a body: the last expression statement.
fn trailing_expr(body: &Block) -> Option<&Expr> {
    body.stmts.iter().rev().find_map(|s| match s {
        Stmt::Expr(e) => Some(e),
        _ => None,
    })
}

/// One intra-fn pass: forward walk in source order with a flat binding
/// environment (shadowing ignored — union over writers, conservative in
/// the direction of more taint, like [`crate::dataflow`]'s envs).
struct FnPass<'a> {
    ws: &'a Workspace,
    id: FnId,
    /// The file's crate dir (`"ml"`, `"bench"`, …) for source gating.
    crate_dir: &'a str,
    sums: &'a Summaries,
    env: BTreeMap<String, Taints>,
    /// Locals whose type or initializer names a std hash collection.
    hash_locals: BTreeSet<String>,
    /// Sink-call findings, only collected on the emission pass.
    findings: Option<Vec<(Pos, Taints, String)>>,
}

impl<'a> FnPass<'a> {
    fn new(ws: &'a Workspace, id: FnId, sums: &'a Summaries, collect: bool) -> FnPass<'a> {
        let crate_dir = ws.files[ws.fns[id].file].crate_dir.as_str();
        FnPass {
            ws,
            id,
            crate_dir,
            sums,
            env: BTreeMap::new(),
            hash_locals: BTreeSet::new(),
            findings: collect.then(Vec::new),
        }
    }

    fn bind(&mut self, name: &str, taints: &Taints) {
        if !taints.is_empty() && name != "_" {
            self.env.entry(name.to_string()).or_default().extend(taints);
        }
    }

    fn block(&mut self, b: &Block) -> Taints {
        let mut last = Taints::new();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let(l) => {
                    let hashy = l.ty.contains("HashMap") || l.ty.contains("HashSet") || {
                        let mut seen = false;
                        if let Some(init) = &l.init {
                            init.walk(&mut |e| {
                                if let Expr::Path(p) = e {
                                    if p.segments.iter().any(|s| s == "HashMap" || s == "HashSet") {
                                        seen = true;
                                    }
                                }
                            });
                        }
                        seen
                    };
                    if hashy {
                        self.hash_locals.insert(l.name.clone());
                        self.hash_locals.extend(l.bound.iter().cloned());
                    }
                    let t = l.init.as_ref().map(|e| self.expr(e)).unwrap_or_default();
                    self.bind(&l.name, &t);
                    for name in &l.bound {
                        self.bind(name, &t);
                    }
                    last = Taints::new();
                }
                Stmt::Expr(e) => last = self.expr(e),
                Stmt::Item(_) => last = Taints::new(), // nested fns are their own FnIds
            }
        }
        last
    }

    fn expr(&mut self, e: &Expr) -> Taints {
        match e {
            Expr::Lit(_) => Taints::new(),
            Expr::Macro(m) => {
                // Taint flows through macros: parsed args directly
                // (`format!("{}", x)`) and locals interpolated inside
                // literal args (`format!("{x}")`).
                let mut t = Taints::new();
                let mut names: Vec<String> = Vec::new();
                for a in &m.args {
                    t.extend(self.expr(a));
                    a.walk(&mut |sub| {
                        if let Expr::Lit(l) = sub {
                            interpolated_idents(&l.text, &mut names);
                        }
                    });
                }
                for name in names {
                    if let Some(extra) = self.env.get(&name) {
                        t.extend(extra.iter().copied());
                    }
                }
                t
            }
            Expr::Path(p) => {
                if p.segments.len() == 1 {
                    self.env.get(&p.segments[0]).cloned().unwrap_or_default()
                } else {
                    Taints::new()
                }
            }
            Expr::Field(f) => self.expr(&f.base),
            Expr::Index(i) => {
                let mut t = self.expr(&i.base);
                t.extend(self.expr(&i.index));
                t
            }
            Expr::Block(b) => self.block(b),
            Expr::Closure(c) => {
                // Analyze the body for sink calls (the env carries the
                // enclosing fn's bindings — closures capture by reference
                // here); the closure *value* itself is untainted.
                self.expr(&c.body);
                Taints::new()
            }
            Expr::Seq(s) => {
                // `if let Ok(x) = tainted { … }` / `match tainted { … }`:
                // the scrutinee and the arm bodies share this node. The
                // scrutinee comes first in source order, so bind after
                // every child — arm bodies then see the scrutinee's taint
                // on the bound names (conservatively, the running union).
                let mut t = Taints::new();
                for child in &s.children {
                    t.extend(self.expr(child));
                    for name in &s.binds {
                        self.bind(name, &t);
                    }
                }
                t
            }
            Expr::Call(c) => {
                let arg_taints: Vec<Taints> = c.args.iter().map(|a| self.expr(a)).collect();
                let Expr::Path(p) = &*c.callee else {
                    let mut t = self.expr(&c.callee);
                    for a in &arg_taints {
                        t.extend(a.iter().copied());
                    }
                    return t;
                };
                if let Some(atom) = self.source_atom(&p.segments) {
                    return [atom].into_iter().collect();
                }
                let resolved = resolve_path_call(self.ws, self.id, &p.segments);
                self.call_result(e.pos(), &resolved, None, &arg_taints)
            }
            Expr::MethodCall(m) => {
                let recv_t = self.expr(&m.recv);
                let arg_taints: Vec<Taints> = m.args.iter().map(|a| self.expr(a)).collect();
                // Hash-collection iteration is a source: visit order is
                // the hasher's, not the data's.
                if HASH_ITER_METHODS.contains(&m.method.as_str()) {
                    if let Expr::Path(p) = &*m.recv {
                        if p.segments.len() == 1 && self.hash_locals.contains(&p.segments[0]) {
                            let mut t = recv_t;
                            t.insert(Taint::HashIter);
                            return t;
                        }
                    }
                }
                let resolved: Vec<FnId> = resolve_method(self.ws, &m.method).into_iter().collect();
                self.call_result(m.pos, &resolved, Some(&recv_t), &arg_taints)
            }
        }
    }

    /// A call that *is* a source, independent of its arguments.
    fn source_atom(&self, segments: &[String]) -> Option<Taint> {
        let last = segments.last().map(String::as_str)?;
        let second = segments.len().checked_sub(2).map(|i| segments[i].as_str());
        if last == "now" && matches!(second, Some("Instant" | "SystemTime")) {
            return Some(Taint::Wall);
        }
        if matches!(last, "var" | "var_os" | "vars")
            && second == Some("env")
            && !matches!(self.crate_dir, "par" | "obs")
        {
            return Some(Taint::Env);
        }
        if last == "available_parallelism" || last == "resolve_threads" {
            return Some(Taint::ThreadCount);
        }
        None
    }

    /// Result taint of a resolved call, plus the sink check.
    fn call_result(
        &mut self,
        pos: Pos,
        resolved: &[FnId],
        recv: Option<&Taints>,
        args: &[Taints],
    ) -> Taints {
        let mut incoming = Taints::new();
        if let Some(r) = recv {
            incoming.extend(r.iter().copied());
        }
        for a in args {
            incoming.extend(a.iter().copied());
        }
        if resolved.is_empty() {
            // Unresolved (std, ambiguous): a plain transformation — taint
            // flows through, no source, no sink.
            return incoming;
        }
        if resolved.iter().any(|t| self.sums.entries.contains(t)) {
            // Parallel-entry blessing: the ordered pool's output is
            // deterministic regardless of the thread count fed to it.
            return Taints::new();
        }
        if !incoming.is_empty() && self.findings.is_some() {
            if let Some(&sink) = resolved.iter().find(|t| self.sums.sink[**t]) {
                let qname = self.ws.fns[sink].qname.clone();
                if let Some(findings) = self.findings.as_mut() {
                    findings.push((pos, incoming.clone(), qname));
                }
            }
        }
        let mut out = Taints::new();
        for &t in resolved {
            out.extend(self.sums.ret[t].iter().copied());
            if self.sums.param_to_ret[t] {
                out.extend(incoming.iter().copied());
            }
        }
        out
    }
}

/// Identifiers interpolated format-style inside a literal's text:
/// `"{threads}"` and `"{threads:>8}"` name `threads`; `{{` escapes are
/// skipped and positional or empty braces (`{}`, `{0}`) name nothing.
fn interpolated_idents(text: &str, names: &mut Vec<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
            j += 1;
        }
        let name = &text[start..j];
        if !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            names.push(name.to_string());
        }
        i = j + 1;
    }
}

/// Does the expression mention a parameter of `id` (or `self`), either
/// directly or through a binding in `derived`? Macro arguments count
/// both as parsed expressions (via the walk) and as `{ident}`
/// interpolations inside literal arguments, so `format!("{text}")`
/// forwards `text` like `format!("{}", text)` does — and so does
/// `let s = text; format!("{}", s)`, via the derived set.
fn mentions_param(ws: &Workspace, id: FnId, derived: &BTreeSet<String>, e: &Expr) -> bool {
    let info = &ws.fns[id];
    let named = |head: &str| {
        head == "self" || info.params.iter().any(|prm| prm.name == head) || derived.contains(head)
    };
    let mut hit = false;
    e.walk(&mut |sub| match sub {
        Expr::Path(p) => {
            if let Some(head) = p.segments.first() {
                if named(head) {
                    hit = true;
                }
            }
        }
        Expr::Macro(m) => {
            let mut names: Vec<String> = Vec::new();
            for a in &m.args {
                a.walk(&mut |inner| {
                    if let Expr::Lit(l) = inner {
                        interpolated_idents(&l.text, &mut names);
                    }
                });
            }
            if names.iter().any(|n| named(n)) {
                hit = true;
            }
        }
        _ => {}
    });
    hit
}

/// Every `let` with an initializer anywhere in the body, as
/// `(bound names, init)` pairs — including lets inside nested blocks,
/// match/if-let arms, and closure bodies, matching the reach of
/// [`mentions_param`]'s walk.
fn collect_lets<'a>(b: &'a Block, out: &mut Vec<(Vec<&'a str>, &'a Expr)>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let(l) => {
                if let Some(init) = &l.init {
                    let mut names: Vec<&str> = Vec::new();
                    if l.name != "_" {
                        names.push(l.name.as_str());
                    }
                    names.extend(l.bound.iter().map(String::as_str));
                    if !names.is_empty() {
                        out.push((names, init));
                    }
                    nested_lets(init, out);
                }
            }
            Stmt::Expr(e) => nested_lets(e, out),
            Stmt::Item(_) => {}
        }
    }
}

/// Descend one expression, recursing into each nested block via
/// [`collect_lets`] — structural recursion, so no block is visited
/// twice.
fn nested_lets<'a>(e: &'a Expr, out: &mut Vec<(Vec<&'a str>, &'a Expr)>) {
    match e {
        Expr::Block(b) => collect_lets(b, out),
        Expr::Closure(c) => nested_lets(&c.body, out),
        Expr::Seq(s) => {
            for child in &s.children {
                nested_lets(child, out);
            }
        }
        Expr::Call(c) => {
            nested_lets(&c.callee, out);
            for a in &c.args {
                nested_lets(a, out);
            }
        }
        Expr::MethodCall(m) => {
            nested_lets(&m.recv, out);
            for a in &m.args {
                nested_lets(a, out);
            }
        }
        Expr::Field(f) => nested_lets(&f.base, out),
        Expr::Index(i) => {
            nested_lets(&i.base, out);
            nested_lets(&i.index, out);
        }
        Expr::Macro(m) => {
            for a in &m.args {
                nested_lets(a, out);
            }
        }
        Expr::Lit(_) | Expr::Path(_) => {}
    }
}

/// Bindings in `id`'s body that (transitively) derive from a parameter:
/// `let s = n;` puts `s` in the set when `n` is a param, and
/// `let t = s;` then follows. Computed as a fixpoint so declaration
/// order never matters; the set feeds [`mentions_param`] so a rebinding
/// cannot launder param-ness out of the summaries.
fn param_derived_bindings(ws: &Workspace, id: FnId) -> BTreeSet<String> {
    let Some(body) = ws.body_of(id) else {
        return BTreeSet::new();
    };
    let mut lets: Vec<(Vec<&str>, &Expr)> = Vec::new();
    collect_lets(body, &mut lets);
    let mut derived = BTreeSet::new();
    loop {
        let mut changed = false;
        for (names, init) in &lets {
            if names.iter().all(|n| derived.contains(*n)) {
                continue;
            }
            if mentions_param(ws, id, &derived, init) {
                for n in names {
                    changed |= derived.insert((*n).to_string());
                }
            }
        }
        if !changed {
            break;
        }
    }
    derived
}

fn build_summaries(ws: &Workspace) -> Summaries {
    let n = ws.fns.len();
    let entries: BTreeSet<FnId> = ws.marked(PARALLEL_ENTRY).into_iter().collect();
    let mut sums = Summaries {
        ret: vec![Taints::new(); n],
        sink: vec![false; n],
        param_to_ret: vec![false; n],
        entries,
        analyzed: vec![false; n],
    };
    // Per-fn param-derived binding sets, computed once: both summary
    // passes below ask "does this expression carry a parameter?", and
    // the answer must see through `let s = n;` rebindings.
    let mut derived: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for (id, bindings) in derived.iter_mut().enumerate() {
        let info = &ws.fns[id];
        sums.sink[id] = info
            .markers
            .iter()
            .any(|m| m == OUTPUT_SINK || m == METRICS_REPORT);
        sums.analyzed[id] =
            !info.is_test && ws.files[info.file].crate_dir != "obs" && ws.body_of(id).is_some();
        if sums.analyzed[id] {
            *bindings = param_derived_bindings(ws, id);
            if let Some(t) = ws.body_of(id).and_then(trailing_expr) {
                sums.param_to_ret[id] = mentions_param(ws, id, bindings, t);
            }
        }
    }

    // Sink fixpoint: a fn that passes a param-mentioning expression to a
    // sink-reaching call is itself sink-reaching (positionless summary).
    loop {
        let mut changed = false;
        for (id, bindings) in derived.iter().enumerate() {
            if sums.sink[id] || !sums.analyzed[id] {
                continue;
            }
            let Some(body) = ws.body_of(id) else { continue };
            let mut reaches = false;
            crate::ast::walk_block(body, &mut |e| {
                if reaches {
                    return;
                }
                let (targets, feeds): (Vec<FnId>, bool) = match e {
                    Expr::Call(c) => {
                        let Expr::Path(p) = &*c.callee else { return };
                        (
                            resolve_path_call(ws, id, &p.segments),
                            c.args.iter().any(|a| mentions_param(ws, id, bindings, a)),
                        )
                    }
                    Expr::MethodCall(m) => (
                        resolve_method(ws, &m.method).into_iter().collect(),
                        m.args.iter().any(|a| mentions_param(ws, id, bindings, a))
                            || mentions_param(ws, id, bindings, &m.recv),
                    ),
                    _ => return,
                };
                if feeds && targets.iter().any(|t| sums.sink[*t]) {
                    reaches = true;
                }
            });
            if reaches {
                sums.sink[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Return-taint fixpoint: monotone over a finite lattice, so this
    // terminates; the bound is a safety net against resolver cycles.
    for _round in 0..16 {
        let mut changed = false;
        for id in 0..n {
            if !sums.analyzed[id] {
                continue;
            }
            let Some(body) = ws.body_of(id) else { continue };
            let mut pass = FnPass::new(ws, id, &sums, false);
            let ret = pass.block(body);
            if !ret.is_subset(&sums.ret[id]) {
                sums.ret[id].extend(ret);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// Run the `determinism-taint` lint. `dirty` scopes *emission* (and the
/// per-fn walks that produce it) to the given files; summaries are
/// always computed over the whole workspace, so a clean file's cached
/// findings stay byte-identical to a cold run's.
///
/// The companion `obs-volatile-discipline` lint is [`run_volatile`], not
/// part of this pass: its verdicts depend on comment annotations the
/// cache's dirty closure cannot see, so it must never be scoped.
pub fn run(ws: &Workspace, dirty: Option<&BTreeSet<usize>>) -> Vec<Finding> {
    let mut out = Vec::new();
    let sums = build_summaries(ws);
    for id in 0..ws.fns.len() {
        let info = &ws.fns[id];
        if !sums.analyzed[id]
            || ws.files[info.file].class != FileClass::Lib
            || dirty.is_some_and(|d| !d.contains(&info.file))
        {
            continue;
        }
        let Some(body) = ws.body_of(id) else { continue };
        let mut pass = FnPass::new(ws, id, &sums, true);
        pass.block(body);
        for (pos, taints, sink) in pass.findings.unwrap_or_default() {
            let kinds: Vec<&str> = taints.iter().map(|t| t.name()).collect();
            out.push(finding_at(
                ws,
                info.file,
                pos,
                "determinism-taint",
                format!(
                    "{}-tainted value flows into output sink `{sink}`; artifacts must be \
                     pure functions of inputs and seed — route the value through the obs \
                     `volatile` section or waive with a reason",
                    kinds.join("+")
                ),
            ));
        }
    }
    out
}

/// Run the `obs-volatile-discipline` lint, always over the whole
/// workspace. The volatile-field set is harvested from `// sfcheck:…`
/// comments, which are invisible to both the cache's global fingerprint
/// and its call-graph dirty closure — an annotation edit in one obs file
/// must flip verdicts in another, so this pass is never scoped to a
/// dirty set and its findings are never replayed from the cache.
pub fn run_volatile(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    volatile_discipline(ws, &mut out);
    out
}

/// Fields declared `// sfcheck:volatile-field(name)` anywhere in
/// `crates/obs`. The annotation names the field explicitly so the
/// harvest never guesses from layout.
fn volatile_fields(ws: &Workspace) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    for file in &ws.files {
        if file.crate_dir != "obs" {
            continue;
        }
        for tok in lex(&file.text) {
            if tok.kind != TokenKind::LineComment {
                continue;
            }
            let Some(at) = tok.text.find("sfcheck:volatile-field(") else {
                continue;
            };
            let rest = &tok.text[at + "sfcheck:volatile-field(".len()..];
            if let Some((name, _)) = rest.split_once(')') {
                let name = name.trim();
                if !name.is_empty() {
                    fields.insert(name.to_string());
                }
            }
        }
    }
    fields
}

/// `obs-volatile-discipline`: inside `// sfcheck:metrics-report` fns,
/// any statement touching a volatile field must also mention the
/// `"volatile"` key — statement granularity, so the one conditional that
/// builds the volatile section passes and a field smuggled into another
/// section fires.
fn volatile_discipline(ws: &Workspace, out: &mut Vec<Finding>) {
    let fields = volatile_fields(ws);
    if fields.is_empty() {
        return;
    }
    for id in ws.marked(METRICS_REPORT) {
        let info = &ws.fns[id];
        if info.is_test {
            continue;
        }
        let Some(body) = ws.body_of(id) else { continue };
        for stmt in &body.stmts {
            let exprs: Vec<&Expr> = match stmt {
                Stmt::Let(l) => l.init.iter().collect(),
                Stmt::Expr(e) => vec![e],
                Stmt::Item(_) => continue,
            };
            let mut hit: Option<(Pos, String)> = None;
            let mut blessed = false;
            for e in exprs {
                e.walk(&mut |sub| match sub {
                    Expr::Field(f) if fields.contains(&f.name) && hit.is_none() => {
                        hit = Some((sub.pos(), f.name.clone()));
                    }
                    Expr::Lit(l) if l.text.contains("volatile") => blessed = true,
                    _ => {}
                });
            }
            if let Some((pos, name)) = hit {
                if !blessed {
                    out.push(finding_at(
                        ws,
                        info.file,
                        pos,
                        "obs-volatile-discipline",
                        format!(
                            "volatile field `{name}` reaches the metrics report outside the \
                             `\"volatile\"` section; thread- and wall-dependent values may \
                             only be reported under that key"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::walker::{classify, SourceFile};

    fn file(rel: &str, text: &str) -> (SourceFile, crate::ast::File) {
        (
            SourceFile {
                rel_path: rel.to_string(),
                text: text.to_string(),
                class: classify(rel),
                crate_dir: crate::walker::crate_dir_of(rel),
            },
            parse(&lex(text)),
        )
    }

    fn manifest(rel: &str, name: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            text: format!("[package]\nname = \"{name}\"\n"),
            class: classify(rel),
            crate_dir: crate::walker::crate_dir_of(rel),
        }
    }

    /// A consumer crate next to a sink-bearing frame crate, a marked par
    /// crate, and an obs crate with a metrics report.
    fn ws_of(core: &str) -> Workspace {
        let manifests = vec![
            manifest("crates/par/Cargo.toml", "smartfeat-par"),
            manifest("crates/frame/Cargo.toml", "smartfeat-frame"),
            manifest("crates/obs/Cargo.toml", "smartfeat-obs"),
            manifest("crates/core/Cargo.toml", "smartfeat"),
        ];
        let parsed = vec![
            file(
                "crates/par/src/lib.rs",
                "// sfcheck:parallel-entry\n\
                 pub fn par_map<R, F>(threads: usize, items: usize, f: F) -> Vec<R> { vec![] }\n\
                 pub fn resolve_threads(req: usize) -> usize { req }",
            ),
            file(
                "crates/frame/src/csv.rs",
                "// sfcheck:output-sink\npub fn write_csv(text: &str) {}",
            ),
            file(
                "crates/obs/src/lib.rs",
                "pub struct WorkStat {\n// sfcheck:volatile-field(ns)\npub ns: u64,\npub count: u64,\n}\n\
                 pub struct Rec;\nimpl Rec {\n\
                 // sfcheck:metrics-report\n\
                 pub fn report(&self, v: WorkStat) -> u64 {\nlet a = v.count;\n\
                 let b = pair(\"volatile\", v.ns);\na\n}\n}\n\
                 pub fn pair(k: &str, v: u64) -> u64 { v }",
            ),
            file("crates/core/src/lib.rs", core),
        ];
        crate::resolve::build(parsed, &manifests)
    }

    /// Both taint-family lints over a workspace, like the pipeline runs.
    fn run_all(ws: &Workspace) -> Vec<Finding> {
        let mut out = run(ws, None);
        out.extend(run_volatile(ws));
        out
    }

    fn run_on(core: &str) -> Vec<Finding> {
        run_all(&ws_of(core))
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn env_read_flowing_to_sink_is_flagged() {
        let findings = run_on(
            "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
             let path = std::env::var(\"OUT\").unwrap_or_default();\n\
             write_csv(&path);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(findings[0].message.contains("environment"));
        assert!(findings[0].message.contains("write_csv"));
    }

    #[test]
    fn untainted_sink_call_and_tainted_nonsink_are_clean() {
        let findings = run_on(
            "use smartfeat_frame::csv::write_csv;\npub fn ok(rows: &str) {\n\
             let t = std::env::var(\"MODE\").unwrap_or_default();\n\
             let n = t.len();\nlocal_only(n);\nwrite_csv(rows);\n}\n\
             fn local_only(n: usize) -> usize { n }",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_propagates_through_helper_returns() {
        let findings = run_on(
            "use smartfeat_frame::csv::write_csv;\n\
             fn pick() -> String { std::env::var(\"OUT\").unwrap_or_default() }\n\
             pub fn dump() {\nlet path = pick();\nwrite_csv(&path);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
    }

    #[test]
    fn taint_reaches_sink_through_forwarding_wrapper() {
        let findings = run_on(
            "use smartfeat_frame::csv::write_csv;\n\
             fn emit(text: &str) { write_csv(text) }\n\
             pub fn dump() {\nlet path = std::env::var(\"OUT\").unwrap_or_default();\n\
             emit(&path);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(
            findings[0].message.contains("emit"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn thread_count_into_parallel_entry_is_blessed() {
        let findings = run_on(
            "use smartfeat_par::{par_map, resolve_threads};\n\
             use smartfeat_frame::csv::write_csv;\n\
             pub fn pipeline(rows: usize) {\nlet threads = resolve_threads(0);\n\
             let out = par_map(threads, rows, |i| i);\nwrite_csv(\"data\");\n}",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn thread_count_passed_directly_to_sink_is_flagged() {
        let findings = run_on(
            "use smartfeat_par::resolve_threads;\nuse smartfeat_frame::csv::write_csv;\n\
             pub fn dump() {\nlet threads = resolve_threads(0);\n\
             let line = fmt(threads);\nwrite_csv(&line);\n}\n\
             fn fmt(n: usize) -> String { n.to_string() }",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(findings[0].message.contains("thread-count"));
    }

    #[test]
    fn hash_iteration_order_is_a_source() {
        let findings = run_on(
            "use std::collections::HashMap;\nuse smartfeat_frame::csv::write_csv;\n\
             pub fn dump(m: usize) {\nlet table: HashMap<String, u64> = HashMap::new();\n\
             let mut rows = String::new();\nlet joined = join(table.iter());\n\
             write_csv(&joined);\n}\nfn join(it: String) -> String { it }",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(findings[0].message.contains("hash-iteration"));
    }

    #[test]
    fn if_let_binds_carry_scrutinee_taint() {
        let findings = run_on(
            "use smartfeat_frame::csv::write_csv;\npub fn dump() {\n\
             if let Ok(path) = std::env::var(\"OUT\") {\nwrite_csv(&path);\n}\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
    }

    #[test]
    fn volatile_field_outside_volatile_section_fires() {
        // The fixture obs report touches `v.ns` only in the blessed pair
        // statement; move it elsewhere via a custom obs crate.
        let manifests = vec![manifest("crates/obs/Cargo.toml", "smartfeat-obs")];
        let parsed = vec![file(
            "crates/obs/src/lib.rs",
            "pub struct WorkStat {\n// sfcheck:volatile-field(ns)\npub ns: u64,\n}\n\
             pub struct Rec;\nimpl Rec {\n\
             // sfcheck:metrics-report\n\
             pub fn report(&self, v: WorkStat) -> u64 {\nlet leak = v.ns;\nleak\n}\n}",
        )];
        let ws = crate::resolve::build(parsed, &manifests);
        let findings = run_all(&ws);
        assert_eq!(lints_of(&findings), ["obs-volatile-discipline"]);
        assert!(findings[0].message.contains("`ns`"));
    }

    #[test]
    fn volatile_field_inside_volatile_statement_is_clean() {
        let findings = run_on("pub fn nothing() {}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_flows_through_macro_arguments() {
        let findings = run_on(
            "use smartfeat_par::resolve_threads;\nuse smartfeat_frame::csv::write_csv;\n\
             pub fn dump() {\nlet threads = resolve_threads(0);\n\
             let line = format!(\"{}\", threads);\nwrite_csv(&line);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(findings[0].message.contains("thread-count"));
    }

    #[test]
    fn taint_flows_through_format_interpolation() {
        let findings = run_on(
            "use smartfeat_par::resolve_threads;\nuse smartfeat_frame::csv::write_csv;\n\
             pub fn dump() {\nlet threads = resolve_threads(0);\n\
             let line = format!(\"threads={threads:>4}\");\nwrite_csv(&line);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
    }

    #[test]
    fn interpolating_helper_forwards_param_taint() {
        // `fmt` returns a param-derived value only via `format!("{n}")`;
        // the summary must still mark param_to_ret so the sink call sees
        // the thread count.
        let findings = run_on(
            "use smartfeat_par::resolve_threads;\nuse smartfeat_frame::csv::write_csv;\n\
             fn fmt(n: usize) -> String { format!(\"{n}\") }\n\
             pub fn dump() {\nlet threads = resolve_threads(0);\n\
             let line = fmt(threads);\nwrite_csv(&line);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
    }

    #[test]
    fn rebinding_does_not_launder_param_to_return_taint() {
        // `fmt` copies its param into a local before formatting: the
        // macro argument is a binding, not the param itself. The summary
        // must still mark param_to_ret so `fmt(threads)` stays tainted.
        let findings = run_on(
            "use smartfeat_par::resolve_threads;\nuse smartfeat_frame::csv::write_csv;\n\
             fn fmt(n: usize) -> String { let s = n; format!(\"{}\", s) }\n\
             pub fn dump() {\nlet threads = resolve_threads(0);\n\
             let line = fmt(threads);\nwrite_csv(&line);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(findings[0].message.contains("thread-count"));
    }

    #[test]
    fn rebinding_does_not_launder_param_to_sink_taint() {
        // `emit` formats its param into a local before the sink call:
        // the sink fixpoint must see `&line` as param-derived and mark
        // `emit` sink-reaching, so the caller's `emit(threads)` fires.
        let findings = run_on(
            "use smartfeat_par::resolve_threads;\nuse smartfeat_frame::csv::write_csv;\n\
             fn emit(n: usize) { let line = format!(\"{}\", n); write_csv(&line); }\n\
             pub fn dump() {\nlet threads = resolve_threads(0);\nemit(threads);\n}",
        );
        assert_eq!(lints_of(&findings), ["determinism-taint"]);
        assert!(findings[0].message.contains("emit"));
    }

    #[test]
    fn untainted_macro_and_escaped_braces_stay_clean() {
        let findings = run_on(
            "use smartfeat_frame::csv::write_csv;\npub fn dump(rows: usize) {\n\
             let line = format!(\"rows={rows} {{threads}}\");\nwrite_csv(&line);\n}",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn interpolated_idents_parses_format_braces() {
        let mut names = Vec::new();
        interpolated_idents(
            "\"a={alpha} b={beta:>8} c={} d={0} e={{gamma}} f={x.y}\"",
            &mut names,
        );
        assert_eq!(names, ["alpha", "beta"]);
    }
}
