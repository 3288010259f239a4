//! The rule engine: six invariant rules plus the suppression
//! meta-rule, all deny-by-default.
//!
//! Each rule encodes an invariant the workspace already claims in
//! prose (module docs, CHANGES.md hardening notes); the engine turns
//! those claims into machine-checked facts. See the crate docs for the
//! full catalog and the history of each invariant.

use crate::config::Config;
use crate::lexer::TokKind;
use crate::model::{FileModel, FnSpan};

/// One finding. `suppressed` carries the written reason when a
/// `// lint:allow(rule): reason` covers the line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation of the violation and the expected fix.
    pub message: String,
    /// The suppression reason, when the finding is allowed in-source.
    pub suppressed: Option<String>,
}

/// Rule names for the lock-order invariant etc. (stable identifiers —
/// these are what `lint:allow(...)` names).
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// See [`RULE_LOCK_ORDER`].
pub const RULE_NO_PANIC: &str = "no-panic-paths";
/// See [`RULE_LOCK_ORDER`].
pub const RULE_THREAD_ENTRY: &str = "thread-entry-isolation";
/// See [`RULE_LOCK_ORDER`].
pub const RULE_COUNTER: &str = "counter-discipline";
/// See [`RULE_LOCK_ORDER`].
pub const RULE_SEED: &str = "seed-hygiene";
/// See [`RULE_LOCK_ORDER`].
pub const RULE_LOCK_INSTR: &str = "lock-instrumentation";
/// The meta-rule: a suppression without a reason is itself a finding,
/// and the reasonless suppression does not suppress anything.
pub const RULE_SUPPRESSION_REASON: &str = "suppression-missing-reason";

/// `(name, one-line description)` for every rule, in catalog order.
pub const RULES: [(&str, &str); 7] = [
    (
        RULE_LOCK_ORDER,
        "lock acquisitions must follow the hierarchy declared in lint.toml [lock-order]",
    ),
    (
        RULE_NO_PANIC,
        "no unwrap/expect/panic!/unreachable!/indexing in request & ingest hot paths",
    ),
    (
        RULE_THREAD_ENTRY,
        "every detached thread entry closure must route through catch_unwind",
    ),
    (
        RULE_COUNTER,
        "metrics counters must saturate (fetch_update + saturating_*), never wrap",
    ),
    (
        RULE_SEED,
        "no time-derived or ambient randomness seeding outside benches",
    ),
    (
        RULE_LOCK_INSTR,
        "locks in instrumented crates must be holo_prof wrappers, not raw Mutex/RwLock",
    ),
    (
        RULE_SUPPRESSION_REASON,
        "every lint:allow suppression must carry a written reason",
    ),
];

/// Lint one file's source against every rule.
pub fn lint_file(path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    lint_file_filtered(path, source, cfg, None)
}

/// Lint with a rule filter (`None` = all rules). The suppression
/// meta-rule always runs — it polices the suppression mechanism
/// itself, not an invariant you can opt out of.
pub fn lint_file_filtered(
    path: &str,
    source: &str,
    cfg: &Config,
    enabled: Option<&[&str]>,
) -> Vec<Finding> {
    let m = FileModel::build(path, source);
    let on = |r: &str| enabled.is_none_or(|e| e.contains(&r));
    let mut findings = Vec::new();
    if on(RULE_LOCK_ORDER) {
        lock_order(&m, cfg, &mut findings);
    }
    if on(RULE_NO_PANIC) {
        no_panic(&m, cfg, &mut findings);
    }
    if on(RULE_THREAD_ENTRY) {
        thread_entry(&m, &mut findings);
    }
    if on(RULE_COUNTER) {
        counters(&m, cfg, &mut findings);
    }
    if on(RULE_SEED) {
        seeds(&m, cfg, &mut findings);
    }
    if on(RULE_LOCK_INSTR) {
        lock_instrumentation(&m, cfg, &mut findings);
    }
    // A suppression only works when it carries a reason; a reasonless
    // one leaves the finding live AND adds a meta finding.
    for f in &mut findings {
        if let Some(s) = m.suppressed(f.rule, f.line) {
            if !s.reason.is_empty() {
                f.suppressed = Some(s.reason.clone());
            }
        }
    }
    for s in &m.suppressions {
        if s.reason.is_empty() {
            findings.push(Finding {
                rule: RULE_SUPPRESSION_REASON,
                path: m.path.clone(),
                line: s.line,
                message: format!(
                    "suppression of `{0}` has no reason; write `// lint:allow({0}): <why this is safe>`",
                    s.rule
                ),
                suppressed: None,
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// `true` when `path` is inside one of the named `crates/<name>/` trees.
fn in_crates(path: &str, crates: &[String]) -> bool {
    crates
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/")))
}

/// Next code (non-comment) token index after `i`.
fn after(m: &FileModel, i: usize) -> Option<usize> {
    let j = m.skip_comments(i + 1);
    (j < m.toks.len()).then_some(j)
}

/// `true` when token `i` is an identifier called as `.name(`.
fn is_method_call(m: &FileModel, i: usize) -> bool {
    m.prev_code(i).is_some_and(|p| m.toks[p].is_punct('.'))
        && after(m, i).is_some_and(|j| m.toks[j].is_punct('('))
}

// ---------------------------------------------------------------- lock-order

/// A currently-held guard during the per-function simulation.
struct Held {
    /// The `let` binding name, if any (`None` = statement-transient).
    binding: Option<String>,
    /// The lock field name (`state`, `log`, …).
    lock: String,
    /// Rank in the declared hierarchy (lower = outermost).
    rank: usize,
    /// Brace depth at acquisition (guards die when their block closes).
    depth: i32,
}

/// Rule 1: per-function held-set simulation over `.lock()`/`.read()`/
/// `.write()` acquisitions on the configured lock names. An acquisition
/// of rank `r` while any guard of rank `>= r` is held contradicts the
/// declared hierarchy and is flagged. Guards bound by `let` live until
/// their block closes or an explicit `drop(name)`; guards used inline
/// live to the end of their statement.
fn lock_order(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.lock_order.is_empty() || !in_crates(&m.path, &cfg.lock_order_crates) {
        return;
    }
    for f in &m.fns {
        if m.in_test[f.fn_tok] {
            continue;
        }
        // Token ranges of fns nested inside this body: their
        // acquisitions are separate executions, not part of this
        // function's held set (they get their own pass).
        let nested: Vec<(usize, usize)> = m
            .fns
            .iter()
            .filter(|g| g.fn_tok > f.body_open && g.body_close < f.body_close)
            .map(|g| (g.fn_tok, g.body_close))
            .collect();
        lock_order_body(m, f, &nested, cfg, out);
    }
}

fn lock_order_body(
    m: &FileModel,
    f: &FnSpan,
    nested: &[(usize, usize)],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let mut pending_let: Option<String> = None;
    let mut i = f.body_open + 1;
    while i < f.body_close {
        if let Some(&(_, end)) = nested.iter().find(|&&(s, e)| i >= s && i <= e) {
            i = end + 1;
            continue;
        }
        let t = &m.toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        match &t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                held.retain(|h| h.depth < depth);
                depth -= 1;
                pending_let = None;
            }
            TokKind::Punct(';') => {
                held.retain(|h| h.binding.is_some());
                pending_let = None;
            }
            TokKind::Ident if t.text == "let" => {
                // `let [mut] NAME =` — capture the binding target so
                // the next acquisition in this statement binds to it.
                let mut j = after(m, i);
                if let Some(k) = j {
                    if m.toks[k].is_ident("mut") {
                        j = after(m, k);
                    }
                }
                if let Some(name_i) = j {
                    if m.toks[name_i].kind == TokKind::Ident {
                        if let Some(eq) = after(m, name_i) {
                            if m.toks[eq].is_punct('=') {
                                pending_let = Some(m.toks[name_i].text.clone());
                            }
                        }
                    }
                }
            }
            TokKind::Ident if t.text == "drop" => {
                // `drop(NAME)` releases the named guard early.
                if let Some(open) = after(m, i).filter(|&j| m.toks[j].is_punct('(')) {
                    if let Some(arg) = after(m, open) {
                        if m.toks[arg].kind == TokKind::Ident {
                            if let Some(close) = after(m, arg) {
                                if m.toks[close].is_punct(')') {
                                    let name = &m.toks[arg].text;
                                    held.retain(|h| h.binding.as_deref() != Some(name));
                                }
                            }
                        }
                    }
                }
            }
            TokKind::Ident
                if matches!(t.text.as_str(), "lock" | "read" | "write") && is_method_call(m, i) =>
            {
                // Must be an argument-less call (`.read()` the RwLock
                // way, not `.read(buf)` the io::Read way) on a
                // receiver named in the hierarchy.
                let empty_parens = after(m, i)
                    .and_then(|open| after(m, open))
                    .is_some_and(|close| m.toks[close].is_punct(')'));
                let recv = m
                    .prev_code(i)
                    .and_then(|dot| m.prev_code(dot))
                    .filter(|&r| m.toks[r].kind == TokKind::Ident)
                    .map(|r| m.toks[r].text.clone());
                if let (true, Some(recv)) = (empty_parens, recv) {
                    if let Some(rank) = cfg.lock_rank(&recv) {
                        for h in &held {
                            if h.rank >= rank {
                                out.push(Finding {
                                    rule: RULE_LOCK_ORDER,
                                    path: m.path.clone(),
                                    line: t.line,
                                    message: format!(
                                        "fn `{}` acquires `{}` while holding `{}`; declared order is {}",
                                        f.name,
                                        recv,
                                        h.lock,
                                        cfg.lock_order.join(" -> "),
                                    ),
                                    suppressed: None,
                                });
                            }
                        }
                        held.push(Held {
                            binding: pending_let.take(),
                            lock: recv,
                            rank,
                            depth,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

// ------------------------------------------------------------ no-panic-paths

/// Keywords that can legally precede `[` without it being a postfix
/// index (array literals, patterns, types).
const NON_INDEX_KEYWORDS: [&str; 12] = [
    "for", "in", "return", "break", "match", "if", "else", "as", "where", "let", "impl", "dyn",
];

/// Rule 2: in the configured hot-path files, flag every construct that
/// can panic — `.unwrap()`, `.expect()`, `panic!`/`unreachable!`/
/// `todo!`/`unimplemented!`, and postfix indexing/slicing `x[..]`.
/// Hot paths must return typed errors; panic isolation at the thread
/// boundary is a backstop, not a design.
fn no_panic(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.no_panic_paths.iter().any(|p| p == &m.path) {
        return;
    }
    let mut push = |line: usize, message: String| {
        out.push(Finding {
            rule: RULE_NO_PANIC,
            path: m.path.clone(),
            line,
            message,
            suppressed: None,
        });
    };
    for i in 0..m.toks.len() {
        if m.toks[i].is_comment() || m.in_test[i] {
            continue;
        }
        let t = &m.toks[i];
        match &t.kind {
            TokKind::Ident => {
                if matches!(t.text.as_str(), "unwrap" | "expect") && is_method_call(m, i) {
                    push(
                        t.line,
                        format!(
                            "`.{}()` can panic in a hot path; propagate a typed error instead",
                            t.text
                        ),
                    );
                } else if matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && after(m, i).is_some_and(|j| m.toks[j].is_punct('!'))
                {
                    push(
                        t.line,
                        format!("`{}!` in a hot path; return a typed error instead", t.text),
                    );
                }
            }
            TokKind::Punct('[') => {
                let postfix = m.prev_code(i).is_some_and(|p| {
                    let pt = &m.toks[p];
                    match &pt.kind {
                        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&pt.text.as_str()),
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        _ => false,
                    }
                });
                if postfix {
                    push(
                        t.line,
                        "indexing/slicing can panic in a hot path; use `.get()`/`.get_mut()` or a checked split".to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

// ----------------------------------------------------- thread-entry-isolation

/// Rule 3: every *detached* thread spawn (`std::thread::spawn` or
/// `thread::Builder…spawn`) must route its closure through
/// `catch_unwind` — directly in the closure body, or in the single
/// same-file function the closure delegates to. Scoped spawns
/// (`thread::scope`'s `s.spawn`) are exempt by design: their panics
/// propagate deterministically to the joining caller instead of
/// unwinding a detached thread.
fn thread_entry(m: &FileModel, out: &mut Vec<Finding>) {
    for i in 0..m.toks.len() {
        if m.toks[i].is_comment() || m.in_test[i] || !m.toks[i].is_ident("spawn") {
            continue;
        }
        let Some(open) = after(m, i).filter(|&j| m.toks[j].is_punct('(')) else {
            continue;
        };
        // Walk back to the statement boundary classifying the spawn.
        let mut detached = false;
        let mut scoped = false;
        let mut j = i;
        while let Some(p) = m.prev_code(j) {
            match &m.toks[p].kind {
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                TokKind::Ident => match m.toks[p].text.as_str() {
                    "thread" | "Builder" => detached = true,
                    "scope" => scoped = true,
                    _ => {}
                },
                _ => {}
            }
            j = p;
        }
        if !detached || scoped {
            continue;
        }
        // The spawn-call argument span.
        let mut depth = 0;
        let mut close = open;
        for k in open..m.toks.len() {
            if m.toks[k].is_punct('(') {
                depth += 1;
            } else if m.toks[k].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        if span_mentions(m, open + 1, close, "catch_unwind")
            || delegate_catches_unwind(m, open + 1, close)
        {
            continue;
        }
        out.push(Finding {
            rule: RULE_THREAD_ENTRY,
            path: m.path.clone(),
            line: m.toks[i].line,
            message: "detached thread entry does not route through catch_unwind; a panic here \
                      kills the thread silently instead of being isolated and counted"
                .to_string(),
            suppressed: None,
        });
    }
}

/// `true` when any identifier token in `[from, to)` equals `name`.
fn span_mentions(m: &FileModel, from: usize, to: usize, name: &str) -> bool {
    m.toks[from..to.min(m.toks.len())]
        .iter()
        .any(|t| t.is_ident(name))
}

/// One level of resolution: when the spawn closure body is a single
/// call `f(...)` to a function defined in this file, check `f`'s body
/// for `catch_unwind`.
fn delegate_catches_unwind(m: &FileModel, from: usize, to: usize) -> bool {
    // Find the closure parameter pipes `|...|` (or `||`).
    let mut k = from;
    let mut pipes = 0;
    while k < to && pipes < 2 {
        if m.toks[k].is_punct('|') {
            pipes += 1;
        }
        k += 1;
    }
    if pipes < 2 {
        return false;
    }
    let body = m.skip_comments(k);
    if body >= to || m.toks[body].kind != TokKind::Ident {
        return false;
    }
    let callee = &m.toks[body].text;
    if !after(m, body).is_some_and(|j| m.toks[j].is_punct('(')) {
        return false;
    }
    m.fns
        .iter()
        .filter(|g| &g.name == callee)
        .any(|g| span_mentions(m, g.body_open, g.body_close + 1, "catch_unwind"))
}

// --------------------------------------------------------- counter-discipline

/// Rule 4: in the configured crates, atomic counters must never use
/// wrapping `fetch_add`/`fetch_sub` — the repo's idiom is
/// `fetch_update` with `saturating_add` (`holo_prof::sat_add`),
/// so a long-lived server pegs at `u64::MAX` instead of faking a
/// counter reset. In declared metrics files, bare `+=`/`-=` is flagged
/// too.
fn counters(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    let crate_scoped = in_crates(&m.path, &cfg.counter_crates);
    let metrics_file = cfg.counter_metrics_files.iter().any(|p| p == &m.path);
    if !crate_scoped && !metrics_file {
        return;
    }
    for i in 0..m.toks.len() {
        if m.toks[i].is_comment() || m.in_test[i] {
            continue;
        }
        let t = &m.toks[i];
        match &t.kind {
            TokKind::Ident
                if matches!(t.text.as_str(), "fetch_add" | "fetch_sub") && is_method_call(m, i) =>
            {
                out.push(Finding {
                    rule: RULE_COUNTER,
                    path: m.path.clone(),
                    line: t.line,
                    message: format!(
                        "wrapping `{}` on an atomic counter; use fetch_update with saturating \
                         arithmetic (holo_prof::sat_add)",
                        t.text
                    ),
                    suppressed: None,
                });
            }
            TokKind::Punct(op @ ('+' | '-')) if metrics_file => {
                let compound = m
                    .toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct('=') && n.pos == t.pos + 1);
                if compound {
                    out.push(Finding {
                        rule: RULE_COUNTER,
                        path: m.path.clone(),
                        line: t.line,
                        message: format!(
                            "bare `{op}=` on metrics state; use saturating arithmetic"
                        ),
                        suppressed: None,
                    });
                }
            }
            _ => {}
        }
    }
}

// --------------------------------------------------------------- seed-hygiene

/// Rule 5: outside the allow-listed bench trees, no time-derived or
/// ambient entropy may feed seeds — `SystemTime`, `thread_rng`,
/// `from_entropy`, and nanosecond extraction (`.as_nanos()`/
/// `.subsec_nanos()`, the classic clock-to-seed step) are all flagged.
/// Every experiment seed must be explicit so bitwise score parity
/// holds across runs (this mechanizes the manual seed audit from the
/// scenario-suite PR).
fn seeds(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg
        .seed_allow_paths
        .iter()
        .any(|p| m.path.starts_with(p.as_str()))
    {
        return;
    }
    for i in 0..m.toks.len() {
        if m.toks[i].is_comment() || m.in_test[i] {
            continue;
        }
        let t = &m.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let ambient_type = matches!(
            t.text.as_str(),
            "SystemTime" | "thread_rng" | "from_entropy"
        );
        let nanos_call =
            matches!(t.text.as_str(), "as_nanos" | "subsec_nanos") && is_method_call(m, i);
        if ambient_type || nanos_call {
            out.push(Finding {
                rule: RULE_SEED,
                path: m.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` is an ambient/time-derived entropy source; seeds must be explicit \
                     and deterministic outside benches",
                    t.text
                ),
                suppressed: None,
            });
        }
    }
}

// ------------------------------------------------------- lock-instrumentation

/// Rule 6: in the configured crates, every lock must be one of the
/// instrumented `holo_prof` wrappers — a raw `Mutex::new(` /
/// `RwLock::new(` construction site is flagged. The wrappers feed the
/// contention profile (`/v1/prof`, `holo_prof_lock_wait_micros`), so a
/// raw lock is an invisible lock. `ProfMutex::new` tokenizes as its own
/// identifier and never matches; type positions (`Mutex<...>`) are not
/// construction and are ignored. Suppress with a written reason for a
/// lock that genuinely cannot be wrapped (e.g. const/static init before
/// the registry exists).
fn lock_instrumentation(m: &FileModel, cfg: &Config, out: &mut Vec<Finding>) {
    if !in_crates(&m.path, &cfg.lock_instr_crates) {
        return;
    }
    for i in 0..m.toks.len() {
        if m.toks[i].is_comment() || m.in_test[i] {
            continue;
        }
        let t = &m.toks[i];
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "Mutex" | "RwLock") {
            continue;
        }
        let is_new_call = after(m, i)
            .filter(|&a| m.toks[a].is_punct(':'))
            .and_then(|a| after(m, a))
            .filter(|&b| m.toks[b].is_punct(':'))
            .and_then(|b| after(m, b))
            .filter(|&c| m.toks[c].is_ident("new"))
            .and_then(|c| after(m, c))
            .is_some_and(|d| m.toks[d].is_punct('('));
        if is_new_call {
            out.push(Finding {
                rule: RULE_LOCK_INSTR,
                path: m.path.clone(),
                line: t.line,
                message: format!(
                    "raw `{0}::new` in an instrumented crate; construct a named \
                     `holo_prof::Prof{0}` so its contention shows up in /v1/prof",
                    t.text
                ),
                suppressed: None,
            });
        }
    }
}
