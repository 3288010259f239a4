//! `holo-lint` — the workspace invariant checker.
//!
//! The serving stack's correctness rests on concurrency and
//! robustness invariants that used to live only in module docs and
//! CHANGES.md prose. This crate turns each of them into a
//! deny-by-default static-analysis rule over the workspace's own
//! sources: a hand-rolled, string/char/comment/raw-string-aware
//! tokenizer ([`lexer`]), a structural overlay that knows test
//! regions, suppressions and function spans ([`model`]), a workspace
//! walker driven by the root `Cargo.toml` members ([`walker`]), and
//! the rule engine itself ([`rules`]). No external dependencies, no
//! rustc internals — the linter builds and runs anywhere the
//! workspace does.
//!
//! # Rule catalog
//!
//! | Rule | Invariant | Where it came from |
//! |------|-----------|--------------------|
//! | `lock-order` | `.lock()/.read()/.write()` acquisitions must follow the declared `refit_lock -> state -> log -> drift -> labels -> timelines -> traces` hierarchy (outermost first), per function, in `crates/serve`, `crates/stream` and `crates/trace`. | The hierarchy `holo_stream::live` documents and every deadlock-free interleaving depends on (streaming-ingest PR); the refit-timeline ring and the trace recorder are leaf locks. |
//! | `no-panic-paths` | No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`/postfix indexing in the request and ingest hot paths (`serve::{http,app,registry}`, `stream::{live,drift}`, `adapt::{detect,probe,refit}`, `trace::{span,recorder,refit}`, `prof::{clock,alloc,lock,pool}`) or the delta-log reader (`data::delta`, untrusted bytes). Typed errors only. | The serving PR made panic-isolated 500s the *backstop*; this rule makes typed propagation the *design*. |
//! | `thread-entry-isolation` | Every detached `thread::spawn` / `Builder::spawn` closure must route through `catch_unwind` (directly, or via the single same-file function it delegates to). Scoped `thread::scope` spawns are exempt: their panics propagate deterministically to the joining caller. | The worker-pool hardening note from the serving PR ("panic isolation at every thread entry point"). |
//! | `counter-discipline` | Atomic metrics counters in `crates/serve`, `crates/stream`, `crates/adapt`, `crates/trace` and `crates/prof` must never use wrapping `fetch_add`/`fetch_sub`; the idiom is `fetch_update` + `saturating_add` (`holo_prof::sat_add`). Declared metrics files (`serve::metrics`) also reject bare `+=`/`-=`. | The metrics module's "counters saturate" rule, now enforced beyond that one file. |
//! | `seed-hygiene` | No `SystemTime`, `thread_rng`, `from_entropy`, or nanosecond extraction (`.as_nanos()`/`.subsec_nanos()`) outside the bench allow-list — seeds are explicit so bitwise score parity holds. | Mechanizes the manual seed audit from the scenario-suite PR. |
//! | `lock-instrumentation` | No raw `Mutex::new(`/`RwLock::new(` in `crates/serve` + `crates/stream`: locks there are the named `holo_prof` wrappers. | A raw lock is invisible to `/v1/prof` and `holo_prof_lock_wait_micros` (profiling PR). |
//! | `suppression-missing-reason` | Every `lint:allow` must carry a written reason; a reasonless suppression suppresses nothing and is itself a finding. | The suppression mechanism's own integrity rule. |
//!
//! # Suppression
//!
//! A finding that is genuinely safe is allowed in-source, never in
//! config:
//!
//! ```text
//! // lint:allow(no-panic-paths): idx = hash % buckets.len(); buckets is non-empty by construction
//! let bucket = &self.buckets[idx];
//! ```
//!
//! A standalone comment covers itself and the next line; a trailing
//! comment covers its own line. The reason after the `:` is
//! mandatory. Suppressed findings still appear in the JSON report, so
//! CI artifacts are an audit trail of every accepted exception.
//!
//! # Running
//!
//! ```text
//! cargo run -p holo-lint              # human report
//! cargo run -p holo-lint -- --check   # CI mode: exit 1 on any unsuppressed finding
//! cargo run -p holo-lint -- --json lint-findings.json
//! ```
//!
//! Every `lint.toml` entry must exist: a `no-panic-paths` or
//! `metrics-files` entry that is not a file under `--root`, or a crate
//! with no `crates/<name>` directory, is a config error naming it
//! ([`Config::check_entries`]), so a renamed or deleted file cannot
//! silently leave its rule's scope.
//!
//! Scope: every workspace member's `src/` tree (vendored crates are
//! skipped via `lint.toml`), with `#[cfg(test)]` modules and
//! `#[test]` functions excluded token-by-token — tests may panic and
//! measure wall-clocks all they like.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod walker;

pub use config::Config;
pub use report::Report;
pub use rules::{lint_file, lint_file_filtered, Finding, RULES};

use std::path::Path;

/// Lint the whole workspace rooted at `root` with `cfg`.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let sources = walker::workspace_sources(root, cfg)?;
    let mut findings = Vec::new();
    let files_scanned = sources.len();
    for src in sources {
        let text = std::fs::read_to_string(&src.path)?;
        findings.extend(lint_file(&src.label, &text, cfg));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(Report {
        findings,
        files_scanned,
    })
}
