//! `lint.toml` — the checked-in declaration of the workspace's
//! invariants, parsed with a small hand-rolled TOML subset reader
//! (sections, string/array-of-string values; same spirit as the other
//! hand-rolled parsers in this workspace).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A configuration error with the offending line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in `lint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The full lint configuration. Every rule is on by default; the
/// config only *scopes* rules (which crates/files/identifiers they
/// watch), it cannot turn them off — suppression is per-line in the
/// source, with a mandatory reason.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes (relative to the workspace root) never scanned.
    pub skip: Vec<String>,
    /// Crates (directory names under `crates/`) whose lock
    /// acquisitions are ordered.
    pub lock_order_crates: Vec<String>,
    /// The declared hierarchy, outermost first: a lock named by
    /// position `i` must never be acquired while one with position
    /// `> i` is held.
    pub lock_order: Vec<String>,
    /// Files (workspace-relative) where panicking constructs are
    /// forbidden.
    pub no_panic_paths: Vec<String>,
    /// Crates where raw `Mutex`/`RwLock` construction is forbidden in
    /// favor of the instrumented `holo_prof` wrappers.
    pub lock_instr_crates: Vec<String>,
    /// Crates whose counter updates must be saturating.
    pub counter_crates: Vec<String>,
    /// Files holding metrics state where even non-atomic `+=`/`-=`
    /// is flagged.
    pub counter_metrics_files: Vec<String>,
    /// Path prefixes where time-derived seeding is allowed (benches).
    pub seed_allow_paths: Vec<String>,
    /// The line each `[section] key` was declared on, for errors.
    key_lines: BTreeMap<(String, String), usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            skip: vec!["vendor".into(), "target".into()],
            lock_order_crates: Vec::new(),
            lock_order: Vec::new(),
            no_panic_paths: Vec::new(),
            lock_instr_crates: Vec::new(),
            counter_crates: Vec::new(),
            counter_metrics_files: Vec::new(),
            seed_allow_paths: Vec::new(),
            key_lines: BTreeMap::new(),
        }
    }
}

impl Config {
    /// Parse from TOML-subset text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut sections: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
        let mut key_lines = BTreeMap::new();
        let mut current = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // A `key = [` array may span lines; join until the `]`.
            while line.contains('[') && !line.starts_with('[') && !line.contains(']') {
                let Some((_, next)) = lines.next() else { break };
                line.push(' ');
                line.push_str(strip_comment(next).trim());
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                current = name.trim().to_string();
                sections.entry(current.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value` or `[section]`, got `{line}`"),
                });
            };
            let values = parse_value(value.trim(), lineno)?;
            key_lines.insert((current.clone(), key.trim().to_string()), lineno);
            sections
                .entry(current.clone())
                .or_default()
                .insert(key.trim().to_string(), values);
        }

        let mut cfg = Config {
            key_lines,
            ..Config::default()
        };
        let take = |sections: &BTreeMap<String, BTreeMap<String, Vec<String>>>,
                    section: &str,
                    key: &str| {
            sections
                .get(section)
                .and_then(|s| s.get(key))
                .cloned()
                .unwrap_or_default()
        };
        let top = take(&sections, "", "skip");
        if !top.is_empty() {
            cfg.skip = top;
        }
        cfg.lock_order_crates = take(&sections, "lock-order", "crates");
        cfg.lock_order = take(&sections, "lock-order", "order");
        cfg.no_panic_paths = take(&sections, "no-panic-paths", "paths");
        cfg.lock_instr_crates = take(&sections, "lock-instrumentation", "crates");
        cfg.counter_crates = take(&sections, "counter-discipline", "crates");
        cfg.counter_metrics_files = take(&sections, "counter-discipline", "metrics-files");
        cfg.seed_allow_paths = take(&sections, "seed-hygiene", "allow-paths");
        Ok(cfg)
    }

    /// Read and parse a config file.
    pub fn load(path: &Path) -> Result<Config, Box<dyn std::error::Error>> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(Config::parse(&text)?)
    }

    /// Checks every scoping entry against the workspace at `root`: each
    /// `no-panic-paths` and `metrics-files` entry must be a file, and
    /// each `lock-order`, `lock-instrumentation` and `counter-discipline`
    /// crate must have a `crates/<name>` directory. Rules match entries
    /// by exact path or crate prefix, so a renamed or deleted file or
    /// crate would otherwise drop out of its rule without a word.
    ///
    /// # Errors
    /// A [`ConfigError`] naming the first stale entry and its key's line.
    pub fn check_entries(&self, root: &Path) -> Result<(), ConfigError> {
        let stale = |section: &str, key: &str, what: String| ConfigError {
            line: self
                .key_lines
                .get(&(section.into(), key.into()))
                .copied()
                .unwrap_or(0),
            message: format!("[{section}] {key}: {what} under {}", root.display()),
        };
        let files = [
            ("no-panic-paths", "paths", &self.no_panic_paths),
            (
                "counter-discipline",
                "metrics-files",
                &self.counter_metrics_files,
            ),
        ];
        for (section, key, paths) in files {
            if let Some(p) = paths.iter().find(|p| !root.join(p).is_file()) {
                return Err(stale(section, key, format!("`{p}` is not a file")));
            }
        }
        let crates = [
            ("lock-order", &self.lock_order_crates),
            ("lock-instrumentation", &self.lock_instr_crates),
            ("counter-discipline", &self.counter_crates),
        ];
        for (section, names) in crates {
            if let Some(n) = names.iter().find(|n| !root.join("crates").join(n).is_dir()) {
                return Err(stale(
                    section,
                    "crates",
                    format!("crate `{n}` has no crates/{n}"),
                ));
            }
        }
        Ok(())
    }

    /// Rank of a lock name in the declared hierarchy, if ordered.
    pub fn lock_rank(&self, name: &str) -> Option<usize> {
        self.lock_order.iter().position(|n| n == name)
    }
}

/// Strip a `#`-to-end-of-line comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `"string"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    if let Some(inner) = value.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut out = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push(parse_string(part, line)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_string(value, line)?])
}

/// Split an array body on commas (no nested arrays in this subset,
/// but commas inside quoted strings are respected).
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

/// Parse one double-quoted string.
fn parse_string(s: &str, line: usize) -> Result<String, ConfigError> {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| ConfigError {
            line,
            message: format!("expected a double-quoted string, got `{s}`"),
        })?;
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace invariants
skip = ["vendor", "target"]

[lock-order]
crates = ["serve", "stream"]
order = ["refit_lock", "state", "log", "drift"]  # outermost first

[no-panic-paths]
paths = ["crates/serve/src/http.rs"]

[lock-instrumentation]
crates = ["serve", "stream"]

[counter-discipline]
crates = ["serve", "stream"]
metrics-files = ["crates/serve/src/metrics.rs"]

[seed-hygiene]
allow-paths = ["crates/bench"]
"#;

    #[test]
    fn sample_config_round_trips() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.skip, vec!["vendor", "target"]);
        assert_eq!(cfg.lock_order, vec!["refit_lock", "state", "log", "drift"]);
        assert_eq!(cfg.lock_rank("state"), Some(1));
        assert_eq!(cfg.lock_rank("drift"), Some(3));
        assert_eq!(cfg.lock_rank("unrelated"), None);
        assert_eq!(cfg.no_panic_paths, vec!["crates/serve/src/http.rs"]);
        assert_eq!(cfg.lock_instr_crates, vec!["serve", "stream"]);
        assert_eq!(
            cfg.counter_metrics_files,
            vec!["crates/serve/src/metrics.rs"]
        );
        assert_eq!(cfg.seed_allow_paths, vec!["crates/bench"]);
    }

    #[test]
    fn comments_inside_strings_survive() {
        let cfg = Config::parse(r##"skip = ["a#b"]"##).unwrap();
        assert_eq!(cfg.skip, vec!["a#b"]);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = Config::parse("[x]\nnot a kv line").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Config::parse("key = unquoted").unwrap_err();
        assert!(err.message.contains("double-quoted"));
    }

    #[test]
    fn multi_line_arrays_join() {
        let cfg = Config::parse(
            "[no-panic-paths]\npaths = [\n  \"a.rs\",  # hot\n  \"b.rs\",\n]\n[seed-hygiene]\nallow-paths = [\"c\"]",
        )
        .unwrap();
        assert_eq!(cfg.no_panic_paths, vec!["a.rs", "b.rs"]);
        assert_eq!(cfg.seed_allow_paths, vec!["c"]);
    }

    /// A scratch workspace holding `files` (and their directories).
    fn scratch_root(name: &str, files: &[&str]) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("holo-lint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for f in files {
            let path = root.join(f);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, "").unwrap();
        }
        root
    }

    #[test]
    fn stale_entries_are_config_errors_that_name_them() {
        let root = scratch_root(
            "stale",
            &[
                "crates/serve/src/http.rs",
                "crates/serve/src/metrics.rs",
                "crates/stream/src/lib.rs",
                "crates/bench/src/lib.rs",
            ],
        );
        let cfg = Config::parse(SAMPLE).unwrap();
        cfg.check_entries(&root).unwrap();
        for (from, to, line, entry) in [
            (
                "\"crates/serve/src/http.rs\"]",
                "\"crates/serve/src/batch.rs\"]",
                10,
                "crates/serve/src/batch.rs",
            ),
            (
                "\"crates/serve/src/metrics.rs\"]",
                "\"crates/serve/src/gone.rs\"]",
                17,
                "crates/serve/src/gone.rs",
            ),
            (
                "crates = [\"serve\", \"stream\"]\norder",
                "crates = [\"serve\", \"trace\"]\norder",
                6,
                "crate `trace`",
            ),
            (
                "[lock-instrumentation]\ncrates = [\"serve\", \"stream\"]",
                "[lock-instrumentation]\ncrates = [\"nope\"]",
                13,
                "crate `nope`",
            ),
            (
                "[counter-discipline]\ncrates = [\"serve\", \"stream\"]",
                "[counter-discipline]\ncrates = [\"prof\"]",
                16,
                "crate `prof`",
            ),
        ] {
            assert!(SAMPLE.contains(from), "{from}");
            let cfg = Config::parse(&SAMPLE.replace(from, to)).unwrap();
            let err = cfg.check_entries(&root).unwrap_err();
            assert_eq!(err.line, line, "{err}");
            assert!(err.to_string().contains(entry), "{err}");
        }
        // A directory is not a file, and a file is not a crate.
        let cfg = Config::parse("[no-panic-paths]\npaths = [\"crates/serve/src\"]").unwrap();
        assert!(cfg.check_entries(&root).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn this_workspace_config_has_no_stale_entries() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let cfg = Config::load(&root.join("lint.toml")).unwrap();
        cfg.check_entries(root).unwrap();
    }

    #[test]
    fn missing_sections_fall_back_to_defaults() {
        let cfg = Config::parse("").unwrap();
        assert_eq!(cfg.skip, vec!["vendor", "target"]);
        assert!(cfg.lock_order.is_empty());
    }
}
