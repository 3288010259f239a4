//! The `holo-lint` CLI.
//!
//! ```text
//! holo-lint [--root DIR] [--config FILE] [--json FILE] [--check] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean (or informational run), `1` unsuppressed
//! findings in `--check` mode, `2` usage or I/O error.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use holo_lint::{Config, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: Option<PathBuf>,
    check: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        json: None,
        check: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?));
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a file")?));
            }
            "--check" => args.check = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str =
    "usage: holo-lint [--root DIR] [--config FILE] [--json FILE] [--check] [--list-rules]

  --root DIR     workspace root (default: .)
  --config FILE  lint config (default: <root>/lint.toml)
  --json FILE    also write the full findings report as JSON
  --check        CI mode: exit 1 when any unsuppressed finding remains
  --list-rules   print the rule catalog and exit";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("holo-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for (name, desc) in RULES {
            println!("{name:26} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("lint.toml"));
    let cfg = match Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("holo-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = cfg.check_entries(&args.root) {
        eprintln!("holo-lint: {e}");
        return ExitCode::from(2);
    }
    let report = match holo_lint::lint_workspace(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("holo-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(json_path) = &args.json {
        if let Err(e) = std::fs::write(json_path, report.render_json()) {
            eprintln!("holo-lint: write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_human());
    if args.check && report.unsuppressed_count() > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
