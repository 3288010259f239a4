//! The `holo-serve` binary: load saved artifacts, bind, serve.
//!
//! ```text
//! holo-serve --model food=artifacts/food.holoart \
//!            --model census=artifacts/census.holoart \
//!            --addr 127.0.0.1:7878 --workers 8
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use holo_serve::{HttpConfig, ModelRegistry};
use holo_stream::{LiveModel, RefitScheduler, StreamConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    models: Vec<(String, String)>,
    /// Streaming-enabled models: name -> delta-log path.
    streams: Vec<(String, String)>,
    stream: StreamConfig,
    refit_interval: Duration,
    http: HttpConfig,
}

const USAGE: &str = "\
usage: holo-serve --model NAME=PATH [--model NAME=PATH ...] [options]

options:
  --addr HOST:PORT       listen address          (default 127.0.0.1:7878)
  --workers N            HTTP worker threads     (default 4)
  --max-body-bytes N     request body cap        (default 1048576)

Every request is traced, and every traced stage notes its allocations;
GET /v1/prof and /metrics sum them per stage next to the always-on
lock and worker-pool profiles.

streaming (per model; see the README's Streaming section):
  --stream NAME=LOGPATH  serve NAME in streaming mode with a durable
                         delta log at LOGPATH (enables POST .../rows,
                         GET .../drift, POST .../refit and background
                         refits once a drift signal fires: PSI or KS
                         of the score histograms, or label probes)
  --min-refit-rows N     rows required between refits    (default 64)
  --refit-interval-ms N  drift poll interval             (default 1000)
";

/// The parsed command line, or `None` when it asks for `--help`.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        models: Vec::new(),
        streams: Vec::new(),
        stream: StreamConfig::default(),
        refit_interval: Duration::from_millis(1000),
        http: HttpConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--model" => {
                let spec = value("--model")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model wants NAME=PATH, got {spec:?}"))?;
                args.models.push((name.to_string(), path.to_string()));
            }
            "--workers" => {
                args.http.workers = parse_num(&value("--workers")?, "--workers")?;
            }
            "--max-body-bytes" => {
                args.http.max_body_bytes =
                    parse_num(&value("--max-body-bytes")?, "--max-body-bytes")?;
            }
            "--stream" => {
                let spec = value("--stream")?;
                let (name, log) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--stream wants NAME=LOGPATH, got {spec:?}"))?;
                args.streams.push((name.to_string(), log.to_string()));
            }
            "--min-refit-rows" => {
                args.stream.min_rows_between_refits =
                    parse_num(&value("--min-refit-rows")?, "--min-refit-rows")? as u64;
            }
            "--refit-interval-ms" => {
                args.refit_interval = Duration::from_millis(parse_num(
                    &value("--refit-interval-ms")?,
                    "--refit-interval-ms",
                )? as u64);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.models.is_empty() {
        return Err("at least one --model NAME=PATH is required".to_string());
    }
    for (name, _) in &args.streams {
        if !args.models.iter().any(|(n, _)| n == name) {
            return Err(format!(
                "--stream {name:?} has no matching --model {name}=PATH"
            ));
        }
    }
    Ok(Some(args))
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag} wants a number, got {s:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("holo-serve: {msg}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let registry = Arc::new(ModelRegistry::new());
    let mut lives = Vec::new();
    for (name, path) in &args.models {
        let path = std::path::Path::new(path);
        match args.streams.iter().find(|(n, _)| n == name) {
            None => match registry.load_insert(name, path) {
                Ok(m) => eprintln!(
                    "loaded model {name:?} from {} (method {}, threshold {:.4})",
                    path.display(),
                    m.method(),
                    m.default_threshold()
                ),
                Err(e) => {
                    eprintln!(
                        "holo-serve: failed to load {name:?} from {}: {e}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            },
            Some((_, log_path)) => {
                let live = match LiveModel::open(
                    path,
                    std::path::Path::new(log_path),
                    args.stream.clone(),
                ) {
                    Ok(l) => Arc::new(l),
                    Err(e) => {
                        eprintln!(
                            "holo-serve: failed to open streaming model {name:?} \
                             ({} + {log_path}): {e}",
                            path.display()
                        );
                        return ExitCode::FAILURE;
                    }
                };
                eprintln!(
                    "streaming model {name:?} from {} (method {}, epoch {}, log {log_path})",
                    path.display(),
                    live.method(),
                    live.epoch()
                );
                registry.insert_live(name, Arc::clone(&live));
                lives.push(live);
            }
        }
    }
    let _scheduler = (!lives.is_empty()).then(|| RefitScheduler::spawn(lives, args.refit_interval));

    let server = match holo_serve::start(&args.addr, args.http, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("holo-serve: failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "holo-serve listening on http://{} ({} models)",
        server.addr(),
        args.models.len()
    );

    // Serve until the process is killed; workers drain on their own
    // when the handle drops.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn help_asks_for_usage_not_an_error() {
        for words in [&["--help"][..], &["-h"], &["--workers", "2", "--help"]] {
            assert!(matches!(parse_args(&argv(words)), Ok(None)), "{words:?}");
        }
    }

    #[test]
    fn unknown_flags_are_errors() {
        let parsed = parse_args(&argv(&["--model", "m=a.holoart", "--verbose"]));
        assert_eq!(parsed.err().as_deref(), Some("unknown flag \"--verbose\""));
    }

    #[test]
    fn every_flag_in_usage_parses() {
        let words: Vec<&str> = USAGE
            .split_whitespace()
            .map(|w| w.trim_start_matches('['))
            .collect();
        let mut flags = 0;
        for pair in words.windows(2) {
            let (flag, placeholder) = (pair[0], pair[1]);
            if !flag.starts_with("--") {
                continue;
            }
            let value = match placeholder {
                "NAME=PATH" => "m=a.holoart",
                "NAME=LOGPATH" => "m=m.dlog",
                "HOST:PORT" => "127.0.0.1:9",
                "N" => "7",
                other => panic!("{flag} takes an unknown placeholder {other:?}"),
            };
            let parsed = parse_args(&argv(&["--model", "m=a.holoart", flag, value]));
            assert!(matches!(parsed, Ok(Some(_))), "{flag}: {:?}", parsed.err());
            flags += 1;
        }
        // --model twice (the usage line), then the six options.
        assert_eq!(flags, 8);
        let args = parse_args(&argv(&[
            "--model",
            "m=a.holoart",
            "--addr",
            "127.0.0.1:9",
            "--workers",
            "3",
            "--max-body-bytes",
            "64",
            "--stream",
            "m=m.dlog",
            "--min-refit-rows",
            "5",
            "--refit-interval-ms",
            "20",
        ]))
        .expect("valid command line")
        .expect("not --help");
        assert_eq!(args.addr, "127.0.0.1:9");
        assert_eq!(args.models, [("m".to_string(), "a.holoart".to_string())]);
        assert_eq!(args.streams, [("m".to_string(), "m.dlog".to_string())]);
        assert_eq!((args.http.workers, args.http.max_body_bytes), (3, 64));
        assert_eq!(args.stream.min_rows_between_refits, 5);
        assert_eq!(args.refit_interval, Duration::from_millis(20));
    }
}
