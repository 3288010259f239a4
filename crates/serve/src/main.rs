//! The `holo-serve` binary: load saved artifacts, bind, serve.
//!
//! ```text
//! holo-serve --model food=artifacts/food.holoart \
//!            --model census=artifacts/census.holoart \
//!            --addr 127.0.0.1:7878 --workers 8
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use holo_serve::{HttpConfig, ModelRegistry, ServeConfig, TraceConfig};
use holo_stream::{LiveModel, RefitScheduler, RefitTarget, StreamConfig};
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
    trace: TraceConfig,
}

const USAGE: &str = "\
usage: holo-serve --model NAME=PATH [--model NAME=PATH ...] [options]

options:
  --addr HOST:PORT       listen address          (default 127.0.0.1:7878)
  --workers N            HTTP worker threads     (default 4)
  --max-body-bytes N     request body cap        (default 1048576)
  --trace-ring-bytes N   trace ring byte budget  (default 1048576)

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

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        models: Vec::new(),
        streams: Vec::new(),
        stream: StreamConfig::default(),
        refit_interval: Duration::from_millis(1000),
        http: HttpConfig::default(),
        trace: TraceConfig::default(),
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
            "--trace-ring-bytes" => {
                args.trace.ring_bytes =
                    parse_num(&value("--trace-ring-bytes")?, "--trace-ring-bytes")?;
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
            "--help" | "-h" => return Err(String::new()),
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
    Ok(args)
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag} wants a number, got {s:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("holo-serve: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let registry = Arc::new(ModelRegistry::new());
    let mut targets = Vec::new();
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
                // The scheduler hot-swaps through the registry reload,
                // like a manual POST .../reload would.
                let swap = {
                    let registry = Arc::clone(&registry);
                    let name = name.clone();
                    Arc::new(move || match registry.reload(&name) {
                        Some(Ok(_)) => Ok(()),
                        Some(Err(e)) => Err(e.to_string()),
                        None => Err(format!("model {name:?} vanished from the registry")),
                    }) as holo_stream::scheduler::SwapHook
                };
                registry.insert_live(name, Arc::clone(&live));
                targets.push(RefitTarget { live, swap });
            }
        }
    }
    let _scheduler =
        (!targets.is_empty()).then(|| RefitScheduler::spawn(targets, args.refit_interval));

    let cfg = ServeConfig {
        http: args.http,
        trace: args.trace,
    };
    let server = match holo_serve::start(&args.addr, cfg, registry) {
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
