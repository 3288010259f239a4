//! The repository benchmark. One invocation runs one workload and prints,
//! as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! replay the workload's calls in-process inside spans and report the
//! per-layer metrics.
//!
//! Usage: `holobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (normally through `holobench/run.sh`, which builds everything first).

mod detect;
mod hospital;
mod http;
mod layers;
mod serve;
mod server;
mod spans;
mod stats;
mod stream;
mod world;

use holodetect_repro::serve::Json;
use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["detect-hospital", "serve-hospital", "stream-food"];

const USAGE: &str =
    "usage: holobench --workload <detect-hospital|serve-hospital|stream-food> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

/// One metric as reported: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Requests (or calls) of one phase of a run.
pub struct Phase {
    pub name: &'static str,
    pub attempted: usize,
    pub failed: usize,
}

/// What a workload reports: its end-to-end metrics, its per-layer
/// metrics (traced runs), per-phase counts, and every output check that
/// failed.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub phases: Vec<Phase>,
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn phase(&mut self, name: &'static str, attempted: usize, failed: usize) {
        self.phases.push(Phase {
            name,
            attempted,
            failed,
        });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("holobench: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run_info = match run_info(&args) {
        Ok(info) => info,
        Err(msg) => {
            eprintln!("holobench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!("{run_info}");
    let outcome = match args.workload.as_str() {
        "detect-hospital" => detect::run(&args),
        "serve-hospital" => serve::run(&args),
        _ => stream::run(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("holobench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.mismatches {
        eprintln!("holobench: output check failed: {m}");
    }
    let (mut attempted, mut failed) = (0, 0);
    for p in &outcome.phases {
        attempted += p.attempted;
        failed += p.failed;
        println!(
            "{}",
            Json::Obj(vec![
                ("phase".into(), Json::Str(p.name.into())),
                ("attempted".into(), Json::Num(p.attempted as f64)),
                (
                    "succeeded".into(),
                    Json::Num((p.attempted - p.failed) as f64)
                ),
                ("failed".into(), Json::Num(p.failed as f64)),
            ])
        );
    }
    // A traced run's end-to-end numbers come before any span is opened;
    // they are printed for comparison with an untraced run.
    let reported = if args.trace {
        println!(
            "{}",
            Json::Obj(vec![("end_to_end".into(), metrics_json(&outcome.metrics))])
        );
        &outcome.layers
    } else {
        &outcome.metrics
    };
    let correct = outcome.mismatches.is_empty()
        && failed == 0
        && reported.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted.max(1) as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), metrics_json(reported)),
        ])
    );
    ExitCode::SUCCESS
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// What every run records: the machine's cores, the build profile, and
/// the code measured.
fn run_info(args: &Args) -> Result<Json, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Json::Obj(vec![(
        "run".into(),
        Json::Obj(vec![
            ("workload".into(), Json::Str(args.workload.clone())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("seconds".into(), Json::Num(args.seconds.as_secs_f64())),
            ("trace".into(), Json::Bool(args.trace)),
            ("nproc".into(), Json::Num(nproc as f64)),
            (
                "profile".into(),
                Json::Str(
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                    .into(),
                ),
            ),
            ("commit".into(), Json::Str(server::git_commit())),
            ("source_digest".into(), Json::Str(server::source_digest()?)),
        ]),
    )]))
}
