//! The fixture the `trace_smoke` and `prof_smoke` binaries share: a
//! tiny model served for real (TCP, worker pool), hit by a burst of
//! scored requests, then scraped from the outside with raw HTTP.

use holo_data::{DatasetBuilder, GroundTruth, Schema};
use holo_eval::FitContext;
use holo_serve::{HttpConfig, ModelRegistry, RunningServer};
use holodetect::{HoloDetect, HoloDetectConfig};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Scored requests in the burst [`Smoke::start`] fires.
pub const SCORE_REQUESTS: usize = 12;

/// A served model after its burst of scored requests, plus the tally
/// of the checks run against it.
pub struct Smoke {
    name: &'static str,
    server: RunningServer,
    artifact: PathBuf,
    /// The `x-holo-trace` id of the burst's last response.
    pub last_trace: String,
    ok: bool,
}

impl Smoke {
    /// Fits a tiny model (the serve test fixture, shrunk), serves it on
    /// a loopback port, and fires the burst, checking every response.
    pub fn start(name: &'static str) -> Smoke {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for _ in 0..25 {
            b.push_row(&["60612", "Chicago"]);
            b.push_row(&["53703", "Madison"]);
        }
        let clean = b.build();
        let mut dirty = clean.clone();
        dirty.set_value(0, 1, "Cxhicago");
        let truth = GroundTruth::from_pair(&clean, &dirty);
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 8;
        let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
        let model = HoloDetect::new(cfg).fit_model(&FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &[],
            seed: 3,
        });
        let artifact = std::env::temp_dir().join(format!(
            "holo-{}-{}.holoart",
            name.replace(' ', "-"),
            std::process::id()
        ));
        model.save(&artifact).expect("save artifact");

        let registry = Arc::new(ModelRegistry::new());
        registry.load_insert("smoke", &artifact).expect("load");
        let cfg = HttpConfig {
            workers: 4,
            ..HttpConfig::default()
        };
        let server = holo_serve::start("127.0.0.1:0", cfg, registry).expect("bind port 0");
        println!("{name} serving on {}", server.addr());
        let mut smoke = Smoke {
            name,
            server,
            artifact,
            last_trace: String::new(),
            ok: true,
        };
        for i in 0..SCORE_REQUESTS {
            let body = format!(
                r#"{{"rows": [{{"Zip": "606{i:02}", "City": "Chicago"}}, {{"Zip": "53703", "City": "Madiso{i}"}}]}}"#
            );
            let (status, head, resp) = smoke.http("POST", "/v1/models/smoke/score", &body);
            smoke.check(status == 200, &format!("score request {i} ({resp})"));
            if let Some(id) = head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("x-holo-trace")
                    .then(|| v.trim().to_string())
            }) {
                smoke.last_trace = id;
            }
        }
        smoke
    }

    /// One raw HTTP/1.1 round trip on a fresh connection: status,
    /// header block, body.
    pub fn http(&self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let mut s = std::net::TcpStream::connect(self.server.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).expect("send");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
        (status, head.to_string(), body.to_string())
    }

    /// Prints one check's outcome and folds it into the tally.
    pub fn check(&mut self, ok: bool, what: &str) {
        println!("{} {what}", if ok { "ok " } else { "FAIL" });
        self.ok &= ok;
    }

    /// Shuts the server down and turns the tally into the exit code.
    pub fn finish(self) -> ExitCode {
        self.server.shutdown();
        std::fs::remove_file(&self.artifact).ok();
        if self.ok {
            println!("{}: all checks passed", self.name);
            ExitCode::SUCCESS
        } else {
            println!("{}: FAILED", self.name);
            ExitCode::FAILURE
        }
    }
}
