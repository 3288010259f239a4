//! The `holo-serve` child under test, the scratch directory its files live
//! in, and the build facts every run records.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// Where cargo put the binaries: `$CARGO_TARGET_DIR`, else `.bench_build`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

/// A binary built by `run.sh` from this checkout. Refused if cargo's
/// dep-info for it names a source outside the checkout (built from
/// another one) or newer than the binary (stale).
pub fn fresh_binary(name: &str) -> Result<PathBuf, String> {
    let path = target_dir().join("release").join(name);
    let built = mtime(&path).map_err(|e| format!("{e} (build it with holobench/run.sh)"))?;
    let dep_info = path.with_extension("d");
    let deps =
        std::fs::read_to_string(&dep_info).map_err(|e| format!("{}: {e}", dep_info.display()))?;
    let (_, deps) = deps
        .split_once(": ")
        .ok_or_else(|| format!("{}: not a dep-info file", dep_info.display()))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let sources: Vec<PathBuf> = deps
        .replace("\\ ", "\0")
        .split_whitespace()
        .map(|d| PathBuf::from(d.replace('\0', " ")))
        .collect();
    if sources.is_empty() {
        return Err(format!("{}: lists no sources", dep_info.display()));
    }
    for source in sources {
        let source =
            std::fs::canonicalize(&source).map_err(|e| format!("{}: {e}", source.display()))?;
        if !source.starts_with(&root) {
            return Err(format!(
                "{} was built from {}, outside this checkout",
                path.display(),
                source.display()
            ));
        }
        if mtime(&source)? > built {
            return Err(format!(
                "{} is older than {}: refusing a stale binary (rebuild with holobench/run.sh)",
                path.display(),
                source.display()
            ));
        }
    }
    Ok(path)
}

fn mtime(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every regular file under `roots`, sorted, skipping build output.
fn source_files(roots: &[&str]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = roots.iter().map(PathBuf::from).collect();
    while let Some(p) = stack.pop() {
        let meta = std::fs::metadata(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        if meta.is_dir() {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            for entry in std::fs::read_dir(&p).map_err(|e| format!("{}: {e}", p.display()))? {
                stack.push(entry.map_err(|e| e.to_string())?.path());
            }
        } else {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

/// FNV-1a over the paths and bytes of the program's sources: identifies
/// the code measured even where the checkout is not a git repository.
pub fn source_digest() -> Result<String, String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let roots = [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "src",
        "holobench",
    ];
    for file in source_files(&roots)? {
        eat(file.to_string_lossy().as_bytes());
        eat(&std::fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?);
    }
    Ok(format!("{h:016x}"))
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// A scratch directory inside the target directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let dir = target_dir()
            .join("holobench-tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A running `holo-serve`; killed and reaped on drop, on every exit path.
pub struct ServeChild {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServeChild {
    /// Spawns `bin args…` on an ephemeral loopback port and waits until
    /// `/healthz` answers 200.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<ServeChild, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // Reads the bound address off the startup line, then keeps
        // draining so the child never blocks on a full pipe. If the child
        // exits first, what it said goes into the error.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            let mut said = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.is_none() {
                    continue;
                }
                match line.split("listening on http://").nth(1) {
                    Some(rest) => {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.take().map(|tx| tx.send(Ok(addr)));
                    }
                    None => said.push_str(&format!("\n  {line}")),
                }
            }
            let _ = tx.map(|tx| tx.send(Err(said)));
        });
        let mut me = ServeChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let addr = match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Ok(addr)) => addr,
            Ok(Err(said)) => return Err(format!("holo-serve exited before listening:{said}")),
            Err(_) => return Err("holo-serve did not start listening".to_string()),
        };
        me.addr = addr
            .parse()
            .map_err(|_| format!("holo-serve printed an unparseable address {addr:?}"))?;
        crate::http::get_ok(me.addr, "/healthz")?;
        Ok(me)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's peak resident set (VmHWM), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))
}
