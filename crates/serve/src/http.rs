//! A minimal HTTP/1.1 server over `std::net`, built for one job:
//! answering scoring requests with a fixed worker pool.
//!
//! Design, in order of importance:
//!
//! * **The listener never dies.** Every connection is handled inside
//!   `catch_unwind` twice over — once around the whole connection, once
//!   around each handler call — so a panicking handler (or a parser bug)
//!   costs one 500 response, never a worker thread, never the server.
//! * **Untrusted input is bounded.** Request heads and bodies have byte
//!   caps (413/431 on breach), there is no chunked-encoding support
//!   (501), and reads carry a timeout so an idle or trickling client
//!   cannot pin a worker forever.
//! * **Keep-alive by default**, honoring `Connection: close`.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] flips a flag,
//!   wakes the acceptor, and joins every worker: in-flight requests (and
//!   connections already accepted into the queue) finish and get their
//!   responses; only *new* work is refused.

use holo_prof::{PoolStats, ProfMutex, Stopwatch};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs for the HTTP layer.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Fixed worker thread count.
    pub workers: usize,
    /// Maximum request body size in bytes (413 beyond).
    pub max_body_bytes: usize,
    /// Maximum request head (request line + headers) size (431 beyond).
    pub max_head_bytes: usize,
    /// Per-read timeout; bounds how long an idle keep-alive connection
    /// can hold a worker between requests.
    pub read_timeout: Duration,
    /// Total wall-clock budget for reading one request (head + body).
    /// Bounds a *trickling* client — one byte per read renews the
    /// per-read timeout forever, but not this deadline (408 on breach).
    pub request_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 4,
            max_body_bytes: 1 << 20,
            max_head_bytes: 16 * 1024,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method, e.g. `GET`.
    pub method: String,
    /// Request target, query string included.
    pub path: String,
    /// The protocol version, e.g. `HTTP/1.1` (persistence defaults
    /// differ between 1.0 and 1.1).
    pub version: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// When the request's first bytes arrived. The handler's trace
    /// starts here, so a keep-alive connection's idle gap before the
    /// request is billed to no stage.
    pub received: Stopwatch,
    /// How long the HTTP layer spent reading + parsing this request
    /// (head and body) from its first byte, in microseconds — the
    /// handler's trace records it as the `parse` stage, which happens
    /// before the handler runs.
    pub parse_micros: u64,
}

impl Request {
    /// First header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path without its query string.
    pub fn path_only(&self) -> &str {
        self.path.split('?').next().unwrap_or("")
    }
}

/// A response to serialize back.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Extra response headers (name, value), written verbatim after
    /// the standard head. Names must be valid header names; values must
    /// not contain CR/LF (callers only put hex ids and numbers here).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            headers: Vec::new(),
        }
    }

    /// Adds an extra response header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// The request handler the server drives. Must be panic-tolerant in
/// aggregate: a panic is caught and answered with a 500.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Observer for the error responses the HTTP layer answers itself: the
/// protocol-level errors (400/413/431/501) written *before* a request
/// reaches the handler, and the 500 written for a handler that
/// panicked. It is the hook a metrics layer uses so malformed-request
/// storms and handler panics stay visible; a handler that returns, on
/// any status, books its own response.
pub type ProtocolErrorObserver = Arc<dyn Fn(u16) + Send + Sync>;

/// A running server: join handles plus the shutdown flag.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// join every thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let ip = if self.addr.ip().is_unspecified() {
            std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
        } else {
            self.addr.ip()
        };
        let _ = TcpStream::connect_timeout(
            &SocketAddr::new(ip, self.addr.port()),
            Duration::from_millis(250),
        );
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_shutdown();
            if let Some(a) = self.acceptor.take() {
                let _ = a.join();
            }
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

/// Bind `addr` and serve `handler` on a fixed worker pool until
/// [`ServerHandle::shutdown`], notifying `observer` of every error
/// response the layer writes on its own (see [`ProtocolErrorObserver`]).
pub fn serve(
    addr: &str,
    cfg: HttpConfig,
    handler: Handler,
    observer: ProtocolErrorObserver,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::<TcpStream>();
    // Named so /v1/prof shows workers contending on the accept queue.
    let rx = Arc::new(ProfMutex::new("http-queue", rx));

    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let cfg = cfg.clone();
            let shutdown = Arc::clone(&shutdown);
            let observer = Arc::clone(&observer);
            std::thread::Builder::new()
                .name(format!("holo-serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &cfg, &handler, &shutdown, &observer))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("holo-serve-acceptor".into())
            .spawn(move || {
                // Panic isolation: nothing in the accept loop should be
                // able to panic, but if it ever does, unwind stops here
                // and `tx` still drops in an orderly fashion — workers
                // see the disconnect and drain instead of hanging on a
                // channel whose sender died mid-unwind.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(s) = stream {
                            // A send can only fail after shutdown (workers
                            // gone) — drop the connection then.
                            if tx.send(s).is_err() {
                                break;
                            }
                        }
                    }
                }));
                // Dropping `tx` disconnects the channel: workers drain
                // what was already accepted, then exit.
            })?
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        workers,
    })
}

fn worker_loop(
    rx: &ProfMutex<Receiver<TcpStream>>,
    cfg: &HttpConfig,
    handler: &Handler,
    shutdown: &AtomicBool,
    observer: &ProtocolErrorObserver,
) {
    // All workers share the "http-worker" slot: the pool-wide busy
    // ratio is what answers "are four workers enough".
    let pool = PoolStats::register("http-worker");
    loop {
        // Hold the lock only for the dequeue, never while serving. The
        // whole dequeue (queue-lock wait + blocking recv) is idle time.
        let idle = Stopwatch::start();
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling panicked *inside recv* — bail
        };
        pool.record_idle(idle.elapsed_micros());
        let Ok(stream) = stream else { return };
        // A connection must never take its worker down with it.
        let busy = Stopwatch::start();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(stream, cfg, handler, shutdown, observer);
        }));
        pool.record_busy(busy.elapsed_micros());
    }
}

/// Why reading a request failed, mapped to the status we answer with.
enum ReadError {
    /// Clean EOF between requests — close quietly.
    Eof,
    /// Timeout / connection error — close quietly.
    Io,
    /// Protocol violation: answer `status` and close.
    Bad(u16, &'static str),
}

fn handle_connection(
    stream: TcpStream,
    cfg: &HttpConfig,
    handler: &Handler,
    shutdown: &AtomicBool,
    observer: &ProtocolErrorObserver,
) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = writer;
    let mut reader = BufReader::new(stream);
    let mut served_any = false;
    loop {
        // Drain semantics: a connection already accepted (queued or
        // keep-alive) still gets its *first* request served after the
        // shutdown flag flips — only follow-up keep-alive requests are
        // refused. Matches the handle's "in-flight work finishes"
        // contract.
        if served_any && shutdown.load(Ordering::SeqCst) {
            break;
        }
        let req = match read_request(&mut reader, cfg) {
            Ok(r) => r,
            Err(ReadError::Eof | ReadError::Io) => break,
            Err(ReadError::Bad(status, msg)) => {
                observer(status);
                let _ = write_response(&mut writer, &Response::text(status, msg), true);
                break;
            }
        };
        served_any = true;
        // Persistence: HTTP/1.1 keeps alive unless told otherwise;
        // HTTP/1.0 closes unless the client opted in.
        let client_close = match req.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => req.version == "HTTP/1.0",
        };
        let (resp, panicked) = match catch_unwind(AssertUnwindSafe(|| handler(&req))) {
            Ok(r) => (r, false),
            Err(_) => {
                // The handler died before it could book its response.
                observer(500);
                (
                    Response::text(500, "internal error: request handler panicked"),
                    true,
                )
            }
        };
        // Close after a panic (don't reuse a connection whose handler
        // died mid-request) and while draining.
        let close = client_close || panicked || shutdown.load(Ordering::SeqCst);
        if write_response(&mut writer, &resp, close).is_err() || close {
            break;
        }
    }
}

fn read_request(reader: &mut BufReader<TcpStream>, cfg: &HttpConfig) -> Result<Request, ReadError> {
    // Overall deadline for this one request: per-read timeouts restart
    // on every byte, so a trickler is bounded here instead.
    let deadline = Instant::now() + cfg.request_timeout;
    // `parse` starts at the first byte, not at the wait for it.
    let received = loop {
        match reader.fill_buf() {
            Ok([]) => return Err(ReadError::Eof),
            Ok(_) => break Stopwatch::start(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ReadError::Io),
        }
    };
    let mut head_budget = cfg.max_head_bytes;
    let line = read_crlf_line(reader, &mut head_budget, true, deadline)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Bad(400, "malformed request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(400, "malformed request line"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_crlf_line(reader, &mut head_budget, false, deadline)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(400, "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let req = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
        received,
        parse_micros: 0,
    };
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::Bad(501, "chunked request bodies not supported"));
    }
    let content_length = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Bad(400, "unparseable content-length"))?,
    };
    if content_length > cfg.max_body_bytes {
        return Err(ReadError::Bad(413, "request body exceeds size limit"));
    }
    let mut req = req;
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        let mut filled = 0;
        while filled < content_length {
            if Instant::now() > deadline {
                return Err(ReadError::Bad(408, "request body read timed out"));
            }
            let window = body.get_mut(filled..).ok_or(ReadError::Io)?;
            match reader.read(window) {
                Ok(0) => return Err(ReadError::Io),
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadError::Io),
            }
        }
        req.body = body;
    }
    req.parse_micros = received.elapsed_micros();
    Ok(req)
}

/// Read one CRLF (or bare-LF) terminated line, charging `budget`
/// (breaching it is a 431) and honoring `deadline` (breaching it is a
/// 408) between reads. `first` distinguishes a clean EOF between
/// keep-alive requests from a truncated request.
fn read_crlf_line(
    reader: &mut BufReader<TcpStream>,
    budget: &mut usize,
    first: bool,
    deadline: Instant,
) -> Result<String, ReadError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(ReadError::Io),
        };
        if chunk.is_empty() {
            // EOF: clean between requests, truncation mid-request.
            return Err(if first && buf.is_empty() {
                ReadError::Eof
            } else {
                ReadError::Io
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if buf.len() + i + 1 > *budget {
                    return Err(ReadError::Bad(431, "request head exceeds size limit"));
                }
                buf.extend_from_slice(chunk.get(..i).ok_or(ReadError::Io)?);
                reader.consume(i + 1);
                *budget -= buf.len() + 1;
                break;
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > *budget {
                    return Err(ReadError::Bad(431, "request head exceeds size limit"));
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
        if Instant::now() > deadline {
            return Err(ReadError::Bad(408, "request head read timed out"));
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ReadError::Bad(400, "non-utf8 request head"))
}

fn write_response(w: &mut TcpStream, resp: &Response, close: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        Response::reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
    w.write_all(&resp.body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server(cfg: HttpConfig) -> ServerHandle {
        let handler: Handler = Arc::new(|req: &Request| match req.path_only() {
            "/boom" => panic!("poisoned request"),
            "/slow" => {
                std::thread::sleep(Duration::from_millis(150));
                Response::text(200, "slow done")
            }
            _ => Response::text(
                200,
                format!(
                    "{} {} {}",
                    req.method,
                    req.path,
                    String::from_utf8_lossy(&req.body)
                ),
            ),
        });
        serve("127.0.0.1:0", cfg, handler, Arc::new(|_| {})).expect("bind")
    }

    /// One raw round-trip on a fresh connection; returns (status, body).
    fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).expect("send");
        let mut buf = String::new();
        s.read_to_string(&mut buf).expect("read");
        parse_response(&buf)
    }

    fn parse_response(raw: &str) -> (u16, String) {
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    fn get(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
    }

    #[test]
    fn serves_and_echoes() {
        let server = echo_server(HttpConfig::default());
        let (status, body) = roundtrip(server.addr(), &get("/hello?q=1"));
        assert_eq!(status, 200);
        assert_eq!(body, "GET /hello?q=1 ");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let server = echo_server(HttpConfig::default());
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for i in 0..3 {
            let body = format!("ping{i}");
            let req = format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
            s.write_all(req.as_bytes()).unwrap();
            let resp = read_one_response(&mut s);
            let (status, got) = parse_response(&resp);
            assert_eq!(status, 200);
            assert_eq!(got, format!("POST /echo ping{i}"));
        }
        server.shutdown();
    }

    /// Read exactly one keep-alive response (headers + Content-Length body).
    fn read_one_response(s: &mut TcpStream) -> String {
        let mut bytes = Vec::new();
        let mut one = [0u8; 1];
        // Head until CRLFCRLF.
        while !bytes.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut one).expect("head byte");
            bytes.push(one[0]);
        }
        let head = String::from_utf8_lossy(&bytes).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                    .map(String::from)
            })
            .and_then(|v| v.parse().ok())
            .expect("content-length");
        let mut body = vec![0u8; len];
        s.read_exact(&mut body).expect("body");
        head + &String::from_utf8_lossy(&body)
    }

    #[test]
    fn poisoned_request_gets_500_and_server_survives() {
        let server = echo_server(HttpConfig {
            workers: 2,
            ..HttpConfig::default()
        });
        // The poisoned request: the handler panics.
        let (status, body) = roundtrip(server.addr(), &get("/boom"));
        assert_eq!(status, 500);
        assert!(body.contains("panicked"));
        // Repeatedly, to hit (and prove alive) both workers.
        for _ in 0..4 {
            let (status, _) = roundtrip(server.addr(), &get("/boom"));
            assert_eq!(status, 500);
        }
        // The listener and workers are still serving.
        let (status, body) = roundtrip(server.addr(), &get("/ok"));
        assert_eq!(status, 200);
        assert!(body.starts_with("GET /ok"));
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = echo_server(HttpConfig::default());
        let (status, _) = roundtrip(server.addr(), "THIS IS NOT HTTP AT ALL\r\n\r\n");
        assert_eq!(status, 400);
        // And the server is still up afterwards.
        let (status, _) = roundtrip(server.addr(), &get("/after"));
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_413_and_oversized_head_is_431() {
        let server = echo_server(HttpConfig {
            max_body_bytes: 64,
            max_head_bytes: 256,
            ..HttpConfig::default()
        });
        let req = format!(
            "POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: 65\r\nConnection: close\r\n\r\n{}",
            "x".repeat(65)
        );
        let (status, _) = roundtrip(server.addr(), &req);
        assert_eq!(status, 413);

        let huge_header = format!(
            "GET /h HTTP/1.1\r\nX-Big: {}\r\nConnection: close\r\n\r\n",
            "y".repeat(1024)
        );
        let (status, _) = roundtrip(server.addr(), &huge_header);
        assert_eq!(status, 431);
        server.shutdown();
    }

    #[test]
    fn http10_closes_by_default_and_keeps_alive_on_request() {
        let server = echo_server(HttpConfig::default());
        // No Connection header, HTTP/1.0: the server must close.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /old HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read to EOF");
        assert!(raw.starts_with("HTTP/1.1 200"));
        assert!(raw.to_ascii_lowercase().contains("connection: close"));
        // Explicit keep-alive opt-in: two requests on one connection.
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for _ in 0..2 {
            s.write_all(b"GET /old HTTP/1.0\r\nHost: x\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            let resp = read_one_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200"));
            assert!(resp.to_ascii_lowercase().contains("connection: keep-alive"));
        }
        server.shutdown();
    }

    #[test]
    fn trickling_client_gets_408_not_a_pinned_worker() {
        let server = echo_server(HttpConfig {
            read_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(120),
            ..HttpConfig::default()
        });
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut reader = s.try_clone().unwrap();
        reader
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Drip the request head one byte at a time from a side thread:
        // each byte renews the per-read timeout, but the overall request
        // deadline must still fire. The main thread is already blocked
        // reading, so it receives the 408 the moment it is written.
        let writer = std::thread::spawn(move || {
            let spoon = b"GET /slowloris HTTP/1.1\r\nHost: x\r\n";
            let start = Instant::now();
            for b in spoon.iter().cycle() {
                if s.write_all(&[*b]).is_err() || start.elapsed() > Duration::from_secs(2) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let mut raw = String::new();
        let _ = reader.read_to_string(&mut raw);
        writer.join().expect("writer thread");
        assert!(
            raw.contains("408"),
            "trickler was not cut off with 408: {raw:?}"
        );
        // The worker is free again: a normal request succeeds promptly.
        let (status, _) = roundtrip(server.addr(), &get("/after-trickle"));
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn chunked_bodies_are_rejected_not_mangled() {
        let server = echo_server(HttpConfig::default());
        let req = "POST /c HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        let (status, _) = roundtrip(server.addr(), req);
        assert_eq!(status, 501);
        server.shutdown();
    }

    #[test]
    fn protocol_errors_reach_the_observer() {
        use std::sync::atomic::AtomicUsize;
        let seen = Arc::new(AtomicUsize::new(0));
        let last = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let observer: ProtocolErrorObserver = {
            let (seen, last) = (Arc::clone(&seen), Arc::clone(&last));
            Arc::new(move |status| {
                seen.fetch_add(1, Ordering::SeqCst);
                last.store(u64::from(status), Ordering::SeqCst);
            })
        };
        let handler: Handler = Arc::new(|req: &Request| match req.path.as_str() {
            "/boom" => panic!("poisoned request"),
            _ => Response::text(200, "ok"),
        });
        let server = serve("127.0.0.1:0", HttpConfig::default(), handler, observer).expect("bind");
        let (status, _) = roundtrip(server.addr(), "GARBAGE\r\n\r\n");
        assert_eq!(status, 400);
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        assert_eq!(last.load(Ordering::SeqCst), 400);
        // Handled requests do NOT go through the observer…
        let (status, _) = roundtrip(server.addr(), &get("/fine"));
        assert_eq!(status, 200);
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        // …but a handler that panicked never booked its 500.
        let (status, _) = roundtrip(server.addr(), &get("/boom"));
        assert_eq!(status, 500);
        assert_eq!(seen.load(Ordering::SeqCst), 2);
        assert_eq!(last.load(Ordering::SeqCst), 500);
        server.shutdown();
    }

    #[test]
    fn shutdown_serves_queued_connections_before_draining() {
        // One worker: while it serves /slow, a second accepted
        // connection waits in the queue. Shutdown must still serve that
        // queued connection's first request, not drop it with EOF.
        let server = echo_server(HttpConfig {
            workers: 1,
            ..HttpConfig::default()
        });
        let addr = server.addr();
        let slow = std::thread::spawn(move || roundtrip(addr, &get("/slow")));
        std::thread::sleep(Duration::from_millis(40)); // /slow is in-flight
        let queued = std::thread::spawn(move || roundtrip(addr, &get("/queued")));
        std::thread::sleep(Duration::from_millis(40)); // B is accepted + queued
        server.shutdown();
        let (status, body) = slow.join().expect("slow client");
        assert_eq!((status, body.as_str()), (200, "slow done"));
        let (status, body) = queued.join().expect("queued client");
        assert_eq!(status, 200, "queued connection was dropped: {body:?}");
        assert!(body.starts_with("GET /queued"));
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let server = echo_server(HttpConfig {
            workers: 2,
            ..HttpConfig::default()
        });
        let addr = server.addr();
        let client = std::thread::spawn(move || roundtrip(addr, &get("/slow")));
        // Let the slow request get picked up, then start the drain.
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        // The in-flight request completed with a real response.
        let (status, body) = client.join().expect("client thread");
        assert_eq!(status, 200);
        assert_eq!(body, "slow done");
        // New connections are refused (or reset) after shutdown.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || roundtrip_would_fail(addr)
        );
    }

    fn roundtrip_would_fail(addr: SocketAddr) -> bool {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return true;
        };
        let _ = s.set_read_timeout(Some(Duration::from_millis(300)));
        let _ = s.write_all(get("/x").as_bytes());
        let mut buf = String::new();
        s.read_to_string(&mut buf).map(|n| n == 0).unwrap_or(true)
    }
}
