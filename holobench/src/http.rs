//! A minimal HTTP/1.1 keep-alive client and readers for the server's
//! `/metrics` and `/v1/prof` counters.

use holodetect_repro::serve::{json, Json};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads the whole response: (status, body).
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: holobench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not utf-8"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end..head_end + len].to_vec())
            .map_err(|_| bad("response body is not utf-8"))?;
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One request on a fresh connection; any status other than 200 is an error.
pub fn get_ok(addr: SocketAddr, path: &str) -> Result<String, String> {
    let (status, body) = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", path, ""))
        .map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}: {body}"));
    }
    Ok(body)
}

/// The `"scores"` array of a score response, or why it is malformed.
pub fn parse_scores(body: &str) -> Result<Vec<f64>, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    doc.get("scores")
        .and_then(Json::as_arr)
        .ok_or("no scores array")?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| "a score is not a number".to_string())
        })
        .collect()
}

/// `(sum, count)` of a Prometheus histogram series, e.g.
/// `holo_trace_stage_micros` with labels `{stage="batch-wait"}`.
pub fn histogram_sum_count(page: &str, family: &str, labels: &str) -> Option<(f64, f64)> {
    let value = |suffix: &str| {
        let key = format!("{family}{suffix}{labels} ");
        page.lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse::<f64>().ok())
    };
    Some((value("_sum")?, value("_count")?))
}

/// Cumulative `wait_micros` of the lock named `lock` in a `/v1/prof` page.
pub fn lock_wait_micros(prof: &str, lock: &str) -> Option<f64> {
    let doc = json::parse(prof).ok()?;
    doc.get("locks")?
        .as_arr()?
        .iter()
        .filter(|l| l.get("lock").and_then(Json::as_str) == Some(lock))
        .map(|l| l.get("wait_micros").and_then(Json::as_f64))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_series_are_read_by_labels() {
        let page = "# TYPE holo_trace_stage_micros histogram\n\
            holo_trace_stage_micros_count{stage=\"score\"} 9\n\
            holo_trace_stage_micros_sum{stage=\"batch-wait\"} 2000400\n\
            holo_trace_stage_micros_count{stage=\"batch-wait\"} 4\n\
            holo_serve_batch_requests_sum 12\n\
            holo_serve_batch_requests_count 8\n";
        assert_eq!(
            histogram_sum_count(page, "holo_trace_stage_micros", "{stage=\"batch-wait\"}"),
            Some((2000400.0, 4.0))
        );
        assert_eq!(
            histogram_sum_count(page, "holo_serve_batch_requests", ""),
            Some((12.0, 8.0))
        );
        assert_eq!(histogram_sum_count(page, "missing", ""), None);
    }

    #[test]
    fn lock_waits_sum_every_lock_of_that_name() {
        let prof = r#"{"locks":[{"lock":"state","wait_micros":5},{"lock":"log","wait_micros":7},{"lock":"state","wait_micros":2}]}"#;
        assert_eq!(lock_wait_micros(prof, "state"), Some(7.0));
        assert_eq!(lock_wait_micros(prof, "nope"), Some(0.0));
    }
}
