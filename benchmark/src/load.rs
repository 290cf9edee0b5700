//! The load generator: keep-alive HTTP/1.1 clients with no per-request
//! allocation, a closed loop (send the next request when the previous
//! answer arrived) and a paced open loop (send on a fixed schedule, time
//! from when each request was *due*).
//!
//! The generator measures itself: every loop reports the CPU time its own
//! thread consumed, so a workload answered in tens of microseconds is
//! known to measure `moarad` and not this file.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::sys::thread_cpu_ns;

/// The `X-Moara-Cache` response header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTag {
    Absent,
    Hit,
    Miss,
    Coalesced,
}

/// One parsed response, borrowing the client's read buffer.
pub struct Response<'a> {
    pub status: u16,
    pub cache: CacheTag,
    pub body: &'a [u8],
}

/// A keep-alive HTTP/1.1 connection with a reused read buffer.
pub struct HttpClient {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

fn header_value<'a>(line: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    (line.len() > name.len()
        && line[..name.len()].eq_ignore_ascii_case(name)
        && line[name.len()] == b':')
        .then(|| line[name.len() + 1..].trim_ascii())
}

impl HttpClient {
    /// # Errors
    ///
    /// Connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        Ok(HttpClient {
            addr,
            stream: open(addr)?,
            // Big enough for every query answer; only a `/metrics` scrape
            // (outside any timed loop) grows it.
            buf: vec![0; 16 * 1024],
        })
    }

    /// Replaces a connection a failed round trip left in an unknown state.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open(self.addr)?;
        Ok(())
    }

    /// Sends `request` and reads one full response.
    ///
    /// # Errors
    ///
    /// Socket errors, timeouts, a close mid-response, or a response this
    /// parser cannot frame (no `Content-Length`).
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response<'_>> {
        self.stream.write_all(request)?;
        let mut filled = 0usize;
        let mut scanned = 0usize;
        let head_end = loop {
            if let Some(i) = find(&self.buf[scanned..filled], b"\r\n\r\n") {
                break scanned + i + 4;
            }
            scanned = filled.saturating_sub(3);
            filled += self.fill(filled)?;
        };
        let head = &self.buf[..head_end];
        if !head.starts_with(b"HTTP/1.1 ") || head.len() < 12 {
            return Err(bad("not an HTTP/1.1 response"));
        }
        let status = std::str::from_utf8(&head[9..12])
            .ok()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status code"))?;
        let mut content_length = None;
        let mut cache = CacheTag::Absent;
        for line in head.split(|&b| b == b'\n').skip(1) {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if let Some(v) = header_value(line, b"content-length") {
                content_length = std::str::from_utf8(v).ok().and_then(|s| s.parse().ok());
            } else if let Some(v) = header_value(line, b"x-moara-cache") {
                cache = match v {
                    b"hit" => CacheTag::Hit,
                    b"miss" => CacheTag::Miss,
                    b"coalesced" => CacheTag::Coalesced,
                    _ => CacheTag::Absent,
                };
            }
        }
        let body_len: usize = content_length.ok_or_else(|| bad("no Content-Length"))?;
        while filled < head_end + body_len {
            filled += self.fill(filled)?;
        }
        Ok(Response {
            status,
            cache,
            body: &self.buf[head_end..head_end + body_len],
        })
    }

    fn fill(&mut self, filled: usize) -> io::Result<usize> {
        if filled == self.buf.len() {
            self.buf.resize(filled * 2, 0);
        }
        match self.stream.read(&mut self.buf[filled..])? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => Ok(n),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Percent-encodes a query text into a ready-to-send `GET /v1/query`.
pub fn query_request(text: &str) -> Vec<u8> {
    let mut out = b"GET /v1/query?q=".to_vec();
    for b in text.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.*()".contains(&b) {
            out.push(b);
        } else {
            out.extend_from_slice(format!("%{b:02X}").as_bytes());
        }
    }
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
    out
}

/// A ready-to-send `POST /v1/attrs` setting one attribute.
pub fn attr_request(attr: &str, value: u64) -> Vec<u8> {
    let body = format!("{attr}={value}");
    format!(
        "POST /v1/attrs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A body-less request line for probes (`GET /healthz`, `OPTIONS ...`).
pub fn plain_request(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// When a loop warms up, measures, and stops. Shared by every client of
/// a run so their windows coincide.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub measure_from: Instant,
    pub end: Instant,
}

impl Window {
    pub fn starting_in(warmup: Duration, measure: Duration) -> Window {
        let measure_from = Instant::now() + warmup;
        Window {
            measure_from,
            end: measure_from + measure,
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.measure_from).as_secs_f64()
    }
}

/// What one client loop saw.
#[derive(Debug, Default)]
pub struct LoopReport {
    /// `(start, duration)` in ns since `Window::measure_from`, one per
    /// correct answer that started inside the window.
    pub samples: Vec<(u64, u64)>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Transport errors, non-200s and answers the checker refused,
    /// warm-up included.
    pub failed: u64,
    pub hits: u64,
    pub coalesced: u64,
    /// CPU this thread spent inside the window, ns.
    pub thread_cpu_ns: u64,
    /// Requests sent inside the window (the divisor for `thread_cpu_ns`).
    pub window_attempted: u64,
    /// The first failure, kept for the report.
    pub first_failure: Option<String>,
}

impl LoopReport {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// Closed loop: cycles through `requests` starting at `offset`, one in
/// flight at a time, until `window.end`. `check(index, response)` judges
/// every 200 answer; it runs inside the timed span, so keep it free of
/// allocation.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    offset: usize,
    window: Window,
    mut check: impl FnMut(usize, &Response<'_>, Instant) -> bool,
) -> LoopReport {
    let mut report = LoopReport {
        // Sized for 300 k answers/s, more than twice what hot-read reaches
        // on the reference machine, so the buffer does not grow mid-run
        // (`qps` counts these samples, so none is ever dropped).
        samples: Vec::with_capacity((window.seconds() * 300_000.0) as usize + 1024),
        ..LoopReport::default()
    };
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            report.attempted = 1;
            report.fail(|| format!("connect {addr}: {e}"));
            return report;
        }
    };
    let mut i = offset;
    let mut cpu_from = None;
    loop {
        let t0 = Instant::now();
        if t0 >= window.end {
            break;
        }
        let measured = t0 >= window.measure_from;
        if measured && cpu_from.is_none() {
            cpu_from = Some(thread_cpu_ns());
        }
        let idx = i % requests.len();
        i += 1;
        report.attempted += 1;
        report.window_attempted += u64::from(measured);
        match client.roundtrip(&requests[idx]) {
            Ok(resp) => {
                let t1 = Instant::now();
                if resp.status == 200 && check(idx, &resp, t1) {
                    match resp.cache {
                        CacheTag::Hit => report.hits += u64::from(measured),
                        CacheTag::Coalesced => report.coalesced += u64::from(measured),
                        _ => {}
                    }
                    if measured {
                        report.samples.push((
                            (t0 - window.measure_from).as_nanos() as u64,
                            (t1 - t0).as_nanos() as u64,
                        ));
                    }
                } else {
                    let (status, body) = (resp.status, resp.body.to_vec());
                    report.fail(|| {
                        format!(
                            "request {idx}: status {status}, body {:?}",
                            String::from_utf8_lossy(&body)
                        )
                    });
                }
            }
            Err(e) => {
                report.fail(|| format!("request {idx}: {e}"));
                if client.reconnect().is_err() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
    if let Some(c0) = cpu_from {
        report.thread_cpu_ns = thread_cpu_ns() - c0;
    }
    report
}

/// What the paced writer saw.
#[derive(Debug, Default)]
pub struct PacedReport {
    /// When each request was due, ns since `start`.
    pub due_ns: Vec<u64>,
    /// How long after its due time each request was actually sent, ns.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// Open loop: sends `requests[k]` at `start + k × period` whether or not
/// the system keeps up (a slow answer delays later sends, and that delay
/// is reported as lateness, not hidden). `before_send(k)` runs just
/// before request `k` leaves; `ok(response)` judges the answer.
pub fn paced_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    start: Instant,
    period: Duration,
    mut before_send: impl FnMut(usize),
    ok: impl Fn(&Response<'_>) -> bool,
) -> PacedReport {
    let mut report = PacedReport {
        due_ns: Vec::with_capacity(requests.len()),
        late_ns: Vec::with_capacity(requests.len()),
        ..PacedReport::default()
    };
    let fail = |report: &mut PacedReport, what: String| {
        report.failed += 1;
        report.first_failure.get_or_insert(what);
    };
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            report.attempted = requests.len() as u64;
            report.failed = report.attempted;
            report.first_failure = Some(format!("connect {addr}: {e}"));
            return report;
        }
    };
    for (k, request) in requests.iter().enumerate() {
        let due = start + period * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        before_send(k);
        let sent = Instant::now();
        report.due_ns.push((due - start).as_nanos() as u64);
        report
            .late_ns
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        report.attempted += 1;
        match client.roundtrip(request) {
            Ok(resp) if resp.status == 200 && ok(&resp) => {}
            Ok(resp) => {
                let what = format!(
                    "write {k}: status {}, body {:?}",
                    resp.status,
                    String::from_utf8_lossy(resp.body)
                );
                fail(&mut report, what);
            }
            Err(e) => {
                fail(&mut report, format!("write {k}: {e}"));
                let _ = client.reconnect();
            }
        }
    }
    report
}

/// Round-trip times of `n` back-to-back probes of one request, sorted, ns.
///
/// # Errors
///
/// The first transport error or non-200 answer.
pub fn probe_rtts(addr: SocketAddr, request: &[u8], n: usize) -> io::Result<Vec<u64>> {
    let mut client = HttpClient::connect(addr)?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = client.roundtrip(request)?;
        if resp.status != 200 {
            return Err(bad("probe answered non-200"));
        }
        rtts.push(t0.elapsed().as_nanos() as u64);
    }
    rtts.sort_unstable();
    Ok(rtts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server that answers each request with the next
    /// canned response.
    fn canned(responses: Vec<&'static [u8]>) -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut buf = [0u8; 4096];
            for r in responses {
                let mut got = Vec::new();
                while find(&got, b"\r\n\r\n").is_none() {
                    let n = s.read(&mut buf).unwrap();
                    if n == 0 {
                        return;
                    }
                    got.extend_from_slice(&buf[..n]);
                }
                // Dribble the response to exercise partial reads.
                let (a, b) = r.split_at(r.len() / 2);
                s.write_all(a).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
                s.write_all(b).unwrap();
            }
        });
        addr
    }

    #[test]
    fn client_frames_responses_and_reads_the_cache_header() {
        let addr = canned(vec![
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nX-Moara-Cache: hit\r\nConnection: keep-alive\r\n\r\nhello",
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n",
        ]);
        let mut c = HttpClient::connect(addr).unwrap();
        let r = c.roundtrip(&plain_request("GET", "/x")).unwrap();
        assert_eq!(
            (r.status, r.cache, r.body),
            (200, CacheTag::Hit, &b"hello"[..])
        );
        let r = c.roundtrip(&plain_request("GET", "/y")).unwrap();
        assert_eq!(
            (r.status, r.cache, r.body.len()),
            (404, CacheTag::Absent, 0)
        );
        // The server is gone now: the next round trip is a transport error.
        assert!(c.roundtrip(&plain_request("GET", "/z")).is_err());
    }

    #[test]
    fn requests_are_percent_encoded() {
        let r = query_request("SELECT count(*) WHERE A = true AND B < 5");
        let s = String::from_utf8(r).unwrap();
        assert!(s.starts_with(
            "GET /v1/query?q=SELECT%20count(*)%20WHERE%20A%20%3D%20true%20AND%20B%20%3C%205 HTTP/1.1\r\n"
        ));
        let w = String::from_utf8(attr_request("Load", 1234)).unwrap();
        assert!(w.ends_with("Content-Length: 9\r\n\r\nLoad=1234"));
    }
}
