//! The resumable HTTP parser reads a stream the same however its bytes
//! arrive. Fed through [`parse_request`] in arbitrary chunks — each chunk
//! appended and the parser called again, `consumed` drained on every
//! `Done` — a stream parses to the requests, the error and the leftover
//! bytes that a one-shot [`read_request`] over the same bytes gives.
//!
//! Streams are one request or a pipelined pair, sometimes cut short:
//! bodies framed by `Content-Length`, lines either side of [`MAX_LINE`],
//! header counts either side of [`MAX_HEADERS`], and the smuggling cases
//! the parser rejects. Each case follows from one `u64` seed, which a
//! failure prints (`seed = …`); `replay(seed)` reruns it.

use moara_gateway::http::{
    parse_request, read_request, HttpError, ParseStep, MAX_BODY, MAX_HEADERS, MAX_LINE,
};
use proptest::prelude::*;

/// splitmix64: a whole case drawn from its seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// What a stream parsed to: each request (by its `Debug` form), how the
/// stream ended — `None` cut short, or the rejection's status — and the
/// bytes no request consumed. A rejection's message is not compared: a
/// head refused for an overlong line before it is whole may be refused
/// for its request line once it is.
#[derive(Debug, PartialEq)]
struct Parsed {
    requests: Vec<String>,
    rejected: Option<u16>,
    leftover: Vec<u8>,
}

/// `read_request` over the whole stream, request after request.
fn one_shot(stream: &[u8]) -> Parsed {
    let (mut reader, mut requests) = (stream, Vec::new());
    loop {
        let start = reader;
        let rejected = match read_request(&mut reader) {
            Ok(req) => {
                requests.push(format!("{req:?}"));
                continue;
            }
            Err(HttpError::Closed) => None,
            Err(HttpError::Bad { status, .. }) => Some(status),
            Err(HttpError::Io(e)) => panic!("a byte slice cannot fail: {e}"),
        };
        let leftover = start.to_vec();
        return Parsed {
            requests,
            rejected,
            leftover,
        };
    }
}

/// `parse_request` over a buffer the stream arrives in, `cuts` bytes at
/// a time (cycled).
fn chunked(stream: &[u8], cuts: &[usize]) -> Parsed {
    let (mut buf, mut requests, mut fed) = (Vec::new(), Vec::new(), 0);
    let mut cuts = cuts.iter().cycle();
    while fed < stream.len() {
        let n = (*cuts.next().expect("some cuts")).min(stream.len() - fed);
        buf.extend_from_slice(&stream[fed..fed + n]);
        fed += n;
        loop {
            match parse_request(&buf) {
                ParseStep::Done { req, consumed } => {
                    requests.push(format!("{req:?}"));
                    buf.drain(..consumed);
                }
                ParseStep::Reject { status, .. } => {
                    buf.extend_from_slice(&stream[fed..]);
                    return Parsed {
                        requests,
                        rejected: Some(status),
                        leftover: buf,
                    };
                }
                ParseStep::Incomplete => break,
            }
        }
    }
    Parsed {
        requests,
        rejected: None,
        leftover: buf,
    }
}

/// One request's bytes: mostly well-formed, sometimes one of the ways a
/// request is refused.
fn request(d: &mut Draw) -> Vec<u8> {
    let eol = d.pick(&["\r\n", "\n"]);
    let method = d.pick(&["GET", "POST", "HEAD", "get", "DELETE"]);
    let target = d.pick(&[
        "/v1/query?q=SELECT%20count(*)%20WHERE%20ServiceX%20%3D%20true",
        "/healthz",
        "/v1/attrs",
        "/v1/watch?q=a+b&lease_ms=10",
        "/a%2Fb%20c?x=%zz&&y=",
    ]);
    let version = d.pick(&["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0"]);
    let mut request_line = format!("{method} {target} {version}");
    let body_len = d.pick(&[0, 0, 1, 5, 40]);
    let body: Vec<u8> = (0..body_len).map(|_| d.pick(b"ab \r\n:GET/")).collect();
    let mut headers = vec![format!("Host: h{}", d.below(10))];
    if d.one_in(3) {
        let token = d.pick(&[
            "close",
            "keep-alive",
            "Keep-Alive, Upgrade",
            "not-close-really",
        ]);
        headers.push(format!("Connection: {token}"));
    }
    if body_len > 0 || d.one_in(4) {
        headers.push(format!("Content-Length: {body_len}"));
    }
    let mut non_utf8 = false;
    match d.below(24) {
        0 => headers.push(format!("content-length: {body_len}")),
        1 => headers.push(format!("Content-Length: {body_len}, {body_len}")),
        2 => headers.push(format!("Content-Length: {}", body_len + 1)),
        3 => headers.push(format!("Content-Length: {body_len}, {}", body_len + 1)),
        4 => headers.push("Transfer-Encoding: chunked".to_owned()),
        5 => headers.push(format!("Content-Length: {}", d.pick(&["12abc", "-1", ""]))),
        6 => headers.push(format!("Content-Length: {}", MAX_BODY + 1)),
        7 => {
            // One header either side of the cap (the request line rides
            // in front of them).
            let n = MAX_HEADERS + d.below(3) - headers.len() - 1;
            headers.extend((0..n).map(|i| format!("X-{i}: v")));
        }
        8 => {
            // A line MAX_LINE ± 1 long, before its end of line.
            let prefix = "X-Pad: ";
            let len = MAX_LINE + d.below(3) - 1;
            headers.push(format!("{prefix}{}", "p".repeat(len - prefix.len())));
        }
        9 => {
            let len = MAX_LINE + d.below(3) - 1;
            let pad = len - "GET / ".len() - version.len();
            request_line = format!("GET /{} {version}", "q".repeat(pad));
        }
        10 => non_utf8 = true,
        11 => headers.push("no colon here".to_owned()),
        12 => request_line = d.pick(&["", "GET", "GET /", "   "]).to_owned(),
        13 => request_line = format!("{eol}{request_line}"),
        _ => {}
    }
    let mut lines: Vec<Vec<u8>> = (std::iter::once(request_line).chain(headers))
        .map(String::into_bytes)
        .collect();
    if non_utf8 {
        let at = 1 + d.below(lines.len());
        lines.insert(at, b"X-Bytes: \xff\xfe".to_vec());
    }
    let mut out = Vec::new();
    for line in lines {
        out.extend(line);
        out.extend(eol.as_bytes());
    }
    out.extend(eol.as_bytes());
    out.extend(body);
    out
}

/// Runs the case `seed` draws: a stream, a chunking, and the comparison.
fn replay(seed: u64) {
    let mut d = Draw(seed);
    let mut stream = request(&mut d);
    if d.one_in(2) {
        stream.extend(request(&mut d));
    }
    if d.one_in(4) {
        stream.truncate(d.below(stream.len() + 1));
    }
    let sizes = [1, 2, 3, 7, 64, 1 + d.below(stream.len() + 1), stream.len()];
    let cuts: Vec<usize> = (0..1 + d.below(6)).map(|_| d.pick(&sizes).max(1)).collect();
    let want = one_shot(&stream);
    let got = chunked(&stream, &cuts);
    assert_eq!(
        got,
        want,
        "seed {seed}: cuts {cuts:?} over {:?}",
        String::from_utf8_lossy(&stream)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunked_parse_matches_one_shot(seed in any::<u64>()) {
        replay(seed);
    }
}
