//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Deliberately small: request line + headers + optional
//! `Content-Length` body, percent-decoded query parameters, keep-alive.
//! No chunked transfer, no TLS, no multipart — the gateway's endpoints
//! need none of them, and any `Transfer-Encoding` header is rejected
//! outright (501) rather than ignored: a body the parser does not
//! consume would desync the next request on the keep-alive connection
//! (request smuggling, RFC 7230 §3.3.2). Hard caps on line length,
//! header count, and body size keep a hostile client from ballooning
//! memory, the same hardening posture as the wire codec's frame and
//! nesting caps.
//!
//! The core entry point is [`parse_request`], an *incremental* parser
//! over a byte buffer: it never blocks and never consumes a partial
//! request, which is what lets the reactor (`reactor.rs`) run it on
//! whatever bytes have arrived so far and simply wait for more on
//! [`ParseStep::Incomplete`]. [`read_request`] wraps it for blocking
//! `BufRead` callers (tests, mostly).

use std::io::{BufRead, Write};

/// Longest accepted request line or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, query string stripped (`/v1/query`).
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub params: Vec<(String, String)>,
    /// Header names lower-cased; values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// False for `HTTP/1.0` or an explicit `Connection: close`.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A header value (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before (or mid-) request.
    Closed,
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed or unsupported request; `msg` is safe to echo in the
    /// error body, `status` is the HTTP code to answer with (400 for
    /// malformed, 413 over-limit, 501 unsupported).
    Bad {
        /// HTTP status to answer with.
        status: u16,
        /// Safe-to-echo description.
        msg: &'static str,
    },
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Outcome of one [`parse_request`] call over a byte buffer.
#[derive(Debug)]
pub enum ParseStep {
    /// The buffer does not yet hold a complete request; read more bytes
    /// and call again. Nothing was consumed.
    Incomplete,
    /// One full request parsed; the first `consumed` bytes of the
    /// buffer belong to it (headers *and* body — a rejected route never
    /// leaves an unread body behind to desync the next request).
    Done {
        /// The parsed request.
        req: Box<HttpRequest>,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// Malformed or unsupported request. The connection cannot be
    /// resynchronized (the body boundary is unknown), so the caller
    /// must answer `status` and close.
    Reject {
        /// HTTP status to answer with.
        status: u16,
        /// Safe-to-echo description.
        msg: &'static str,
    },
}

fn reject(status: u16, msg: &'static str) -> ParseStep {
    ParseStep::Reject { status, msg }
}

/// Incrementally parses one request off the front of `buf`.
///
/// Returns [`ParseStep::Incomplete`] until the buffer holds the full
/// head *and* `Content-Length` body; the caller keeps appending bytes
/// and re-calling. On [`ParseStep::Done`] the caller drains `consumed`
/// bytes — anything after them is pipelined input for the next call.
///
/// Smuggling defenses (RFC 7230 §3.3.2 / §3.3.3):
/// * duplicate `Content-Length` headers (or comma-separated values)
///   that disagree are rejected — the last value must not silently win,
///   or a front proxy and this parser can frame the body differently;
/// * any `Transfer-Encoding` header is rejected with 501 — this parser
///   does not implement chunked framing, and ignoring the header would
///   leave the chunked body in the buffer to be parsed as the *next*
///   request.
pub fn parse_request(buf: &[u8]) -> ParseStep {
    // Split the head into lines as bytes arrive. `pos` tracks the scan
    // cursor; the head ends at the first empty line.
    let mut pos = 0usize;
    let mut lines: Vec<&str> = Vec::new();
    let head_end = loop {
        let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // A trailing `\r` may be the first half of the line's CRLF:
            // it counts once the next byte shows it is not.
            let pending_cr = usize::from(buf.last() == Some(&b'\r'));
            if buf.len() - pos - pending_cr > MAX_LINE {
                return reject(400, "line too long");
            }
            return ParseStep::Incomplete;
        };
        let mut line = &buf[pos..pos + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE {
            return reject(400, "line too long");
        }
        if line.is_empty() {
            if lines.is_empty() {
                return reject(400, "empty request line");
            }
            break pos + nl + 1;
        }
        // +1: the request line rides in front of the header lines.
        if lines.len() > MAX_HEADERS {
            return reject(400, "too many headers");
        }
        let Ok(text) = std::str::from_utf8(line) else {
            return reject(400, "non-UTF-8 request");
        };
        lines.push(text);
        pos += nl + 1;
    };

    let mut parts = lines[0].split_ascii_whitespace();
    let Some(method) = parts.next() else {
        return reject(400, "empty request line");
    };
    let method = method.to_ascii_uppercase();
    let Some(target) = parts.next() else {
        return reject(400, "missing request path");
    };
    let Some(version) = parts.next() else {
        return reject(400, "missing HTTP version");
    };
    if !version.starts_with("HTTP/1.") {
        return reject(400, "unsupported HTTP version");
    }
    let mut keep_alive = version != "HTTP/1.0";

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode_path(raw_path);
    let params = raw_query.map(parse_query).unwrap_or_default();

    let mut headers = Vec::with_capacity(lines.len() - 1);
    let mut content_length: Option<usize> = None;
    for line in &lines[1..] {
        let Some((name, value)) = line.split_once(':') else {
            return reject(400, "bad header");
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        match name.as_str() {
            "content-length" => {
                // A header repeated across lines arrives here once per
                // line; a comma-joined repeat arrives as one value.
                // Either way every element must agree (identical
                // repeats are legal per RFC 7230 §3.3.2's proxy
                // allowance; *conflicting* ones are an attack).
                for piece in value.split(',') {
                    let Ok(n) = piece.trim().parse::<usize>() else {
                        return reject(400, "bad content-length");
                    };
                    match content_length {
                        Some(prev) if prev != n => {
                            return reject(400, "conflicting content-length");
                        }
                        _ => content_length = Some(n),
                    }
                }
            }
            "transfer-encoding" => {
                return reject(501, "transfer-encoding not supported");
            }
            "connection" => {
                // Comma-separated token list, case-insensitive whole
                // tokens only: `Connection: not-close-really` must not
                // match `close`.
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
            _ => {}
        }
        headers.push((name, value));
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return reject(413, "body too large");
    }
    if buf.len() < head_end + content_length {
        return ParseStep::Incomplete;
    }
    let body = buf[head_end..head_end + content_length].to_vec();

    ParseStep::Done {
        req: Box::new(HttpRequest {
            method,
            path,
            params,
            headers,
            body,
            keep_alive,
        }),
        consumed: head_end + content_length,
    }
}

/// Parses one request off a blocking reader — [`parse_request`] fed one
/// byte at a time (the reader is buffered, so this is cheap). Used by
/// tests and simple clients; the reactor calls [`parse_request`]
/// directly. [`HttpError::Closed`] on a clean EOF between requests.
pub fn read_request(reader: &mut impl BufRead) -> Result<HttpRequest, HttpError> {
    let mut buf = Vec::new();
    loop {
        match parse_request(&buf) {
            ParseStep::Done { req, .. } => return Ok(*req),
            ParseStep::Reject { status, msg } => return Err(HttpError::Bad { status, msg }),
            ParseStep::Incomplete => {}
        }
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(_) => buf.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// One response, rendered by [`HttpResponse::write_to`].
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code (`200`, `404`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Optional `Allow` header (405 and OPTIONS responses carry one).
    pub allow: Option<&'static str>,
    /// Optional `X-Moara-Cache` header (`hit` / `miss` / `coalesced` on
    /// query responses when the result cache is enabled).
    pub cache: Option<&'static str>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            allow: None,
            cache: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, content_type: &'static str, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type,
            body: body.into().into_bytes(),
            allow: None,
            cache: None,
        }
    }

    /// Attaches an `Allow` header (builder-style).
    pub fn with_allow(mut self, allow: &'static str) -> HttpResponse {
        self.allow = Some(allow);
        self
    }

    /// Attaches an `X-Moara-Cache` header (builder-style).
    pub fn with_cache(mut self, cache: &'static str) -> HttpResponse {
        self.cache = Some(cache);
        self
    }

    /// The standard JSON error envelope.
    pub fn error(status: u16, msg: &str) -> HttpResponse {
        HttpResponse::json(
            status,
            format!("{{\"error\":{}}}\n", crate::json::escape(msg)),
        )
    }

    /// The canonical reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Writes status line, headers, and body.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        self.write_inner(out, keep_alive, true)
    }

    /// Writes status line and headers only — the `HEAD` rendering:
    /// identical headers (`Content-Length` included) without the body.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_head_to(&self, out: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        self.write_inner(out, keep_alive, false)
    }

    fn write_inner(
        &self,
        out: &mut impl Write,
        keep_alive: bool,
        include_body: bool,
    ) -> std::io::Result<()> {
        let conn = if keep_alive { "keep-alive" } else { "close" };
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        )?;
        if let Some(allow) = self.allow {
            write!(out, "Allow: {allow}\r\n")?;
        }
        if let Some(cache) = self.cache {
            write!(out, "X-Moara-Cache: {cache}\r\n")?;
        }
        write!(out, "Connection: {conn}\r\n\r\n")?;
        if include_body {
            out.write_all(&self.body)?;
        }
        out.flush()
    }
}

/// Decodes `%XX` escapes and `+`-as-space — the `x-www-form-urlencoded`
/// rules, correct for query strings and form bodies only. For request
/// paths use [`percent_decode_path`].
pub fn percent_decode(s: &str) -> String {
    decode_inner(s, true)
}

/// Decodes `%XX` escapes, leaving `+` alone: RFC 3986 gives `+` no
/// special meaning in path segments, so `/v1/attrs/a+b` names `a+b`,
/// not `a b` (encode a literal space as `%20`).
pub fn percent_decode_path(s: &str) -> String {
    decode_inner(s, false)
}

fn decode_inner(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits `a=1&b=two` into decoded pairs (also used for form bodies).
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query_params() {
        let req = parse(
            "GET /v1/query?q=SELECT%20count(*)%20WHERE%20A+%3D%201&x=y HTTP/1.1\r\n\
             Host: localhost\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.param("q"), Some("SELECT count(*) WHERE A = 1"));
        assert_eq!(req.param("x"), Some("y"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req =
            parse("POST /v1/attrs HTTP/1.1\r\nContent-Length: 7\r\n\r\nA=1&B=2extra-not-read")
                .unwrap();
        assert_eq!(req.body, b"A=1&B=2");
    }

    #[test]
    fn http10_and_connection_close_disable_keep_alive() {
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn connection_header_matches_whole_tokens_not_substrings() {
        // `not-close-really` contains the substring `close` but is not
        // the `close` token: keep-alive must survive.
        let req = parse("GET / HTTP/1.1\r\nConnection: not-close-really\r\n\r\n").unwrap();
        assert!(req.keep_alive, "substring must not match");
        // Tokens are matched case-insensitively within comma lists.
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: x-upgrade, CLOSE\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // HTTP/1.0 with an explicit keep-alive token opts back in.
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // `keepalive-ish` is not the keep-alive token.
        assert!(
            !parse("GET / HTTP/1.0\r\nConnection: keepalive-ish\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn conflicting_content_length_headers_are_rejected() {
        // Two headers that disagree: classic CL.CL smuggling vector.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        // Comma-joined values that disagree.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\nhello!"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        // Identical repeats are legal (some proxies fold headers).
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(req.body, b"hello");
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn transfer_encoding_is_rejected_with_501() {
        // Ignoring Transfer-Encoding would leave the chunked body in the
        // buffer to be parsed as the next request (smuggling); the
        // parser refuses up front instead.
        for te in ["chunked", "gzip, chunked", "identity"] {
            let raw = format!("POST / HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n");
            assert!(
                matches!(
                    parse(&raw),
                    Err(HttpError::Bad {
                        status: 501,
                        msg: "transfer-encoding not supported"
                    })
                ),
                "{te}"
            );
        }
    }

    #[test]
    fn incremental_parse_waits_for_full_head_and_body() {
        let raw = b"POST /v1/attrs HTTP/1.1\r\nContent-Length: 7\r\n\r\nA=1&B=2";
        // Every strict prefix is Incomplete; the full buffer is Done.
        for cut in 0..raw.len() {
            assert!(
                matches!(parse_request(&raw[..cut]), ParseStep::Incomplete),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        match parse_request(raw) {
            ParseStep::Done { req, consumed } => {
                assert_eq!(consumed, raw.len());
                assert_eq!(req.body, b"A=1&B=2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incremental_parse_leaves_pipelined_bytes() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, consumed) = match parse_request(raw) {
            ParseStep::Done { req, consumed } => (req, consumed),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(first.path, "/healthz");
        match parse_request(&raw[consumed..]) {
            ParseStep::Done { req, consumed } => {
                assert_eq!(req.path, "/metrics");
                assert_eq!(consumed, raw.len() - 25);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(
            parse("nonsense\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 1));
        assert!(matches!(
            parse(&huge),
            Err(HttpError::Bad { status: 400, .. })
        ));
        // An over-long line is rejected even before its newline arrives
        // (a slowloris must not buffer without bound).
        let unterminated = vec![b'x'; MAX_LINE + 2];
        assert!(matches!(
            parse_request(&unterminated),
            ParseStep::Reject { status: 400, .. }
        ));
        // A line of exactly `MAX_LINE` is accepted byte by byte too: its
        // CR does not count until the next byte shows it is not a CRLF.
        let pad = "x".repeat(MAX_LINE - "GET / HTTP/1.1".len());
        let longest = format!("GET /{pad} HTTP/1.1\r\n\r\n");
        assert!(parse(&longest).is_ok());
        let mut cr_then_more = vec![b'x'; MAX_LINE];
        cr_then_more.extend_from_slice(b"\r");
        assert!(matches!(
            parse_request(&cr_then_more),
            ParseStep::Incomplete
        ));
        cr_then_more.push(b'x');
        assert!(matches!(
            parse_request(&cr_then_more),
            ParseStep::Reject { status: 400, .. }
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"),
            Err(HttpError::Bad { status: 413, .. })
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Bad { status: 400, .. })
        ));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: 1\r\n".repeat(MAX_HEADERS + 1)
        );
        assert!(matches!(
            parse(&many),
            Err(HttpError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn percent_decoding_handles_edge_cases() {
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%E6%97%A5"), "日");
    }

    #[test]
    fn path_decoding_preserves_literal_plus() {
        // RFC 3986: `+` means itself in a path segment; only query
        // strings and form bodies use `+`-as-space.
        assert_eq!(percent_decode_path("/v1/attrs/a+b"), "/v1/attrs/a+b");
        assert_eq!(percent_decode_path("/v1/attrs/a%2Bb"), "/v1/attrs/a+b");
        assert_eq!(percent_decode_path("/v1/attrs/a%20b"), "/v1/attrs/a b");
        let req = parse("GET /v1/trace/a+b?q=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/v1/trace/a+b", "path `+` survives");
        assert_eq!(req.param("q"), Some("a b"), "query `+` is a space");
    }

    #[test]
    fn response_renders_with_length_and_connection() {
        let mut out = Vec::new();
        HttpResponse::json(200, "{\"ok\":true}")
            .write_to(&mut out, true)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn cache_header_renders_when_set() {
        let mut out = Vec::new();
        HttpResponse::json(200, "{}")
            .with_cache("hit")
            .write_to(&mut out, true)
            .unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("X-Moara-Cache: hit\r\n"));
        let mut out = Vec::new();
        HttpResponse::json(200, "{}")
            .write_to(&mut out, true)
            .unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("X-Moara-Cache"));
    }
}
