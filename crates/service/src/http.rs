//! A hand-rolled HTTP/1.1 subset: exactly what `latencyd` needs and
//! nothing more.
//!
//! One incremental framing core reads both directions of the wire:
//! [`RequestParser`] feeds it the reactor's non-blocking reads, and
//! [`read_response`] runs it in a blocking read loop over a peer's
//! answer. Its rules therefore exist once, for requests and responses
//! alike: at most `MAX_LINE` bytes per head line and `MAX_HEADERS`
//! headers per head (`431`, both checked as lines stream in), bodies
//! framed by exactly one all-digit `Content-Length` (`400` otherwise)
//! and capped before any body byte is buffered (`413`), and no chunked
//! bodies (`411`). Anything else malformed is a `400`.
//!
//! Connections stay open after a response (the HTTP/1.1 default) unless
//! the client sends `Connection: close`; an HTTP/1.0 client must ask
//! with `Connection: keep-alive`. Responses are serialized by
//! [`Response::write_to`].

use std::io::{self, Read, Write};

/// Longest accepted head line (start line or header), in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per head.
const MAX_HEADERS: usize = 64;

/// A framing violation: the status to answer with and why.
type Violation = (u16, String);

fn bad(status: u16, message: impl Into<String>) -> Violation {
    (status, message.into())
}

/// Header lookup in a list whose names are stored lowercase; `name` may
/// be in any case and is compared in place, not lowercased into a copy.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component only (query string stripped).
    pub path: String,
    /// Whether the request line said `HTTP/1.0`, whose connections close
    /// after one response unless the client asks to keep them open.
    pub http10: bool,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the connection stays open after the response: by default
    /// for HTTP/1.1 unless the client sent `Connection: close`, and for
    /// HTTP/1.0 only if it sent `Connection: keep-alive` (RFC 9112 §9.3).
    /// `Connection` is a list of case-insensitive tokens, possibly over
    /// several lines (RFC 9110 §7.6.1); `close` anywhere wins.
    pub fn keep_alive(&self) -> bool {
        if self.connection_has("close") {
            return false;
        }
        !self.http10 || self.connection_has("keep-alive")
    }

    /// Whether any `Connection` line lists `token`, compared in place.
    fn connection_has(&self, token: &str) -> bool {
        self.headers
            .iter()
            .filter(|(k, _)| k.eq_ignore_ascii_case("connection"))
            .flat_map(|(_, v)| v.split(','))
            .any(|t| t.trim_matches([' ', '\t']).eq_ignore_ascii_case(token))
    }
}

/// A response parsed off the wire: the cluster client reads peer answers
/// with the same framing core the server reads requests with.
#[derive(Debug, Clone)]
pub struct ParsedResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body (`Content-Length`-framed; peers always send it).
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// What the framing core needs from the message it frames: how its start
/// line parses, and whether it may omit `Content-Length`.
trait Message: Sized {
    /// Whether a head without `Content-Length` is refused (a peer
    /// response, which could otherwise only end at EOF and would let a
    /// stalled peer pin the caller past its read timeout) rather than
    /// framed with an empty body (a request).
    const LENGTH_REQUIRED: bool;

    /// Parse the start line into a message with no headers or body yet.
    fn start(line: &str) -> Result<Self, Violation>;

    /// The header list and body the core fills in.
    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>);
}

impl Message for Request {
    const LENGTH_REQUIRED: bool = false;

    fn start(line: &str) -> Result<Request, Violation> {
        if line.is_empty() {
            return Err(bad(400, "empty request line"));
        }
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad(400, "missing method"))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| bad(400, "missing request target"))?;
        let version = parts
            .next()
            .ok_or_else(|| bad(400, "missing HTTP version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(bad(400, format!("unsupported protocol '{version}'")));
        }
        // Strip the query string; latencyd routes on the path alone.
        let path = target.split('?').next().unwrap_or(target).to_string();
        Ok(Request {
            method,
            path,
            http10: version == "HTTP/1.0",
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>) {
        (&mut self.headers, &mut self.body)
    }
}

impl Message for ParsedResponse {
    const LENGTH_REQUIRED: bool = true;

    fn start(line: &str) -> Result<ParsedResponse, Violation> {
        let mut parts = line.split_whitespace();
        let version = parts
            .next()
            .ok_or_else(|| bad(400, "missing HTTP version in status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(bad(400, format!("unsupported protocol '{version}'")));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(400, "missing status code"))?;
        Ok(ParsedResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    fn parts(&mut self) -> (&mut Vec<(String, String)>, &mut Vec<u8>) {
        (&mut self.headers, &mut self.body)
    }
}

/// The body length a complete head declares. `Transfer-Encoding` other
/// than `identity` is refused (`411`). `Content-Length` may appear at
/// most once — any repeat, even of the same value, is a framing error
/// (`400`, RFC 9112 §6.3), so two parsers can never disagree about where
/// a body ends — and must be all ASCII digits (`400`). A length over
/// `max_body` is a `413`, decided before any body byte is buffered.
fn body_length(
    headers: &[(String, String)],
    max_body: usize,
    required: bool,
) -> Result<usize, Violation> {
    if let Some(te) = find_header(headers, "transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(bad(
                411,
                "chunked bodies are not supported; send Content-Length",
            ));
        }
    }
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let length = match (lengths.next(), lengths.next()) {
        (Some(_), Some(_)) => return Err(bad(400, "repeated Content-Length")),
        (Some(v), None) => v
            .parse::<usize>()
            .ok()
            .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| bad(400, format!("invalid Content-Length '{v}'")))?,
        (None, _) if required => return Err(bad(400, "peer response has no Content-Length")),
        (None, _) => 0,
    };
    if length > max_body {
        return Err(bad(
            413,
            format!("body of {length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    Ok(length)
}

/// The framing core: buffers bytes and frames one message of type `M`
/// at a time. Partial heads and bodies persist across [`Framer::feed`]
/// calls, so a message may arrive one byte at a time. Head lines are
/// bounded as they stream in, so a slow stream of overlong lines or
/// endless short header lines is refused as soon as a limit is crossed,
/// not when the head completes.
#[derive(Debug)]
struct Framer<M> {
    max_body: usize,
    buf: Vec<u8>,
    /// Byte offset scanned for the head terminator so far.
    scanned: usize,
    /// Offset where the current (unterminated) head line began.
    line_start: usize,
    /// Completed lines of the in-progress head, start line included.
    head_lines: usize,
    /// Parsed head waiting for its body: the message, the head's length
    /// in `buf` (blank line included), and the body length.
    head: Option<(M, usize, usize)>,
    /// Terminal violation, replayed on every later poll: past it the
    /// stream offset is no longer trustworthy.
    failed: Option<Violation>,
}

impl<M: Message> Framer<M> {
    fn new(max_body: usize) -> Framer<M> {
        Framer {
            max_body,
            buf: Vec::new(),
            scanned: 0,
            line_start: 0,
            head_lines: 0,
            head: None,
            failed: None,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether part of a message is buffered.
    fn mid_message(&self) -> bool {
        self.head.is_some() || !self.buf.is_empty()
    }

    /// Frame the next message from the buffered bytes; `Ok(None)` means
    /// more bytes are needed. Leftover (pipelined) bytes stay buffered.
    fn poll(&mut self) -> Result<Option<M>, Violation> {
        if let Some(failed) = &self.failed {
            return Err(failed.clone());
        }
        let polled = self.advance();
        if let Err(violation) = &polled {
            self.failed = Some(violation.clone());
        }
        polled
    }

    fn advance(&mut self) -> Result<Option<M>, Violation> {
        if self.head.is_none() {
            // Scan unexamined bytes for the end-of-head blank line,
            // bounding each line as it streams in.
            while self.scanned < self.buf.len() {
                if self.buf[self.scanned] != b'\n' {
                    self.scanned += 1;
                    if self.scanned - self.line_start > MAX_LINE {
                        return Err(bad(431, "header line too long"));
                    }
                    continue;
                }
                let mut line_end = self.scanned;
                if line_end > self.line_start && self.buf[line_end - 1] == b'\r' {
                    line_end -= 1;
                }
                if line_end == self.line_start {
                    // Blank line: the head is complete.
                    self.parse_head(self.scanned + 1)?;
                    break;
                }
                self.scanned += 1;
                self.line_start = self.scanned;
                // The start line is head line 1, so the 65th header line
                // is refused the moment it completes.
                self.head_lines += 1;
                if self.head_lines > MAX_HEADERS + 1 {
                    return Err(bad(431, "too many headers"));
                }
            }
        }
        match self.head.take() {
            Some((mut msg, head_len, body_len)) if self.buf.len() >= head_len + body_len => {
                let end = head_len + body_len;
                *msg.parts().1 = self.buf[head_len..end].to_vec();
                self.buf.drain(..end);
                self.scanned = 0;
                self.line_start = 0;
                self.head_lines = 0;
                Ok(Some(msg))
            }
            waiting => {
                self.head = waiting;
                Ok(None)
            }
        }
    }

    /// Parse the complete head occupying `buf[..head_len]`. The scanner
    /// has already bounded its line lengths and header count.
    fn parse_head(&mut self, head_len: usize) -> Result<(), Violation> {
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| bad(400, "non-UTF-8 header data"))?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let mut msg = M::start(lines.next().unwrap_or(""))?;
        let (headers, _) = msg.parts();
        for line in lines.take_while(|l| !l.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| bad(400, format!("malformed header line '{line}'")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let body_len = body_length(headers, self.max_body, M::LENGTH_REQUIRED)?;
        self.head = Some((msg, head_len, body_len));
        Ok(())
    }
}

/// Outcome of [`RequestParser::poll`].
#[derive(Debug)]
pub enum ParseStatus {
    /// Not enough bytes buffered yet for a complete request.
    Pending,
    /// One complete request; leftover (pipelined) bytes stay buffered.
    Ready(Request),
    /// The buffered bytes violate the supported HTTP subset; respond
    /// with the given status and close. Terminal: the parser stays in
    /// this state because the stream offset is no longer trustworthy.
    Bad {
        /// HTTP status to answer with (400, 411, 413, 431).
        status: u16,
        /// Human-readable reason, echoed into the error body.
        message: String,
    },
}

/// Incremental, resumable request parser for non-blocking sockets.
///
/// The reactor feeds whatever bytes a readiness poll produced and polls
/// for a complete request; partial heads and bodies persist across
/// calls, so a request may arrive one byte at a time without holding a
/// thread. It is the framing core (see the module docs for its limits)
/// with a request line as the head's first line.
#[derive(Debug)]
pub struct RequestParser {
    framer: Framer<Request>,
}

impl RequestParser {
    /// A fresh parser; `max_body` caps the accepted `Content-Length`.
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            framer: Framer::new(max_body),
        }
    }

    /// Buffer bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.framer.feed(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered_len(&self) -> usize {
        self.framer.buf.len()
    }

    /// Ceiling on buffered bytes the owner should tolerate while it is
    /// *not* polling this parser (a request is dispatched, so nothing
    /// drains the buffer): one request's worth of body plus slack for a
    /// pipelined follow-up head. Past this, stop reading and let TCP
    /// backpressure hold further bytes in the kernel — exactly where a
    /// blocking front end would have left them.
    pub fn pipeline_cap(&self) -> usize {
        self.framer.max_body + 2 * MAX_LINE
    }

    /// Whether a partial request is buffered — distinguishes a peer
    /// that went away mid-request (report `400`) from one that closed
    /// cleanly between requests (silent close).
    pub fn mid_request(&self) -> bool {
        self.framer.mid_message()
    }

    /// Try to complete one request from the buffered bytes.
    pub fn poll(&mut self) -> ParseStatus {
        match self.framer.poll() {
            Ok(Some(req)) => ParseStatus::Ready(req),
            Ok(None) => ParseStatus::Pending,
            Err((status, message)) => ParseStatus::Bad { status, message },
        }
    }
}

/// Why reading a response failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending a byte.
    Closed,
    /// Transport failure (includes read timeouts).
    Io(io::Error),
    /// The response violates the supported HTTP subset, or the peer
    /// closed the connection partway through it.
    Bad {
        /// The status a request with the same fault would be answered with.
        status: u16,
        /// Human-readable reason.
        message: String,
    },
}

/// Read one response from a blocking stream: the framing core in a read
/// loop, with a status line as the head's first line. `max_body` caps
/// the accepted `Content-Length`.
pub fn read_response(reader: &mut impl Read, max_body: usize) -> Result<ParsedResponse, ReadError> {
    let mut framer = Framer::<ParsedResponse>::new(max_body);
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match framer.poll() {
            Ok(Some(resp)) => return Ok(resp),
            Ok(None) => {}
            Err((status, message)) => return Err(ReadError::Bad { status, message }),
        }
        match reader.read(&mut chunk) {
            Ok(0) if framer.mid_message() => {
                return Err(ReadError::Bad {
                    status: 400,
                    message: "peer closed the connection mid-response".into(),
                })
            }
            Ok(0) => return Err(ReadError::Closed),
            Ok(n) => framer.feed(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// An HTTP response ready for serialization.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether to advertise (and perform) connection close.
    pub close: bool,
    /// Optional `Retry-After` header value in seconds (load shedding).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            retry_after: None,
        }
    }

    /// Mark the connection for closing after this response.
    pub fn with_close(mut self) -> Response {
        self.close = true;
        self
    }

    /// Attach a `Retry-After: {seconds}` header (shed/overload answers).
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Serialize to the wire.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        )?;
        if let Some(seconds) = self.retry_after {
            write!(w, "Retry-After: {seconds}\r\n")?;
        }
        write!(
            w,
            "{}\r\n",
            if self.close {
                "Connection: close\r\n"
            } else {
                "Connection: keep-alive\r\n"
            },
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Canonical reason phrase for the status codes latencyd emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// Feed `raw` to a fresh parser in one piece and poll once.
    fn parse(raw: &str) -> ParseStatus {
        let mut parser = RequestParser::new(1024);
        parser.feed(raw.as_bytes());
        parser.poll()
    }

    fn ready(raw: &str) -> Request {
        match parse(raw) {
            ParseStatus::Ready(req) => req,
            other => panic!("expected Ready for {raw:?}, got {other:?}"),
        }
    }

    #[test]
    fn parses_heads_and_bodies() {
        let req = ready("GET /healthz?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz", "query string stripped");
        assert_eq!(req.header("Host"), Some("x"), "lookup ignores case");
        assert!(req.keep_alive());
        assert!(req.body.is_empty());

        let req = ready(
            "POST /v1/solve HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\":1}");

        let req = ready("GET /metrics HTTP/1.1\nHost: y\n\n");
        assert_eq!(req.path, "/metrics", "LF-only line endings accepted");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn keep_alive_follows_the_version_and_connection_header() {
        for (raw, want) in [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", true),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nConnection: close\r\n\r\n", false),
            // A token list, over any number of lines (RFC 9110 §7.6.1).
            ("GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n", false),
            (
                "GET / HTTP/1.0\r\nConnection: Keep-Alive , Upgrade\r\n\r\n",
                true,
            ),
            (
                "GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
                false,
            ),
            (
                "GET / HTTP/1.0\r\nConnection: keep-alive, close\r\n\r\n",
                false,
            ),
            (
                "GET / HTTP/1.1\r\nConnection: TE\r\nConnection: close\r\n\r\n",
                false,
            ),
            ("GET / HTTP/1.1\r\nConnection: closed\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nConnection: keep-alived\r\n\r\n", false),
        ] {
            assert_eq!(ready(raw).keep_alive(), want, "for {raw:?}");
        }
    }

    #[test]
    fn mid_request_separates_a_clean_close_from_a_truncated_request() {
        let mut parser = RequestParser::new(1024);
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(!parser.mid_request(), "EOF here is a clean close");
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(parser.mid_request(), "EOF here is a truncated request");
    }

    #[test]
    fn response_serializes_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: application/json\r\n"),
            "{text}"
        );
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\":\"overloaded\"}".into())
            .with_retry_after(2)
            .with_close()
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn parses_a_serialized_response_back() {
        let mut out = Vec::new();
        Response::json(429, "{\"ok\":false}".into())
            .with_retry_after(2)
            .write_to(&mut out)
            .unwrap();
        let resp = read_response(&mut out.as_slice(), 1024).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.body, b"{\"ok\":false}");
    }

    #[test]
    fn response_parser_rejects_unframed_bodies() {
        let raw = "HTTP/1.1 200 OK\r\n\r\nstuff";
        match read_response(&mut raw.as_bytes(), 1024) {
            Err(ReadError::Bad { status, message }) => {
                assert_eq!(status, 400);
                assert!(message.contains("Content-Length"), "{message}");
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_completes_on_the_last_byte() {
        let raw = "POST /v1/solve HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        let mut parser = RequestParser::new(1024);
        for (i, b) in raw.as_bytes().iter().enumerate() {
            parser.feed(&[*b]);
            match parser.poll() {
                ParseStatus::Pending => {
                    assert!(i + 1 < raw.len(), "must complete on the last byte");
                    assert!(parser.mid_request());
                }
                ParseStatus::Ready(req) => {
                    assert_eq!(i + 1, raw.len(), "completed early at byte {i}");
                    assert_eq!(req.method, "POST");
                    assert_eq!(req.path, "/v1/solve");
                    assert_eq!(req.body, b"{\"a\":1}");
                }
                ParseStatus::Bad { status, message } => {
                    panic!("unexpected Bad {status}: {message}")
                }
            }
        }
        assert!(!parser.mid_request(), "buffer drained after Ready");
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\nHost: y\n\n");
        match parser.poll() {
            ParseStatus::Ready(req) => assert_eq!(req.path, "/a"),
            other => panic!("expected /a, got {other:?}"),
        }
        match parser.poll() {
            ParseStatus::Ready(req) => {
                assert_eq!(req.path, "/b");
                assert_eq!(req.header("host"), Some("y"), "LF-only head parsed");
            }
            other => panic!("expected /b, got {other:?}"),
        }
        assert!(matches!(parser.poll(), ParseStatus::Pending));
        assert!(!parser.mid_request());
    }

    #[test]
    fn incremental_parser_rejects_malformed_heads() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        for (raw, want_status) in [
            ("GARBAGE\r\n\r\n", 400),
            ("\r\n", 400),
            ("GET /x SPDY/3\r\n\r\n", 400),
            ("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\n{}", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: \r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
                400,
            ),
            // Were the first length to win, the rest would parse as a
            // second, smuggled request.
            (
                "POST /v1/solve HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 30\r\n\r\n\
                 {}GET /smuggled HTTP/1.1\r\n\r\n",
                400,
            ),
            ("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 413),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                411,
            ),
            (long_line.as_str(), 431),
        ] {
            let mut parser = RequestParser::new(1024);
            parser.feed(raw.as_bytes());
            match parser.poll() {
                ParseStatus::Bad { status, .. } => {
                    assert_eq!(status, want_status, "for {raw:?}")
                }
                other => panic!("expected Bad for {raw:?}, got {other:?}"),
            }
            // Terminal: the same verdict replays on later polls.
            assert!(matches!(parser.poll(), ParseStatus::Bad { .. }));
        }
    }

    #[test]
    fn incremental_parser_bounds_header_lines_before_they_complete() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /");
        // Stream an endless path one chunk at a time: the parser must
        // reject at MAX_LINE without waiting for the line to finish.
        let chunk = [b'a'; 512];
        let mut rejected = false;
        for _ in 0..(MAX_LINE / chunk.len() + 2) {
            parser.feed(&chunk);
            if let ParseStatus::Bad { status, .. } = parser.poll() {
                assert_eq!(status, 431);
                rejected = true;
                break;
            }
        }
        assert!(rejected, "oversized request line must be rejected");
    }

    #[test]
    fn incremental_parser_bounds_header_count_before_head_completes() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /x HTTP/1.1\r\n");
        // Stream endless short header lines, never a blank terminator:
        // rejection must come at the 65th header line, not at some outer
        // timeout.
        let mut rejected_at = None;
        for i in 0..MAX_HEADERS + 8 {
            parser.feed(format!("X-H{i}: v\r\n").as_bytes());
            if let ParseStatus::Bad { status, message } = parser.poll() {
                assert_eq!(status, 431, "{message}");
                rejected_at = Some(i + 1);
                break;
            }
        }
        assert_eq!(
            rejected_at,
            Some(MAX_HEADERS + 1),
            "must reject on the first over-limit header line"
        );
    }

    #[test]
    fn incremental_parser_accepts_exactly_max_headers() {
        let mut parser = RequestParser::new(1024);
        parser.feed(b"GET /x HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            parser.feed(format!("X-H{i}: v\r\n").as_bytes());
            assert!(
                matches!(parser.poll(), ParseStatus::Pending),
                "header {i} within the limit must not reject"
            );
        }
        parser.feed(b"\r\n");
        match parser.poll() {
            ParseStatus::Ready(req) => assert_eq!(req.headers.len(), MAX_HEADERS),
            other => panic!("expected Ready at the limit, got {other:?}"),
        }
        // The counter reset with the completed request: a follow-up
        // request on the same connection gets a fresh budget.
        parser.feed(b"GET /y HTTP/1.1\r\nHost: z\r\n\r\n");
        match parser.poll() {
            ParseStatus::Ready(req) => assert_eq!(req.path, "/y"),
            other => panic!("expected pipelined follow-up, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_rejects_oversized_body_at_head_completion() {
        let mut parser = RequestParser::new(16);
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n");
        match parser.poll() {
            ParseStatus::Bad { status, .. } => assert_eq!(status, 413),
            other => panic!("expected 413 before body bytes, got {other:?}"),
        }
    }

    /// Serve `chunks` to one client over loopback, pausing between them
    /// so each lands in its own read, and read the answer with a
    /// 1024-byte body cap. The server then closes, or with `hold` keeps
    /// the socket open until the client hangs up, so only a reader that
    /// decided without waiting for more bytes returns promptly.
    fn read_chunked(chunks: &[&str], hold: bool) -> Result<ParsedResponse, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let chunks: Vec<Vec<u8>> = chunks.iter().map(|c| c.as_bytes().to_vec()).collect();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            for chunk in chunks {
                s.write_all(&chunk).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            if hold {
                let _ = s.read(&mut [0u8; 1]);
            }
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let result = read_response(&mut client, 1024);
        drop(client);
        server.join().unwrap();
        result
    }

    fn bad_status(result: Result<ParsedResponse, ReadError>) -> u16 {
        match result {
            Err(ReadError::Bad { status, .. }) => status,
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn response_reader_frames_a_chunked_socket_stream() {
        let resp = read_chunked(
            &[
                "HTT",
                "P/1.1 200 OK\r\nContent-",
                "Length: 11\r\nX-Peer: b\r",
                "\n\r\n{\"ok\"",
                ":true}",
            ],
            false,
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("X-Peer"), Some("b"));
        assert_eq!(resp.body, b"{\"ok\":true}");

        assert!(
            matches!(read_chunked(&[], false), Err(ReadError::Closed)),
            "EOF before the first byte is a transport error"
        );
        let eof_mid_body = read_chunked(
            &[
                "HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n",
                "{\"partial\"",
            ],
            false,
        );
        assert_eq!(bad_status(eof_mid_body), 400);
        let unframed = read_chunked(&["HTTP/1.1 200 OK\r\n", "\r\n"], true);
        assert_eq!(bad_status(unframed), 400);

        // Refused at head completion, with the socket still open and no
        // body byte sent: a reader that waited for the body would time out.
        let over_cap = read_chunked(&["HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n"], true);
        assert_eq!(bad_status(over_cap), 413);
        let headers: String = (0..=MAX_HEADERS)
            .map(|i| format!("X-H{i}: v\r\n"))
            .collect();
        let too_many = read_chunked(&["HTTP/1.1 200 OK\r\n", &headers], true);
        assert_eq!(bad_status(too_many), 431);
    }
}
