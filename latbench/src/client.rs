//! The benchmark's own keep-alive HTTP/1.1 client.
//!
//! Deliberately independent of `lt_service::http`: the framing that
//! measures the server must not be the code under measurement. It sends
//! one request per round trip (closed loop, no pipelining) and accepts
//! only what `latencyd` promises: a `HTTP/1.1` status line, a
//! `Content-Length` body, no chunking, and nothing after the body.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest response head accepted.
const MAX_HEAD: usize = 16 * 1024;
/// A read that waits longer than this fails the request.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes read but not yet consumed.
    buf: Vec<u8>,
    /// The serialized request, reused between calls.
    out: Vec<u8>,
}

/// A framed response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `Content-Length` body.
    pub body: Vec<u8>,
}

impl Client {
    /// Open a connection with Nagle off (requests go out in one write).
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            out: Vec::with_capacity(4 * 1024),
        })
    }

    /// Send one request and read its whole response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        self.out.clear();
        // Writing into a Vec cannot fail.
        let _ = write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: latbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.out.extend_from_slice(body);
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        self.read_reply()
    }

    fn fill(&mut self) -> Result<(), String> {
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        let n = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *n.as_ref().unwrap_or(&0));
        match n {
            Ok(0) => Err("connection closed mid-response".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let head_len = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end + 4;
            }
            if self.buf.len() > MAX_HEAD {
                return Err("response head too long".into());
            }
            self.fill()?;
        };
        let (status, content_length) = parse_head(&self.buf[..head_len])?;
        let total = head_len + content_length;
        self.buf.reserve(total.saturating_sub(self.buf.len()));
        while self.buf.len() < total {
            self.fill()?;
        }
        if self.buf.len() > total {
            return Err("bytes after the response body".into());
        }
        let body = self.buf[head_len..total].to_vec();
        self.buf.clear();
        Ok(Reply { status, body })
    }
}

/// Status and `Content-Length` of a response head (terminator included).
pub fn parse_head(head: &[u8]) -> Result<(u16, usize), String> {
    let text = std::str::from_utf8(head).map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    if parts.next() != Some("HTTP/1.1") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status code in {status_line:?}"))?;
    let mut length = None;
    for line in lines.take_while(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line {line:?}"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .parse::<usize>()
                .map_err(|_| format!("bad Content-Length {value:?}"))?;
            if length.replace(n).is_some() {
                return Err("duplicate Content-Length".into());
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err("unexpected Transfer-Encoding".into());
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            return Err("server closed the keep-alive connection".into());
        }
    }
    let length = length.ok_or("response has no Content-Length")?;
    Ok((status, length))
}

/// First offset of `needle` in `hay`.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Non-overlapping occurrences of `needle` in `hay`.
pub fn count(hay: &[u8], needle: &[u8]) -> usize {
    let (mut n, mut at) = (0, 0);
    while let Some(i) = find(&hay[at..], needle) {
        n += 1;
        at += i + needle.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parsing_accepts_latencyd_framing_and_rejects_the_rest() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nConnection: keep-alive\r\n\r\n";
        assert_eq!(parse_head(ok).unwrap(), (200, 12));
        assert!(parse_head(b"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n").is_err());
        assert!(
            parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n")
                .is_err()
        );
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
    }

    #[test]
    fn substring_helpers() {
        assert_eq!(find(b"abcabc", b"ca"), Some(2));
        assert_eq!(find(b"abc", b"x"), None);
        assert_eq!(count(b"{\"ok\":true},{\"ok\":true}", b"\"ok\":true"), 2);
        assert_eq!(count(b"aaaa", b"aa"), 2);
    }
}
