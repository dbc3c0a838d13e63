//! Cluster-aware forwarding: a minimal std-only HTTP/1.1 client for
//! talking to peer `latencyd` nodes.
//!
//! Forwarded requests carry the [`FORWARDED_HEADER`] hop count; the
//! receiving node serves locally once the count reaches its hop budget,
//! so a stale ring (two nodes briefly disagreeing about an owner) can
//! bounce a request at most `max_forward_hops` times, never loop it.
//!
//! Every call opens a fresh `Connection: close` socket with connect,
//! read, and write timeouts all bounded by the caller's deadline — a
//! dead peer costs one timeout, not a hung thread. Forwards run on
//! handler threads only: never on solve-pool workers (a cluster-wide
//! burst of forwards cannot deadlock the pools that would have to
//! answer them) and never on reactor threads (a slow peer cannot stall
//! connection I/O).

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::fault::{ChaosNet, LinkDecision};
use crate::http::{read_response, ParsedResponse, ReadError};

/// Hop-count header attached to forwarded requests (loop guard).
pub const FORWARDED_HEADER: &str = "X-LT-Forwarded";

/// Largest peer response body accepted. Sweep answers dwarf request
/// bodies (4096 reports), so this is deliberately far above the server's
/// request cap.
pub const FORWARD_MAX_BODY: usize = 64 << 20;

/// Why a forward failed. All variants degrade the same way (local solve
/// plus a `forward_errors` increment); the split exists for diagnostics
/// and so membership only punishes transport failures, not HTTP errors.
#[derive(Debug)]
pub enum ForwardError {
    /// Could not resolve, connect, write, or read within the timeout —
    /// the peer looks down; membership should hear about it.
    Transport(String),
    /// The peer answered, but with something other than the expected
    /// response (protocol violation or oversized body).
    BadResponse(String),
}

impl ForwardError {
    /// Whether this failure should count as a missed heartbeat.
    pub fn is_transport(&self) -> bool {
        matches!(self, ForwardError::Transport(_))
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, ForwardError> {
    addr.to_socket_addrs()
        .map_err(|e| ForwardError::Transport(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| ForwardError::Transport(format!("resolve {addr}: no addresses")))
}

/// One HTTP exchange with a peer. `hops` > 0 attaches the loop-guard
/// header; `body` empty with method GET sends no body framing headers'
/// worth of payload (Content-Length: 0 is still sent — latencyd accepts
/// it).
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    hops: u32,
    timeout: Duration,
    max_body: usize,
) -> Result<ParsedResponse, ForwardError> {
    let sock_addr = resolve(addr)?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| ForwardError::Transport(format!("connect {addr}: {e}")))?;
    // lt-lint: allow(LT07, best effort: a socket that refuses timeouts still works; the caller's deadline is advisory then)
    let _ = stream.set_read_timeout(Some(timeout));
    // lt-lint: allow(LT07, best effort: same as read timeout above)
    let _ = stream.set_write_timeout(Some(timeout));
    // lt-lint: allow(LT07, best effort: without nodelay the exchange is merely slower)
    let _ = stream.set_nodelay(true);

    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if hops > 0 {
        head.push_str(&format!("{FORWARDED_HEADER}: {hops}\r\n"));
    }
    head.push_str("\r\n");

    let mut writer = &stream;
    writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.write_all(body))
        .and_then(|()| writer.flush())
        .map_err(|e| ForwardError::Transport(format!("write to {addr}: {e}")))?;

    read_response(&mut &stream, max_body).map_err(|e| match e {
        ReadError::Closed => ForwardError::Transport(format!("{addr} closed before answering")),
        ReadError::Io(io) => ForwardError::Transport(format!("read from {addr}: {io}")),
        ReadError::Bad { message, .. } => {
            ForwardError::BadResponse(format!("{addr} sent a malformed response: {message}"))
        }
    })
}

/// Floor below which a hop is not worth attempting: a connect + exchange
/// in under this is wishful thinking, so callers skip forwarding and
/// spend what little deadline remains on the local fallback instead.
pub const MIN_HOP_TIMEOUT: Duration = Duration::from_millis(5);

/// [`exchange`] routed through an optional [`ChaosNet`]. The production
/// path (`chaos: None`) is a direct call; under chaos the link decision
/// for `src → dst` is applied first:
///
/// - `Drop` (probabilistic loss or a severed partition) fails without
///   touching a socket, exactly as a lost packet looks to the sender —
///   a transport error after the timeout would also be faithful, but
///   failing fast keeps chaos suites quick, and the caller's budget
///   logic is exercised either way.
/// - `Delay(d)` sleeps up to the timeout, then exchanges with whatever
///   budget remains (a delay past the deadline becomes a timeout).
/// - `Duplicate` performs the exchange twice and keeps the first
///   response; every inter-node endpoint is idempotent by design, and
///   this is the fault that proves it.
///
/// A one-way partition additionally severs the *response* path: the
/// request is delivered (the peer acts on it), but the answer is lost
/// and the sender sees a transport failure.
#[allow(clippy::too_many_arguments)]
pub fn exchange_link(
    chaos: Option<&ChaosNet>,
    src: &str,
    dst: &str,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    hops: u32,
    timeout: Duration,
    max_body: usize,
) -> Result<ParsedResponse, ForwardError> {
    let Some(net) = chaos else {
        return exchange(addr, method, path, body, hops, timeout, max_body);
    };
    let budget = match net.decide(src, dst) {
        LinkDecision::Drop => {
            return Err(ForwardError::Transport(format!(
                "chaos: link {src}->{dst} lost the request"
            )));
        }
        LinkDecision::Delay(d) => {
            let d = d.min(timeout);
            std::thread::sleep(d);
            let left = timeout - d;
            if left < MIN_HOP_TIMEOUT {
                return Err(ForwardError::Transport(format!(
                    "chaos: link {src}->{dst} delayed past the deadline"
                )));
            }
            left
        }
        LinkDecision::Duplicate => {
            let first = exchange(addr, method, path, body, hops, timeout, max_body);
            if first.is_ok() {
                // The duplicate's response is discarded by definition
                // (fault injection); idempotent endpoints tolerate it.
                let _ = exchange(addr, method, path, body, hops, timeout, max_body);
            }
            return finish_link(net, src, dst, first);
        }
        LinkDecision::Deliver => timeout,
    };
    finish_link(
        net,
        src,
        dst,
        exchange(addr, method, path, body, hops, budget, max_body),
    )
}

/// Apply the response-path partition check to a completed exchange.
fn finish_link(
    net: &ChaosNet,
    src: &str,
    dst: &str,
    result: Result<ParsedResponse, ForwardError>,
) -> Result<ParsedResponse, ForwardError> {
    if result.is_ok() && net.response_severed(src, dst) {
        return Err(ForwardError::Transport(format!(
            "chaos: link {dst}->{src} lost the response"
        )));
    }
    result
}

/// Hop count carried by an incoming request (absent or malformed → 0).
pub fn incoming_hops(req: &crate::http::Request) -> u32 {
    req.header(FORWARDED_HEADER)
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn exchange_round_trips_against_a_tiny_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let mut seen = Vec::new();
            // Read until the blank line + the 2-byte body arrive.
            loop {
                let n = s.read(&mut buf).unwrap();
                seen.extend_from_slice(&buf[..n]);
                if let Some(pos) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
                    if seen.len() >= pos + 4 + 2 {
                        break;
                    }
                }
            }
            let text = String::from_utf8(seen).unwrap();
            assert!(text.starts_with("POST /v1/solve HTTP/1.1\r\n"), "{text}");
            assert!(text.contains("X-LT-Forwarded: 1\r\n"), "{text}");
            assert!(text.contains("Connection: close\r\n"), "{text}");
            assert!(text.ends_with("{}"), "{text}");
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}")
                .unwrap();
        });
        let resp = exchange(
            &addr.to_string(),
            "POST",
            "/v1/solve",
            b"{}",
            1,
            Duration::from_secs(5),
            1 << 20,
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn dead_peer_is_a_transport_error() {
        // Bind then drop: the port is (momentarily) unbound, so connect
        // is refused immediately — no timeout wait.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = exchange(
            &addr.to_string(),
            "GET",
            "/v1/cluster/members",
            b"",
            0,
            Duration::from_millis(500),
            1 << 20,
        )
        .unwrap_err();
        assert!(err.is_transport(), "{err:?}");
    }

    #[test]
    fn unresolvable_address_is_a_transport_error() {
        let err = exchange(
            "definitely-not-a-host.invalid:1",
            "GET",
            "/",
            b"",
            0,
            Duration::from_millis(200),
            1024,
        )
        .unwrap_err();
        assert!(err.is_transport(), "{err:?}");
    }

    #[test]
    fn incoming_hops_parses_and_defaults() {
        let mk = |headers: Vec<(String, String)>| crate::http::Request {
            method: "POST".into(),
            path: "/v1/solve".into(),
            http10: false,
            headers,
            body: Vec::new(),
        };
        assert_eq!(incoming_hops(&mk(vec![])), 0);
        assert_eq!(
            incoming_hops(&mk(vec![("x-lt-forwarded".into(), "2".into())])),
            2
        );
        assert_eq!(
            incoming_hops(&mk(vec![("x-lt-forwarded".into(), "soup".into())])),
            0
        );
    }
}
