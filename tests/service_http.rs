//! Loopback integration tests for `latencyd`: real sockets, real HTTP,
//! the full service stack (parser → pool → cache → metrics).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use lt_core::json::{self, JsonValue};
use lt_core::prelude::*;
use lt_core::wire;
use lt_service::{Server, ServerConfig};

/// Minimal HTTP client: one request, parse status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, JsonValue) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    read_response(&mut BufReader::new(stream))
}

/// Read one HTTP response (status + Content-Length-framed body).
fn read_response(reader: &mut impl BufRead) -> (u16, JsonValue) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    let text = String::from_utf8(body).unwrap();
    (status, json::parse(&text).expect("response is JSON"))
}

fn start(workers: usize) -> lt_service::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_capacity: 256,
        default_timeout_ms: 60_000,
        max_body_bytes: 1 << 20,
        ..ServerConfig::default()
    })
    .expect("bind")
    .spawn()
}

/// [`start`] with a config tweak (short idle timeouts, small body caps).
fn start_with(tweak: impl FnOnce(&mut ServerConfig)) -> lt_service::ServerHandle {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 256,
        default_timeout_ms: 60_000,
        max_body_bytes: 1 << 20,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::bind(cfg).expect("bind").spawn()
}

/// Poll `cond` until it holds or a 10s deadline passes.
fn await_true(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting until {what}");
}

/// Read everything until EOF; asserts the server actually closed.
fn expect_eof(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 512];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
}

fn config_body(cfg: &SystemConfig) -> String {
    format!("{{\"config\":{}}}", wire::config_to_json(cfg).encode())
}

#[test]
fn concurrent_solves_cache_hits_and_metrics() {
    let handle = start(4);
    let addr = handle.addr();

    // 64 concurrent solves over 4 workers: 32 distinct configs, each
    // requested twice, so the second round can be served from cache.
    let configs: Vec<SystemConfig> = (0..32)
        .map(|i| {
            SystemConfig::paper_default()
                .with_n_threads(1 + (i % 16))
                .with_p_remote(0.05 + 0.02 * (i / 16) as f64)
        })
        .collect();
    let expected: Vec<f64> = configs.iter().map(|c| solve(c).unwrap().u_p).collect();

    let configs = Arc::new(configs);
    let threads: Vec<_> = (0..64)
        .map(|t| {
            let configs = Arc::clone(&configs);
            std::thread::spawn(move || {
                let cfg = &configs[t % 32];
                let (status, v) = http(addr, "POST", "/v1/solve", Some(&config_body(cfg)));
                assert_eq!(status, 200, "solve {t}: {}", v.encode());
                let u_p = v
                    .get("report")
                    .and_then(|r| r.get("u_p"))
                    .and_then(|x| x.as_f64())
                    .expect("report.u_p");
                (t % 32, u_p)
            })
        })
        .collect();
    for t in threads {
        // lt-lint: allow(LT10, bounded: each thread issues one HTTP request against a live in-process server and exits)
        let (i, u_p) = t.join().unwrap();
        assert_eq!(u_p.to_bits(), expected[i].to_bits(), "config {i}");
    }

    // A repeat of a config that has certainly been solved must be a cache
    // hit, flagged in the response.
    let (status, v) = http(addr, "POST", "/v1/solve", Some(&config_body(&configs[0])));
    assert_eq!(status, 200);
    assert_eq!(v.get("cached").and_then(|c| c.as_bool()), Some(true));

    // The /metrics document: endpoint counters, cache hits, latency tails.
    let (status, m) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let solve_requests = m
        .get("endpoints")
        .and_then(|e| e.get("solve"))
        .and_then(|s| s.get("requests"))
        .and_then(|r| r.as_u64())
        .unwrap();
    assert_eq!(solve_requests, 65);
    let hits = m
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|h| h.as_u64())
        .unwrap();
    assert!(hits >= 1, "expected cache hits, got {hits}");
    for field in ["count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"] {
        let x = m
            .get("latency")
            .and_then(|l| l.get(field))
            .and_then(|x| x.as_f64());
        assert!(x.is_some(), "latency.{field} missing");
    }
    assert!(
        m.get("latency")
            .and_then(|l| l.get("count"))
            .and_then(|c| c.as_u64())
            .unwrap()
            >= 65
    );

    // Resilience counters: healthy traffic sheds nothing, retries
    // nothing, trips no breakers, and every response carries a
    // full-fidelity tag.
    let res = m.get("resilience").expect("resilience object");
    assert_eq!(res.get("shed").and_then(|x| x.as_u64()), Some(0));
    assert_eq!(res.get("retries").and_then(|x| x.as_u64()), Some(0));
    let transitions = res.get("breaker_transitions").unwrap();
    assert_eq!(
        transitions.get("opened").and_then(|x| x.as_u64()),
        Some(0),
        "no breaker should trip under healthy load"
    );
    let by_fid = res.get("responses_by_fidelity").unwrap();
    let full: u64 = ["exact", "approximate"]
        .iter()
        .map(|k| by_fid.get(k).and_then(|x| x.as_u64()).unwrap())
        .sum();
    assert!(full >= 65, "expected >= 65 full-fidelity responses");
    for k in ["bounds", "degraded"] {
        assert_eq!(
            by_fid.get(k).and_then(|x| x.as_u64()),
            Some(0),
            "healthy traffic must not degrade ({k})"
        );
    }
    for (tier, v) in m.get("breakers").unwrap().as_object().unwrap() {
        assert_eq!(v.as_str(), Some("closed"), "breaker {tier} not closed");
    }

    let summary = handle.shutdown();
    assert!(summary.contains("hits="), "{summary}");
}

#[test]
fn sweep_preserves_order_and_mixes_cached_results() {
    let handle = start(4);
    let addr = handle.addr();

    // Distinct thread counts => strictly increasing utilization, so order
    // preservation is observable in the response.
    let configs: Vec<SystemConfig> = [1, 2, 4, 8, 12, 16]
        .iter()
        .map(|&n| SystemConfig::paper_default().with_n_threads(n))
        .collect();
    let expected: Vec<f64> = configs.iter().map(|c| solve(c).unwrap().u_p).collect();
    let body = format!(
        "{{\"configs\":[{}]}}",
        configs
            .iter()
            .map(|c| wire::config_to_json(c).encode())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, v) = http(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(v.get("count").and_then(|c| c.as_u64()), Some(6));
    let results = v.get("results").and_then(|r| r.as_array()).unwrap();
    // Sweep items warm-start from their predecessor on the same worker,
    // so they agree with a cold solve within solver tolerance (the fixed
    // point is iterated to the same residual from either start), not
    // necessarily to the last bit.
    let mut first_pass = Vec::new();
    for (i, item) in results.iter().enumerate() {
        assert_eq!(item.get("ok").and_then(|o| o.as_bool()), Some(true));
        let u_p = item
            .get("report")
            .and_then(|r| r.get("u_p"))
            .and_then(|x| x.as_f64())
            .unwrap();
        assert!(
            (u_p - expected[i]).abs() < 1e-8,
            "result {i} out of order or out of tolerance: {u_p} vs {}",
            expected[i]
        );
        first_pass.push(u_p);
    }

    // A second identical sweep is served from cache, still in order, and
    // bitwise identical to the answers the first sweep produced.
    let (status, v) = http(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(status, 200);
    let results = v.get("results").and_then(|r| r.as_array()).unwrap();
    for (i, item) in results.iter().enumerate() {
        assert_eq!(
            item.get("cached").and_then(|c| c.as_bool()),
            Some(true),
            "sweep item {i} should be cached on repeat"
        );
        let u_p = item
            .get("report")
            .and_then(|r| r.get("u_p"))
            .and_then(|x| x.as_f64())
            .unwrap();
        assert_eq!(u_p.to_bits(), first_pass[i].to_bits());
    }

    // A parameter grid expands row-major.
    let grid_body = format!(
        "{{\"base\":{},\"grid\":[{{\"param\":\"workload.n_threads\",\"values\":[2,8]}}]}}",
        wire::config_to_json(&SystemConfig::paper_default()).encode()
    );
    let (status, v) = http(addr, "POST", "/v1/sweep", Some(&grid_body));
    assert_eq!(status, 200);
    assert_eq!(v.get("count").and_then(|c| c.as_u64()), Some(2));

    handle.shutdown();
}

#[test]
fn metrics_expose_warm_start_and_workspace_counters() {
    // One worker: every sweep item runs on the same pool thread, so the
    // seed carries from point to point and all but the first solve of
    // the batch is warm.
    let handle = start(1);
    let addr = handle.addr();
    let configs: Vec<SystemConfig> = [1, 2, 4, 8, 12, 16]
        .iter()
        .map(|&n| SystemConfig::paper_default().with_n_threads(n))
        .collect();
    let body = format!(
        "{{\"configs\":[{}]}}",
        configs
            .iter()
            .map(|c| wire::config_to_json(c).encode())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, v) = http(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(status, 200, "{}", v.encode());

    let (status, m) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let solver = m.get("solver").expect("solver metrics object");
    let warm = solver.get("warm_hits").and_then(|x| x.as_u64()).unwrap();
    let cold = solver.get("cold_solves").and_then(|x| x.as_u64()).unwrap();
    assert!(cold >= 1, "the first point of the batch starts cold");
    assert!(
        warm >= 4,
        "a single-worker batch of 6 must warm-start most points (warm={warm} cold={cold})"
    );
    let created = solver
        .get("workspaces_created")
        .and_then(|x| x.as_u64())
        .unwrap();
    let reused = solver
        .get("workspaces_reused")
        .and_then(|x| x.as_u64())
        .unwrap();
    assert_eq!(created, 1, "one worker builds exactly one workspace");
    assert!(
        reused >= 5,
        "later batch items must reuse the worker's workspace (reused={reused})"
    );

    // Library-level cross-check: the in-process state agrees with the
    // scraped document.
    assert_eq!(handle.state().metrics.warm_hits(), warm);
    assert_eq!(handle.state().workspaces.created(), created);
    handle.shutdown();
}

#[test]
fn tolerance_endpoint_matches_library() {
    let handle = start(2);
    let addr = handle.addr();
    let cfg = SystemConfig::paper_default();
    let want = tolerance_index(&cfg, IdealSpec::ZeroSwitchDelay).unwrap();
    let (status, v) = http(addr, "POST", "/v1/tolerance", Some(&config_body(&cfg)));
    assert_eq!(status, 200, "{}", v.encode());
    let tol = v.get("tolerance").expect("tolerance object");
    assert_eq!(
        tol.get("index").and_then(|x| x.as_f64()).unwrap().to_bits(),
        want.index.to_bits()
    );
    assert_eq!(tol.get("spec").and_then(|s| s.as_str()), Some("network"));
    assert_eq!(
        tol.get("zone").and_then(|z| z.as_str()),
        Some(want.zone.label())
    );
    handle.shutdown();
}

#[test]
fn error_paths_are_structured() {
    let handle = start(2);
    let addr = handle.addr();

    // Malformed JSON → 400 bad_request.
    let (status, v) = http(addr, "POST", "/v1/solve", Some("{not json"));
    assert_eq!(status, 400);
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_request")
    );

    // Invalid config field → 400 invalid_field naming the field.
    let bad_cfg = r#"{"config":{"workload":{"n_threads":8,"runlength":1,"p_remote":1.5,
        "pattern":{"kind":"geometric","p_sw":0.5}},
        "arch":{"topology":{"kind":"torus","k":4},"memory_latency":1,"switch_delay":1}}}"#;
    let (status, v) = http(addr, "POST", "/v1/solve", Some(bad_cfg));
    assert_eq!(status, 400);
    let err = v.get("error").unwrap();
    assert_eq!(
        err.get("kind").and_then(|k| k.as_str()),
        Some("invalid_field")
    );
    assert!(
        err.get("message")
            .and_then(|m| m.as_str())
            .unwrap()
            .contains("p_remote"),
        "{}",
        v.encode()
    );

    // Unknown endpoint → 404.
    let (status, v) = http(addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("not_found")
    );

    // A near-saturated machine with an already-expired deadline: a
    // structured 504, not a hang. (timeout_ms=0 pins the deadline to
    // "now", so the result is deterministic even on a fast machine.)
    let heavy = SystemConfig::paper_default()
        .with_topology(Topology::torus(10))
        .with_n_threads(64)
        .with_p_remote(0.9);
    let body = format!(
        "{{\"config\":{},\"timeout_ms\":0}}",
        wire::config_to_json(&heavy).encode()
    );
    let (status, v) = http(addr, "POST", "/v1/solve", Some(&body));
    assert_eq!(status, 504, "{}", v.encode());
    let err = v.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("timeout"));

    // Sweeps time out the same way.
    let body = format!(
        "{{\"configs\":[{}],\"timeout_ms\":0}}",
        wire::config_to_json(&heavy).encode()
    );
    let (status, v) = http(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(status, 504, "{}", v.encode());

    // The error kinds showed up in /metrics.
    let (_, m) = http(addr, "GET", "/metrics", None);
    let kinds = m.get("errors_by_kind").unwrap();
    assert!(kinds.get("bad_request").and_then(|x| x.as_u64()).unwrap() >= 1);
    assert!(kinds.get("invalid_field").and_then(|x| x.as_u64()).unwrap() >= 1);
    assert!(kinds.get("timeout").and_then(|x| x.as_u64()).unwrap() >= 2);
    assert!(kinds.get("not_found").and_then(|x| x.as_u64()).unwrap() >= 1);

    handle.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let handle = start(2);
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = config_body(&SystemConfig::paper_default());
    for round in 0..3 {
        write!(
            stream,
            "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (status, v) = read_response(&mut reader);
        assert_eq!(status, 200, "round {round}");
        if round > 0 {
            assert_eq!(
                v.get("cached").and_then(|c| c.as_bool()),
                Some(true),
                "round {round} should hit the cache"
            );
        }
    }
    drop(stream);
    handle.shutdown();
}

#[test]
fn healthz_reports_ok() {
    let handle = start(1);
    let (status, v) = http(handle.addr(), "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(v.get("workers").and_then(|w| w.as_u64()), Some(1));
    handle.shutdown();
}

#[test]
fn http10_without_keep_alive_is_closed_after_one_response() {
    // A long idle timeout: only the HTTP/1.0 close default can end this
    // connection quickly.
    let handle = start_with(|cfg| cfg.idle_timeout_ms = 10_000);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let sent = std::time::Instant::now();
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let waited = sent.elapsed();
    assert!(waited < Duration::from_secs(2), "EOF only after {waited:?}");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(raw.contains("Connection: close\r\n"), "{raw}");
    handle.shutdown();
}

#[test]
fn http10_keep_alive_serves_a_second_request_on_the_same_socket() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for round in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let (status, v) = read_response(&mut reader);
        assert_eq!(status, 200, "round {round}");
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    }
    drop(reader);
    drop(stream);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Adversarial clients: the reactor must answer (or close) every
// misbehaving connection with bounded memory and without parking an
// I/O thread. Each test drives one classic attack shape end to end.
// ---------------------------------------------------------------------------

#[test]
fn slow_loris_headers_get_a_structured_408() {
    let handle = start_with(|cfg| cfg.idle_timeout_ms = 250);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Half a request head, then silence: a classic slow-loris hold.
    stream
        .write_all(b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Ty")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 408, "{}", v.encode());
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("timeout")
    );
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn stalled_body_gets_a_structured_408() {
    let handle = start_with(|cfg| cfg.idle_timeout_ms = 250);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Complete head, body that stops 5 bytes into its declared 50.
    stream
        .write_all(b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{\"con")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 408, "{}", v.encode());
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("timeout")
    );
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn byte_at_a_time_body_is_served_normally() {
    let handle = start(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = config_body(&SystemConfig::paper_default());
    write!(
        stream,
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .unwrap();
    // Dribble the body in small chunks with real pauses: the parser
    // must accumulate across reads without a thread blocked per byte.
    for chunk in body.as_bytes().chunks(body.len() / 6 + 1) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, v) = read_response(&mut BufReader::new(stream));
    assert_eq!(status, 200, "{}", v.encode());
    assert!(v.get("report").is_some());
    handle.shutdown();
}

#[test]
fn oversized_request_gets_413_before_any_body_is_read() {
    let handle = start_with(|cfg| cfg.max_body_bytes = 1024);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Declare a body far over the cap and send none of it: the refusal
    // must arrive from the head alone.
    stream
        .write_all(b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\n\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 413, "{}", v.encode());
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn unterminated_giant_header_line_gets_431() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // 16 KiB of header line with no CRLF in sight: the streaming parser
    // must reject on overflow rather than buffer forever.
    let mut req = b"GET /healthz HTTP/1.1\r\nX-Flood: ".to_vec();
    req.resize(req.len() + 16 * 1024, b'a');
    stream.write_all(&req).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 431, "{}", v.encode());
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn half_closed_socket_still_receives_its_response() {
    let handle = start(2);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = config_body(&SystemConfig::paper_default());
    write!(
        stream,
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // Shut the write half immediately: the reactor sees EOF while the
    // solve is dispatched and must hold the connection for the answer.
    stream.shutdown(Shutdown::Write).unwrap();
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 200, "{}", v.encode());
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn truncated_request_body_gets_a_structured_400() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    // Full close mid-body (unlike the half-close above, nothing more
    // can ever arrive): a structured 400 is still attempted.
    stream
        .write_all(b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{\"con")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 400, "{}", v.encode());
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("bad_request")
    );
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn firehose_behind_a_dispatched_request_meets_tcp_backpressure() {
    use lt_service::{FaultPlan, FaultSpec};
    // A slow solve holds the connection in the Dispatched phase. A
    // client that then floods bytes must NOT be drained into an
    // in-process buffer at full bandwidth for the dispatch duration:
    // past the parser's pipeline cap the reactor defers reads, the
    // kernel buffers fill, and the client's writes stall on TCP
    // backpressure — the same place the blocking front end left them.
    let handle = start_with(|cfg| {
        cfg.max_body_bytes = 1024;
        cfg.fault_plan = Some(Arc::new(FaultPlan::new(FaultSpec {
            seed: 7,
            latency_prob: 1.0,
            latency: Duration::from_secs(2),
            ..FaultSpec::default()
        })));
    });
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let body = config_body(&SystemConfig::paper_default());
    write!(
        stream,
        "POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    // Firehose junk while the solve is parked on the injected latency.
    // The write stream must stall (persistent WouldBlock) long before
    // the ceiling: the cap is ~17 KiB and kernel buffers add a few MiB;
    // the old front end read at full bandwidth and never stalled.
    stream.set_nonblocking(true).unwrap();
    const CEILING: usize = 64 << 20;
    let junk = [b'x'; 8192];
    let mut wrote = 0usize;
    let mut stalled_since: Option<std::time::Instant> = None;
    let backpressured = loop {
        if wrote >= CEILING {
            break false;
        }
        match stream.write(&junk) {
            Ok(n) => {
                wrote += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Transient WouldBlock can outrun even a reading server;
                // only a stall that *persists* proves reads stopped.
                let since = *stalled_since.get_or_insert_with(std::time::Instant::now);
                if since.elapsed() > Duration::from_millis(500) {
                    break true;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("firehose write failed unexpectedly: {e}"),
        }
    };
    assert!(
        backpressured,
        "kernel accepted {wrote} bytes without a persistent stall: the reactor kept reading"
    );
    // The abusive connection is stalled, not the server: a fresh
    // connection still gets served while the flood sits in the kernel.
    let (status, v) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{}", v.encode());
    drop(stream);
    handle.shutdown();
}

#[test]
fn endless_header_lines_get_431_as_they_stream() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    // Stream short header lines past the count limit with no blank
    // terminator in sight: the parser must reject as the lines arrive
    // (well inside the 10s read timeout), not buffer them until the
    // 30s idle timeout answers 408.
    for i in 0..100 {
        stream
            .write_all(format!("X-Flood-{i}: v\r\n").as_bytes())
            .unwrap();
    }
    let (status, v) = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    assert_eq!(status, 431, "{}", v.encode());
    expect_eof(&mut stream);
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = start(1);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Two requests in one write; both answers must come back in order
    // on the same connection.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (status, v) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    let (status, m) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(m.get("endpoints").is_some(), "{}", m.encode());
    drop(stream);
    handle.shutdown();
}

#[test]
fn idle_connection_swarm_is_tracked_by_reactor_gauges() {
    const SWARM: usize = 200;
    let handle = start(1);
    let addr = handle.addr();
    // Hold a swarm of silent keep-alive connections open. With the old
    // thread-per-connection front end this was 200 parked threads; the
    // reactor holds them all on its fixed I/O threads.
    let swarm: Vec<TcpStream> = (0..SWARM)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let reactor_doc = |m: &JsonValue, path: [&str; 2]| {
        m.get("reactor")
            .and_then(|r| r.get(path[0]))
            .and_then(|c| {
                if path[1].is_empty() {
                    Some(c.clone())
                } else {
                    c.get(path[1]).cloned()
                }
            })
            .and_then(|x| x.as_u64())
    };
    await_true("every swarm connection is registered and idle", || {
        let (_, m) = http(addr, "GET", "/metrics", None);
        reactor_doc(&m, ["conn", "idle"]).unwrap_or(0) >= SWARM as u64
    });
    let (status, m) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(reactor_doc(&m, ["accept_errors", ""]), Some(0));
    assert!(
        reactor_doc(&m, ["wakeups", ""]).unwrap() >= 1,
        "registrations arrive via the wakeup channel: {}",
        m.encode()
    );
    assert_eq!(reactor_doc(&m, ["io_threads", ""]), Some(2));
    assert!(
        m.get("reactor")
            .and_then(|r| r.get("handler_threads"))
            .is_some(),
        "{}",
        m.encode()
    );
    // The service still answers promptly under the idle load.
    let (status, v) = http(addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{}", v.encode());
    drop(swarm);
    handle.shutdown();
}
