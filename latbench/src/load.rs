//! Workloads, server set-up, and the closed-loop load generator.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lt_service::{Server, ServerConfig, ServerHandle};

use crate::check::Scrape;
use crate::client::{count, Client, Reply};
use crate::gen::{self, Model, Stream, SWEEP_ITEMS};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a never-seen config: the solver ladder end to end.
    SolveCold,
    /// 64 prewarmed configs: every request a cache hit.
    SolveCached,
    /// One client sending 50-point AMVA sweeps: intra-request parallelism.
    SweepGrid,
}

impl Workload {
    /// All workloads, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::SolveCold,
        Workload::SolveCached,
        Workload::SweepGrid,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCold => "solve-cold",
            Workload::SolveCached => "solve-cached",
            Workload::SweepGrid => "sweep-grid",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients (one keep-alive connection each).
    pub fn clients(self) -> usize {
        match self {
            Workload::SweepGrid => 1,
            _ => 2,
        }
    }

    /// Request path.
    pub fn path(self) -> &'static str {
        match self {
            Workload::SweepGrid => "/v1/sweep",
            _ => "/v1/solve",
        }
    }

    /// The server's endpoint label for [`Workload::path`].
    pub fn endpoint(self) -> &'static str {
        match self {
            Workload::SweepGrid => "sweep",
            _ => "solve",
        }
    }

    /// Solves (cache lookups) per request.
    pub fn items(self) -> usize {
        match self {
            Workload::SweepGrid => SWEEP_ITEMS,
            _ => 1,
        }
    }
}

/// The pinned server configuration every run uses. Deadlines and the
/// idle timeout are far beyond any request here, so nothing 504s or
/// drops a keep-alive connection between phases.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        io_threads: 1,
        cache_capacity: 1024,
        default_timeout_ms: 120_000,
        idle_timeout_ms: 120_000,
        ..ServerConfig::default()
    }
}

/// The request bodies of one workload under one seed.
pub struct Bodies {
    /// Which workload.
    pub workload: Workload,
    /// The seed every body derives from.
    pub seed: u64,
    cached: Vec<String>,
}

impl Bodies {
    /// Bodies for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Bodies {
        let cached = match workload {
            Workload::SolveCached => gen::cached_models(seed)
                .iter()
                .map(Model::solve_body)
                .collect(),
            _ => Vec::new(),
        };
        Bodies {
            workload,
            seed,
            cached,
        }
    }

    /// Body of timed request `i`.
    pub fn timed(&self, i: usize) -> String {
        match self.workload {
            Workload::SolveCold => gen::cold_model(self.seed, Stream::Cold, i).solve_body(),
            Workload::SolveCached => self.cached[gen::cached_pick(self.seed, i)].clone(),
            Workload::SweepGrid => gen::sweep_body(&gen::sweep_base(self.seed, Stream::Sweep, i)),
        }
    }

    /// Set-up requests sent after the server answers `/healthz`: the
    /// `solve-cached` prewarm (all 64 configs) or a short warm-up from a
    /// stream the timed requests never draw from. Every one must miss.
    pub fn setup(&self) -> Vec<String> {
        match self.workload {
            Workload::SolveCold => gen::warmup_models(self.seed)
                .iter()
                .map(Model::solve_body)
                .collect(),
            Workload::SolveCached => self.cached.clone(),
            Workload::SweepGrid => {
                vec![gen::sweep_body(&gen::sweep_base(
                    self.seed,
                    Stream::Warmup,
                    0,
                ))]
            }
        }
    }
}

/// Check one answer inline: status, framing (already enforced by the
/// client), and the `cached` flag the workload implies.
pub fn verify(workload: Workload, expect_cached: bool, reply: &Reply) -> Result<(), String> {
    if reply.status != 200 {
        let text = String::from_utf8_lossy(&reply.body);
        return Err(format!("status {}: {}", reply.status, text));
    }
    let ok = match workload {
        Workload::SweepGrid => {
            let head = format!("{{\"count\":{SWEEP_ITEMS},\"results\":[");
            let item = format!("{{\"ok\":true,\"cached\":{expect_cached},");
            reply.body.starts_with(head.as_bytes())
                && count(&reply.body, item.as_bytes()) == SWEEP_ITEMS
        }
        _ => {
            let head = format!("{{\"cached\":{expect_cached},\"report\":{{");
            reply.body.starts_with(head.as_bytes())
        }
    };
    if ok {
        Ok(())
    } else {
        let text = String::from_utf8_lossy(&reply.body[..reply.body.len().min(120)]);
        Err(format!(
            "unexpected answer (cached should be {expect_cached}): {text}"
        ))
    }
}

/// A running server with its clients' keep-alive connections.
pub struct Running {
    /// The in-process server.
    pub handle: ServerHandle,
    /// One connection per closed-loop client.
    pub clients: Vec<Client>,
}

impl Running {
    /// Close the connections and shut the server down gracefully.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// Start a fresh server, connect the clients, wait until `/healthz`
/// answers, and send the set-up requests. Returns the set-up time.
pub fn start(bodies: &Bodies) -> Result<(Running, Duration), String> {
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let handle = Server::from_listener(listener, server_config())
        .map_err(|e| format!("server: {e}"))?
        .spawn();
    let addr = handle.addr();
    let mut clients = (0..bodies.workload.clients())
        .map(|_| Client::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let ready = clients[0].call("GET", "/healthz", b"")?;
    if ready.status != 200 {
        return Err(format!("/healthz answered {}", ready.status));
    }
    let setup = bodies.setup();
    let n = clients.len();
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (c, client) in clients.iter_mut().enumerate() {
            let (setup, errors) = (&setup, &errors);
            s.spawn(move || {
                for body in setup.iter().skip(c).step_by(n) {
                    let res = client
                        .call("POST", bodies.workload.path(), body.as_bytes())
                        .and_then(|r| verify(bodies.workload, false, &r));
                    if let Err(e) = res {
                        lock(errors).push(format!("set-up request: {e}"));
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    Ok((Running { handle, clients }, started.elapsed()))
}

/// One timed request, as the client saw it: a root span of the trace.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Stream index of the body (the request id).
    pub id: u32,
    /// Which client sent it.
    pub client: u8,
    /// Send time, ns after the window opened.
    pub start_ns: u64,
    /// Last response byte, ns after the window opened.
    pub end_ns: u64,
    /// Response body bytes.
    pub bytes: u32,
    /// Answered 200 with the expected framing and `cached` flag.
    pub ok: bool,
}

/// What one closed-loop window produced.
pub struct LoadRun {
    /// Client-observed latency of every successful request, ns,
    /// ascending. Four bytes a request, so the benchmark's own memory
    /// hardly grows with throughput and `peak_rss_mb` stays the server's.
    pub lat_ns: Vec<u32>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// From the window opening to the last response byte, seconds.
    pub window_s: f64,
    /// The first failure messages (at most a few).
    pub errors: Vec<String>,
    /// Response bodies the caller asked to keep, by the key it chose
    /// (the first body seen per key).
    pub kept: BTreeMap<usize, Vec<u8>>,
    /// Root spans, one per request (traced windows only).
    pub spans: Vec<Sample>,
}

impl LoadRun {
    /// Client-observed latencies of successful requests, ms, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.lat_ns.iter().map(|&ns| f64::from(ns) * 1e-6).collect()
    }

    /// Mean client-observed latency of successful requests, s.
    pub fn mean_latency_s(&self) -> f64 {
        let total: u64 = self.lat_ns.iter().map(|&ns| u64::from(ns)).sum();
        total as f64 * 1e-9 / self.lat_ns.len().max(1) as f64
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One client's share of a window.
#[derive(Default)]
struct ClientRun {
    lat_ns: Vec<u32>,
    attempted: usize,
    failed: usize,
    last_end_ns: u64,
    kept: BTreeMap<usize, Vec<u8>>,
    spans: Vec<Sample>,
}

/// Drive the workload closed loop for `seconds`: each client sends its
/// next request as soon as the previous answer's last byte arrives, with
/// no think time, taking stream indices from one shared counter (so the
/// bodies sent are always a prefix of the stream). Requests in flight
/// when the window closes finish and count. With `trace`, every request
/// also leaves a root span.
pub fn closed_loop(
    running: &mut Running,
    bodies: &Bodies,
    seconds: f64,
    trace: bool,
    keep: &(dyn Fn(usize) -> Option<usize> + Sync),
) -> LoadRun {
    let workload = bodies.workload;
    let expect_cached = workload == Workload::SolveCached;
    let next = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client: Vec<ClientRun> = std::thread::scope(|s| {
        let threads: Vec<_> = running
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (next, errors) = (&next, &errors);
                s.spawn(move || {
                    let mut run = ClientRun::default();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let body = bodies.timed(i);
                        let start = t0.elapsed();
                        let reply = client.call("POST", workload.path(), body.as_bytes());
                        let end = t0.elapsed();
                        run.attempted += 1;
                        run.last_end_ns = end.as_nanos() as u64;
                        let checked =
                            reply.and_then(|r| verify(workload, expect_cached, &r).map(|()| r));
                        let (ok, bytes) = match checked {
                            Ok(r) => {
                                let ns = (end - start).as_nanos();
                                run.lat_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                                let bytes = r.body.len() as u32;
                                if let Some(key) = keep(i) {
                                    run.kept.entry(key).or_insert(r.body);
                                }
                                (true, bytes)
                            }
                            Err(e) => {
                                run.failed += 1;
                                let mut errs = lock(errors);
                                if errs.len() < 5 {
                                    errs.push(format!("request {i}: {e}"));
                                }
                                (false, 0)
                            }
                        };
                        if trace {
                            run.spans.push(Sample {
                                id: i as u32,
                                client: c as u8,
                                start_ns: start.as_nanos() as u64,
                                end_ns: end.as_nanos() as u64,
                                bytes,
                                ok,
                            });
                        }
                        if !ok {
                            // A broken connection cannot carry on; the
                            // failure is counted and the run will fail.
                            break;
                        }
                    }
                    run
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap_or_default())
            .collect()
    });
    let mut out = LoadRun {
        lat_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        window_s: 0.0,
        errors: errors.into_inner().unwrap_or_else(|e| e.into_inner()),
        kept: BTreeMap::new(),
        spans: Vec::new(),
    };
    let mut last = 0;
    for run in per_client {
        out.lat_ns.extend(run.lat_ns);
        out.attempted += run.attempted;
        out.failed += run.failed;
        last = last.max(run.last_end_ns);
        for (key, body) in run.kept {
            out.kept.entry(key).or_insert(body);
        }
        out.spans.extend(run.spans);
    }
    out.lat_ns.sort_unstable();
    out.window_s = last as f64 * 1e-9;
    out
}

/// One measured window: the load and the `/metrics` scrapes around it.
pub struct Window {
    /// The closed-loop requests.
    pub load: LoadRun,
    /// `/metrics` just before the window opened.
    pub before: Scrape,
    /// `/metrics` after the last client finished.
    pub after: Scrape,
}

impl Window {
    /// Requests answered correctly.
    pub fn ok(&self) -> usize {
        self.load.attempted - self.load.failed
    }

    /// Successful requests per second over the window.
    pub fn throughput(&self) -> f64 {
        self.ok() as f64 / self.load.window_s
    }

    /// The closed-loop Little's law ratio `X·R/N`.
    pub fn littles_ratio(&self, clients: usize) -> f64 {
        crate::stats::littles_ratio(self.throughput(), self.load.mean_latency_s(), clients)
    }
}
