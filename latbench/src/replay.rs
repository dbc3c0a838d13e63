//! The in-process replay behind the per-layer metrics.
//!
//! The replay sends the first bodies of the traced HTTP window through
//! the same public calls `latencyd` makes on its request path — the
//! incremental HTTP parser, `api` decoding, the canonical solve key, the
//! solution cache at the server's capacity, the worker pool with the
//! server's worker count, network build, the solver with a pooled
//! workspace (sweep items through `solve_seeded` with a per-worker seed,
//! as the server warm-starts them), report extraction, encoding, and the
//! response writer — with one span around each call. Every span carries
//! the request id of the HTTP root span it replays. Spans stay in memory
//! until the run ends.
//!
//! A kernel probe then solves a seeded sample of the workload's configs
//! cold with each iterative rung, which gives every rung a time per
//! iteration on this workload's models even where the Auto ladder never
//! picks it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lt_core::analysis::{solve_network_in, solve_seeded};
use lt_core::json::{self, JsonValue};
use lt_core::metrics::report;
use lt_core::mva::SolverOptions;
use lt_core::qn::build::build_network;
use lt_core::wire::{canonical_solve_key, degraded_solve_key};
use lt_core::{PerformanceReport, SolverChoice, SolverWorkspace, SystemConfig};
use lt_service::api;
use lt_service::http::{ParseStatus, RequestParser, Response};
use lt_service::{SolveCache, WorkerPool, WorkspacePool};

use crate::load::{server_config, Workload};
use crate::stats;

/// One timed layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id (the stream index of the replayed body).
    pub req: u32,
    /// Span id, unique within the request; the root is 0.
    pub id: u32,
    /// Parent span id ([`NO_PARENT`] for the root).
    pub parent: u32,
    /// Layer call.
    pub name: &'static str,
    /// Thread that ran it.
    pub thread: u32,
    /// Start, ns since the replay began.
    pub start: u64,
    /// End, ns since the replay began.
    pub end: u64,
}

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Span id of a single solve's pool job.
const JOB: u32 = 100;
/// Span ids of sweep item `j` start at `ITEM + ITEM_STRIDE * j`.
const ITEM: u32 = 1000;
const ITEM_STRIDE: u32 = 8;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_no() -> u32 {
    THREAD.with(|t| *t)
}

/// Spans of one thread's share of the replay, on a shared clock.
struct Rec {
    t0: Instant,
    spans: Vec<Span>,
}

impl Rec {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, req: u32, id: u32, parent: u32, name: &'static str, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            thread: thread_no(),
            start,
            end,
        });
    }

    /// Run `f` inside span `(req, id)`.
    fn time<T>(
        &mut self,
        req: u32,
        id: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        self.push(req, id, parent, name, start);
        out
    }
}

/// What one replayed solve reports about the solver.
#[derive(Debug, Clone, Copy)]
struct SolveStat {
    rung: &'static str,
    iterations: usize,
}

/// The replay's private server-path state: the same cache capacity and
/// worker count as the pinned server.
struct Path {
    cache: Arc<SolveCache<Arc<PerformanceReport>>>,
    pool: WorkerPool,
    workspaces: Arc<WorkspacePool>,
    workers: usize,
    max_body: usize,
}

/// One call into the worker pool; a single solve is a batch of one.
struct PoolCall {
    /// From submission to each worker's first item, ns.
    waits: Vec<u64>,
    /// From submission until the caller holds every result, ns.
    makespan: u64,
    /// Item run time summed over workers, ns.
    busy: u64,
    /// Workers in the pool.
    workers: usize,
}

/// What replaying one request produced besides its spans.
struct Outcome {
    solves: Vec<SolveStat>,
    call: Option<PoolCall>,
    bytes: usize,
}

/// Everything the replay measured.
pub struct Replay {
    /// Every span, in no particular order.
    pub spans: Vec<Span>,
    /// One entry per solve the server path ran.
    solves: Vec<SolveStat>,
    /// Encoded response bodies' sizes.
    response_bytes: Vec<usize>,
    /// Every call into the worker pool.
    pool_calls: Vec<PoolCall>,
    /// Requests replayed (set-up included).
    pub requests: usize,
}

fn raw_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: latbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse_http(rec: &mut Rec, req: u32, max_body: usize, raw: &[u8]) -> Result<Vec<u8>, String> {
    rec.time(req, 1, 0, "http.parse", || {
        let mut p = RequestParser::new(max_body);
        p.feed(raw);
        match p.poll() {
            ParseStatus::Ready(r) => Ok(r.body),
            other => Err(format!("replay request {req} did not parse: {other:?}")),
        }
    })
}

fn write_http(rec: &mut Rec, req: u32, body: String) -> Result<(), String> {
    rec.time(req, 7, 0, "http.write", || {
        let mut out = Vec::with_capacity(body.len() + 128);
        Response::json(200, body)
            .write_to(&mut out)
            .map_err(|e| format!("write: {e}"))
    })
}

/// One `/v1/solve` request through the server's path.
fn solve_request(rec: &mut Rec, path: &Path, req: u32, raw: &[u8]) -> Result<Outcome, String> {
    let start = rec.now();
    let body = parse_http(rec, req, path.max_body, raw)?;
    let parsed = rec
        .time(req, 2, 0, "api.parse", || api::parse_solve(&body))
        .map_err(|e| format!("replay parse: {}", e.message))?;
    let (key, _degraded) = rec.time(req, 3, 0, "wire.solve_key", || {
        (
            canonical_solve_key(&parsed.config, parsed.solver),
            degraded_solve_key(&parsed.config, parsed.solver),
        )
    });
    let hit = rec.time(req, 4, 0, "cache.get", || path.cache.get(&key));
    let mut solves = Vec::new();
    let mut call = None;
    let (cached, rep) = match hit {
        Some(rep) => (true, rep),
        None => {
            let (cfg, solver, t0) = (parsed.config.clone(), parsed.solver, rec.t0);
            let (cache, workspaces) = (Arc::clone(&path.cache), Arc::clone(&path.workspaces));
            let submit = rec.now();
            let rx = path
                .pool
                .execute(move || solve_job(t0, req, submit, &cfg, solver, key, &cache, &workspaces))
                .ok_or("replay pool closed")?;
            let (result, spans, busy) = rx.recv().map_err(|_| "replay worker lost")?;
            rec.push(req, JOB, 0, "pool.execute", submit);
            let makespan = rec.now() - submit;
            let wait = spans
                .iter()
                .find(|s| s.name == "pool.queue_wait")
                .map(|s| s.end - s.start);
            rec.spans.extend(spans);
            let (rep, s) = result?;
            solves.push(s);
            call = Some(PoolCall {
                waits: wait.into_iter().collect(),
                makespan,
                busy,
                workers: path.workers,
            });
            (false, rep)
        }
    };
    let encoded = rec.time(req, 6, 0, "api.encode", || {
        json::encode(&api::solve_response_doc(cached, &rep))
    });
    let bytes = encoded.len();
    write_http(rec, req, encoded)?;
    rec.push(req, 0, NO_PARENT, "request", start);
    Ok(Outcome {
        solves,
        call,
        bytes,
    })
}

type JobOut = (
    Result<(Arc<PerformanceReport>, SolveStat), String>,
    Vec<Span>,
    u64,
);

/// The pool job of a cache miss: the server's cold single solve, split
/// into network build, solver, and report extraction.
#[allow(clippy::too_many_arguments)]
fn solve_job(
    t0: Instant,
    req: u32,
    submit: u64,
    cfg: &SystemConfig,
    solver: SolverChoice,
    key: String,
    cache: &SolveCache<Arc<PerformanceReport>>,
    workspaces: &WorkspacePool,
) -> JobOut {
    let mut rec = Rec {
        t0,
        spans: Vec::with_capacity(6),
    };
    let begun = rec.now();
    rec.spans.push(Span {
        req,
        id: JOB + 1,
        parent: JOB,
        name: "pool.queue_wait",
        thread: thread_no(),
        start: submit,
        end: begun,
    });
    let result = workspaces.with(|ws, _| {
        let mms = rec
            .time(req, JOB + 2, JOB, "qn.build", || build_network(cfg))
            .map_err(|e| format!("build: {e}"))?;
        let sol = rec
            .time(req, JOB + 3, JOB, "mva.solve", || {
                solve_network_in(&mms, solver, SolverOptions::default(), None, ws)
            })
            .map_err(|e| format!("solve: {e}"))?;
        let rep = Arc::new(rec.time(req, JOB + 4, JOB, "metrics.report", || report(&mms, &sol)));
        rec.time(req, JOB + 5, JOB, "cache.insert", || {
            cache.insert(key, Arc::clone(&rep))
        });
        let stat = SolveStat {
            rung: sol.diagnostics.solver,
            iterations: sol.iterations,
        };
        Ok((rep, stat))
    });
    let busy = rec.now() - begun;
    (result, rec.spans, busy)
}

/// One sweep item's outcome on a pool worker.
struct ItemOut {
    result: Result<(bool, Arc<PerformanceReport>, Option<SolveStat>), String>,
    spans: Vec<Span>,
    thread: u32,
    start: u64,
    end: u64,
}

/// One `/v1/sweep` request through the server's path.
fn sweep_request(rec: &mut Rec, path: &Path, req: u32, raw: &[u8]) -> Result<Outcome, String> {
    let start = rec.now();
    let body = parse_http(rec, req, path.max_body, raw)?;
    let parsed = rec
        .time(req, 2, 0, "api.parse", || api::parse_sweep(&body))
        .map_err(|e| format!("replay parse: {}", e.message))?;
    let (solver, configs, t0) = (parsed.solver, Arc::new(parsed.configs), rec.t0);
    let (cache, workspaces) = (Arc::clone(&path.cache), Arc::clone(&path.workspaces));
    let n = configs.len();
    let call = rec.now();
    let items = path
        .pool
        .run_batch(n, Instant::now() + Duration::from_secs(120), move |j| {
            sweep_item(t0, req, j, &configs[j], solver, &cache, &workspaces)
        })
        .map_err(|e| format!("replay batch: {e:?}"))?;
    rec.push(req, 5, 0, "pool.run_batch", call);
    let makespan = rec.now() - call;
    let mut first_start: BTreeMap<u32, u64> = BTreeMap::new();
    let mut busy = 0;
    let mut solves = Vec::new();
    let mut results: Vec<Result<(bool, Arc<PerformanceReport>), api::ApiError>> =
        Vec::with_capacity(n);
    for item in items {
        let first = first_start.entry(item.thread).or_insert(item.start);
        *first = (*first).min(item.start);
        busy += item.end - item.start;
        rec.spans.extend(item.spans);
        let (cached, rep, stat) = item.result?;
        solves.extend(stat);
        results.push(Ok((cached, rep)));
    }
    let waits = first_start.values().map(|s| s - call).collect();
    let encoded = rec.time(req, 6, 0, "api.encode", || {
        let items: Vec<JsonValue> = results.iter().map(api::sweep_item).collect();
        json::encode(&JsonValue::object(vec![
            ("count", items.len().into()),
            ("results", JsonValue::Array(items)),
        ]))
    });
    let bytes = encoded.len();
    write_http(rec, req, encoded)?;
    rec.push(req, 0, NO_PARENT, "request", start);
    Ok(Outcome {
        solves,
        call: Some(PoolCall {
            waits,
            makespan,
            busy,
            workers: path.workers,
        }),
        bytes,
    })
}

fn sweep_item(
    t0: Instant,
    req: u32,
    j: usize,
    cfg: &SystemConfig,
    solver: SolverChoice,
    cache: &SolveCache<Arc<PerformanceReport>>,
    workspaces: &WorkspacePool,
) -> ItemOut {
    let mut rec = Rec {
        t0,
        spans: Vec::with_capacity(5),
    };
    let id = ITEM + ITEM_STRIDE * j as u32;
    let start = rec.now();
    let key = rec.time(req, id + 1, id, "wire.solve_key", || {
        canonical_solve_key(cfg, solver)
    });
    let result = match rec.time(req, id + 2, id, "cache.get", || cache.get(&key)) {
        Some(rep) => Ok((true, rep, None)),
        None => workspaces.with(|ws, seed| {
            let rep = rec
                .time(req, id + 3, id, "mva.solve", || {
                    solve_seeded(cfg, solver, SolverOptions::default(), seed, ws)
                })
                .map_err(|e| format!("sweep item {j}: {e}"))?;
            let rep = Arc::new(rep);
            rec.time(req, id + 4, id, "cache.insert", || {
                cache.insert(key, Arc::clone(&rep))
            });
            let stat = SolveStat {
                rung: rep.diagnostics.solver,
                iterations: rep.iterations,
            };
            Ok((false, rep, Some(stat)))
        }),
    };
    rec.push(req, id, 5, "pool.item", start);
    let end = rec.now();
    ItemOut {
        result,
        spans: rec.spans,
        thread: thread_no(),
        start,
        end,
    }
}

/// Replay `phases` in order, each to completion before the next starts
/// (set-up, then the timed bodies, as the HTTP run sends them), with
/// `clients` threads sharing one server path. Ids are the bodies' own.
pub fn replay(
    workload: Workload,
    phases: &[Vec<(u32, String)>],
    clients: usize,
) -> Result<Replay, String> {
    let cfg = server_config();
    let path = Path {
        cache: Arc::new(SolveCache::new(cfg.cache_capacity)),
        pool: WorkerPool::new(cfg.workers),
        workspaces: Arc::new(WorkspacePool::new()),
        workers: cfg.workers,
        max_body: cfg.max_body_bytes,
    };
    let t0 = Instant::now();
    let out = Mutex::new(Replay {
        spans: Vec::new(),
        solves: Vec::new(),
        response_bytes: Vec::new(),
        pool_calls: Vec::new(),
        requests: phases.iter().map(Vec::len).sum(),
    });
    let failure = Mutex::new(None);
    for phase in phases {
        let raws: Vec<(u32, Vec<u8>)> = phase
            .iter()
            .map(|(id, b)| (*id, raw_request(workload.path(), b)))
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..clients {
                s.spawn(|| {
                    let mut rec = Rec {
                        t0,
                        spans: Vec::new(),
                    };
                    let (mut solves, mut bytes, mut calls) = (Vec::new(), Vec::new(), Vec::new());
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some((id, raw)) = raws.get(k) else { break };
                        let res = match workload {
                            Workload::SweepGrid => sweep_request(&mut rec, &path, *id, raw),
                            _ => solve_request(&mut rec, &path, *id, raw),
                        };
                        match res {
                            Ok(o) => {
                                solves.extend(o.solves);
                                calls.extend(o.call);
                                bytes.push(o.bytes);
                            }
                            Err(e) => {
                                *failure.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
                                break;
                            }
                        }
                    }
                    let mut o = out.lock().unwrap_or_else(|p| p.into_inner());
                    o.spans.extend(rec.spans);
                    o.solves.extend(solves);
                    o.response_bytes.extend(bytes);
                    o.pool_calls.extend(calls);
                });
            }
        });
    }
    path.pool.shutdown();
    if let Some(e) = failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    Ok(out.into_inner().unwrap_or_else(|p| p.into_inner()))
}

/// The iterative rungs the kernel probe times, with their metric names.
pub const RUNGS: [(SolverChoice, &str); 3] = [
    (SolverChoice::Linearizer, "linearizer"),
    (SolverChoice::SymmetricAmva, "symmetric-amva"),
    (SolverChoice::Amva, "amva"),
];

/// Kernel-probe timings.
pub struct Probe {
    /// Per rung: (ns, iterations) summed over the sample.
    pub rungs: Vec<(&'static str, u64, u64)>,
    /// `build_network` times, ns.
    pub build_ns: Vec<u64>,
    /// `metrics::report` times, ns.
    pub report_ns: Vec<u64>,
}

/// Solve each config cold with every iterative rung through
/// `solve_network_in` (default options, one reused workspace), timing
/// network build, each solve, and report extraction from outside.
pub fn probe(configs: &[SystemConfig]) -> Result<Probe, String> {
    let mut ws = SolverWorkspace::new();
    let mut out = Probe {
        rungs: RUNGS.iter().map(|(_, n)| (*n, 0, 0)).collect(),
        build_ns: Vec::new(),
        report_ns: Vec::new(),
    };
    for cfg in configs {
        let t = Instant::now();
        let mms = build_network(cfg).map_err(|e| format!("probe build: {e}"))?;
        out.build_ns.push(t.elapsed().as_nanos() as u64);
        for (slot, (choice, name)) in out.rungs.iter_mut().zip(RUNGS) {
            let t = Instant::now();
            let sol = solve_network_in(&mms, choice, SolverOptions::default(), None, &mut ws)
                .map_err(|e| format!("probe {name}: {e}"))?;
            slot.1 += t.elapsed().as_nanos() as u64;
            slot.2 += sol.iterations as u64;
            let t = Instant::now();
            std::hint::black_box(report(&mms, &sol));
            out.report_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    Ok(out)
}

/// Mean of nanosecond durations, in µs.
pub fn mean_us(ns: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<f64> = ns.map(|n| n as f64 * 1e-3).collect();
    stats::mean(&v)
}

impl Replay {
    /// Durations of every span named `name`, ns.
    fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.end - s.start)
    }

    /// Mean duration of the spans named `name`, µs.
    pub fn mean_us(&self, name: &str) -> f64 {
        mean_us(self.durations(name))
    }

    /// Mean self time per span name, µs: each span minus the part of it
    /// its children cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children
                    .entry((s.req, s.parent))
                    .or_default()
                    .push((s.start, s.end));
            }
        }
        let mut acc: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&(s.req, s.id)).map_or(&[][..], Vec::as_slice);
            let e = acc.entry(s.name).or_default();
            e.0 += stats::self_time(s.start, s.end, kids) as f64 * 1e-3;
            e.1 += 1;
        }
        acc.into_iter()
            .map(|(k, (t, n))| (k, t / n as f64))
            .collect()
    }

    /// Mean iterations per solve on the server path.
    pub fn iterations_per_solve(&self) -> f64 {
        let it: Vec<f64> = self.solves.iter().map(|s| s.iterations as f64).collect();
        stats::mean(&it)
    }

    /// Share of server-path solves answered by `rung`.
    pub fn rung_share(&self, rung: &str) -> f64 {
        if self.solves.is_empty() {
            return 0.0;
        }
        self.solves.iter().filter(|s| s.rung == rung).count() as f64 / self.solves.len() as f64
    }

    /// Mean encoded response size, bytes.
    pub fn response_bytes(&self) -> f64 {
        let b: Vec<f64> = self.response_bytes.iter().map(|&b| b as f64).collect();
        stats::mean(&b)
    }

    /// Pool metrics: (mean queue wait µs, mean makespan µs, efficiency =
    /// total item busy time ÷ Σ workers × makespan).
    pub fn pool(&self) -> (f64, f64, f64) {
        let waits = mean_us(self.pool_calls.iter().flat_map(|c| c.waits.iter().copied()));
        let makespan = mean_us(self.pool_calls.iter().map(|c| c.makespan));
        let busy: u64 = self.pool_calls.iter().map(|c| c.busy).sum();
        let capacity: u64 = self
            .pool_calls
            .iter()
            .map(|c| c.makespan * c.workers as u64)
            .sum();
        let eff = if capacity == 0 {
            0.0
        } else {
            busy as f64 / capacity as f64
        };
        (waits, makespan, eff)
    }

    /// Solves the server path ran.
    pub fn solves(&self) -> usize {
        self.solves.len()
    }
}
