//! Per-layer metrics of a traced run, and the span file it leaves.
//!
//! Three sources, each measured from outside the program:
//! * the traced HTTP window — `/metrics` deltas (server dispatch time,
//!   reactor wakeups, cache and warm-start counters) and the client's
//!   root spans;
//! * the in-process replay of that window's first bodies
//!   ([`crate::replay`]) — one span per layer call on the server path;
//! * the kernel probe — each iterative rung solving a sample of the
//!   workload's configs cold.

use std::fmt::Write as _;

use lt_core::json::{self, JsonValue};

use crate::gen::{self, Stream, K_VALUES};
use crate::load::{Bodies, Window, Workload};
use crate::replay::{self, Replay};

/// Timed bodies the replay takes from the start of the traced window:
/// two full stratified blocks on `solve-cold` (so the rung mix, and with
/// it `mva.iterations_per_solve`, repeats exactly for a seed).
fn replay_len(w: Workload) -> usize {
    match w {
        Workload::SolveCold => 2 * gen::COLD_BLOCK,
        Workload::SolveCached => 4096,
        Workload::SweepGrid => 100,
    }
}

/// The configs the kernel probe solves: two per torus size from the
/// workload's own stream, or every fifth point of its first sweep.
fn probe_configs(bodies: &Bodies) -> Vec<lt_core::SystemConfig> {
    let seed = bodies.seed;
    let models: Vec<gen::Model> = match bodies.workload {
        Workload::SolveCold => K_VALUES
            .iter()
            .flat_map(|&k| {
                (0..)
                    .map(move |i| gen::cold_model(seed, Stream::Cold, i))
                    .filter(move |m| m.k == k)
                    .take(2)
            })
            .collect(),
        Workload::SolveCached => {
            let set = gen::cached_models(seed);
            K_VALUES
                .iter()
                .flat_map(|&k| {
                    set.iter()
                        .filter(move |m| m.k == k)
                        .take(2)
                        .cloned()
                        .collect::<Vec<_>>()
                })
                .collect()
        }
        Workload::SweepGrid => gen::sweep_items(&gen::sweep_base(seed, Stream::Sweep, 0))
            .into_iter()
            .step_by(5)
            .collect(),
    };
    models.iter().map(gen::Model::config).collect()
}

/// The result of the per-layer half of a traced run.
pub struct Layers {
    /// `(name, {value, unit})` for every per-layer metric.
    pub metrics: Vec<(String, JsonValue)>,
    /// Extra provenance: tracing overhead, replay and probe sizes.
    pub provenance: Vec<(String, JsonValue)>,
    /// Mean self time per span name, µs.
    pub self_us: Vec<(String, f64)>,
    /// The replay's spans, for the span file.
    pub replay: Replay,
}

fn metric(name: &str, value: f64, unit: &str) -> (String, JsonValue) {
    (
        name.to_string(),
        JsonValue::object(vec![("value", value.into()), ("unit", unit.into())]),
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replay, probe, and assemble every per-layer metric for the traced
/// window `tw`; `untraced_rps` is the untraced window's throughput.
pub fn per_layer(bodies: &Bodies, tw: &Window, untraced_rps: f64) -> Result<Layers, String> {
    let w = bodies.workload;
    let n = replay_len(w);
    if tw.load.attempted < n {
        return Err(format!(
            "the traced window sent {} requests; the replay needs the first {n}",
            tw.load.attempted
        ));
    }
    // Set-up bodies had no root span; their ids sit far above any
    // timed request's.
    const SETUP_ID: u32 = 1 << 30;
    let setup: Vec<(u32, String)> = bodies
        .setup()
        .into_iter()
        .enumerate()
        .map(|(k, b)| (SETUP_ID + k as u32, b))
        .collect();
    let timed: Vec<(u32, String)> = (0..n).map(|i| (i as u32, bodies.timed(i))).collect();
    let rep = replay::replay(w, &[setup, timed], w.clients())?;
    let probe = replay::probe(&probe_configs(bodies))?;

    let (before, after) = (&tw.before, &tw.after);
    let d = |f: fn(&crate::check::Scrape) -> u64| f(after).saturating_sub(f(before));
    let requests = tw.load.attempted as u64;
    let dispatch_us = after.dispatch_mean_us_since(before);
    let client_mean_us = tw.load.mean_latency_s() * 1e6;
    let (queue_wait, makespan, efficiency) = rep.pool();
    let (build_us, report_us) = match w {
        // Sweep items build and report inside `solve_seeded`, one public
        // call; the probe times both on the sweep's own configs.
        Workload::SweepGrid => (
            replay::mean_us(probe.build_ns.iter().copied()),
            replay::mean_us(probe.report_ns.iter().copied()),
        ),
        _ => (rep.mean_us("qn.build"), rep.mean_us("metrics.report")),
    };
    let mut metrics = vec![
        metric("mva.solve_us", rep.mean_us("mva.solve"), "us"),
        metric(
            "mva.iterations_per_solve",
            rep.iterations_per_solve(),
            "count",
        ),
    ];
    for (name, ns, iters) in &probe.rungs {
        metrics.push(metric(
            &format!("mva.ns_per_iteration.{name}"),
            ratio(*ns, *iters),
            "ns",
        ));
    }
    for rung in ["exact", "linearizer", "symmetric-amva", "amva"] {
        let label = if rung == "exact" { "exact-mva" } else { rung };
        metrics.push(metric(
            &format!("analysis.rung_share.{rung}"),
            rep.rung_share(label),
            "ratio",
        ));
    }
    metrics.extend([
        metric("qn.build_us", build_us, "us"),
        metric("metrics.report_us", report_us, "us"),
        metric("pool.queue_wait_us", queue_wait, "us"),
        metric("pool.batch_makespan_us", makespan, "us"),
        metric("pool.batch_efficiency", efficiency, "ratio"),
        metric(
            "workspace.warm_hit_ratio",
            ratio(
                d(|s| s.warm_hits),
                d(|s| s.warm_hits) + d(|s| s.cold_solves),
            ),
            "ratio",
        ),
        metric(
            "workspace.created",
            after.workspaces_created as f64,
            "count",
        ),
        metric("cache.get_us", rep.mean_us("cache.get"), "us"),
        metric("cache.insert_us", rep.mean_us("cache.insert"), "us"),
        metric(
            "cache.hit_ratio",
            ratio(d(|s| s.hits), d(|s| s.hits) + d(|s| s.misses)),
            "ratio",
        ),
        metric("cache.evictions", d(|s| s.evictions) as f64, "count"),
        metric("api.parse_us", rep.mean_us("api.parse"), "us"),
        metric("wire.solve_key_us", rep.mean_us("wire.solve_key"), "us"),
        metric("api.encode_us", rep.mean_us("api.encode"), "us"),
        metric("api.response_bytes", rep.response_bytes(), "bytes"),
        metric("http.parse_us", rep.mean_us("http.parse"), "us"),
        metric("http.write_us", rep.mean_us("http.write"), "us"),
        metric("server.dispatch_mean_us", dispatch_us, "us"),
        metric(
            "frontend.overhead_mean_us",
            client_mean_us - dispatch_us,
            "us",
        ),
        metric(
            "reactor.wakeups_per_request",
            ratio(d(|s| s.wakeups), requests),
            "1/request",
        ),
        metric(
            "reactor.handler_threads_spawned",
            after.handler_threads_spawned as f64,
            "count",
        ),
        metric("loadgen.samples", requests as f64, "count"),
        metric(
            "loadgen.littles_ratio",
            tw.littles_ratio(w.clients()),
            "ratio",
        ),
    ]);

    let overhead = 1.0 - tw.throughput() / untraced_rps;
    let provenance = vec![
        ("tracing_overhead".to_string(), overhead.into()),
        ("traced_throughput_rps".to_string(), tw.throughput().into()),
        ("untraced_throughput_rps".to_string(), untraced_rps.into()),
        ("traced_samples".to_string(), tw.load.attempted.into()),
        ("replay_requests".to_string(), rep.requests.into()),
        ("replay_timed_requests".to_string(), n.into()),
        ("replay_solves".to_string(), rep.solves().into()),
        ("replay_spans".to_string(), rep.spans.len().into()),
        ("probe_configs".to_string(), probe.build_ns.len().into()),
    ];
    let self_us = rep
        .self_times_us()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Ok(Layers {
        metrics,
        provenance,
        self_us,
        replay: rep,
    })
}

/// Write the run's spans to `.bench_trace/<workload>-seed<seed>.json`:
/// provenance, mean self time per layer, the HTTP root spans
/// `[id, client, send_ns, last_byte_ns, bytes, ok]`, and the replay spans
/// `[req, id, parent, name, thread, start_ns, end_ns]` (parent -1 for a
/// root).
pub fn write_trace(
    bodies: &Bodies,
    provenance: &JsonValue,
    tw: &Window,
    layers: &Layers,
) -> Result<String, String> {
    let dir = ".bench_trace";
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/{}-seed{}.json", bodies.workload.name(), bodies.seed);
    let mut out = String::with_capacity(64 * (tw.load.spans.len() + layers.replay.spans.len()));
    let self_us = JsonValue::Object(
        layers
            .self_us
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
            .collect(),
    );
    // Writing into a String cannot fail.
    let _ = write!(
        out,
        "{{\"provenance\":{},\"self_time_us\":{},\"root_spans\":[",
        json::encode(provenance),
        json::encode(&self_us)
    );
    for (k, s) in tw.load.spans.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}[{},{},{},{},{},{}]",
            s.id, s.client, s.start_ns, s.end_ns, s.bytes, s.ok
        );
    }
    out.push_str("],\"replay_spans\":[");
    for (k, s) in layers.replay.spans.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let parent = if s.parent == replay::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = write!(
            out,
            "{sep}[{},{},{parent},\"{}\",{},{},{}]",
            s.req, s.id, s.name, s.thread, s.start, s.end
        );
    }
    out.push_str("]}\n");
    std::fs::write(&path, out).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}
