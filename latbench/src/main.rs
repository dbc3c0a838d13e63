//! `latbench` — the repository benchmark: closed-loop `latencyd`
//! workloads over loopback HTTP, with a per-layer traced replay.
//!
//! ```text
//! cargo run --release --manifest-path latbench/Cargo.toml -- \
//!     --workload solve-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it measures the same workload twice (untraced, then with
//! root spans), replays the traced bodies in-process with a span around
//! every layer call, and prints the per-layer metrics. Either way the
//! last stdout line is one JSON object, and every check in
//! [`check`] must pass or the run exits non-zero. See `README.md`.

mod check;
mod client;
mod gen;
mod layers;
mod load;
mod replay;
mod stats;

use std::process::ExitCode;

use lt_core::json::{self, JsonValue};

use crate::check::Scrape;
use crate::load::{Bodies, Running, Window, Workload};

/// Servers started (and timed) per run; `setup_s` is their median. The
/// first serves the timed window; the rest start after it.
const SETUP_REPS: usize = 9;
/// `solve-cold`: the gate decodes this many answers among the first
/// [`COLD_SAMPLE_RANGE`] requests.
const COLD_SAMPLES: usize = 24;
const COLD_SAMPLE_RANGE: usize = 2 * gen::COLD_BLOCK;
/// `sweep-grid`: the gate decodes this many sweeps among the first
/// [`SWEEP_SAMPLE_RANGE`] requests.
const SWEEP_SAMPLES: usize = 4;
const SWEEP_SAMPLE_RANGE: usize = 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: latbench --workload <solve-cold|solve-cached|sweep-grid> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Run one timed window on `running` and scrape around it.
fn measure(
    running: &mut Running,
    bodies: &Bodies,
    seconds: u64,
    trace: bool,
) -> Result<Window, String> {
    let w = bodies.workload;
    let before = Scrape::take(&mut running.clients[0], w.endpoint())?;
    let keep_cold = gen::sample_indices(bodies.seed, COLD_SAMPLE_RANGE, COLD_SAMPLES);
    let keep_sweep = gen::sample_indices(bodies.seed, SWEEP_SAMPLE_RANGE, SWEEP_SAMPLES);
    let keep = |i: usize| match w {
        Workload::SolveCold => keep_cold.binary_search(&i).ok().map(|_| i),
        Workload::SolveCached => Some(gen::cached_pick(bodies.seed, i)),
        Workload::SweepGrid => keep_sweep.binary_search(&i).ok().map(|_| i),
    };
    let load = load::closed_loop(running, bodies, seconds as f64, trace, &keep);
    let after = Scrape::take(&mut running.clients[0], w.endpoint())?;
    Ok(Window {
        load,
        before,
        after,
    })
}

/// Time `reps` more set-ups, each on a fresh server stopped right after.
fn more_setups(bodies: &Bodies, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let (running, took) = load::start(bodies)?;
            running.stop();
            Ok(took.as_secs_f64())
        })
        .collect()
}

/// Everything the gate found wrong with a window: failed requests,
/// accounting against `/metrics`, the Little's-law band, and the
/// decoded sample of answers.
fn gate(bodies: &Bodies, win: &Window) -> Vec<String> {
    let w = bodies.workload;
    let mut bad: Vec<String> = win.load.errors.clone();
    let attempted = win.load.attempted as u64;
    bad.extend(check::accounting(w, &win.before, &win.after, attempted));
    let ratio = win.littles_ratio(w.clients());
    let (lo, hi) = check::LITTLES_BAND;
    if !(lo..=hi).contains(&ratio) {
        bad.push(format!(
            "Little's law: X*R/N = {ratio:.4} is outside [{lo}, {hi}]: the load generator stalled"
        ));
    }
    let kept = &win.load.kept;
    let answers: Vec<(usize, Result<(), String>)> = match w {
        Workload::SolveCold => gen::sample_indices(bodies.seed, COLD_SAMPLE_RANGE, COLD_SAMPLES)
            .into_iter()
            .map(|i| {
                let model = gen::cold_model(bodies.seed, gen::Stream::Cold, i);
                (
                    i,
                    sampled(kept, i).and_then(|b| check::check_solve(&model, b)),
                )
            })
            .collect(),
        Workload::SolveCached => gen::cached_models(bodies.seed)
            .iter()
            .enumerate()
            .map(|(j, model)| {
                (
                    j,
                    sampled(kept, j).and_then(|b| check::check_solve(model, b)),
                )
            })
            .collect(),
        Workload::SweepGrid => gen::sample_indices(bodies.seed, SWEEP_SAMPLE_RANGE, SWEEP_SAMPLES)
            .into_iter()
            .map(|i| {
                let base = gen::sweep_base(bodies.seed, gen::Stream::Sweep, i);
                (
                    i,
                    sampled(kept, i).and_then(|b| check::check_sweep(&base, b)),
                )
            })
            .collect(),
    };
    for (i, res) in answers {
        if let Err(e) = res {
            bad.push(format!("answer {i}: {e}"));
        }
    }
    bad
}

fn sampled(kept: &std::collections::BTreeMap<usize, Vec<u8>>, key: usize) -> Result<&[u8], String> {
    kept.get(&key)
        .map(Vec::as_slice)
        .ok_or_else(|| "never answered: the run sent too few requests".to_string())
}

/// Host-wide `(steal, total)` CPU time in clock ticks from `/proc/stat`:
/// time the hypervisor gave this machine's CPUs to someone else.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{r}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, win: &Window) -> JsonValue {
    let cfg = load::server_config();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    JsonValue::object(vec![
        ("git_sha", git_sha().into()),
        ("host", host.trim().into()),
        ("cpu", cpu.into()),
        ("nproc", nproc.into()),
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("clients", args.workload.clients().into()),
        ("setup_reps", SETUP_REPS.into()),
        (
            "server_config",
            JsonValue::object(vec![
                ("workers", cfg.workers.into()),
                ("io_threads", cfg.io_threads.into()),
                ("cache_capacity", cfg.cache_capacity.into()),
                ("default_timeout_ms", cfg.default_timeout_ms.into()),
                ("idle_timeout_ms", cfg.idle_timeout_ms.into()),
                ("max_queue_depth", cfg.max_queue_depth.into()),
                ("max_body_bytes", cfg.max_body_bytes.into()),
                ("retry_max", u64::from(cfg.retry_max).into()),
            ]),
        ),
        ("samples", win.load.attempted.into()),
        ("samples_ok", win.ok().into()),
        ("window_s", win.load.window_s.into()),
    ])
}

/// A metric as the output line carries it.
fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object(vec![("value", value.into()), ("unit", unit.into())])
}

fn run() -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let bodies = Bodies::new(args.workload, args.seed);
    let clients = args.workload.clients();

    let (mut running, first_setup) = load::start(&bodies)?;
    let steal0 = cpu_steal();
    let win = measure(&mut running, &bodies, args.seconds, false)?;
    let steal1 = cpu_steal();
    // Peak memory through one server's set-up and load, read before the
    // other set-ups and the gate's reference solves can add to it.
    let rss = peak_rss_mb()?;
    running.stop();
    let mut setup_times = vec![first_setup.as_secs_f64()];
    setup_times.extend(more_setups(&bodies, SETUP_REPS - 1)?);
    let steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let mut problems = gate(&bodies, &win);

    let lat = win.load.latencies_ms();
    let p50 = stats::percentile(&lat, 0.50);
    let p99 = stats::percentile(&lat, 0.99);
    if p99.is_none() {
        problems.push(format!(
            "only {} timed requests: p99 needs at least 1000",
            lat.len()
        ));
    }
    let mut attempted = win.load.attempted;
    let mut failed = win.load.failed;
    let setup_s = stats::median(&setup_times);
    println!(
        "{}: throughput_rps={:.2} 1/s  latency_p50_ms={:.4} ms  latency_p99_ms={:.4} ms \
         (n={})  error_ratio={} ({failed}/{attempted})  setup_s={:.4} s (median of {})  \
         peak_rss_mb={:.1} MiB  littles_ratio={:.4}  cpu_steal={:.1}%",
        args.workload.name(),
        win.throughput(),
        p50.unwrap_or(f64::NAN),
        p99.unwrap_or(f64::NAN),
        lat.len(),
        failed as f64 / attempted.max(1) as f64,
        setup_s,
        setup_times.len(),
        rss,
        win.littles_ratio(clients),
        100.0 * steal,
    );

    let mut prov = provenance(&args, &win);
    if let JsonValue::Object(fields) = &mut prov {
        fields.push(("cpu_steal".into(), steal.into()));
    }
    let metrics = if args.trace {
        // The traced window: a fresh server, the same seed and bodies,
        // root spans kept and written out; then the in-process replay.
        let (mut running, _) = load::start(&bodies)?;
        let tw = measure(&mut running, &bodies, args.seconds, true)?;
        running.stop();
        problems.extend(gate(&bodies, &tw));
        attempted += tw.load.attempted;
        failed += tw.load.failed;
        let layers = layers::per_layer(&bodies, &tw, win.throughput())?;
        if let JsonValue::Object(fields) = &mut prov {
            fields.extend(layers.provenance.iter().cloned());
        }
        let path = layers::write_trace(&bodies, &prov, &tw, &layers)?;
        println!(
            "traced: throughput_rps={:.2} 1/s (untraced {:.2}; tracing overhead {:+.2}%), spans in {path}",
            tw.throughput(),
            win.throughput(),
            100.0 * (1.0 - tw.throughput() / win.throughput()),
        );
        for (name, us) in &layers.self_us {
            println!("self_time {name:<20} {us:>12.3} us");
        }
        for (name, m) in &layers.metrics {
            let v = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            println!("{name:<36} {v:>14.4} {unit}");
        }
        layers.metrics
    } else {
        vec![
            (
                "throughput_rps".to_string(),
                metric(win.throughput(), "1/s"),
            ),
            (
                "latency_p50_ms".to_string(),
                metric(p50.unwrap_or(0.0), "ms"),
            ),
            (
                "latency_p99_ms".to_string(),
                metric(p99.unwrap_or(0.0), "ms"),
            ),
            ("setup_s".to_string(), metric(setup_s, "s")),
            ("peak_rss_mb".to_string(), metric(rss, "MiB")),
        ]
    };
    println!("provenance {}", json::encode(&prov));
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    let out = JsonValue::object(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", json::encode(&out));
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("latbench: {e}");
            ExitCode::from(2)
        }
    }
}
