//! The correctness gate: `/metrics` accounting across the timed window,
//! and decoded answers checked against in-process reference solves.

use lt_core::analysis::solve_network_with;
use lt_core::json::{self, JsonValue};
use lt_core::metrics::report;
use lt_core::mva::SolverOptions;
use lt_core::qn::build::build_network;
use lt_core::wire::report_from_json;
use lt_core::{solve_with, PerformanceReport, SolverChoice};

use crate::client::Client;
use crate::gen::{self, Model};
use crate::load::Workload;

/// Relative band within which a served single solve must match a
/// tight-tolerance (1e-13) solve by the rung its diagnostics name. The
/// solvers stop at a 1e-10 max-norm queue change; over 1200 generated
/// configs the worst gap on the four measures was 2.3e-9 (Linearizer),
/// so an answer outside this band was bought with looser convergence or
/// is wrong.
pub const TIGHT_BAND: f64 = 1e-7;
/// Relative band within which a warm-started sweep item must match a
/// cold solve of the same point by the same solver (worst gap seen over
/// 600 points: 4.4e-10).
pub const WARM_BAND: f64 = 1e-7;
/// Closed-loop Little's law ratio band: below it the generator stalled or
/// added think time; above 1 is impossible for a correct closed loop.
pub const LITTLES_BAND: (f64, f64) = (0.85, 1.0 + 1e-9);

/// The counters of one `GET /metrics` scrape the gate and the per-layer
/// metrics read.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Requests counted on the workload's endpoint.
    pub requests: u64,
    /// Errors summed over every endpoint.
    pub endpoint_errors: u64,
    /// Errors summed over every error kind.
    pub error_kinds: u64,
    /// Server-side latency samples (every endpoint, `/metrics` included).
    pub lat_count: u64,
    /// Mean server-side dispatch latency, ms.
    pub lat_mean_ms: f64,
    /// Solution-cache hits.
    pub hits: u64,
    /// Solution-cache misses.
    pub misses: u64,
    /// Solution-cache evictions.
    pub evictions: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Worker-lost retries.
    pub retries: u64,
    /// Pool workers killed by panicking jobs.
    pub workers_lost: u64,
    /// Solves that started from a warm seed.
    pub warm_hits: u64,
    /// Solves that started cold.
    pub cold_solves: u64,
    /// Per-worker solver workspaces built.
    pub workspaces_created: u64,
    /// Reactor wakeups through its message channel.
    pub wakeups: u64,
    /// Handler threads ever spawned.
    pub handler_threads_spawned: u64,
    /// Responses at full fidelity (exact or approximate).
    pub full: u64,
    /// Responses answered from a degraded rung or bounds.
    pub not_full: u64,
}

fn at<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    path.iter()
        .try_fold(doc, |v, k| v.get(k))
        .ok_or_else(|| format!("/metrics has no {}", path.join(".")))
}

fn count_at(doc: &JsonValue, path: &[&str]) -> Result<u64, String> {
    at(doc, path)?
        .as_u64()
        .ok_or_else(|| format!("/metrics {} is not a count", path.join(".")))
}

fn sum_counts(v: &JsonValue, field: Option<&str>) -> u64 {
    v.as_object()
        .unwrap_or(&[])
        .iter()
        .filter_map(|(_, x)| match field {
            Some(f) => x.get(f).and_then(JsonValue::as_u64),
            None => x.as_u64(),
        })
        .sum()
}

impl Scrape {
    /// Scrape `/metrics` over `client`'s connection.
    pub fn take(client: &mut Client, endpoint: &str) -> Result<Scrape, String> {
        let reply = client.call("GET", "/metrics", b"")?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        let text = std::str::from_utf8(&reply.body).map_err(|_| "/metrics is not UTF-8")?;
        let doc = json::parse(text).map_err(|e| format!("/metrics is not JSON: {e:?}"))?;
        let fid = at(&doc, &["resilience", "responses_by_fidelity"])?;
        let fid_count = |label: &str| fid.get(label).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(Scrape {
            requests: count_at(&doc, &["endpoints", endpoint, "requests"])?,
            endpoint_errors: sum_counts(at(&doc, &["endpoints"])?, Some("errors")),
            error_kinds: sum_counts(at(&doc, &["errors_by_kind"])?, None),
            lat_count: count_at(&doc, &["latency", "count"])?,
            lat_mean_ms: at(&doc, &["latency", "mean_ms"])?
                .as_f64()
                .ok_or("/metrics latency.mean_ms is not a number")?,
            hits: count_at(&doc, &["cache", "hits"])?,
            misses: count_at(&doc, &["cache", "misses"])?,
            evictions: count_at(&doc, &["cache", "evictions"])?,
            shed: count_at(&doc, &["resilience", "shed"])?,
            retries: count_at(&doc, &["resilience", "retries"])?,
            workers_lost: count_at(&doc, &["pool", "workers_lost"])?,
            warm_hits: count_at(&doc, &["solver", "warm_hits"])?,
            cold_solves: count_at(&doc, &["solver", "cold_solves"])?,
            workspaces_created: count_at(&doc, &["solver", "workspaces_created"])?,
            wakeups: count_at(&doc, &["reactor", "wakeups"])?,
            handler_threads_spawned: count_at(&doc, &["reactor", "handler_threads_spawned"])?,
            full: fid_count("exact") + fid_count("approximate"),
            not_full: fid_count("degraded") + fid_count("bounds"),
        })
    }

    /// Mean server dispatch latency, µs, of the samples recorded between
    /// `before` and `self`.
    pub fn dispatch_mean_us_since(&self, before: &Scrape) -> f64 {
        let n = self.lat_count.saturating_sub(before.lat_count);
        if n == 0 {
            return 0.0;
        }
        let total =
            self.lat_mean_ms * self.lat_count as f64 - before.lat_mean_ms * before.lat_count as f64;
        total / n as f64 * 1e3
    }
}

/// Every way the server's counter deltas over the timed window disagree
/// with what the client sent (`requests` attempted).
pub fn accounting(w: Workload, before: &Scrape, after: &Scrape, requests: u64) -> Vec<String> {
    let d = |f: fn(&Scrape) -> u64| f(after).wrapping_sub(f(before));
    let lookups = requests * w.items() as u64;
    let mut bad = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            bad.push(format!(
                "accounting: {what} moved by {got}, expected {want}"
            ));
        }
    };
    expect("endpoint requests", d(|s| s.requests), requests);
    expect(
        "cache hits + misses",
        d(|s| s.hits) + d(|s| s.misses),
        lookups,
    );
    expect(
        "cold_solves + warm_hits",
        d(|s| s.cold_solves) + d(|s| s.warm_hits),
        d(|s| s.misses),
    );
    match w {
        Workload::SolveCached => expect("cache misses", d(|s| s.misses), 0),
        _ => expect("cache hits", d(|s| s.hits), 0),
    }
    expect("full-fidelity responses", d(|s| s.full), lookups);
    expect("degraded or bounds responses", d(|s| s.not_full), 0);
    // The scrape that opened the window records its own latency after
    // it was served, so it lands inside the window.
    expect("server latency samples", d(|s| s.lat_count), requests + 1);
    expect("shed", d(|s| s.shed), 0);
    expect("retries", d(|s| s.retries), 0);
    expect("workers_lost", d(|s| s.workers_lost), 0);
    expect("endpoint errors", d(|s| s.endpoint_errors), 0);
    expect("errors by kind", d(|s| s.error_kinds), 0);
    bad
}

fn decode_report(v: &JsonValue) -> Result<PerformanceReport, String> {
    report_from_json(v).map_err(|e| format!("report does not decode: {e}"))
}

fn measures(r: &PerformanceReport) -> [(&'static str, f64); 4] {
    [
        ("u_p", r.u_p),
        ("s_obs", r.s_obs),
        ("l_obs", r.l_obs),
        ("lambda_net", r.lambda_net),
    ]
}

fn within(got: &PerformanceReport, want: &PerformanceReport, band: f64) -> Result<(), String> {
    for ((name, a), (_, b)) in measures(got).into_iter().zip(measures(want)) {
        let rel = (a - b).abs() / b.abs().max(1e-12);
        if rel.is_nan() || rel > band {
            return Err(format!(
                "{name} = {a} is {rel:.2e} from the reference {b} (band {band:e})"
            ));
        }
    }
    Ok(())
}

/// The rung a report's diagnostics name, as a solver choice.
pub fn rung_choice(solver: &str) -> Option<SolverChoice> {
    match solver {
        "exact-mva" => Some(SolverChoice::Exact),
        "linearizer" => Some(SolverChoice::Linearizer),
        "symmetric-amva" => Some(SolverChoice::SymmetricAmva),
        "amva" => Some(SolverChoice::Amva),
        _ => None,
    }
}

/// Options for the reference solves: a tolerance 1000× tighter than the
/// solvers' default.
pub fn tight_options() -> SolverOptions {
    SolverOptions {
        tolerance: 1e-13,
        max_iterations: 1_000_000,
        ..SolverOptions::default()
    }
}

/// Check a served `/v1/solve` answer for `model`: bit-identical to an
/// in-process `solve_with(cfg, Auto)` on the four paper measures, full
/// fidelity, and within [`TIGHT_BAND`] of a tight-tolerance solve by the
/// rung its diagnostics name.
pub fn check_solve(model: &Model, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8")?;
    let doc = json::parse(text).map_err(|e| format!("answer is not JSON: {e:?}"))?;
    let got = decode_report(doc.get("report").ok_or("answer has no report")?)?;
    let cfg = model.config();
    let want = solve_with(&cfg, SolverChoice::Auto).map_err(|e| format!("reference solve: {e}"))?;
    for ((name, a), (_, b)) in measures(&got).into_iter().zip(measures(&want)) {
        if a.to_bits() != b.to_bits() {
            return Err(format!("{name} = {a} differs from solve_with(Auto) = {b}"));
        }
    }
    if !got.fidelity.is_full() {
        return Err(format!("fidelity {} is not full", got.fidelity.label()));
    }
    let rung = rung_choice(got.diagnostics.solver)
        .ok_or_else(|| format!("unknown rung {:?}", got.diagnostics.solver))?;
    let mms = build_network(&cfg).map_err(|e| format!("build: {e}"))?;
    let tight = solve_network_with(&mms, rung, tight_options())
        .map_err(|e| format!("tight {} solve: {e}", got.diagnostics.solver))?;
    within(&got, &report(&mms, &tight), TIGHT_BAND)
}

/// Check a served `/v1/sweep` answer over `base`: 50 full-fidelity AMVA
/// items in grid order, each within [`WARM_BAND`] of a cold AMVA solve.
pub fn check_sweep(base: &Model, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8")?;
    let doc = json::parse(text).map_err(|e| format!("answer is not JSON: {e:?}"))?;
    let items = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or("sweep answer has no results array")?;
    let models = gen::sweep_items(base);
    if items.len() != models.len() {
        return Err(format!("{} items, expected {}", items.len(), models.len()));
    }
    for (j, (item, model)) in items.iter().zip(&models).enumerate() {
        if item.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("item {j} is not ok"));
        }
        let got = decode_report(item.get("report").ok_or("item has no report")?)?;
        if !got.fidelity.is_full() || got.diagnostics.solver != "amva" {
            return Err(format!(
                "item {j}: fidelity {} by {}, expected full by amva",
                got.fidelity.label(),
                got.diagnostics.solver
            ));
        }
        let cold = solve_with(&model.config(), SolverChoice::Amva)
            .map_err(|e| format!("item {j} reference: {e}"))?;
        within(&got, &cold, WARM_BAND).map_err(|e| format!("item {j}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accepts_a_consistent_window_and_names_each_mismatch() {
        let before = Scrape {
            requests: 10,
            lat_count: 12,
            hits: 3,
            misses: 7,
            cold_solves: 7,
            full: 10,
            ..Scrape::default()
        };
        let mut after = before.clone();
        after.requests += 100;
        after.lat_count += 101;
        after.misses += 100;
        after.cold_solves += 100;
        after.full += 100;
        assert!(accounting(Workload::SolveCold, &before, &after, 100).is_empty());
        after.shed += 1;
        after.hits += 1;
        let bad = accounting(Workload::SolveCold, &before, &after, 100);
        assert!(bad.iter().any(|b| b.contains("shed")), "{bad:?}");
        assert!(bad.iter().any(|b| b.contains("cache hits")), "{bad:?}");
    }

    #[test]
    fn dispatch_mean_is_the_mean_of_the_window_only() {
        let before = Scrape {
            lat_count: 10,
            lat_mean_ms: 1.0,
            ..Scrape::default()
        };
        let after = Scrape {
            lat_count: 30,
            lat_mean_ms: 2.0,
            ..Scrape::default()
        };
        // 60 ms total minus 10 ms before, over 20 samples: 2.5 ms.
        assert!((after.dispatch_mean_us_since(&before) - 2500.0).abs() < 1e-9);
    }
}
