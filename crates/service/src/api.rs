//! Request/response schemas for the `latencyd` endpoints: body parsing,
//! parameter-grid expansion for sweeps, and the error-to-status mapping.
//!
//! Everything here is transport-free (bytes in, structured values out) so
//! it unit-tests without sockets; `server.rs` wires it to HTTP, and every
//! error answer is an [`ApiError`] turned into a [`Response`].

use std::time::Duration;

use lt_core::analysis::SolverChoice;
use lt_core::json::{self, JsonValue};
use lt_core::params::SystemConfig;
use lt_core::tolerance::IdealSpec;
use lt_core::wire;
use lt_core::LtError;

use crate::http::Response;

/// Most configs a single sweep request may expand to.
pub const MAX_SWEEP_ITEMS: usize = 4096;

/// A structured API error, ready to serialize as
/// `{"error":{"kind":...,"message":...}}` with the right HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable kind (one of
    /// [`crate::metrics::ERROR_KINDS`]).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, kind: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// A `400 bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// A `bad_request` error answered with `status`: the HTTP parser's
    /// 400/411/413/431 for a malformed request, or 405 for a known path
    /// asked with another method.
    pub fn rejected(status: u16, message: impl Into<String>) -> ApiError {
        ApiError::new(status, "bad_request", message)
    }

    /// A `404 not_found` error.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, "not_found", message)
    }

    /// A `503` error (kind `internal`) for a request the service can no
    /// longer run: it is shutting down, or the request was abandoned.
    pub fn unavailable(message: impl Into<String>) -> ApiError {
        ApiError::new(503, "internal", message)
    }

    /// A `500 internal` error: the service broke one of its own
    /// invariants.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError::new(500, "internal", message)
    }

    /// The `408 timeout` error for a request that stalled mid-transfer
    /// past the connection's idle timeout.
    pub fn stalled(idle_timeout: Duration) -> ApiError {
        let ms = idle_timeout.as_millis();
        ApiError::new(
            408,
            "timeout",
            format!("request stalled mid-transfer beyond the {ms}ms idle timeout"),
        )
    }

    /// The `504 timeout` error for a request that blew its deadline.
    pub fn timeout(timeout_ms: u64) -> ApiError {
        ApiError::new(
            504,
            "timeout",
            format!("request did not complete within {timeout_ms} ms"),
        )
    }

    /// The `429 overloaded` error for a request shed by admission
    /// control. The response carries `Retry-After`.
    pub fn overloaded(in_flight: usize, limit: usize) -> ApiError {
        ApiError::new(
            429,
            "overloaded",
            format!(
                "server is at capacity ({in_flight} requests in flight, limit {limit}); retry later"
            ),
        )
    }

    /// The `500 worker_lost` error for a request whose worker died
    /// mid-solve and whose retry budget is exhausted.
    pub fn worker_lost(attempts: u32) -> ApiError {
        ApiError::new(
            500,
            "worker_lost",
            format!("a worker thread died while solving this request ({attempts} attempt(s) made)"),
        )
    }

    /// The JSON body for this error.
    pub fn body(&self) -> String {
        json::encode(&JsonValue::object(vec![(
            "error",
            JsonValue::object(vec![
                ("kind", self.kind.as_str().into()),
                ("message", self.message.as_str().into()),
            ]),
        )]))
    }
}

impl From<ApiError> for Response {
    /// The error's status with its `{"error":{...}}` body.
    fn from(e: ApiError) -> Response {
        Response::json(e.status, e.body())
    }
}

impl From<LtError> for ApiError {
    /// Model errors map to `400` when the client sent a bad config and
    /// `500` when the solver itself failed.
    fn from(e: LtError) -> ApiError {
        let status = if e.is_client_error() { 400 } else { 500 };
        ApiError::new(status, e.kind(), e.to_string())
    }
}

/// Parsed body of `POST /v1/solve`.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The model to solve.
    pub config: SystemConfig,
    /// Solver to use (default auto).
    pub solver: SolverChoice,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
}

/// Parsed body of `POST /v1/sweep`: an explicit config list or an
/// expanded parameter grid, flattened to one ordered list.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Configs to solve, in response order.
    pub configs: Vec<SystemConfig>,
    /// Solver applied to every item.
    pub solver: SolverChoice,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
}

/// Parsed body of `POST /v1/tolerance`.
#[derive(Debug, Clone)]
pub struct ToleranceRequest {
    /// The real system.
    pub config: SystemConfig,
    /// Which ideal system to compare against.
    pub spec: IdealSpec,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
}

fn parse_body(body: &[u8]) -> Result<JsonValue, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("request body is not UTF-8"))?;
    json::parse(text).map_err(|e| {
        ApiError::bad_request(format!(
            "malformed JSON at byte {}: {}",
            e.offset, e.message
        ))
    })
}

fn parse_common(v: &JsonValue) -> Result<(SolverChoice, Option<u64>), ApiError> {
    let solver = match v.get("solver") {
        None => SolverChoice::Auto,
        Some(s) => {
            let name = s
                .as_str()
                .ok_or_else(|| ApiError::bad_request("\"solver\" must be a string"))?;
            wire::solver_choice_from_str(name)?
        }
    };
    let timeout_ms = match v.get("timeout_ms") {
        None => None,
        Some(t) => Some(t.as_u64().ok_or_else(|| {
            ApiError::bad_request("\"timeout_ms\" must be a non-negative integer")
        })?),
    };
    Ok((solver, timeout_ms))
}

/// Parse a `POST /v1/solve` body.
pub fn parse_solve(body: &[u8]) -> Result<SolveRequest, ApiError> {
    let v = parse_body(body)?;
    let config = v
        .get("config")
        .ok_or_else(|| ApiError::bad_request("missing required field \"config\""))?;
    let config = wire::config_from_json(config)?;
    let (solver, timeout_ms) = parse_common(&v)?;
    Ok(SolveRequest {
        config,
        solver,
        timeout_ms,
    })
}

/// Parse a `POST /v1/tolerance` body.
pub fn parse_tolerance(body: &[u8]) -> Result<ToleranceRequest, ApiError> {
    let v = parse_body(body)?;
    let config = v
        .get("config")
        .ok_or_else(|| ApiError::bad_request("missing required field \"config\""))?;
    let config = wire::config_from_json(config)?;
    let spec = match v.get("spec") {
        None => IdealSpec::ZeroSwitchDelay,
        Some(s) => {
            let name = s
                .as_str()
                .ok_or_else(|| ApiError::bad_request("\"spec\" must be a string"))?;
            wire::ideal_spec_from_str(name)?
        }
    };
    let (_, timeout_ms) = parse_common(&v)?;
    Ok(ToleranceRequest {
        config,
        spec,
        timeout_ms,
    })
}

/// Parse a `POST /v1/sweep` body: either `{"configs":[...]}` or
/// `{"base":{...},"grid":[{"param":...,"values":[...]}]}` (row-major
/// expansion, later axes fastest).
pub fn parse_sweep(body: &[u8]) -> Result<SweepRequest, ApiError> {
    let v = parse_body(body)?;
    let (solver, timeout_ms) = parse_common(&v)?;
    let configs = match (v.get("configs"), v.get("base")) {
        (Some(_), Some(_)) => {
            return Err(ApiError::bad_request(
                "give either \"configs\" or \"base\"+\"grid\", not both",
            ))
        }
        (Some(list), None) => {
            let list = list
                .as_array()
                .ok_or_else(|| ApiError::bad_request("\"configs\" must be an array"))?;
            if list.is_empty() {
                return Err(ApiError::bad_request("\"configs\" must not be empty"));
            }
            list.iter()
                .map(|c| wire::config_from_json(c).map_err(ApiError::from))
                .collect::<Result<Vec<_>, _>>()?
        }
        (None, Some(base)) => {
            let base = wire::config_from_json(base)?;
            let grid = v
                .get("grid")
                .ok_or_else(|| ApiError::bad_request("\"base\" requires a \"grid\" array"))?
                .as_array()
                .ok_or_else(|| ApiError::bad_request("\"grid\" must be an array"))?;
            expand_grid(&base, grid)?
        }
        (None, None) => {
            return Err(ApiError::bad_request(
                "missing \"configs\" (explicit list) or \"base\"+\"grid\" (parameter grid)",
            ))
        }
    };
    if configs.len() > MAX_SWEEP_ITEMS {
        return Err(ApiError::bad_request(format!(
            "sweep expands to {} configs; the limit is {MAX_SWEEP_ITEMS}",
            configs.len()
        )));
    }
    Ok(SweepRequest {
        configs,
        solver,
        timeout_ms,
    })
}

/// One grid axis: a parameter path and the values it takes.
struct Axis {
    param: String,
    values: Vec<f64>,
}

/// Apply one swept parameter to a config. The supported paths are the
/// scalar knobs of the model (topology and pattern changes need explicit
/// `configs`).
fn apply_param(cfg: &SystemConfig, param: &str, value: f64) -> Result<SystemConfig, ApiError> {
    let as_count = |what: &str| -> Result<usize, ApiError> {
        if !lt_core::num::whole_number(value) || value < 0.0 || value > (1u64 << 53) as f64 {
            // lt-lint: allow(LT11, human-facing error text: the rejected grid value is echoed for diagnostics, never parsed back by a peer)
            Err(ApiError::bad_request(format!(
                "grid value {value} for \"{what}\" must be a non-negative integer"
            )))
        } else {
            Ok(value as usize)
        }
    };
    Ok(match param {
        "workload.n_threads" => cfg.with_n_threads(as_count(param)?),
        "workload.runlength" => cfg.with_runlength(value),
        "workload.context_switch" => {
            let mut c = cfg.clone();
            c.workload.context_switch = value;
            c
        }
        "workload.p_remote" => cfg.with_p_remote(value),
        "arch.memory_latency" => cfg.with_memory_latency(value),
        "arch.switch_delay" => cfg.with_switch_delay(value),
        "arch.memory_ports" => cfg.with_memory_ports(as_count(param)?),
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown sweep parameter \"{other}\" (supported: workload.n_threads, \
                 workload.runlength, workload.context_switch, workload.p_remote, \
                 arch.memory_latency, arch.switch_delay, arch.memory_ports)"
            )))
        }
    })
}

/// Row-major cartesian expansion of the grid axes over `base`. Every
/// produced config is validated, so a bad corner fails the request with a
/// field-level error instead of surfacing later on a worker.
fn expand_grid(base: &SystemConfig, grid: &[JsonValue]) -> Result<Vec<SystemConfig>, ApiError> {
    if grid.is_empty() {
        return Err(ApiError::bad_request("\"grid\" must not be empty"));
    }
    let mut axes = Vec::with_capacity(grid.len());
    for (i, axis) in grid.iter().enumerate() {
        let param = axis
            .get("param")
            .and_then(|p| p.as_str())
            .ok_or_else(|| ApiError::bad_request(format!("grid[{i}] needs a string \"param\"")))?
            .to_string();
        let values = axis
            .get("values")
            .and_then(|v| v.as_array())
            .ok_or_else(|| ApiError::bad_request(format!("grid[{i}] needs a \"values\" array")))?
            .iter()
            .map(|x| {
                x.as_f64().ok_or_else(|| {
                    ApiError::bad_request(format!("grid[{i}].values must be numbers"))
                })
            })
            .collect::<Result<Vec<f64>, _>>()?;
        if values.is_empty() {
            return Err(ApiError::bad_request(format!(
                "grid[{i}].values must not be empty"
            )));
        }
        axes.push(Axis { param, values });
    }
    let total: usize = axes
        .iter()
        .try_fold(1usize, |acc, a| acc.checked_mul(a.values.len()))
        .filter(|&t| t <= MAX_SWEEP_ITEMS)
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "grid expands past the {MAX_SWEEP_ITEMS}-config limit"
            ))
        })?;
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; axes.len()];
    loop {
        let mut cfg = base.clone();
        for (a, &i) in axes.iter().zip(&idx) {
            cfg = apply_param(&cfg, &a.param, a.values[i])?;
        }
        cfg.validate()?;
        out.push(cfg);
        // Odometer increment, last axis fastest (row-major).
        let mut k = axes.len();
        loop {
            if k == 0 {
                return Ok(out);
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < axes[k].values.len() {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// The `{"cached":...,"report":...}` document of a successful solve,
/// pre-encoding. Cluster mode appends the routing envelope
/// ([`lt_core::wire::with_cluster_envelope`]) before serialization;
/// single-node mode encodes it as-is.
pub fn solve_response_doc(cached: bool, report: &lt_core::metrics::PerformanceReport) -> JsonValue {
    JsonValue::object(vec![
        ("cached", cached.into()),
        ("report", wire::report_to_json(report)),
    ])
}

/// The `{"cached":...,"report":...}` body of a successful solve.
pub fn solve_response(cached: bool, report: &lt_core::metrics::PerformanceReport) -> String {
    json::encode(&solve_response_doc(cached, report))
}

/// Append a `forwarded` flag to a sweep item (cluster mode only, so
/// single-node sweep responses are byte-identical to previous releases).
pub fn sweep_item_with_forwarded(item: JsonValue, forwarded: bool) -> JsonValue {
    let JsonValue::Object(mut fields) = item else {
        return item;
    };
    fields.retain(|(k, _)| k != "forwarded");
    fields.push(("forwarded".to_string(), forwarded.into()));
    JsonValue::Object(fields)
}

/// One item of a sweep response.
pub fn sweep_item(
    result: &Result<(bool, std::sync::Arc<lt_core::metrics::PerformanceReport>), ApiError>,
) -> JsonValue {
    match result {
        Ok((cached, report)) => JsonValue::object(vec![
            ("ok", true.into()),
            ("cached", (*cached).into()),
            ("report", wire::report_to_json(report)),
        ]),
        Err(e) => JsonValue::object(vec![
            ("ok", false.into()),
            (
                "error",
                JsonValue::object(vec![
                    ("kind", e.kind.as_str().into()),
                    ("message", e.message.as_str().into()),
                ]),
            ),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_json() -> String {
        json::encode(&wire::config_to_json(&SystemConfig::paper_default()))
    }

    #[test]
    fn solve_request_parses_with_defaults() {
        let body = format!("{{\"config\":{}}}", cfg_json());
        let req = parse_solve(body.as_bytes()).unwrap();
        assert_eq!(req.config, SystemConfig::paper_default());
        assert_eq!(req.solver, SolverChoice::Auto);
        assert_eq!(req.timeout_ms, None);
    }

    #[test]
    fn solve_request_honors_solver_and_timeout() {
        let body = format!(
            "{{\"config\":{},\"solver\":\"exact\",\"timeout_ms\":250}}",
            cfg_json()
        );
        let req = parse_solve(body.as_bytes()).unwrap();
        assert_eq!(req.solver, SolverChoice::Exact);
        assert_eq!(req.timeout_ms, Some(250));
    }

    #[test]
    fn malformed_json_is_bad_request() {
        let e = parse_solve(b"{not json").unwrap_err();
        assert_eq!(e.status, 400);
        assert_eq!(e.kind, "bad_request");
        assert!(e.body().contains("\"error\""));
    }

    #[test]
    fn invalid_config_reports_the_field() {
        let body = r#"{"config":{"workload":{"n_threads":0,"runlength":1,"p_remote":0.2,
            "pattern":{"kind":"geometric","p_sw":0.5}},
            "arch":{"topology":{"kind":"torus","k":4},"memory_latency":1,"switch_delay":1}}}"#;
        let e = parse_solve(body.as_bytes()).unwrap_err();
        assert_eq!(e.status, 400);
        assert_eq!(e.kind, "invalid_field");
        assert!(e.message.contains("n_threads"), "{}", e.message);
    }

    #[test]
    fn sweep_with_explicit_configs() {
        let body = format!("{{\"configs\":[{0},{0}]}}", cfg_json());
        let req = parse_sweep(body.as_bytes()).unwrap();
        assert_eq!(req.configs.len(), 2);
    }

    #[test]
    fn sweep_grid_expands_row_major() {
        let body = format!(
            "{{\"base\":{},\"grid\":[\
              {{\"param\":\"workload.n_threads\",\"values\":[2,4]}},\
              {{\"param\":\"workload.p_remote\",\"values\":[0.1,0.2,0.3]}}]}}",
            cfg_json()
        );
        let req = parse_sweep(body.as_bytes()).unwrap();
        assert_eq!(req.configs.len(), 6);
        // Last axis fastest: (2,0.1) (2,0.2) (2,0.3) (4,0.1) ...
        assert_eq!(req.configs[0].workload.n_threads, 2);
        assert_eq!(req.configs[0].workload.p_remote, 0.1);
        assert_eq!(req.configs[2].workload.p_remote, 0.3);
        assert_eq!(req.configs[3].workload.n_threads, 4);
        assert_eq!(req.configs[3].workload.p_remote, 0.1);
    }

    #[test]
    fn sweep_grid_rejects_bad_corner_upfront() {
        let body = format!(
            "{{\"base\":{},\"grid\":[{{\"param\":\"workload.p_remote\",\"values\":[0.1,1.5]}}]}}",
            cfg_json()
        );
        let e = parse_sweep(body.as_bytes()).unwrap_err();
        assert_eq!(e.kind, "invalid_field");
        assert!(e.message.contains("p_remote"), "{}", e.message);
    }

    #[test]
    fn sweep_rejects_unknown_param_and_oversize() {
        let body = format!(
            "{{\"base\":{},\"grid\":[{{\"param\":\"arch.coolness\",\"values\":[1]}}]}}",
            cfg_json()
        );
        assert!(parse_sweep(body.as_bytes())
            .unwrap_err()
            .message
            .contains("arch.coolness"));

        let many: Vec<String> = (0..70).map(|i| format!("{}", i + 1)).collect();
        let body = format!(
            "{{\"base\":{base},\"grid\":[\
              {{\"param\":\"workload.n_threads\",\"values\":[{vals}]}},\
              {{\"param\":\"workload.runlength\",\"values\":[{vals}]}}]}}",
            base = cfg_json(),
            vals = many.join(",")
        );
        let e = parse_sweep(body.as_bytes()).unwrap_err();
        assert!(e.message.contains("limit"), "{}", e.message);
    }

    #[test]
    fn sweep_rejects_both_forms_and_neither() {
        let body = format!("{{\"configs\":[{0}],\"base\":{0},\"grid\":[]}}", cfg_json());
        assert!(parse_sweep(body.as_bytes())
            .unwrap_err()
            .message
            .contains("not both"));
        assert!(parse_sweep(b"{}").unwrap_err().message.contains("missing"));
    }

    #[test]
    fn tolerance_request_parses_spec() {
        let body = format!("{{\"config\":{},\"spec\":\"memory\"}}", cfg_json());
        let req = parse_tolerance(body.as_bytes()).unwrap();
        assert_eq!(req.spec, IdealSpec::ZeroMemoryDelay);
        let body = format!("{{\"config\":{}}}", cfg_json());
        assert_eq!(
            parse_tolerance(body.as_bytes()).unwrap().spec,
            IdealSpec::ZeroSwitchDelay,
            "network ideal is the default"
        );
    }

    #[test]
    fn lt_error_maps_to_status_by_class() {
        let client: ApiError = lt_core::LtError::InvalidField {
            field: "x".into(),
            reason: "y".into(),
        }
        .into();
        assert_eq!(client.status, 400);
        let server: ApiError = lt_core::LtError::NoConvergence {
            solver: "amva",
            iterations: 10,
            residual: 1.0,
            trace: vec![1.0],
        }
        .into();
        assert_eq!(server.status, 500);
        assert_eq!(server.kind, "no_convergence");
    }

    #[test]
    fn sweep_item_forwarded_flag_appends_and_replaces() {
        let item = JsonValue::object(vec![("ok", true.into())]);
        let tagged = sweep_item_with_forwarded(item, true);
        assert_eq!(
            tagged.get("forwarded").and_then(|v| v.as_bool()),
            Some(true)
        );
        let retagged = sweep_item_with_forwarded(tagged, false);
        assert_eq!(
            retagged.get("forwarded").and_then(|v| v.as_bool()),
            Some(false)
        );
        let fields = retagged.as_object().unwrap();
        assert_eq!(
            fields.iter().filter(|(k, _)| k == "forwarded").count(),
            1,
            "no duplicate keys"
        );
    }

    #[test]
    fn timeout_error_shape() {
        let e = ApiError::timeout(50);
        assert_eq!(e.status, 504);
        let body = e.body();
        assert!(body.contains("\"kind\":\"timeout\""), "{body}");
    }

    #[test]
    fn constructed_errors_keep_their_wire_shapes() {
        for (e, status, kind) in [
            (ApiError::rejected(431, "m"), 431, "bad_request"),
            (ApiError::not_found("m"), 404, "not_found"),
            (ApiError::unavailable("m"), 503, "internal"),
            (ApiError::internal("m"), 500, "internal"),
        ] {
            assert_eq!(
                (e.status, e.kind.as_str(), e.message.as_str()),
                (status, kind, "m")
            );
        }
        let e = ApiError::stalled(Duration::from_millis(250));
        assert_eq!((e.status, e.kind.as_str()), (408, "timeout"));
        assert_eq!(
            e.message,
            "request stalled mid-transfer beyond the 250ms idle timeout"
        );
        let resp = Response::from(ApiError::not_found("no such endpoint: /x"));
        assert_eq!(resp.status, 404);
        assert_eq!(
            resp.body,
            br#"{"error":{"kind":"not_found","message":"no such endpoint: /x"}}"#
        );
    }

    #[test]
    fn overload_and_worker_lost_error_shapes() {
        let e = ApiError::overloaded(9, 8);
        assert_eq!(e.status, 429);
        assert_eq!(e.kind, "overloaded");
        assert!(e.message.contains("limit 8"), "{}", e.message);

        let e = ApiError::worker_lost(3);
        assert_eq!(e.status, 500);
        assert_eq!(e.kind, "worker_lost");
        assert!(e.body().contains("\"kind\":\"worker_lost\""));
    }
}
