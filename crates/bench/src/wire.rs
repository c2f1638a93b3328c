//! Wire schema of the `lintra-serve` protocol.
//!
//! The service speaks newline-delimited JSON over TCP: one request per
//! line, one response per line, both rendered with
//! [`Json::render_compact`] so a value never spans lines. This module is
//! the single source of truth for that schema — the server, the client,
//! and the CLI `request` subcommand all parse and render through it, so
//! they cannot drift apart.
//!
//! A request names an operation (`ping`, `optimize`, `sweep`, `tables`),
//! carries a client-chosen `id` echoed back verbatim, and may bound its
//! own latency with `deadline_ms`. A response either carries a `result`
//! object or a structured `error` with the taxonomy the rest of the
//! pipeline uses: an [`ErrorClass`] label, a stable grepable code
//! (`RES-OVERLOAD`, `RES-DEADLINE`, …), and a human message. The class
//! decides the CLI exit code, exactly as for local failures.
//!
//! The optional `fault` member is the chaos-testing hook: servers started
//! with fault injection enabled honor it (`slow-worker`, `slow-sweep`,
//! `worker-panic`, `conn-drop`), production servers reject it.
//!
//! # Versions
//!
//! `lintra-wire/v2` added idempotency: a request may declare its version
//! with the `wire` member and carry a client-supplied `request_id` key.
//! A server with a journal persists each keyed request before executing
//! it and answers a retried `request_id` with the journaled, bit-identical
//! result instead of recomputing. The compatibility contract:
//!
//! * a v1 frame (no `wire`, no `request_id`) parses and behaves exactly
//!   as before — v1 clients need no change;
//! * a v2 frame against a v1 server is safe: v1 servers ignore unknown
//!   members, so the request executes (without dedup);
//! * a frame declaring an *unknown* version parses structurally but must
//!   be rejected by the server with `VAL-CONFIG`
//!   ([`WireRequest::check_version`]) — never misinterpreted.

use crate::json::Json;
use lintra::ErrorClass;

/// First wire-protocol version: correlation ids, deadlines, chaos faults.
pub const WIRE_V1: &str = "lintra-wire/v1";

/// Second wire-protocol version: adds `wire` (declared version) and
/// `request_id` (idempotency key) members; v1 frames still parse.
pub const WIRE_V2: &str = "lintra-wire/v2";

/// Ceiling on the `request_id` idempotency key length, bytes: the key is
/// persisted in the write-ahead journal, so unbounded keys would let a
/// client bloat the durability layer.
pub const MAX_REQUEST_ID_LEN: usize = 128;

/// Ceiling on `sweep`'s `max_i`: a request asking for a deeper unfolding
/// sweep than any caller legitimately needs is load, not work, and is
/// rejected as malformed before touching the engine.
pub const MAX_SWEEP_I: u32 = 4096;

/// The operations the service understands.
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Liveness probe; the response result is `{"pong": true}`.
    Ping,
    /// Run one optimizer strategy on one suite design.
    Optimize {
        /// Suite design name (`"chemical"`, `"iir5"`, …).
        design: String,
        /// `"single"`, `"multi"`, or `"asic"` (validated by the server).
        strategy: String,
        /// Initial supply voltage.
        v0: f64,
        /// Processor count for `multi` (`None` = the design's state
        /// count).
        processors: Option<usize>,
    },
    /// Per-sample operation counts across an unfolding sweep.
    Sweep {
        /// Suite design name.
        design: String,
        /// Largest unfolding factor (inclusive), `<=` [`MAX_SWEEP_I`].
        max_i: u32,
    },
    /// Regenerate the paper's Tables 2–4.
    Tables {
        /// Initial supply voltage.
        v0: f64,
    },
}

impl WireOp {
    /// The wire name of the operation.
    pub fn name(&self) -> &'static str {
        match self {
            WireOp::Ping => "ping",
            WireOp::Optimize { .. } => "optimize",
            WireOp::Sweep { .. } => "sweep",
            WireOp::Tables { .. } => "tables",
        }
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: String,
    /// The operation to run.
    pub op: WireOp,
    /// Per-request latency budget, milliseconds (`None` = the server's
    /// default deadline).
    pub deadline_ms: Option<u64>,
    /// Chaos-injection hook; only honored by servers started with fault
    /// injection enabled.
    pub fault: Option<String>,
    /// Idempotency key ([`WIRE_V2`]): a durable server journals keyed
    /// requests and answers a retried key with the journaled result.
    pub request_id: Option<String>,
    /// Declared wire version (`None` = a v1 frame, which predates the
    /// member). Servers reject unknown versions via [`check_version`].
    ///
    /// [`check_version`]: WireRequest::check_version
    pub wire: Option<String>,
}

impl WireRequest {
    /// A request with no deadline override, no fault, and no
    /// idempotency key — the v1-compatible shape.
    pub fn new(id: impl Into<String>, op: WireOp) -> WireRequest {
        WireRequest {
            id: id.into(),
            op,
            deadline_ms: None,
            fault: None,
            request_id: None,
            wire: None,
        }
    }

    /// Attaches an idempotency key, upgrading the frame to [`WIRE_V2`].
    #[must_use]
    pub fn with_request_id(mut self, request_id: impl Into<String>) -> WireRequest {
        self.request_id = Some(request_id.into());
        self.wire = Some(WIRE_V2.to_string());
        self
    }

    /// Validates the declared wire version against the versions this
    /// build speaks.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch for an unknown version —
    /// the server wraps it as a `VAL-CONFIG` response (a *configuration*
    /// disagreement between peers, distinct from the syntactic
    /// `VAL-MALFORMED-REQUEST`).
    pub fn check_version(&self) -> Result<(), String> {
        match self.wire.as_deref() {
            None | Some(WIRE_V1) | Some(WIRE_V2) => Ok(()),
            Some(other) => Err(format!(
                "unsupported wire version \"{other}\" (this server speaks {WIRE_V1} and {WIRE_V2})"
            )),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        if let Some(wire) = &self.wire {
            pairs.push(("wire", Json::Str(wire.clone())));
        }
        pairs.push(("id", Json::Str(self.id.clone())));
        if let Some(rid) = &self.request_id {
            pairs.push(("request_id", Json::Str(rid.clone())));
        }
        pairs.push(("op", Json::Str(self.op.name().to_string())));
        match &self.op {
            WireOp::Ping => {}
            WireOp::Optimize {
                design,
                strategy,
                v0,
                processors,
            } => {
                pairs.push(("design", Json::Str(design.clone())));
                pairs.push(("strategy", Json::Str(strategy.clone())));
                pairs.push(("v0", Json::Num(*v0)));
                if let Some(n) = processors {
                    pairs.push(("processors", Json::Num(*n as f64)));
                }
            }
            WireOp::Sweep { design, max_i } => {
                pairs.push(("design", Json::Str(design.clone())));
                pairs.push(("max_i", Json::Num(f64::from(*max_i))));
            }
            WireOp::Tables { v0 } => {
                pairs.push(("v0", Json::Num(*v0)));
            }
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::Num(ms as f64)));
        }
        if let Some(fault) = &self.fault {
            pairs.push(("fault", Json::Str(fault.clone())));
        }
        Json::obj(pairs)
    }

    /// Renders the one-line wire form, newline included.
    pub fn render_line(&self) -> String {
        let mut line = self.to_json().render_compact();
        line.push('\n');
        line
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation —
    /// the server wraps it as a `VAL-MALFORMED-REQUEST` response.
    pub fn parse(line: &str) -> Result<WireRequest, String> {
        let doc = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"id\"")?
            .to_string();
        let op_name = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"op\"")?;
        let design = || -> Result<String, String> {
            Ok(doc
                .get("design")
                .and_then(Json::as_str)
                .ok_or(format!("op \"{op_name}\" needs a string \"design\""))?
                .to_string())
        };
        let v0 = match doc.get("v0") {
            None => 3.3,
            Some(v) => v.as_num().ok_or("\"v0\" must be a number")?,
        };
        let op = match op_name {
            "ping" => WireOp::Ping,
            "optimize" => {
                let strategy = doc
                    .get("strategy")
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or("\"strategy\" must be a string")
                    })
                    .transpose()?
                    .unwrap_or_else(|| "single".to_string());
                let processors = doc
                    .get("processors")
                    .map(|p| {
                        p.as_num()
                            .filter(|n| n.fract() == 0.0 && *n >= 0.0 && *n <= usize::MAX as f64)
                            .map(|n| n as usize)
                            .ok_or("\"processors\" must be a non-negative integer")
                    })
                    .transpose()?;
                WireOp::Optimize {
                    design: design()?,
                    strategy,
                    v0,
                    processors,
                }
            }
            "sweep" => {
                let max_i = match doc.get("max_i") {
                    None => 16,
                    Some(v) => v
                        .as_num()
                        .filter(|n| n.fract() == 0.0 && *n >= 0.0 && *n <= f64::from(MAX_SWEEP_I))
                        .map(|n| n as u32)
                        .ok_or(format!("\"max_i\" must be an integer in 0..={MAX_SWEEP_I}"))?,
                };
                WireOp::Sweep {
                    design: design()?,
                    max_i,
                }
            }
            "tables" => WireOp::Tables { v0 },
            other => return Err(format!("unknown op \"{other}\"")),
        };
        let deadline_ms = doc
            .get("deadline_ms")
            .map(|v| {
                v.as_num()
                    .filter(|n| n.fract() == 0.0 && *n >= 1.0 && *n <= u64::MAX as f64)
                    .map(|n| n as u64)
                    .ok_or("\"deadline_ms\" must be a positive integer")
            })
            .transpose()?;
        let fault = doc.get("fault").map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or("\"fault\" must be a string")
        });
        let fault = fault.transpose()?;
        let wire = doc
            .get("wire")
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or("\"wire\" must be a string")
            })
            .transpose()?;
        let request_id = doc
            .get("request_id")
            .map(|r| {
                let rid = r.as_str().ok_or("\"request_id\" must be a string")?;
                if rid.is_empty() {
                    return Err("\"request_id\" must not be empty".to_string());
                }
                if rid.len() > MAX_REQUEST_ID_LEN {
                    return Err(format!(
                        "\"request_id\" must be at most {MAX_REQUEST_ID_LEN} bytes"
                    ));
                }
                if !rid.bytes().all(|b| b.is_ascii_graphic()) {
                    return Err("\"request_id\" must be printable ASCII with no spaces".to_string());
                }
                Ok::<String, String>(rid.to_string())
            })
            .transpose()?;
        Ok(WireRequest {
            id,
            op,
            deadline_ms,
            fault,
            request_id,
            wire,
        })
    }
}

/// A structured error crossing the wire: the same class/code/message
/// taxonomy local [`lintra::LintraError`]s carry.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFailure {
    /// Failure class; decides the client-side exit code.
    pub class: ErrorClass,
    /// Stable grepable code, e.g. `"RES-OVERLOAD"`.
    pub code: String,
    /// Human-readable message (context frames flattened in).
    pub message: String,
}

impl WireFailure {
    /// The class-based process exit code, identical to a local failure's.
    pub fn exit_code(&self) -> i32 {
        self.class.exit_code()
    }
}

impl std::fmt::Display for WireFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error[{}] {}: {}",
            self.code,
            self.class.label(),
            self.message
        )
    }
}

/// One response line: the echoed id plus either a result or a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// The request's id (empty when the request was too malformed to
    /// carry one).
    pub id: String,
    /// Result payload, or the classified failure.
    pub outcome: Result<Json, WireFailure>,
}

impl WireResponse {
    /// A success response.
    pub fn ok(id: impl Into<String>, result: Json) -> WireResponse {
        WireResponse {
            id: id.into(),
            outcome: Ok(result),
        }
    }

    /// A failure response.
    pub fn err(id: impl Into<String>, failure: WireFailure) -> WireResponse {
        WireResponse {
            id: id.into(),
            outcome: Err(failure),
        }
    }

    /// Renders the one-line wire form, newline included.
    pub fn render_line(&self) -> String {
        let doc = match &self.outcome {
            Ok(result) => Json::obj([
                ("id", Json::Str(self.id.clone())),
                ("ok", Json::Bool(true)),
                ("result", result.clone()),
            ]),
            Err(failure) => Json::obj([
                ("id", Json::Str(self.id.clone())),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::obj([
                        ("class", Json::Str(failure.class.label().to_string())),
                        ("code", Json::Str(failure.code.clone())),
                        ("message", Json::Str(failure.message.clone())),
                        ("exit_code", Json::Num(f64::from(failure.class.exit_code()))),
                    ]),
                ),
            ]),
        };
        let mut line = doc.render_compact();
        line.push('\n');
        line
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation; the client treats an
    /// unparseable response like a dropped connection (retryable).
    pub fn parse(line: &str) -> Result<WireResponse, String> {
        let doc = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("response needs a string \"id\"")?
            .to_string();
        match doc.get("ok") {
            Some(Json::Bool(true)) => {
                let result = doc
                    .get("result")
                    .cloned()
                    .ok_or("ok response needs \"result\"")?;
                Ok(WireResponse {
                    id,
                    outcome: Ok(result),
                })
            }
            Some(Json::Bool(false)) => {
                let e = doc.get("error").ok_or("error response needs \"error\"")?;
                let class_label = e
                    .get("class")
                    .and_then(Json::as_str)
                    .ok_or("error needs a \"class\"")?;
                let class = ErrorClass::from_label(class_label)
                    .ok_or_else(|| format!("unknown error class \"{class_label}\""))?;
                let code = e
                    .get("code")
                    .and_then(Json::as_str)
                    .ok_or("error needs a \"code\"")?
                    .to_string();
                let message = e
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                Ok(WireResponse {
                    id,
                    outcome: Err(WireFailure {
                        class,
                        code,
                        message,
                    }),
                })
            }
            _ => Err("response needs a boolean \"ok\"".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let cases = [
            WireRequest::new("r1", WireOp::Ping),
            WireRequest {
                deadline_ms: Some(2500),
                ..WireRequest::new(
                    "r2",
                    WireOp::Optimize {
                        design: "chemical".into(),
                        strategy: "multi".into(),
                        v0: 5.0,
                        processors: Some(3),
                    },
                )
            },
            WireRequest {
                fault: Some("slow-worker".into()),
                ..WireRequest::new(
                    "r3",
                    WireOp::Sweep {
                        design: "iir5".into(),
                        max_i: 12,
                    },
                )
            },
            WireRequest::new("r4", WireOp::Tables { v0: 3.3 }),
            WireRequest::new("r5", WireOp::Tables { v0: 3.3 }).with_request_id("job-42"),
        ];
        for req in cases {
            let line = req.render_line();
            assert!(line.ends_with('\n') && !line.trim_end().contains('\n'));
            assert_eq!(WireRequest::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_both_outcomes() {
        let ok = WireResponse::ok("a", Json::obj([("pong", Json::Bool(true))]));
        assert_eq!(WireResponse::parse(&ok.render_line()).unwrap(), ok);

        let err = WireResponse::err(
            "b",
            WireFailure {
                class: ErrorClass::Resource,
                code: "RES-OVERLOAD".into(),
                message: "admission queue full".into(),
            },
        );
        let line = err.render_line();
        assert!(line.contains("\"exit_code\":4"), "{line}");
        assert_eq!(WireResponse::parse(&line).unwrap(), err);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for bad in lintra::diag::fault::malformed_request_lines(7) {
            assert!(
                WireRequest::parse(&bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert!(
            WireRequest::parse("{\"id\":\"x\",\"op\":\"sweep\"}").is_err(),
            "missing design"
        );
        assert!(
            WireRequest::parse("{\"id\":\"x\",\"op\":\"sweep\",\"design\":\"iir5\",\"max_i\":1e9}")
                .is_err(),
            "absurd max_i must be rejected"
        );
        assert!(
            WireRequest::parse("{\"id\":\"x\",\"op\":\"ping\",\"deadline_ms\":0}").is_err(),
            "zero deadline must be rejected"
        );
    }

    #[test]
    fn v1_frames_still_parse_as_the_compatibility_path() {
        // A frame rendered before the `wire`/`request_id` members existed.
        let req = WireRequest::parse("{\"id\":\"x\",\"op\":\"ping\"}").unwrap();
        assert_eq!(req.wire, None);
        assert_eq!(req.request_id, None);
        assert!(req.check_version().is_ok());

        // An explicit v1 declaration is also accepted.
        let req = WireRequest::parse("{\"wire\":\"lintra-wire/v1\",\"id\":\"x\",\"op\":\"ping\"}")
            .unwrap();
        assert_eq!(req.wire.as_deref(), Some(WIRE_V1));
        assert!(req.check_version().is_ok());
    }

    #[test]
    fn v2_request_ids_round_trip_and_declare_the_version() {
        let req = WireRequest::new("r9", WireOp::Ping).with_request_id("retry-me-7");
        assert_eq!(req.wire.as_deref(), Some(WIRE_V2));
        let line = req.render_line();
        assert!(line.contains("\"wire\":\"lintra-wire/v2\""), "{line}");
        assert!(line.contains("\"request_id\":\"retry-me-7\""), "{line}");
        let back = WireRequest::parse(&line).unwrap();
        assert_eq!(back, req);
        assert!(back.check_version().is_ok());
    }

    #[test]
    fn unknown_wire_versions_parse_but_fail_version_negotiation() {
        // Structurally valid, semantically from the future: the parse
        // succeeds (so the server can answer with the right correlation
        // id) and check_version carries the rejection.
        let req = WireRequest::parse("{\"wire\":\"lintra-wire/v9\",\"id\":\"x\",\"op\":\"ping\"}")
            .unwrap();
        let err = req.check_version().unwrap_err();
        assert!(err.contains("lintra-wire/v9"), "{err}");
        assert!(err.contains(WIRE_V2), "{err}");

        // A non-string version is a syntax error, not a negotiation one.
        assert!(WireRequest::parse("{\"wire\":2,\"id\":\"x\",\"op\":\"ping\"}").is_err());
    }

    #[test]
    fn request_id_keys_are_bounded_printable_ascii() {
        let ok = |rid: &str| {
            WireRequest::parse(&format!(
                "{{\"id\":\"x\",\"op\":\"ping\",\"request_id\":{rid}}}"
            ))
        };
        assert!(ok("\"a\"").is_ok());
        assert!(ok(&format!("\"{}\"", "k".repeat(MAX_REQUEST_ID_LEN))).is_ok());
        assert!(ok("\"\"").is_err(), "empty key");
        assert!(
            ok(&format!("\"{}\"", "k".repeat(MAX_REQUEST_ID_LEN + 1))).is_err(),
            "oversized key"
        );
        assert!(ok("\"has space\"").is_err(), "embedded space");
        assert!(ok("42").is_err(), "non-string key");
    }

    #[test]
    fn optimize_defaults_mirror_the_cli() {
        let req = WireRequest::parse("{\"id\":\"x\",\"op\":\"optimize\",\"design\":\"chemical\"}")
            .unwrap();
        let WireOp::Optimize {
            strategy,
            v0,
            processors,
            ..
        } = req.op
        else {
            panic!("wrong op");
        };
        assert_eq!(strategy, "single");
        assert!((v0 - 3.3).abs() < 1e-12);
        assert_eq!(processors, None);
    }

    #[test]
    fn failure_exit_codes_match_the_class_table() {
        for class in ErrorClass::all() {
            let f = WireFailure {
                class,
                code: "X-TEST".into(),
                message: String::new(),
            };
            assert_eq!(f.exit_code(), class.exit_code());
        }
    }
}
