//! The `rcfitd-v1` wire protocol: JSON Lines request parsing and
//! response rendering.
//!
//! One request object per line. Fields:
//!
//! - `id` — any JSON value, echoed verbatim in the response (`null` when
//!   absent or when the line was too malformed to extract one).
//! - `op` — `"reduce"` (default), `"stats"`, or `"shutdown"`.
//! - `deck` — the SPICE deck text inline, or `path` — a file to read
//!   server-side. Exactly one of the two for `reduce`.
//! - `options` — an object mirroring the `rcfit` flags (`fmax`, `tol`,
//!   `sparsify`, `ports`, `threads`, `eigen`, `components`,
//!   `strict_pivots`, `hier`, `block_size`, `max_depth`, `strategy`,
//!   `extract`, `collapse_chains`, `chain_tol`).
//!
//! Unknown request fields and unknown option keys are *rejected* (code
//! `unknown_option`) rather than ignored: a silently dropped option
//! would change numerics behind the caller's back, which the protocol's
//! bit-identity guarantee forbids.
//!
//! Responses always carry `"schema":"rcfitd-v1"`, the echoed `id`, and
//! `"ok"`. Success adds the reduced `deck`, placement fields (`worker`,
//! `session_hit`, `queue_depth`) and the embedded `rcfit-telemetry-v1`
//! document; failure adds `error: {code, message}` with the stable
//! [`pact::PactError`] codes plus the protocol's own `bad_request`,
//! `unknown_option`, `deck_too_large` and `overloaded`.

use pact::json::Value;
use pact_netlist::parse_value;

use crate::pipeline::{DeckOptions, EigenArg, StrategyArg};

/// The response/request schema tag.
pub const SCHEMA: &str = "rcfitd-v1";

/// Default cap on inline deck text (bytes).
pub const DEFAULT_MAX_DECK_BYTES: usize = 8 * 1024 * 1024;

/// What a request asks the daemon to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Reduce a deck (the default).
    Reduce,
    /// Report serve counters and queue depths.
    Stats,
    /// Drain the queues and exit.
    Shutdown,
}

/// Where the deck text comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeckSource {
    /// Deck text carried inline in the request.
    Inline(String),
    /// Server-side file path to read.
    Path(String),
}

/// A parsed, validated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Echoed verbatim in the response (`Value::Null` when absent).
    pub id: Value,
    /// The operation.
    pub op: Op,
    /// Deck source; always `Some` when `op` is [`Op::Reduce`].
    pub source: Option<DeckSource>,
    /// Resolved reduction options.
    pub options: DeckOptions,
}

/// A request rejected before reaching a worker.
#[derive(Clone, Debug)]
pub struct ProtocolError {
    /// The request id, when one could be extracted.
    pub id: Value,
    /// Stable error code (`bad_request`, `unknown_option`,
    /// `deck_too_large`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    fn new(id: &Value, code: &'static str, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            id: id.clone(),
            code,
            message: message.into(),
        }
    }
}

/// Extracts a positive integer from a JSON number.
fn as_positive_int(v: &Value, what: &str, id: &Value) -> Result<usize, ProtocolError> {
    match v.as_f64() {
        Some(f) if f.fract() == 0.0 && f >= 1.0 && f <= u32::MAX as f64 => Ok(f as usize),
        _ => Err(ProtocolError::new(
            id,
            "bad_request",
            format!("`{what}` needs a positive integer"),
        )),
    }
}

fn as_number(v: &Value, what: &str, id: &Value) -> Result<f64, ProtocolError> {
    v.as_f64()
        .ok_or_else(|| ProtocolError::new(id, "bad_request", format!("`{what}` needs a number")))
}

fn as_bool(v: &Value, what: &str, id: &Value) -> Result<bool, ProtocolError> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err(ProtocolError::new(
            id,
            "bad_request",
            format!("`{what}` needs a boolean"),
        )),
    }
}

fn as_str<'v>(v: &'v Value, what: &str, id: &Value) -> Result<&'v str, ProtocolError> {
    v.as_str()
        .ok_or_else(|| ProtocolError::new(id, "bad_request", format!("`{what}` needs a string")))
}

/// Applies one `options` entry onto `opts`.
fn apply_option(
    opts: &mut DeckOptions,
    key: &str,
    v: &Value,
    id: &Value,
) -> Result<(), ProtocolError> {
    match key {
        // `fmax` accepts a JSON number or a SPICE-suffixed string
        // ("500meg"), exactly like the CLI flag.
        "fmax" => {
            opts.f_max = match v {
                Value::Num(f) => *f,
                Value::Str(s) => parse_value(s)
                    .map_err(|e| ProtocolError::new(id, "bad_request", format!("`fmax`: {e}")))?,
                _ => {
                    return Err(ProtocolError::new(
                        id,
                        "bad_request",
                        "`fmax` needs a number or a SPICE-suffixed string",
                    ))
                }
            };
        }
        "tol" => opts.tolerance = as_number(v, "tol", id)?,
        "sparsify" => opts.sparsify = as_number(v, "sparsify", id)?,
        "ports" => {
            let arr = v.as_arr().ok_or_else(|| {
                ProtocolError::new(id, "bad_request", "`ports` needs an array of strings")
            })?;
            let mut ports = Vec::with_capacity(arr.len());
            for p in arr {
                ports.push(as_str(p, "ports", id)?.to_owned());
            }
            opts.extra_ports = ports;
        }
        "threads" => opts.threads = Some(as_positive_int(v, "threads", id)?),
        "eigen" => {
            let s = as_str(v, "eigen", id)?;
            opts.eigen =
                Some(EigenArg::parse(s).map_err(|e| ProtocolError::new(id, "bad_request", e))?);
        }
        "components" => opts.components = as_bool(v, "components", id)?,
        "strict_pivots" => opts.strict_pivots = as_bool(v, "strict_pivots", id)?,
        "hier" => opts.hier = as_bool(v, "hier", id)?,
        "block_size" => opts.block_size = as_positive_int(v, "block_size", id)?,
        "max_depth" => opts.max_depth = as_positive_int(v, "max_depth", id)?,
        "strategy" => {
            let s = as_str(v, "strategy", id)?;
            opts.strategy =
                Some(StrategyArg::parse(s).map_err(|e| ProtocolError::new(id, "bad_request", e))?);
        }
        "extract" => opts.extract = as_bool(v, "extract", id)?,
        "collapse_chains" => opts.collapse_chains = as_bool(v, "collapse_chains", id)?,
        "chain_tol" => {
            let tol = as_number(v, "chain_tol", id)?;
            if !tol.is_finite() || tol <= 0.0 {
                return Err(ProtocolError::new(
                    id,
                    "bad_request",
                    "`chain_tol` needs a positive finite number",
                ));
            }
            opts.chain_tol = tol;
        }
        other => {
            return Err(ProtocolError::new(
                id,
                "unknown_option",
                format!("unknown option `{other}`"),
            ))
        }
    }
    Ok(())
}

/// Parses and validates one request line.
///
/// # Errors
///
/// [`ProtocolError`] with codes `bad_request` (malformed JSON, wrong
/// types, missing or conflicting deck source, unknown op),
/// `unknown_option` (unknown request field or option key — never
/// silently ignored) or `deck_too_large` (inline deck exceeding
/// `max_deck_bytes`).
pub fn parse_request(line: &str, max_deck_bytes: usize) -> Result<Request, ProtocolError> {
    let doc = Value::parse(line).map_err(|e| {
        ProtocolError::new(&Value::Null, "bad_request", format!("malformed JSON: {e}"))
    })?;
    let fields = match &doc {
        Value::Obj(fields) => fields,
        _ => {
            return Err(ProtocolError::new(
                &Value::Null,
                "bad_request",
                "request must be a JSON object",
            ))
        }
    };
    let id = doc.get("id").cloned().unwrap_or(Value::Null);

    for (k, _) in fields {
        match k.as_str() {
            "id" | "op" | "deck" | "path" | "options" => {}
            other => {
                return Err(ProtocolError::new(
                    &id,
                    "unknown_option",
                    format!("unknown request field `{other}`"),
                ))
            }
        }
    }

    let op = match doc.get("op") {
        None => Op::Reduce,
        Some(v) => match as_str(v, "op", &id)? {
            "reduce" => Op::Reduce,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            other => {
                return Err(ProtocolError::new(
                    &id,
                    "bad_request",
                    format!("unknown op `{other}` (expected reduce, stats, or shutdown)"),
                ))
            }
        },
    };

    // The daemon gets its parallelism from the worker pool, so each
    // reduction defaults to one thread (results are bit-identical for
    // every thread count — this is scheduling, not numerics). An
    // explicit `threads` option still wins.
    let mut options = DeckOptions {
        threads: Some(1),
        ..DeckOptions::default()
    };
    let mut chain_tol_given = false;
    if let Some(v) = doc.get("options") {
        match v {
            Value::Obj(entries) => {
                for (k, v) in entries {
                    chain_tol_given |= k == "chain_tol";
                    apply_option(&mut options, k, v, &id)?;
                }
            }
            _ => {
                return Err(ProtocolError::new(
                    &id,
                    "bad_request",
                    "`options` must be an object",
                ))
            }
        }
    }
    // Cross-field validation. The CLI resolves `--hier` + `--strategy`
    // by letting the explicit strategy win; the protocol rejects the
    // combination outright so a caller can never be surprised by the
    // resolution order.
    if chain_tol_given && !options.collapse_chains {
        return Err(ProtocolError::new(
            &id,
            "bad_request",
            "`chain_tol` requires `\"collapse_chains\":true`",
        ));
    }
    if options.hier {
        if let Some(s) = options.strategy {
            if s != StrategyArg::Hier {
                return Err(ProtocolError::new(
                    &id,
                    "bad_request",
                    format!("`hier` conflicts with `\"strategy\":\"{}\"`", s.name()),
                ));
            }
        }
    }

    let source = match (doc.get("deck"), doc.get("path")) {
        (Some(_), Some(_)) => {
            return Err(ProtocolError::new(
                &id,
                "bad_request",
                "give either `deck` or `path`, not both",
            ))
        }
        (Some(v), None) => {
            let text = as_str(v, "deck", &id)?;
            if text.len() > max_deck_bytes {
                return Err(ProtocolError::new(
                    &id,
                    "deck_too_large",
                    format!(
                        "inline deck is {} bytes; this daemon accepts at most {max_deck_bytes}",
                        text.len()
                    ),
                ));
            }
            Some(DeckSource::Inline(text.to_owned()))
        }
        (None, Some(v)) => Some(DeckSource::Path(as_str(v, "path", &id)?.to_owned())),
        (None, None) => None,
    };
    if op == Op::Reduce && source.is_none() {
        return Err(ProtocolError::new(
            &id,
            "bad_request",
            "reduce needs `deck` or `path`",
        ));
    }

    Ok(Request {
        id,
        op,
        source,
        options,
    })
}

fn response_head(id: &Value, ok: bool) -> Vec<(String, Value)> {
    vec![
        ("schema".to_owned(), Value::str(SCHEMA)),
        ("id".to_owned(), id.clone()),
        ("ok".to_owned(), Value::Bool(ok)),
    ]
}

/// Renders a failure response line.
pub fn error_response(id: &Value, code: &str, message: &str) -> String {
    let mut fields = response_head(id, false);
    fields.push((
        "error".to_owned(),
        Value::obj(vec![
            ("code".to_owned(), Value::str(code)),
            ("message".to_owned(), Value::str(message)),
        ]),
    ));
    Value::obj(fields).render()
}

/// Renders a successful reduce response line.
pub fn reduce_response(
    id: &Value,
    worker: usize,
    session_hit: bool,
    queue_depth: u64,
    deck: &str,
    telemetry: Value,
) -> String {
    let mut fields = response_head(id, true);
    fields.push(("worker".to_owned(), Value::num(worker as f64)));
    fields.push(("session_hit".to_owned(), Value::Bool(session_hit)));
    fields.push(("queue_depth".to_owned(), Value::num(queue_depth as f64)));
    fields.push(("deck".to_owned(), Value::str(deck)));
    fields.push(("telemetry".to_owned(), telemetry));
    Value::obj(fields).render()
}

/// Renders a stats response line.
pub fn stats_response(id: &Value, stats: Value) -> String {
    let mut fields = response_head(id, true);
    fields.push(("stats".to_owned(), stats));
    Value::obj(fields).render()
}

/// Renders the acknowledgement for a shutdown request.
pub fn shutdown_response(id: &Value) -> String {
    let mut fields = response_head(id, true);
    fields.push(("shutdown".to_owned(), Value::Bool(true)));
    Value::obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_reduce_request_parses_with_defaults() {
        let r = parse_request(r#"{"deck":"* d\n.end\n"}"#, DEFAULT_MAX_DECK_BYTES).unwrap();
        assert_eq!(r.op, Op::Reduce);
        assert_eq!(r.id, Value::Null);
        assert_eq!(r.source, Some(DeckSource::Inline("* d\n.end\n".to_owned())));
        assert_eq!(r.options.threads, Some(1), "daemon default is one thread");
        assert_eq!(r.options.f_max, 1e9);
    }

    #[test]
    fn options_apply_and_fmax_takes_spice_suffixes() {
        let line = r#"{"id":7,"deck":"x","options":{"fmax":"500meg","tol":0.1,"eigen":"lowrank","hier":true,"block_size":100,"threads":2}}"#;
        let r = parse_request(line, DEFAULT_MAX_DECK_BYTES).unwrap();
        assert_eq!(r.id, Value::Num(7.0));
        assert_eq!(r.options.f_max, 5e8);
        assert_eq!(r.options.tolerance, 0.1);
        assert_eq!(r.options.eigen, Some(EigenArg::LowRank));
        assert!(r.options.hier);
        assert_eq!(r.options.block_size, 100);
        assert_eq!(r.options.threads, Some(2));
    }

    #[test]
    fn malformed_json_is_bad_request_with_null_id() {
        let e = parse_request("{nope", DEFAULT_MAX_DECK_BYTES).unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert_eq!(e.id, Value::Null);
    }

    #[test]
    fn unknown_fields_and_options_are_rejected_not_ignored() {
        let e = parse_request(r#"{"deck":"x","surprise":1}"#, 100).unwrap_err();
        assert_eq!(e.code, "unknown_option");
        let e = parse_request(r#"{"deck":"x","options":{"tolerance":0.1}}"#, 100).unwrap_err();
        assert_eq!(e.code, "unknown_option");
        assert!(e.message.contains("tolerance"));
    }

    #[test]
    fn oversized_inline_deck_is_typed() {
        let line = format!(r#"{{"id":"big","deck":"{}"}}"#, "x".repeat(64));
        let e = parse_request(&line, 16).unwrap_err();
        assert_eq!(e.code, "deck_too_large");
        assert_eq!(e.id, Value::Str("big".to_owned()));
    }

    #[test]
    fn deck_and_path_conflict_and_absence_are_rejected() {
        let e = parse_request(r#"{"deck":"x","path":"y"}"#, 100).unwrap_err();
        assert_eq!(e.code, "bad_request");
        let e = parse_request(r#"{"id":1}"#, 100).unwrap_err();
        assert_eq!(e.code, "bad_request");
        // stats/shutdown need no deck.
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#, 100).unwrap().op,
            Op::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#, 100).unwrap().op,
            Op::Shutdown
        );
    }

    #[test]
    fn strategy_option_parses_and_validates() {
        let line = r#"{"deck":"x","options":{"strategy":"hier"}}"#;
        let r = parse_request(line, DEFAULT_MAX_DECK_BYTES).unwrap();
        assert_eq!(r.options.strategy, Some(StrategyArg::Hier));

        let e = parse_request(
            r#"{"deck":"x","options":{"strategy":"quadtree"}}"#,
            DEFAULT_MAX_DECK_BYTES,
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert!(e.message.contains("quadtree"));
    }

    #[test]
    fn cross_field_conflicts_are_bad_requests() {
        let e = parse_request(
            r#"{"deck":"x","options":{"hier":true,"strategy":"flat"}}"#,
            DEFAULT_MAX_DECK_BYTES,
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert!(e.message.contains("conflicts"));

        // `hier` plus the matching explicit spelling is fine.
        let r = parse_request(
            r#"{"deck":"x","options":{"hier":true,"strategy":"hier"}}"#,
            DEFAULT_MAX_DECK_BYTES,
        )
        .unwrap();
        assert_eq!(r.options.strategy, Some(StrategyArg::Hier));
    }

    #[test]
    fn extract_and_collapse_options_parse_and_validate() {
        let line =
            r#"{"deck":"x","options":{"extract":true,"collapse_chains":true,"chain_tol":1e-4}}"#;
        let r = parse_request(line, DEFAULT_MAX_DECK_BYTES).unwrap();
        assert!(r.options.extract);
        assert!(r.options.collapse_chains);
        assert_eq!(r.options.chain_tol, 1e-4);

        // Defaults stay off.
        let r = parse_request(r#"{"deck":"x"}"#, DEFAULT_MAX_DECK_BYTES).unwrap();
        assert!(!r.options.extract && !r.options.collapse_chains);

        // Strict typing: booleans must be booleans, the tolerance must
        // be a positive finite number.
        for bad in [
            r#"{"deck":"x","options":{"extract":1}}"#,
            r#"{"deck":"x","options":{"collapse_chains":"yes"}}"#,
            r#"{"deck":"x","options":{"collapse_chains":true,"chain_tol":0}}"#,
            r#"{"deck":"x","options":{"collapse_chains":true,"chain_tol":-1e-6}}"#,
            r#"{"deck":"x","options":{"collapse_chains":true,"chain_tol":"tiny"}}"#,
        ] {
            let e = parse_request(bad, DEFAULT_MAX_DECK_BYTES).unwrap_err();
            assert_eq!(e.code, "bad_request", "{bad}");
        }

        // A tolerance without the pass it tunes is a cross-field error,
        // never a silent no-op.
        let e = parse_request(
            r#"{"deck":"x","options":{"chain_tol":1e-4}}"#,
            DEFAULT_MAX_DECK_BYTES,
        )
        .unwrap_err();
        assert_eq!(e.code, "bad_request");
        assert!(e.message.contains("collapse_chains"));

        // Misspellings keep the unknown_option contract.
        let e = parse_request(
            r#"{"deck":"x","options":{"collapse-chains":true}}"#,
            DEFAULT_MAX_DECK_BYTES,
        )
        .unwrap_err();
        assert_eq!(e.code, "unknown_option");
    }

    #[test]
    fn responses_echo_id_and_schema() {
        let id = Value::Str("r1".to_owned());
        let line = error_response(&id, "overloaded", "queue full");
        let doc = Value::parse(&line).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(doc.get("id"), Some(&id));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("error").unwrap().get("code").unwrap().as_str(),
            Some("overloaded")
        );
    }
}
