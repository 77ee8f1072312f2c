//! Golden tests for the `rcfitd-v1` wire protocol.
//!
//! Each fixture in `tests/fixtures/serve/` is one request line; the
//! daemon's response is snapshot-asserted below. Error responses carry
//! no timings, so their entire line is asserted exactly — any change to
//! response shape, error codes or wording shows up as a diff here. The
//! valid-deck response embeds telemetry timings, so its *deck payload*
//! is asserted byte-for-byte against `valid_deck.golden.sp` and the
//! envelope fields are checked structurally.

use std::sync::{Arc, Mutex};

use pact::json::Value;
use pact_serve::{Daemon, ReplySink, ServeConfig};

/// Runs one request line through a fresh single-worker daemon and
/// returns the response lines it produced.
fn serve_one(line: &str, max_deck_bytes: usize) -> Vec<String> {
    let daemon = Daemon::new(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sessions_per_worker: 2,
        patterns_per_session: 8,
        max_deck_bytes,
    });
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    let sink: ReplySink = Arc::new(move |l: &str| sink_lines.lock().unwrap().push(l.to_owned()));
    daemon.submit(line, &sink);
    daemon.shutdown();
    let out = lines.lock().unwrap().clone();
    out
}

#[test]
fn valid_deck_reduces_to_the_golden_payload() {
    let request = include_str!("fixtures/serve/valid_deck.jsonl");
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(responses.len(), 1);
    let doc = Value::parse(&responses[0]).expect("response is valid JSON");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("rcfitd-v1"));
    assert_eq!(doc.get("id").unwrap().as_str(), Some("golden-1"));
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("worker").unwrap().as_f64(), Some(0.0));
    assert_eq!(doc.get("session_hit"), Some(&Value::Bool(false)));
    assert_eq!(doc.get("queue_depth").unwrap().as_f64(), Some(0.0));
    // The embedded telemetry document is the rcfit-telemetry-v1 schema.
    let tel = doc.get("telemetry").expect("telemetry embedded");
    assert_eq!(
        tel.get("schema").unwrap().as_str(),
        Some("rcfit-telemetry-v1")
    );
    // The reduced deck is the numerics payload: byte-identical, always.
    let deck = doc.get("deck").unwrap().as_str().unwrap();
    let golden = include_str!("fixtures/serve/valid_deck.golden.sp");
    assert_eq!(deck, golden, "reduced deck drifted from the golden payload");
}

#[test]
fn extract_collapse_deck_reduces_to_the_golden_payload() {
    let request = include_str!("fixtures/serve/extract_collapse.jsonl");
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(responses.len(), 1);
    let doc = Value::parse(&responses[0]).expect("response is valid JSON");
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    // The embedded-parasitics counters are part of the response contract:
    // both RC islands were collapsed, then extracted and reduced.
    let counters = doc
        .get("telemetry")
        .and_then(|t| t.get("counters"))
        .expect("telemetry counters embedded");
    let count = |k: &str| counters.get(k).and_then(Value::as_f64).unwrap();
    assert_eq!(count("chains_collapsed"), 2.0);
    assert_eq!(count("nodes_eliminated"), 20.0);
    assert_eq!(count("extract_subnets"), 2.0);
    let deck = doc.get("deck").unwrap().as_str().unwrap();
    let golden = include_str!("fixtures/serve/extract_collapse.golden.sp");
    assert_eq!(deck, golden, "reduced deck drifted from the golden payload");
}

#[test]
fn chain_tol_without_collapse_response_is_golden() {
    let request = include_str!("fixtures/serve/bad_chain_tol.jsonl");
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(
        responses,
        vec![include_str!("fixtures/serve/bad_chain_tol.golden.jsonl").trim_end()]
    );
}

#[test]
fn malformed_json_response_is_golden() {
    let request = include_str!("fixtures/serve/malformed.jsonl");
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(
        responses,
        vec![include_str!("fixtures/serve/malformed.golden.jsonl").trim_end()]
    );
}

#[test]
fn unknown_option_response_is_golden() {
    let request = include_str!("fixtures/serve/unknown_option.jsonl");
    let golden = include_str!("fixtures/serve/unknown_option.golden.jsonl").trim_end();
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(responses, vec![golden]);
    // Removed options get the same typed rejection as a misspelling,
    // never a silent no-op.
    for (key, value) in [
        ("points", "[1e9]"),
        ("chol_kernel", r#""scalar""#),
        ("dense", "true"),
    ] {
        let request = request.replace(r#""tolerance":0.1"#, &format!(r#""{key}":{value}"#));
        let responses = serve_one(request.trim_end(), 1 << 20);
        assert_eq!(responses, vec![golden.replace("tolerance", key)], "{key}");
    }
}

#[test]
fn bad_strategy_response_is_golden() {
    let request = include_str!("fixtures/serve/bad_strategy.jsonl");
    let golden = include_str!("fixtures/serve/bad_strategy.golden.jsonl").trim_end();
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(responses, vec![golden]);
    // The removed multipoint strategy is rejected like any unknown name.
    let request = request.replace("quadtree", "multipoint");
    let responses = serve_one(request.trim_end(), 1 << 20);
    assert_eq!(responses, vec![golden.replace("quadtree", "multipoint")]);
}

#[test]
fn bad_points_response_is_golden() {
    // The request that once pinned the `points` validation message: both
    // the multipoint strategy and the `points` key are gone, so it is now
    // refused as a typed error rather than reduced with `points` dropped.
    let request = r#"{"id":"pts-1","deck":"* d\nR1 a 0 1k\nV1 a 0 1\n.end\n","options":{"strategy":"multipoint","points":[0]}}"#;
    let responses = serve_one(request, 1 << 20);
    assert_eq!(
        responses,
        vec![
            r#"{"schema":"rcfitd-v1","id":"pts-1","ok":false,"error":{"code":"bad_request","message":"strategy expects flat or hier (got `multipoint`)"}}"#
        ]
    );
    // Without the strategy, the `points` key alone is an unknown option.
    let request = request.replace(r#""strategy":"multipoint","#, "");
    let responses = serve_one(&request, 1 << 20);
    assert_eq!(
        responses,
        vec![
            r#"{"schema":"rcfitd-v1","id":"pts-1","ok":false,"error":{"code":"unknown_option","message":"unknown option `points`"}}"#
        ]
    );
}

#[test]
fn oversized_deck_response_is_golden() {
    let request = include_str!("fixtures/serve/oversized.jsonl");
    // The cap is configured down to 64 bytes so the fixture stays small.
    let responses = serve_one(request.trim_end(), 64);
    assert_eq!(
        responses,
        vec![include_str!("fixtures/serve/oversized.golden.jsonl").trim_end()]
    );
}
