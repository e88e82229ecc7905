//! Wire-vocabulary compatibility over the committed golden fixtures.
//!
//! The JSONL event stream is a versioned wire format ([`WIRE_VERSION`]);
//! logs committed by earlier PRs must keep decoding, and — because
//! `encode_event` is the single writer — re-encoding every decoded event
//! must reproduce the committed bytes exactly. A drifting field order,
//! float formatting change, or renamed tag shows up here as a byte diff
//! against the fixture, before any downstream consumer breaks.

use sea_observe::{decode_event, encode_event, parse_events, Event, WIRE_VERSION};
use std::path::PathBuf;

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Every committed golden log: the dense solve, the batch framing, the
/// sparse sharded solve, and the box-bounded and general solves.
fn golden_logs() -> Vec<PathBuf> {
    vec![
        fixture("../sea-core/tests/fixtures/golden_solve.jsonl"),
        fixture("../sea-core/tests/fixtures/golden_sparse_solve.jsonl"),
        fixture("../sea-core/tests/fixtures/golden_bounded_solve.jsonl"),
        fixture("../sea-core/tests/fixtures/golden_general_solve.jsonl"),
        fixture("../sea-batch/tests/fixtures/golden_batch.jsonl"),
    ]
}

#[test]
fn committed_fixtures_reencode_byte_for_byte() {
    for path in golden_logs() {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut lines = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = decode_event(line)
                .unwrap_or_else(|e| panic!("{} line {}: {e}", path.display(), i + 1));
            let reencoded = encode_event(&event);
            assert_eq!(
                reencoded,
                line,
                "{} line {}: re-encode drifted from committed bytes",
                path.display(),
                i + 1
            );
            lines += 1;
        }
        assert!(lines > 0, "{}: empty fixture", path.display());
    }
}

#[test]
fn committed_fixtures_parse_as_streams() {
    // The stream-level parser (used by `sea-solve report`) accepts every
    // committed log whole, not just line by line.
    for path in golden_logs() {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let events = parse_events(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!events.is_empty());
    }
}

#[test]
fn meta_event_round_trips_and_version_is_current() {
    // The committed fixtures predate the version stamp (writers opt in),
    // so the Meta line is exercised directly: it must round-trip and
    // carry the current version.
    assert_eq!(WIRE_VERSION, 2);
    let line = encode_event(&Event::Meta {
        wire_version: WIRE_VERSION,
    });
    match decode_event(&line).expect("meta line decodes") {
        Event::Meta { wire_version } => assert_eq!(wire_version, WIRE_VERSION),
        other => panic!("meta decoded as {other:?}"),
    }
    // An unknown future version still decodes (readers are forward-
    // tolerant on the version number itself).
    let future = line.replace(
        &format!("\"wire_version\":{WIRE_VERSION}"),
        "\"wire_version\":99",
    );
    assert!(matches!(
        decode_event(&future),
        Ok(Event::Meta { wire_version: 99 })
    ));
}
