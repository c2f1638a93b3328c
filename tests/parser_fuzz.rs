//! Fuzz sweep over the three parsers that read untrusted bytes: the
//! JSON parser (`Json::parse`), the wire request parser
//! (`WireRequest::parse`) and the journal scanner (`journal::scan`).
//! Driven by the in-tree seeded [`SplitMix64`], with three kinds of
//! input:
//!
//! * random bytes, drawn from a JSON-heavy alphabet or uniformly;
//! * valid wire lines and journal files, bit-flipped, truncated or
//!   spliced;
//! * nesting around and far past [`MAX_DEPTH`], up to a mebibyte.
//!
//! Every parser must return, never panic or overflow its stack. The
//! tier-1 test runs a short sweep; the `#[ignore]`d one runs the deep
//! sweep (`scripts/verify.sh`, under a hard timeout):
//!
//! ```text
//! cargo test --release -p lintra-serve --test parser_fuzz -- --ignored
//! ```

use lintra::prelude::SplitMix64;
use lintra_bench::json::{Json, MAX_DEPTH};
use lintra_bench::wire::{WireOp, WireRequest};
use lintra_serve::journal::{encode_record, scan, JournalRecord, RecordKind, ScanOutcome};

const KINDS: [RecordKind; 4] = [
    RecordKind::Admit,
    RecordKind::Done,
    RecordKind::Fail,
    RecordKind::Abort,
];

/// Bytes JSON and the wire format give meaning to, plus multi-byte
/// UTF-8 lead and continuation bytes.
const ALPHABET: &[u8] =
    b"{}[]:,\"\\ \n\t-+.0123456789eEtrufalsnbu/xyz\x00\x1f\x7f\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn random_bytes(rng: &mut SplitMix64) -> Vec<u8> {
    let len = below(rng, 256);
    if rng.next_bool() {
        (0..len)
            .map(|_| ALPHABET[below(rng, ALPHABET.len())])
            .collect()
    } else {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }
}

fn valid_request(rng: &mut SplitMix64) -> WireRequest {
    let design = ["iir5", "chemical", "é\"q\\", ""][below(rng, 4)].to_string();
    let op = match below(rng, 4) {
        0 => WireOp::Ping,
        1 => WireOp::Sweep {
            design,
            max_i: below(rng, 64) as u32,
        },
        2 => WireOp::Optimize {
            design,
            strategy: "multi".to_string(),
            v0: 3.3,
            processors: Some(below(rng, 8)),
        },
        _ => WireOp::Tables { v0: 5.0 },
    };
    let req = WireRequest::new(format!("r{}", rng.next_u64()), op);
    if rng.next_bool() {
        req.with_request_id(format!("key-{}\t\"{}\"", below(rng, 9), below(rng, 9)))
    } else {
        req
    }
}

/// Flips, truncates or splices `bytes` once.
fn damage(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return;
    }
    let at = below(rng, bytes.len());
    match below(rng, 4) {
        0 => bytes[at] ^= 1 << below(rng, 8),
        1 => bytes.truncate(at),
        2 => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, ALPHABET[below(rng, ALPHABET.len())]),
    }
}

/// Feeds one byte string to all three parsers. A document that parses
/// must re-render to one that parses to a fixpoint.
#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn feed(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(doc) = Json::parse(&text) {
        let again = Json::parse(&doc.render_compact()).expect("a rendered document parses");
        assert_eq!(
            Json::parse(&again.render()),
            Ok(again.clone()),
            "rendering is a fixpoint after one round: {text:?}"
        );
    }
    if let Ok(req) = WireRequest::parse(&text) {
        let _ = WireRequest::parse(&req.render_line());
    }
    let _ = scan(bytes);
}

/// A document nested `depth` levels deep, as arrays, objects or a mix;
/// `close` = false leaves it unterminated.
fn nested(rng: &mut SplitMix64, depth: usize, close: bool) -> String {
    let mut open = String::with_capacity(6 * depth);
    let mut shut = Vec::with_capacity(depth);
    let style = below(rng, 3);
    for _ in 0..depth {
        if style == 0 || (style == 2 && rng.next_bool()) {
            open.push('[');
            shut.push(']');
        } else {
            open.push_str("{\"k\":");
            shut.push('}');
        }
    }
    open.push_str("null");
    if close {
        open.extend(shut.iter().rev());
    }
    open
}

fn random_bytes_never_panic(rng: &mut SplitMix64, rounds: usize) {
    for _ in 0..rounds {
        feed(&random_bytes(rng));
    }
}

fn damaged_frames_and_records_never_panic(rng: &mut SplitMix64, rounds: usize) {
    for _ in 0..rounds {
        // A wire line.
        let mut line = valid_request(rng).render_line().into_bytes();
        for _ in 0..=below(rng, 3) {
            damage(rng, &mut line);
        }
        feed(&line);

        // A journal of a few records: the records wholly before the
        // first damaged byte always decode, unchanged.
        let n = 1 + below(rng, 5);
        let mut records = Vec::with_capacity(n);
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(n);
        for _ in 0..n {
            let req = valid_request(rng);
            let record = JournalRecord {
                kind: KINDS[below(rng, 4)],
                rid: req.request_id.clone().unwrap_or_default(),
                line: req.render_line().trim_end().to_string(),
            };
            bytes.extend(encode_record(record.kind, &record.rid, &record.line));
            ends.push(bytes.len());
            records.push(record);
        }
        let mut damaged = bytes.clone();
        damage(rng, &mut damaged);
        let first_change = bytes
            .iter()
            .zip(&damaged)
            .position(|(a, b)| a != b)
            .unwrap_or(bytes.len().min(damaged.len()));
        let intact = ends.iter().filter(|end| **end <= first_change).count();
        let (scanned, outcome) = scan(&damaged);
        assert!(scanned.len() >= intact, "{outcome:?}");
        assert_eq!(scanned[..intact], records[..intact], "{outcome:?}");
        feed(&damaged);
    }
}

fn deep_nesting_is_refused_past_max_depth(rng: &mut SplitMix64, rounds: usize) {
    for round in 0..rounds {
        // Mostly near the bound, sometimes up to a mebibyte of brackets.
        let depth = if round % 16 == 15 {
            below(rng, 1 << 20)
        } else {
            below(rng, 4 * MAX_DEPTH)
        };
        // An unclosed document with no brackets is just `null`.
        let close = depth == 0 || rng.next_bool();
        let doc = nested(rng, depth, close);
        match Json::parse(&doc) {
            Ok(_) => assert!(depth <= MAX_DEPTH && close, "depth {depth} close {close}"),
            Err(e) if depth > MAX_DEPTH => {
                assert_eq!(
                    e.message, "arrays and objects nested too deep",
                    "depth {depth}"
                );
            }
            Err(e) => assert!(!close, "depth {depth}: {e}"),
        }
        let line = format!("{{\"id\":\"deep\",\"op\":\"ping\",\"fault\":{doc}}}");
        let parsed = WireRequest::parse(&line);
        assert!(depth <= MAX_DEPTH || parsed.is_err(), "depth {depth}");
        let mut journal = encode_record(RecordKind::Admit, "deep", "ok");
        journal.extend_from_slice(&(doc.len() as u32).to_le_bytes());
        journal.extend_from_slice(&lintra::engine::crc32(doc.as_bytes()).to_le_bytes());
        journal.extend_from_slice(doc.as_bytes());
        let (scanned, outcome) = scan(&journal);
        assert_eq!(scanned.len(), 1, "depth {depth}");
        assert!(
            matches!(outcome, ScanOutcome::Corrupt { .. }),
            "a bare nested payload is never a record: {outcome:?}"
        );
    }
}

/// The whole sweep: per unit of `scale`, 400 random inputs, 100 damaged
/// frames and journals, and 2 nested documents.
fn sweep(seed: u64, scale: usize) {
    let mut rng = SplitMix64::new(seed);
    random_bytes_never_panic(&mut rng, 400 * scale);
    damaged_frames_and_records_never_panic(&mut rng, 100 * scale);
    deep_nesting_is_refused_past_max_depth(&mut rng, 2 * scale);
}

#[test]
fn parsers_of_untrusted_bytes_are_total() {
    sweep(0xF022_0001, 20);
}

#[test]
#[ignore = "deep sweep, 16-24 s in release; scripts/verify.sh runs it"]
fn deep_sweep_parsers_of_untrusted_bytes_are_total() {
    for seed in 0..8 {
        sweep(0xF022_1000 + seed, 500);
    }
}
