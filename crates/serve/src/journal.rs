//! Write-ahead request journal: the durability half of idempotency.
//!
//! A durable server (one started with a journal directory) appends a
//! record to `journal.log` *and fsyncs it* before acknowledging any
//! keyed request, then appends a completion record when the answer is
//! known. The file is append-only; each record is self-checking:
//!
//! ```text
//! [u32 len LE][u32 crc32 LE][payload: compact JSON, `len` bytes]
//! ```
//!
//! `crc32` covers the payload bytes (the IEEE polynomial,
//! [`lintra::engine::crc32`]). The payload is one of four record kinds
//! keyed by the request's idempotency key:
//!
//! * `admit` — the full request line, journaled before execution;
//! * `done` — the full success response line; retries of this key are
//!   answered from the journal, bit-identically, with zero recompute;
//! * `fail` — a deterministic failure (validation, numerical,
//!   convergence): re-running would fail identically, so retries are
//!   answered from the journal too;
//! * `abort` — a non-deterministic failure (resource, I/O): the attempt
//!   is complete but a retry deserves a fresh execution.
//!
//! # Torn writes vs corruption
//!
//! A crash can tear the last record mid-write. [`scan`] distinguishes
//! the two failure shapes the ISSUE's crash gate exercises:
//!
//! * a record whose declared length runs past end-of-file is a **torn
//!   tail** — the expected artifact of `kill -9` between `write` and
//!   `fsync`. Recovery truncates to the last complete record and the
//!   journal stays in service ([`ScanOutcome::TornTail`]);
//! * a record that is fully present but fails its CRC (or carries an
//!   undecodable payload) is **corruption** — the file can no longer be
//!   trusted, so the whole journal is quarantined under a
//!   `journal.log.quarantined-N` name and the server starts with a
//!   fresh one, surfacing `IO-JOURNAL-CORRUPT`
//!   ([`ScanOutcome::Corrupt`]). Never a panic, never silent reuse.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use lintra::engine::crc32;
use lintra_bench::json::Json;

/// File name of the write-ahead journal inside the durability directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Prefix of rotated journal segments (`journal.seg-N`). Segments are
/// written whole (tmp + fsync + rename), so unlike the live log a
/// damaged segment is always corruption, never a torn tail.
pub const SEGMENT_PREFIX: &str = "journal.seg-";

/// Ceiling on one record's payload, bytes. Journal payloads are request
/// or response lines; anything larger than this is not one of ours, so
/// the scanner classifies it as corruption instead of allocating.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// What a journal record witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Request admitted (journaled before execution began).
    Admit,
    /// Request completed successfully; `line` is the response.
    Done,
    /// Request completed with a deterministic failure; `line` is the
    /// response. Retries are served from the journal.
    Fail,
    /// Request attempt ended with a non-deterministic failure
    /// (resource/I/O). The admit is settled but retries recompute.
    Abort,
}

impl RecordKind {
    /// The wire tag stored in the record payload.
    pub fn tag(self) -> &'static str {
        match self {
            RecordKind::Admit => "admit",
            RecordKind::Done => "done",
            RecordKind::Fail => "fail",
            RecordKind::Abort => "abort",
        }
    }

    /// Inverse of [`RecordKind::tag`]; `None` for an unknown tag.
    pub fn from_tag(tag: &str) -> Option<RecordKind> {
        match tag {
            "admit" => Some(RecordKind::Admit),
            "done" => Some(RecordKind::Done),
            "fail" => Some(RecordKind::Fail),
            "abort" => Some(RecordKind::Abort),
            _ => None,
        }
    }

    /// True for the completion kinds a retry may be answered from.
    pub fn serves_retries(self) -> bool {
        matches!(self, RecordKind::Done | RecordKind::Fail)
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// What this record witnesses.
    pub kind: RecordKind,
    /// The request's idempotency key.
    pub rid: String,
    /// The journaled wire line: the request line for [`RecordKind::Admit`],
    /// the response line otherwise.
    pub line: String,
}

/// How a journal scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Every byte accounted for.
    Clean,
    /// The final record was torn mid-write; bytes before `valid_len`
    /// decoded cleanly and the tail should be truncated away.
    TornTail {
        /// Offset of the last byte worth keeping.
        valid_len: u64,
    },
    /// A fully-present record failed its checksum or would not decode:
    /// the file is untrustworthy and must be quarantined.
    Corrupt {
        /// Offset of the offending record's length prefix.
        offset: u64,
        /// Human-readable description of the first violation.
        detail: String,
    },
}

/// Decodes journal bytes into records, classifying any damage.
///
/// Total: never panics, for arbitrary input. Records before the first
/// damaged byte always decode (the valid-prefix property the journal
/// property sweep asserts).
pub fn scan(bytes: &[u8]) -> (Vec<JournalRecord>, ScanOutcome) {
    let mut records = Vec::new();
    let mut pos: usize = 0;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            // A header torn mid-write: not enough bytes to even state a
            // length. Normal kill-9 artifact.
            return (
                records,
                ScanOutcome::TornTail {
                    valid_len: pos as u64,
                },
            );
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN {
            // A length this absurd cannot come from a torn append of one
            // of our records; the header itself is damaged.
            return (
                records,
                ScanOutcome::Corrupt {
                    offset: pos as u64,
                    detail: format!(
                        "record length {len} exceeds the {MAX_RECORD_LEN}-byte ceiling"
                    ),
                },
            );
        }
        if rest.len() < 8 + len {
            // The payload ran past end-of-file: torn tail.
            return (
                records,
                ScanOutcome::TornTail {
                    valid_len: pos as u64,
                },
            );
        }
        let payload = &rest[8..8 + len];
        let actual_crc = crc32(payload);
        if actual_crc != stored_crc {
            return (records, ScanOutcome::Corrupt {
                offset: pos as u64,
                detail: format!(
                    "record checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
                ),
            });
        }
        match decode_payload(payload) {
            Ok(record) => records.push(record),
            Err(detail) => {
                return (
                    records,
                    ScanOutcome::Corrupt {
                        offset: pos as u64,
                        detail,
                    },
                );
            }
        }
        pos += 8 + len;
    }
    (records, ScanOutcome::Clean)
}

/// Validates and parses one payload in full, then moves its `rid` and
/// `line` strings into the record instead of copying them.
fn decode_payload(payload: &[u8]) -> Result<JournalRecord, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let lacks_tag = "payload lacks a string \"t\" tag";
    let Json::Obj(mut members) = doc else {
        return Err(lacks_tag.to_string());
    };
    let tag = members.get("t").and_then(Json::as_str).ok_or(lacks_tag)?;
    let kind = RecordKind::from_tag(tag).ok_or_else(|| format!("unknown record tag \"{tag}\""))?;
    let mut take = |key: &str| match members.remove(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    };
    let rid = take("rid").ok_or("payload lacks a string \"rid\"")?;
    let line = take("line").ok_or("payload lacks a string \"line\"")?;
    Ok(JournalRecord { kind, rid, line })
}

/// The canonical payload bytes of one record — exactly what the CRC in
/// the on-disk framing covers. Replication ships `(kind, rid, line)`
/// plus this CRC; the follower re-encodes with this same function, so a
/// matching checksum guarantees its journal file is byte-identical to
/// the primary's.
pub fn payload_bytes(kind: RecordKind, rid: &str, line: &str) -> Vec<u8> {
    Json::obj([
        ("t", Json::Str(kind.tag().to_string())),
        ("rid", Json::Str(rid.to_string())),
        ("line", Json::Str(line.trim_end_matches('\n').to_string())),
    ])
    .render_compact()
    .into_bytes()
}

/// Encodes one record in the on-disk framing (header + JSON payload).
pub fn encode_record(kind: RecordKind, rid: &str, line: &str) -> Vec<u8> {
    let payload = payload_bytes(kind, rid, line);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The dedup map: settled `request_id` → the kind that settled it and
/// the exact response line a retry is answered with.
pub type CompletedMap = HashMap<String, (RecordKind, String)>;

/// What [`fold_records`] maps a record stream to: the dedup map and the
/// admitted-but-unsettled `(request_id, request line)`s in admission
/// order.
pub type Folded = (CompletedMap, Vec<(String, String)>);

/// Folds a record sequence into the dedup map and the ordered list of
/// admitted-but-unsettled requests — the one replay policy shared by
/// startup recovery, a simulated node's boot and follower promotion.
pub fn fold_records(records: &[JournalRecord]) -> Folded {
    let mut completed: CompletedMap = HashMap::new();
    let mut admitted: Vec<(String, String)> = Vec::new();
    for r in records {
        match r.kind {
            RecordKind::Admit => {
                if !completed.contains_key(&r.rid) && !admitted.iter().any(|(rid, _)| *rid == r.rid)
                {
                    admitted.push((r.rid.clone(), r.line.clone()));
                }
            }
            kind => {
                admitted.retain(|(rid, _)| *rid != r.rid);
                completed.insert(r.rid.clone(), (kind, r.line.clone()));
            }
        }
    }
    (completed, admitted)
}

/// Folds a record stream down to the records that still matter, in an
/// order [`fold_records`] maps to the identical `(completed, admitted)`
/// state: every settled key's final completion record (sorted by key,
/// for determinism), then every admitted-but-unsettled request in its
/// original admission order. This is the payload of a rotated segment.
pub fn compact_records(records: &[JournalRecord]) -> Vec<JournalRecord> {
    let (completed, admitted) = fold_records(records);
    let mut keys: Vec<&String> = completed.keys().collect();
    keys.sort();
    let mut out = Vec::with_capacity(completed.len() + admitted.len());
    for rid in keys {
        if let Some((kind, line)) = completed.get(rid) {
            out.push(JournalRecord {
                kind: *kind,
                rid: rid.clone(),
                line: line.clone(),
            });
        }
    }
    for (rid, line) in &admitted {
        out.push(JournalRecord {
            kind: RecordKind::Admit,
            rid: rid.clone(),
            line: line.clone(),
        });
    }
    out
}

/// Rotated segments inside `dir`, sorted by index (replay order).
fn segment_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>, std::io::Error> {
    let mut segs = Vec::new();
    if dir.exists() {
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = name.strip_prefix(SEGMENT_PREFIX) {
                if let Ok(n) = idx.parse::<u64>() {
                    segs.push((n, entry.path()));
                }
            }
        }
    }
    segs.sort_by_key(|(n, _)| *n);
    Ok(segs)
}

/// Every record a durability directory holds, as [`scan_dir`] read it.
#[derive(Debug)]
pub struct DirScan {
    /// Rotated segments, sorted by index (replay order).
    pub segments: Vec<(u64, PathBuf)>,
    /// Records decoded before the first damage: every segment's, then
    /// the live log's.
    pub records: Vec<JournalRecord>,
    /// How the read ended. A torn tail is always the live log's (its
    /// offset counts into `journal.log`); a damaged segment is
    /// [`ScanOutcome::Corrupt`] whatever its shape.
    pub outcome: ScanOutcome,
}

/// Reads the rotated segments in index order, then the live log,
/// stopping at the first damaged segment. Read-only: this is what a
/// restart would replay before it truncates a torn tail or quarantines
/// damage ([`Journal::open_dir_with`]), and what `lintra recover`
/// reports.
///
/// # Errors
///
/// Only real I/O failures; damaged content is reported in
/// [`DirScan::outcome`].
pub fn scan_dir(dir: &Path) -> Result<DirScan, std::io::Error> {
    let segments = segment_paths(dir)?;
    let mut records = Vec::new();
    for (_, seg_path) in &segments {
        let (scanned, outcome) = scan(&std::fs::read(seg_path)?);
        records.extend(scanned);
        // Segments are written whole, so a tear in one is corruption too.
        let (offset, detail) = match outcome {
            ScanOutcome::Clean => continue,
            ScanOutcome::TornTail { valid_len } => (valid_len, "truncated record".to_string()),
            ScanOutcome::Corrupt { offset, detail } => (offset, detail),
        };
        let detail = format!("{}: {detail}", seg_path.display());
        return Ok(DirScan {
            segments,
            records,
            outcome: ScanOutcome::Corrupt { offset, detail },
        });
    }
    let mut outcome = ScanOutcome::Clean;
    let path = dir.join(JOURNAL_FILE);
    if path.exists() {
        let (scanned, live) = scan(&std::fs::read(&path)?);
        records.extend(scanned);
        outcome = live;
    }
    Ok(DirScan {
        segments,
        records,
        outcome,
    })
}

/// Moves a corrupt file aside to `<path>.quarantined-<n>` (first free
/// `n`), preserving the evidence while the journal starts fresh.
fn quarantine(path: &Path) -> Result<PathBuf, std::io::Error> {
    for n in 0..u32::MAX {
        let candidate = PathBuf::from(format!("{}.quarantined-{n}", path.display()));
        if !candidate.exists() {
            std::fs::rename(path, &candidate)?;
            return Ok(candidate);
        }
    }
    Err(std::io::Error::other("no free quarantine slot"))
}

/// What replaying the journal found at startup.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Keys with a settled outcome. `Done`/`Fail` keys carry the exact
    /// response line a retry is answered with; `Abort` keys are settled
    /// but retries recompute.
    pub completed: HashMap<String, (RecordKind, String)>,
    /// Admitted-but-unfinished request lines, in admission order — the
    /// server re-executes these before accepting new work.
    pub incomplete: Vec<(String, String)>,
    /// Where a corrupt journal was moved, if one was found.
    pub quarantined: Option<PathBuf>,
    /// True when a torn tail was truncated away (normal crash artifact).
    pub torn_tail: bool,
    /// Every surviving record in journal order — the seed of the
    /// replication log (sequence number = index + 1). Empty when the
    /// journal was quarantined: a file that lied once contributes
    /// nothing, to replicas included.
    pub records: Vec<JournalRecord>,
}

/// The append side of the write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    dir: PathBuf,
    /// Bytes currently in the live log (mirrors the file length; the
    /// file is opened append-only and only this struct writes it).
    live_len: u64,
    /// When `Some(t)`, an append that leaves the live log above `t`
    /// bytes triggers compaction into a rotated segment.
    rotate_bytes: Option<u64>,
}

impl Journal {
    /// Opens (creating if needed) the journal inside `dir`, replaying
    /// whatever survives there. Rotation stays off; see
    /// [`Journal::open_dir_with`].
    ///
    /// A torn tail is truncated in place; a corrupt file is renamed to
    /// a `journal.log.quarantined-N` sibling and a fresh journal is
    /// started — the caller reports `IO-JOURNAL-CORRUPT` but keeps
    /// serving.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (unreadable directory, failed rename)
    /// error out; damaged journal *content* never does.
    pub fn open_dir(dir: &Path) -> Result<(Journal, JournalRecovery), std::io::Error> {
        Journal::open_dir_with(dir, None)
    }

    /// [`Journal::open_dir`] with size-capped rotation: when
    /// `rotate_bytes` is `Some(t)`, an append that leaves the live log
    /// above `t` bytes compacts the whole logical stream (settled
    /// completions plus unsettled admits, see [`compact_records`]) into
    /// a `journal.seg-N` segment and truncates the live log.
    ///
    /// Recovery always replays existing segments in index order before
    /// the live log, whether or not rotation is enabled for this open —
    /// a journal rotated once stays recoverable forever. A crash
    /// between the segment rename and the live-log truncation leaves
    /// records present in both; replaying them twice folds to the same
    /// state (completions supersede, duplicate admits dedup), so the
    /// overlap is harmless.
    ///
    /// Segments are written whole, so *any* damage to one (tear or
    /// checksum) is corruption: the full set — every segment and the
    /// live log — is quarantined together and the journal starts
    /// fresh. A partial set that lied once proves nothing about the
    /// rest.
    ///
    /// # Errors
    ///
    /// Same contract as [`Journal::open_dir`].
    pub fn open_dir_with(
        dir: &Path,
        rotate_bytes: Option<u64>,
    ) -> Result<(Journal, JournalRecovery), std::io::Error> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut recovery = JournalRecovery::default();
        let DirScan {
            segments,
            mut records,
            outcome,
        } = scan_dir(dir)?;
        match outcome {
            ScanOutcome::Clean => {}
            ScanOutcome::TornTail { valid_len } => {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_len)?;
                f.sync_all()?;
                recovery.torn_tail = true;
            }
            ScanOutcome::Corrupt { .. } => {
                // The records decoded before the damage are NOT reused: a
                // set of files that lied once is not trusted to have told
                // the truth elsewhere. Quarantine every piece together.
                records.clear();
                let mut first = None;
                for (_, seg_path) in &segments {
                    if seg_path.exists() {
                        let q = quarantine(seg_path)?;
                        first.get_or_insert(q);
                    }
                }
                if path.exists() {
                    let q = quarantine(&path)?;
                    first.get_or_insert(q);
                }
                recovery.quarantined = first;
            }
        }
        let (completed, admitted) = fold_records(&records);
        recovery.completed = completed;
        recovery.incomplete = admitted;
        recovery.records = records;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let live_len = file.metadata()?.len();
        Ok((
            Journal {
                file,
                path,
                dir: dir.to_path_buf(),
                live_len,
                rotate_bytes,
            },
            recovery,
        ))
    }

    /// Path of the live journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and fsyncs it — the record is durable when
    /// this returns. Called *before* the response leaves the server.
    /// May rotate afterwards when a size cap is configured; the record
    /// is durable either way.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/fsync failure; the caller maps
    /// it to `IO-FAILURE`.
    pub fn append(
        &mut self,
        kind: RecordKind,
        rid: &str,
        line: &str,
    ) -> Result<(), std::io::Error> {
        let encoded = encode_record(kind, rid, line);
        self.file.write_all(&encoded)?;
        self.file.sync_data()?;
        self.live_len += encoded.len() as u64;
        if let Some(cap) = self.rotate_bytes {
            if self.live_len > cap {
                self.rotate()?;
            }
        }
        Ok(())
    }

    /// Compacts the full logical stream into a fresh `journal.seg-N`
    /// and truncates the live log. Ordered for crash safety: the new
    /// segment is durable (tmp + fsync + rename) before a single old
    /// byte is touched, so every intermediate state replays to the
    /// same fold.
    fn rotate(&mut self) -> Result<(), std::io::Error> {
        let DirScan {
            segments,
            records,
            outcome,
        } = scan_dir(&self.dir)?;
        if outcome != ScanOutcome::Clean {
            // Damage since open: refuse to compact what we cannot
            // trust. The live log keeps growing; recovery's
            // quarantine policy owns this case.
            return Ok(());
        }

        let next_idx = segments.last().map_or(1, |(n, _)| n + 1);
        let mut payload = Vec::new();
        for r in compact_records(&records) {
            payload.extend_from_slice(&encode_record(r.kind, &r.rid, &r.line));
        }
        let seg_path = self.dir.join(format!("{SEGMENT_PREFIX}{next_idx}"));
        let tmp_path = self.dir.join(format!("{SEGMENT_PREFIX}{next_idx}.tmp"));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&payload)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &seg_path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // The segment is durable; everything it subsumes can go.
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.live_len = 0;
        for (_, old) in &segments {
            let _ = std::fs::remove_file(old);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_bytes(pairs: &[(RecordKind, &str, &str)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, rid, line) in pairs {
            out.extend_from_slice(&encode_record(*kind, rid, line));
        }
        out
    }

    #[test]
    fn scan_round_trips_encoded_records() {
        let bytes = record_bytes(&[
            (RecordKind::Admit, "k1", "{\"id\":\"a\",\"op\":\"ping\"}"),
            (RecordKind::Done, "k1", "{\"id\":\"a\",\"ok\":true}"),
            (RecordKind::Abort, "k2", "{\"id\":\"b\",\"ok\":false}"),
        ]);
        let (records, outcome) = scan(&bytes);
        assert_eq!(outcome, ScanOutcome::Clean);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, RecordKind::Admit);
        assert_eq!(records[0].rid, "k1");
        assert_eq!(records[1].line, "{\"id\":\"a\",\"ok\":true}");
        assert_eq!(records[2].kind, RecordKind::Abort);
    }

    #[test]
    fn every_truncation_is_a_torn_tail_preserving_the_valid_prefix() {
        let bytes = record_bytes(&[
            (RecordKind::Admit, "k1", "line-one"),
            (RecordKind::Done, "k1", "line-two"),
        ]);
        let first_len = encode_record(RecordKind::Admit, "k1", "line-one").len();
        let boundaries = [0, first_len, bytes.len()];
        for cut in 0..=bytes.len() {
            let (records, outcome) = scan(&bytes[..cut]);
            // The valid prefix always decodes: every record whose bytes
            // fully survive the cut is returned.
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(records.len(), whole, "cut {cut}");
            match outcome {
                ScanOutcome::Clean => {
                    assert!(boundaries.contains(&cut), "cut {cut} cannot be clean");
                }
                ScanOutcome::TornTail { valid_len } => {
                    assert!(
                        !boundaries.contains(&cut),
                        "boundary cut {cut} is not a tear"
                    );
                    assert_eq!(valid_len, boundaries[whole] as u64, "cut {cut}");
                }
                ScanOutcome::Corrupt { .. } => panic!("truncation at {cut} must not be corruption"),
            }
        }
    }

    #[test]
    fn a_flipped_payload_bit_is_corruption_not_a_torn_tail() {
        let bytes = record_bytes(&[(RecordKind::Admit, "k1", "payload-under-test")]);
        for byte in 8..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                let (records, outcome) = scan(&damaged);
                assert!(records.is_empty(), "byte {byte} bit {bit}");
                assert!(
                    matches!(outcome, ScanOutcome::Corrupt { .. }),
                    "byte {byte} bit {bit}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn a_checksummed_record_nested_past_the_json_depth_bound_is_corruption() {
        // A CRC-valid frame around a payload whose nesting the parser
        // refuses: the scan must classify it, not overflow the stack.
        let mut bytes = record_bytes(&[(RecordKind::Admit, "k0", "before")]);
        let payload = "[".repeat(1 << 20);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        let (records, outcome) = std::thread::spawn(move || scan(&bytes))
            .join()
            .expect("scanning must not overflow the stack");
        assert_eq!(records.len(), 1, "the record before the damage survives");
        match outcome {
            ScanOutcome::Corrupt { detail, .. } => {
                assert!(detail.contains("nested too deep"), "{detail}");
            }
            other => panic!("a deep payload must be corruption, got {other:?}"),
        }
    }

    #[test]
    fn an_absurd_length_prefix_is_corruption() {
        let mut bytes = vec![0u8; 8];
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let (records, outcome) = scan(&bytes);
        assert!(records.is_empty());
        assert!(matches!(outcome, ScanOutcome::Corrupt { .. }));
    }

    #[test]
    #[allow(clippy::expect_used)]
    fn open_dir_truncates_torn_tails_and_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("lintra-journal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut j, _) = Journal::open_dir(&dir).expect("open");
            j.append(RecordKind::Admit, "k1", "req-1").expect("append");
            j.append(RecordKind::Done, "k1", "resp-1").expect("append");
        }
        // Tear the tail: drop the last 3 bytes of the done record.
        let path = dir.join(JOURNAL_FILE);
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open rw");
        f.set_len(len - 3).expect("truncate");
        drop(f);

        let (mut j, recovery) = Journal::open_dir(&dir).expect("reopen");
        assert!(recovery.torn_tail, "tear must be detected");
        assert!(recovery.quarantined.is_none(), "a tear is not corruption");
        assert_eq!(
            recovery.incomplete,
            vec![("k1".to_string(), "req-1".to_string())]
        );
        // The journal is still appendable and the tear healed.
        j.append(RecordKind::Done, "k1", "resp-1b").expect("append");
        let (_, recovery) = Journal::open_dir(&dir).expect("third open");
        assert_eq!(
            recovery.completed.get("k1"),
            Some(&(RecordKind::Done, "resp-1b".to_string()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::expect_used)]
    fn open_dir_quarantines_corruption_and_starts_fresh() {
        let dir =
            std::env::temp_dir().join(format!("lintra-journal-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut j, _) = Journal::open_dir(&dir).expect("open");
            j.append(RecordKind::Admit, "k1", "req-1").expect("append");
            j.append(RecordKind::Done, "k1", "resp-1").expect("append");
        }
        // Flip one bit inside the last record's payload: the record is
        // fully present, so this must read as corruption, not a tear.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        let target = bytes.len() - 4;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write damage");

        let (_, recovery) = Journal::open_dir(&dir).expect("reopen");
        let quarantined = recovery.quarantined.expect("must quarantine");
        assert!(quarantined.exists());
        assert!(
            recovery.completed.is_empty() && recovery.incomplete.is_empty(),
            "a quarantined journal contributes nothing"
        );
        // The fresh journal starts empty and usable.
        let (mut j, _) = Journal::open_dir(&dir).expect("third open");
        j.append(RecordKind::Admit, "k9", "req-9").expect("append");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn seg_indices(dir: &Path) -> Vec<u64> {
        segment_paths(dir)
            .unwrap_or_default()
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    #[test]
    fn compaction_is_fold_equivalent() {
        let records = vec![
            JournalRecord {
                kind: RecordKind::Admit,
                rid: "b".into(),
                line: "req-b".into(),
            },
            JournalRecord {
                kind: RecordKind::Admit,
                rid: "a".into(),
                line: "req-a".into(),
            },
            JournalRecord {
                kind: RecordKind::Done,
                rid: "b".into(),
                line: "resp-b".into(),
            },
            JournalRecord {
                kind: RecordKind::Admit,
                rid: "c".into(),
                line: "req-c".into(),
            },
            JournalRecord {
                kind: RecordKind::Abort,
                rid: "c".into(),
                line: "resp-c".into(),
            },
            JournalRecord {
                kind: RecordKind::Admit,
                rid: "c".into(),
                line: "req-c2".into(),
            },
        ];
        let compacted = compact_records(&records);
        assert_eq!(fold_records(&compacted), fold_records(&records));
        // Settled keys keep exactly one record each; 'a' stays admitted.
        assert!(compacted.len() < records.len());
    }

    #[test]
    #[allow(clippy::expect_used)]
    fn rotation_compacts_settled_work_and_recovery_replays_segments() {
        let dir =
            std::env::temp_dir().join(format!("lintra-journal-rotate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut j, _) = Journal::open_dir_with(&dir, Some(256)).expect("open");
            for i in 0..32 {
                let rid = format!("k{i:02}");
                j.append(RecordKind::Admit, &rid, &format!("req-{rid}"))
                    .expect("admit");
                j.append(RecordKind::Done, &rid, &format!("resp-{rid}"))
                    .expect("done");
            }
            // One key left unsettled across rotations.
            j.append(RecordKind::Admit, "open-key", "req-open")
                .expect("admit open");
        }
        let segs = seg_indices(&dir);
        assert_eq!(segs.len(), 1, "old segments must be reaped: {segs:?}");
        let live_len = std::fs::metadata(dir.join(JOURNAL_FILE))
            .expect("meta")
            .len();
        assert!(live_len < 512, "live log must have been truncated");

        let (_, rec) = Journal::open_dir(&dir).expect("reopen");
        assert_eq!(rec.completed.len(), 32, "every settled key survives");
        assert_eq!(
            rec.completed.get("k07"),
            Some(&(RecordKind::Done, "resp-k07".to_string()))
        );
        assert_eq!(
            rec.incomplete,
            vec![("open-key".to_string(), "req-open".to_string())]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::expect_used)]
    fn an_orphaned_overlapping_segment_still_folds_correctly() {
        // Simulate a crash between segment rename and live-log
        // truncation: the same records live in both places.
        let dir =
            std::env::temp_dir().join(format!("lintra-journal-overlap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut j, _) = Journal::open_dir(&dir).expect("open");
            j.append(RecordKind::Admit, "k1", "req-1").expect("a");
            j.append(RecordKind::Done, "k1", "resp-1").expect("d");
            j.append(RecordKind::Admit, "k2", "req-2").expect("a2");
        }
        let live = std::fs::read(dir.join(JOURNAL_FILE)).expect("read");
        std::fs::write(dir.join(format!("{SEGMENT_PREFIX}1")), &live).expect("seed segment");

        let (_, rec) = Journal::open_dir(&dir).expect("reopen");
        assert_eq!(
            rec.completed.get("k1"),
            Some(&(RecordKind::Done, "resp-1".to_string()))
        );
        assert_eq!(
            rec.incomplete,
            vec![("k2".to_string(), "req-2".to_string())],
            "the duplicate admit must fold away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::expect_used)]
    fn a_damaged_segment_quarantines_the_whole_set() {
        let dir =
            std::env::temp_dir().join(format!("lintra-journal-segcorrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut j, _) = Journal::open_dir_with(&dir, Some(64)).expect("open");
            for i in 0..8 {
                j.append(RecordKind::Done, &format!("k{i}"), "resp")
                    .expect("append");
            }
        }
        let seg = dir.join(format!(
            "{SEGMENT_PREFIX}{}",
            seg_indices(&dir).last().expect("a segment exists")
        ));
        let mut bytes = std::fs::read(&seg).expect("read seg");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&seg, &bytes).expect("damage");

        let (_, rec) = Journal::open_dir(&dir).expect("reopen");
        assert!(rec.quarantined.is_some(), "segment damage must quarantine");
        assert!(
            rec.completed.is_empty() && rec.records.is_empty(),
            "a quarantined set contributes nothing"
        );
        assert!(seg_indices(&dir).is_empty(), "no segment may survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::expect_used)]
    fn quarantine_moves_the_file_aside() {
        let dir = std::env::temp_dir().join(format!("lintra-journal-aside-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, b"garbage").expect("write");
        let moved = quarantine(&path).expect("quarantine");
        assert!(!path.exists());
        assert!(moved.exists());
        assert!(moved.to_string_lossy().contains(".quarantined-0"));
        // A second corrupt file gets the next slot, not an overwrite.
        std::fs::write(&path, b"garbage2").expect("write");
        let moved2 = quarantine(&path).expect("second quarantine");
        assert!(moved2.to_string_lossy().contains(".quarantined-1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_precedence_matches_the_dedup_policy() {
        let bytes = record_bytes(&[
            (RecordKind::Admit, "done-key", "r1"),
            (RecordKind::Admit, "abort-key", "r2"),
            (RecordKind::Admit, "open-key", "r3"),
            (RecordKind::Done, "done-key", "resp-ok"),
            (RecordKind::Abort, "abort-key", "resp-abort"),
        ]);
        let (records, outcome) = scan(&bytes);
        assert_eq!(outcome, ScanOutcome::Clean);
        assert_eq!(records.len(), 5);
        assert!(RecordKind::Done.serves_retries());
        assert!(RecordKind::Fail.serves_retries());
        assert!(!RecordKind::Abort.serves_retries());
        assert!(!RecordKind::Admit.serves_retries());
    }
}
