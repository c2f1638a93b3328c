//! Parallel sweep engine for the `lintra` workspace.
//!
//! Everything the paper reports is a *sweep*: Tables 2–4 sweep the
//! 8-design suite, §3 sweeps the unfolding factor `i`, §4 sweeps the
//! processor count `N`. This crate makes those sweeps fast twice over —
//! concurrently, with a dependency-free work-stealing [`ThreadPool`]
//! ([`pool`]), and incrementally, with caches ([`cache`]) that reuse the
//! shared intermediates (`A^k`, `A^k·B`, `C·A^k`, `C·A^k·B`, Horner
//! precomputations) across sweep points — under one non-negotiable
//! contract: **results are bit-identical to the sequential from-scratch
//! path**, asserted with `==` by the differential test layer.
//!
//! The determinism contract has three legs:
//!
//! 1. [`ThreadPool::map`] returns results in input order, so a parallel
//!    sweep is indistinguishable from `items.into_iter().map(f)` however
//!    the scheduler interleaved the work.
//! 2. Cached values are produced by exactly the expressions the
//!    from-scratch code uses (same operands, same order, same kernels),
//!    so reuse changes no bits.
//! 3. Failures are deterministic too: a panicking sweep point surfaces as
//!    [`EngineError::WorkerPanic`] at its own index (siblings unaffected),
//!    and [`ThreadPool::try_map`] reports the lowest failing index.
//!
//! Caches live in memory only: a cold `0..=32` unfolding sweep of a
//! suite design costs about a millisecond, while persisting its cache
//! would cost an fsync'd file write per warm design per sweep. The crate
//! also holds [`crc32`] (with its incremental form [`crc32_update`]),
//! the one checksum of the workspace: the serve layer's journal records
//! and replication stream, and the MCM-plan golden, all use it.

pub mod cache;
pub mod cancel;
pub mod pool;
pub mod search;

pub use cache::{CacheStats, SweepCache};
pub use cancel::{CancelReason, CancelToken};
pub use pool::{EngineError, SweepCtl, ThreadPool};
pub use search::best_unfolding;

/// The IEEE 802.3 CRC-32 polynomial, bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC register after one
/// byte `b` followed by `k` zero bytes, so eight lookups advance the
/// register by eight bytes at once. Built at compile time.
const TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected; the zlib/PNG checksum),
/// computed by slicing-by-8: eight table lookups per eight bytes. Over
/// a 1.7 MB journal on a shared 2-vCPU host that is 0.9 ns per byte,
/// where the bit-at-a-time definition (kept as the test oracle) took
/// 7.0. Journal records, the replication stream and the MCM-plan golden
/// pin its values, so a change to any output bit is a format break.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished checksum over more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, with `crc32_update(0, b)
/// == crc32(b)`. Lets a checksum over several buffers skip their
/// concatenation.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut reg = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = reg ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        reg = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][usize::from(c[4])]
            ^ TABLES[2][usize::from(c[5])]
            ^ TABLES[1][usize::from(c[6])]
            ^ TABLES[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        reg = (reg >> 8) ^ TABLES[0][((reg ^ u32::from(b)) & 0xFF) as usize];
    }
    !reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_matrix::rng::SplitMix64;

    /// The bit-at-a-time definition the tables are checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_equals_the_bitwise_oracle_at_every_short_length_and_offset() {
        let buf = seeded_bytes(0xC4C3_2001, 64 + 8);
        for len in 0..=64 {
            for offset in 0..8 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} offset {offset}");
            }
        }
        for b in 0..=255u8 {
            assert_eq!(crc32(&[b; 13]), crc32_bitwise(&[b; 13]), "byte {b}");
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_oracle_on_a_mebibyte() {
        let buf = seeded_bytes(0x00C0_FFEE, 1 << 20);
        assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        assert_eq!(crc32(&buf[3..]), crc32_bitwise(&buf[3..]));
    }

    #[test]
    fn crc32_update_equals_the_one_shot_checksum_at_every_split() {
        let buf = seeded_bytes(0x5EED_0005, 200);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), crc32(&buf), "cut {cut}");
        }
        // Three pieces, and the empty extension.
        let whole = crc32(&buf);
        let three = crc32_update(crc32_update(crc32(&buf[..17]), &buf[17..90]), &buf[90..]);
        assert_eq!(three, whole);
        assert_eq!(crc32_update(whole, &[]), whole);
        assert_eq!(crc32_update(0, &buf), whole);
    }
}
