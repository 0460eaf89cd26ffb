//! Corruption-tolerant `.bpt` reader.
//!
//! Both modes share one chunk parser; they differ only in what happens at
//! damage:
//!
//! * [`ReadMode::Strict`] returns the first [`TraceError`], naming the
//!   chunk ordinal and byte offset, and additionally cross-checks sequence
//!   numbers and the trailer's whole-file totals. An intact file decodes to
//!   exactly what was written; anything else is a typed refusal.
//! * [`ReadMode::Lenient`] *resynchronizes*: on any chunk-level damage it
//!   scans forward for the next [`CHUNK_MAGIC`](crate::CHUNK_MAGIC) that
//!   heads a fully CRC-valid chunk, counts one skipped region in
//!   [`TraceHealth`], and continues. Duplicate and stray chunks (botched
//!   copies) are dropped by sequence-number bookkeeping. Only file-header
//!   damage is fatal in lenient mode: a file whose version byte cannot be
//!   trusted must not be guessed at.
//!
//! Resync never misfires on payload bytes that happen to spell `CHNK`: a
//! candidate only ends the damaged region if its entire chunk validates, so
//! false anchors are skipped *within* the same damaged region (they do not
//! inflate `chunks_skipped`).

use bp_common::{Addr, BranchRecord};

use crate::crc32::Hasher;
use crate::varint;
use crate::writer::kind_from_code;
use crate::{TraceError, TraceHealth, CHUNK_HEADER_LEN, CHUNK_MAGIC, FILE_HEADER_LEN};

/// How the reader treats damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// First damage is a typed error naming chunk and offset.
    #[default]
    Strict,
    /// Skip to the next intact chunk; account losses in [`TraceHealth`].
    Lenient,
}

impl ReadMode {
    /// Parses a `--trace-mode` value through the shared strict-parse
    /// helper ([`bp_common::parse::one_of`]).
    ///
    /// # Errors
    ///
    /// Lists the valid values; a typo must never silently pick a mode.
    pub fn parse(v: &str) -> Result<ReadMode, String> {
        bp_common::parse::one_of(
            "trace mode",
            v,
            &[("strict", ReadMode::Strict), ("lenient", ReadMode::Lenient)],
        )
    }

    /// The value [`ReadMode::parse`] accepts for this mode.
    pub fn name(self) -> &'static str {
        match self {
            ReadMode::Strict => "strict",
            ReadMode::Lenient => "lenient",
        }
    }
}

/// One parsed chunk.
enum Chunk {
    Data {
        seq: u32,
        records: Vec<BranchRecord>,
        size: usize,
    },
    Trailer {
        seq: u32,
        total_records: u64,
        total_chunks: u64,
        size: usize,
    },
}

/// Validates the 16-byte file header. Fatal in both modes.
fn parse_file_header(bytes: &[u8]) -> Result<(), TraceError> {
    if bytes.len() < FILE_HEADER_LEN {
        return Err(TraceError::Truncated {
            offset: bytes.len() as u64,
            what: "file header",
        });
    }
    if bytes[..7] != crate::FILE_MAGIC {
        return Err(TraceError::BadFileMagic);
    }
    let stored = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let computed = crate::crc32::checksum(&bytes[..12]);
    if stored != computed {
        return Err(TraceError::HeaderCrc { stored, computed });
    }
    // Version is checked after the CRC: a flipped version byte is damage
    // (HeaderCrc), a *valid* higher version is genuinely from the future.
    if bytes[7] != crate::FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion { found: bytes[7] });
    }
    Ok(())
}

fn le32(bytes: &[u8], pos: usize) -> u32 {
    // Callers bound-check; a short slice here would be a logic error, so
    // degrade to 0 rather than panic.
    match bytes.get(pos..pos + 4) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => 0,
    }
}

/// Parses the chunk starting at `pos`. `ordinal` is the chunk's 0-based
/// position-count, used only for error naming.
fn parse_chunk(bytes: &[u8], pos: usize, ordinal: u32) -> Result<Chunk, TraceError> {
    if bytes.len() - pos < CHUNK_HEADER_LEN {
        return Err(TraceError::Truncated {
            offset: pos as u64,
            what: "chunk header",
        });
    }
    if bytes[pos..pos + 4] != CHUNK_MAGIC {
        return Err(TraceError::BadChunkMagic {
            chunk: ordinal,
            offset: pos as u64,
        });
    }
    let seq = le32(bytes, pos + 4);
    let count = le32(bytes, pos + 8);
    let payload_len = le32(bytes, pos + 12) as usize;
    let stored = le32(bytes, pos + 16);
    if bytes.len() - pos - CHUNK_HEADER_LEN < payload_len {
        return Err(TraceError::Truncated {
            offset: pos as u64,
            what: "chunk payload",
        });
    }
    let payload = &bytes[pos + CHUNK_HEADER_LEN..pos + CHUNK_HEADER_LEN + payload_len];
    let mut h = Hasher::new();
    h.update(&bytes[pos + 4..pos + 16]);
    h.update(payload);
    let computed = h.finish();
    if stored != computed {
        return Err(TraceError::ChunkCrc {
            chunk: ordinal,
            offset: pos as u64,
            stored,
            computed,
        });
    }
    let size = CHUNK_HEADER_LEN + payload_len;
    let payload_base = (pos + CHUNK_HEADER_LEN) as u64;
    if count == 0 {
        let mut p = 0usize;
        let total_records = varint::read_u64(payload, &mut p);
        let total_chunks = varint::read_u64(payload, &mut p);
        return match (total_records, total_chunks) {
            (Some(r), Some(c)) if p == payload.len() => Ok(Chunk::Trailer {
                seq,
                total_records: r,
                total_chunks: c,
                size,
            }),
            _ => Err(TraceError::BadRecord {
                chunk: ordinal,
                offset: payload_base,
                reason: "malformed trailer payload",
            }),
        };
    }
    let mut records = Vec::with_capacity(count as usize);
    let mut p = 0usize;
    let mut prev_pc = 0u64;
    for _ in 0..count {
        let rec_off = payload_base + p as u64;
        let bad = |reason: &'static str| TraceError::BadRecord {
            chunk: ordinal,
            offset: rec_off,
            reason,
        };
        let &tag = payload.get(p).ok_or_else(|| bad("record truncated"))?;
        p += 1;
        if tag & !0x0F != 0 {
            return Err(bad("reserved tag bits set"));
        }
        let kind = kind_from_code(tag & 0x07).ok_or_else(|| bad("unknown branch kind"))?;
        let taken = tag & 0x08 != 0;
        if !taken && !kind.is_conditional() {
            return Err(bad("unconditional branch encoded as not taken"));
        }
        let dpc = varint::read_u64(payload, &mut p).ok_or_else(|| bad("bad pc delta"))?;
        let dtarget = varint::read_u64(payload, &mut p).ok_or_else(|| bad("bad target delta"))?;
        let gap = varint::read_u64(payload, &mut p).ok_or_else(|| bad("bad gap"))?;
        let gap = u32::try_from(gap).map_err(|_| bad("gap exceeds 32 bits"))?;
        let pc = prev_pc.wrapping_add(varint::unzigzag(dpc) as u64);
        let target = pc.wrapping_add(varint::unzigzag(dtarget) as u64);
        prev_pc = pc;
        records.push(BranchRecord {
            pc: Addr::new(pc),
            kind,
            target: Addr::new(target),
            taken,
            gap,
        });
    }
    if p != payload.len() {
        return Err(TraceError::BadRecord {
            chunk: ordinal,
            offset: payload_base + p as u64,
            reason: "trailing bytes in chunk payload",
        });
    }
    Ok(Chunk::Data { seq, records, size })
}

/// Scans forward from `from` for the next offset heading a fully valid
/// chunk. False anchors (payload bytes spelling the magic, or a damaged
/// real chunk) are skipped without ending the scan.
fn find_next_valid_chunk(bytes: &[u8], mut from: usize) -> Option<usize> {
    while from + CHUNK_HEADER_LEN <= bytes.len() {
        match bytes[from..]
            .windows(CHUNK_MAGIC.len())
            .position(|w| w == CHUNK_MAGIC)
        {
            Some(rel) => {
                let q = from + rel;
                if parse_chunk(bytes, q, 0).is_ok() {
                    return Some(q);
                }
                from = q + 1;
            }
            None => return None,
        }
    }
    None
}

/// Whether `pos` heads a fully valid chunk of `bytes` — the precondition
/// for seeking a decode there (the sampling plan stores chunk offsets; a
/// stale or corrupted plan must fail the seek, not decode garbage).
pub(crate) fn chunk_starts_at(bytes: &[u8], pos: usize) -> bool {
    pos >= FILE_HEADER_LEN
        && pos < bytes.len()
        && bytes.len() - pos >= CHUNK_HEADER_LEN
        && parse_chunk(bytes, pos, 0).is_ok()
}

/// What one advance of the incremental decoder contributed.
pub(crate) enum Step {
    /// An intact, first-delivery data chunk's records, in stream order.
    /// `offset` is the absolute byte offset of the chunk's start — the
    /// seek anchor phase sampling records for each window (chunks encode
    /// independently, so a later decode can resume exactly here).
    Records {
        recs: Vec<BranchRecord>,
        offset: u64,
    },
    /// A chunk was consumed without new records (trailer, duplicate/stray
    /// chunk, or a lenient resync) — call [`DecodeState::step`] again.
    Meta,
    /// End of the byte stream; the state's health ledger is now final.
    End,
}

/// Resumable decode cursor: all the loop state of a whole-file decode,
/// minus the record accumulator. Callers choose whether records are
/// collected eagerly ([`read_all`]) or handed out chunk-by-chunk
/// ([`TraceReader`], the store's replay cursor) — the streaming side never
/// holds more than one chunk's decoded records at a time, which is what
/// bounds replay memory to O(chunk) over the raw (undecoded) file bytes.
#[derive(Debug, Clone)]
pub(crate) struct DecodeState {
    pos: usize,
    ordinal: u32,
    health: TraceHealth,
    seen_seqs: std::collections::BTreeSet<u32>,
    trailer: Option<(u64, u64)>,
    ended_in_damage: bool,
    strict: bool,
    finished: bool,
}

impl DecodeState {
    /// Validates the file header (fatal in both modes) and positions the
    /// cursor at the first chunk.
    pub(crate) fn new(bytes: &[u8], mode: ReadMode) -> Result<DecodeState, TraceError> {
        parse_file_header(bytes)?;
        Ok(DecodeState {
            pos: FILE_HEADER_LEN,
            ordinal: 0,
            health: TraceHealth::default(),
            seen_seqs: std::collections::BTreeSet::new(),
            trailer: None,
            ended_in_damage: false,
            strict: mode == ReadMode::Strict,
            finished: false,
        })
    }

    /// Positions a decode cursor directly at byte `pos`, which the caller
    /// must have proven heads a valid chunk ([`chunk_starts_at`]) of a
    /// file whose header was already validated at load time. Always
    /// lenient and sequence-agnostic: a mid-file resume sees arbitrary
    /// sequence numbers, so strict's "seq equals chunks seen" cross-check
    /// cannot apply. Used by the sampled-replay seek path.
    pub(crate) fn at_offset(pos: usize) -> DecodeState {
        DecodeState {
            pos,
            ordinal: 0,
            health: TraceHealth::default(),
            seen_seqs: std::collections::BTreeSet::new(),
            trailer: None,
            ended_in_damage: false,
            strict: false,
            finished: false,
        }
    }

    /// The damage ledger accumulated so far. Complete only after
    /// [`DecodeState::step`] has returned [`Step::End`] (the lenient loss
    /// accounting needs the trailer).
    pub(crate) fn health(&self) -> TraceHealth {
        self.health
    }

    /// Advances past one chunk of `bytes`, which must be the same slice on
    /// every call. In strict mode any damage is returned once as `Err` and
    /// the state finishes; in lenient mode damage becomes a resync and
    /// lands in the health ledger. A finished state keeps reporting
    /// [`Step::End`].
    pub(crate) fn step(&mut self, bytes: &[u8]) -> Result<Step, TraceError> {
        if self.finished {
            return Ok(Step::End);
        }
        if self.pos >= bytes.len() {
            return self.finish(bytes);
        }
        match parse_chunk(bytes, self.pos, self.ordinal) {
            Ok(Chunk::Data {
                seq,
                records: recs,
                size,
            }) => {
                if self.strict {
                    if self.trailer.is_some() {
                        self.finished = true;
                        return Err(TraceError::TrailingData {
                            offset: self.pos as u64,
                        });
                    }
                    if seq != self.health.chunks_ok as u32 {
                        self.finished = true;
                        return Err(TraceError::BadSequence {
                            chunk: self.ordinal,
                            offset: self.pos as u64,
                            expected: self.health.chunks_ok as u32,
                            found: seq,
                        });
                    }
                }
                self.ordinal += 1;
                let offset = self.pos as u64;
                self.pos += size;
                if self.trailer.is_some() || !self.seen_seqs.insert(seq) {
                    // A stray or duplicated chunk (botched copy): its
                    // records were already delivered once.
                    self.health.chunks_skipped += 1;
                    Ok(Step::Meta)
                } else {
                    self.health.chunks_ok += 1;
                    self.health.records_ok += recs.len() as u64;
                    Ok(Step::Records { recs, offset })
                }
            }
            Ok(Chunk::Trailer {
                seq,
                total_records,
                total_chunks,
                size,
            }) => {
                if self.strict {
                    if self.trailer.is_some() {
                        self.finished = true;
                        return Err(TraceError::TrailingData {
                            offset: self.pos as u64,
                        });
                    }
                    if seq != self.health.chunks_ok as u32 {
                        self.finished = true;
                        return Err(TraceError::BadSequence {
                            chunk: self.ordinal,
                            offset: self.pos as u64,
                            expected: self.health.chunks_ok as u32,
                            found: seq,
                        });
                    }
                }
                if self.trailer.is_none() {
                    self.trailer = Some((total_records, total_chunks));
                } else {
                    self.health.chunks_skipped += 1;
                }
                self.ordinal += 1;
                self.pos += size;
                Ok(Step::Meta)
            }
            Err(e) => {
                if self.strict {
                    self.finished = true;
                    return Err(e);
                }
                self.health.chunks_skipped += 1;
                self.ordinal += 1;
                match find_next_valid_chunk(bytes, self.pos + 1) {
                    Some(q) => {
                        self.pos = q;
                        Ok(Step::Meta)
                    }
                    None => {
                        self.ended_in_damage = true;
                        self.finish(bytes)
                    }
                }
            }
        }
    }

    /// End-of-stream bookkeeping: strict totals cross-check, lenient loss
    /// accounting against the trailer.
    fn finish(&mut self, bytes: &[u8]) -> Result<Step, TraceError> {
        self.finished = true;
        if self.strict {
            return match self.trailer {
                None => Err(TraceError::Truncated {
                    offset: bytes.len() as u64,
                    what: "trailer chunk",
                }),
                Some((total_records, total_chunks)) => {
                    if total_records != self.health.records_ok
                        || total_chunks != self.health.chunks_ok
                    {
                        Err(TraceError::TrailerMismatch {
                            expected_records: total_records,
                            found_records: self.health.records_ok,
                            expected_chunks: total_chunks,
                            found_chunks: self.health.chunks_ok,
                        })
                    } else {
                        Ok(Step::End)
                    }
                }
            };
        }
        match self.trailer {
            Some((total_records, _)) => {
                self.health.records_lost = total_records.saturating_sub(self.health.records_ok);
                self.health.torn_tail = self.ended_in_damage;
            }
            None => {
                // Without the trailer the loss past the last intact chunk is
                // unknowable: flag it rather than guess a number.
                self.health.torn_tail = true;
            }
        }
        Ok(Step::End)
    }
}

/// A fully decoded trace plus its damage ledger.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Decoded {
    pub(crate) records: Vec<BranchRecord>,
    pub(crate) health: TraceHealth,
}

/// Eager decode: drives [`DecodeState`] to the end, collecting every
/// delivered chunk. In strict mode any `Err` short-circuits; in lenient
/// mode errors after the file header are converted into resyncs.
/// Surfaced to callers as `TraceSession::decode`.
pub(crate) fn decode(bytes: &[u8], mode: ReadMode) -> Result<Decoded, TraceError> {
    let mut state = DecodeState::new(bytes, mode)?;
    let mut records = Vec::new();
    loop {
        match state.step(bytes)? {
            Step::Records { recs, .. } => records.extend(recs),
            Step::Meta => {}
            Step::End => break,
        }
    }
    Ok(Decoded {
        records,
        health: state.health(),
    })
}

/// Streaming reader: an iterator over records that decodes one chunk at a
/// time, so peak decoded-record residency is bounded by the chunk size no
/// matter how large the file is (the raw bytes stay borrowed, not copied —
/// resync needs random access to them).
///
/// In strict mode the records before the first damage iterate first, then
/// the damage is yielded once as `Err` and the iterator fuses.
#[derive(Debug)]
pub struct TraceReader<'a> {
    bytes: &'a [u8],
    state: DecodeState,
    current: std::vec::IntoIter<BranchRecord>,
    peak_buffered: usize,
    fused: bool,
}

impl<'a> TraceReader<'a> {
    /// Positions a streaming decode over `bytes` in `mode`.
    ///
    /// # Errors
    ///
    /// File-header damage is returned immediately in both modes (there is
    /// nothing to iterate). Chunk-level damage is deferred to iteration.
    pub fn new(bytes: &'a [u8], mode: ReadMode) -> Result<TraceReader<'a>, TraceError> {
        Ok(TraceReader {
            bytes,
            state: DecodeState::new(bytes, mode)?,
            current: Vec::new().into_iter(),
            peak_buffered: 0,
            fused: false,
        })
    }

    /// The damage ledger accumulated so far; complete once iteration ends.
    /// (Strict mode errors instead of accounting, so its ledger only ever
    /// shows the intact prefix.)
    pub fn health(&self) -> TraceHealth {
        self.state.health()
    }

    /// The largest number of decoded records ever resident in the reader at
    /// once — the O(chunk) streaming bound, asserted in tests.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }
}

impl Iterator for TraceReader<'_> {
    type Item = Result<BranchRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(r) = self.current.next() {
                return Some(Ok(r));
            }
            if self.fused {
                return None;
            }
            match self.state.step(self.bytes) {
                Ok(Step::Records { recs, .. }) => {
                    self.peak_buffered = self.peak_buffered.max(recs.len());
                    self.current = recs.into_iter();
                }
                Ok(Step::Meta) => {}
                Ok(Step::End) => {
                    self.fused = true;
                    return None;
                }
                Err(e) => {
                    self.fused = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_trace;
    use bp_common::BranchKind;

    /// Test-local decode entry pairing records with health, the shape most
    /// assertions want.
    fn read_all(
        bytes: &[u8],
        mode: ReadMode,
    ) -> Result<(Vec<BranchRecord>, TraceHealth), TraceError> {
        decode(bytes, mode).map(|d| (d.records, d.health))
    }

    fn sample(n: u64) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                let pc = Addr::new(0x0040_0000 + 4 * i);
                match i % 4 {
                    0 => BranchRecord::conditional(
                        pc,
                        Addr::new(0x0040_1000 + i),
                        i % 3 == 0,
                        (i % 19) as u32,
                    ),
                    1 => BranchRecord::unconditional(
                        pc,
                        BranchKind::Direct,
                        Addr::new(0x0042_0000),
                        2,
                    ),
                    2 => {
                        BranchRecord::unconditional(pc, BranchKind::Call, Addr::new(0x0050_0000), 5)
                    }
                    _ => BranchRecord::unconditional(
                        pc,
                        BranchKind::Return,
                        Addr::new(0x0040_0004),
                        0,
                    ),
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_both_modes() {
        let recs = sample(1000);
        for chunk in [1usize, 7, 64, 333, 1024, 4096] {
            let bytes = write_trace(&recs, chunk).unwrap();
            for mode in [ReadMode::Strict, ReadMode::Lenient] {
                let (back, health) = read_all(&bytes, mode).unwrap();
                assert_eq!(back, recs, "chunk size {chunk}, mode {}", mode.name());
                assert!(health.is_clean());
                assert_eq!(health.records_ok, 1000);
            }
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_trace(&[], 64).unwrap();
        let (recs, health) = read_all(&bytes, ReadMode::Strict).unwrap();
        assert!(recs.is_empty());
        assert!(health.is_clean());
        assert_eq!(health.chunks_ok, 0);
    }

    #[test]
    fn unknown_future_version_is_rejected_in_both_modes() {
        let mut bytes = write_trace(&sample(10), 4).unwrap();
        bytes[7] = crate::FORMAT_VERSION + 1;
        // Re-seal the header so the version (not the CRC) is what trips.
        let crc = crate::crc32::checksum(&bytes[..12]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        for mode in [ReadMode::Strict, ReadMode::Lenient] {
            assert_eq!(
                read_all(&bytes, mode).unwrap_err(),
                TraceError::UnsupportedVersion {
                    found: crate::FORMAT_VERSION + 1
                }
            );
        }
    }

    #[test]
    fn header_damage_is_fatal_in_both_modes() {
        let clean = write_trace(&sample(10), 4).unwrap();
        for mode in [ReadMode::Strict, ReadMode::Lenient] {
            let mut magic = clean.clone();
            magic[0] ^= 0xFF;
            assert_eq!(
                read_all(&magic, mode).unwrap_err(),
                TraceError::BadFileMagic
            );
            let mut flags = clean.clone();
            flags[9] ^= 0x01;
            assert!(matches!(
                read_all(&flags, mode).unwrap_err(),
                TraceError::HeaderCrc { .. }
            ));
            assert!(matches!(
                read_all(&clean[..10], mode).unwrap_err(),
                TraceError::Truncated {
                    what: "file header",
                    ..
                }
            ));
        }
    }

    #[test]
    fn strict_names_the_damaged_chunk_and_offset() {
        let recs = sample(300);
        let mut bytes = write_trace(&recs, 100).unwrap();
        // Flip a payload byte inside the second chunk. Chunk 0 starts at 16.
        let c0_payload = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        let c1_start = 16 + CHUNK_HEADER_LEN + c0_payload;
        bytes[c1_start + CHUNK_HEADER_LEN + 10] ^= 0x40;
        match read_all(&bytes, ReadMode::Strict).unwrap_err() {
            TraceError::ChunkCrc { chunk, offset, .. } => {
                assert_eq!(chunk, 1);
                assert_eq!(offset, c1_start as u64);
            }
            other => panic!("expected ChunkCrc, got {other:?}"),
        }
    }

    #[test]
    fn lenient_resyncs_past_a_flipped_bit() {
        let recs = sample(300);
        let mut bytes = write_trace(&recs, 100).unwrap();
        let c0_payload = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        let c1_start = 16 + CHUNK_HEADER_LEN + c0_payload;
        bytes[c1_start + CHUNK_HEADER_LEN + 10] ^= 0x40;
        let (back, health) = read_all(&bytes, ReadMode::Lenient).unwrap();
        // Chunks 0 and 2 survive; chunk 1's 100 records are lost.
        assert_eq!(back.len(), 200);
        assert_eq!(&back[..100], &recs[..100]);
        assert_eq!(&back[100..], &recs[200..]);
        assert_eq!(health.chunks_ok, 2);
        assert_eq!(health.chunks_skipped, 1);
        assert_eq!(health.records_lost, 100);
        assert!(!health.torn_tail);
    }

    #[test]
    fn truncation_is_typed_in_strict_and_torn_in_lenient() {
        let recs = sample(250);
        let bytes = write_trace(&recs, 100).unwrap();
        let cut = &bytes[..bytes.len() - 30];
        assert!(matches!(
            read_all(cut, ReadMode::Strict).unwrap_err(),
            TraceError::Truncated { .. }
        ));
        let (back, health) = read_all(cut, ReadMode::Lenient).unwrap();
        // The cut removes the trailer and bites into the last data chunk:
        // its 50 records are gone, and without the trailer the loss count
        // is unknowable — only `torn_tail` can report it.
        assert_eq!(back.len(), 200);
        assert_eq!(health.chunks_skipped, 1);
        assert!(health.torn_tail);
        assert_eq!(health.records_lost, 0);

        // A cut inside the trailer alone keeps every record but still
        // leaves the file unable to prove itself complete.
        let trailer_cut = &bytes[..bytes.len() - 10];
        let (back, health) = read_all(trailer_cut, ReadMode::Lenient).unwrap();
        assert_eq!(back.len(), 250);
        assert!(health.torn_tail);
        assert_eq!(health.records_lost, 0);
    }

    #[test]
    fn duplicate_chunk_is_dropped_by_sequence_accounting() {
        let recs = sample(200);
        let mut bytes = write_trace(&recs, 100).unwrap();
        // Duplicate chunk 0 right after itself.
        let c0_payload = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        let c0: Vec<u8> = bytes[16..16 + CHUNK_HEADER_LEN + c0_payload].to_vec();
        bytes.splice(16 + c0.len()..16 + c0.len(), c0);
        assert!(matches!(
            read_all(&bytes, ReadMode::Strict).unwrap_err(),
            TraceError::BadSequence { .. }
        ));
        let (back, health) = read_all(&bytes, ReadMode::Lenient).unwrap();
        assert_eq!(back, recs);
        assert_eq!(health.chunks_skipped, 1);
        assert_eq!(health.records_lost, 0);
        assert!(!health.torn_tail);
    }

    #[test]
    fn damaged_trailer_is_a_torn_tail_not_a_loss() {
        let recs = sample(150);
        let mut bytes = write_trace(&recs, 100).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01; // inside the trailer payload
        let (back, health) = read_all(&bytes, ReadMode::Lenient).unwrap();
        assert_eq!(back, recs);
        assert_eq!(health.chunks_skipped, 1);
        assert!(health.torn_tail);
        assert_eq!(health.records_lost, 0);
    }

    #[test]
    fn strict_reader_iterates_then_yields_the_error() {
        let recs = sample(200);
        let mut bytes = write_trace(&recs, 100).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        let mut reader = TraceReader::new(&bytes, ReadMode::Strict).unwrap();
        let mut ok = 0;
        let mut errs = 0;
        for item in &mut reader {
            match item {
                Ok(_) => ok += 1,
                Err(TraceError::ChunkCrc { chunk: 2, .. }) => errs += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        // Streaming strict: the intact prefix is delivered first (the
        // damage is in the trailer, so both data chunks arrive), then the
        // damage surfaces exactly once.
        assert_eq!((ok, errs), (200, 1));
        assert_eq!(reader.next(), None, "fused after the error");
    }

    #[test]
    fn strict_reader_stops_at_first_damaged_data_chunk() {
        let recs = sample(300);
        let mut bytes = write_trace(&recs, 100).unwrap();
        let c0_payload = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        let c1_start = 16 + CHUNK_HEADER_LEN + c0_payload;
        bytes[c1_start + CHUNK_HEADER_LEN + 10] ^= 0x40;
        let mut reader = TraceReader::new(&bytes, ReadMode::Strict).unwrap();
        let prefix: Vec<BranchRecord> = (&mut reader).map_while(|item| item.ok()).collect();
        assert_eq!(prefix, &recs[..100], "chunk 0 streams before the damage");
        assert_eq!(reader.next(), None, "fused after the deferred error");
    }

    #[test]
    fn lenient_reader_streams_with_health() {
        let recs = sample(200);
        let bytes = write_trace(&recs, 64).unwrap();
        let mut reader = TraceReader::new(&bytes, ReadMode::Lenient).unwrap();
        assert!(reader.health().is_clean());
        let back: Vec<BranchRecord> = (&mut reader).map(|r| r.unwrap()).collect();
        assert_eq!(back, recs);
        assert_eq!(reader.health().records_ok, 200, "ledger final at end");
    }

    #[test]
    fn streaming_reader_buffers_at_most_one_chunk() {
        // 10_000 records in 64-record chunks: an eager decode would hold
        // all 10_000 at once; the streaming reader must never hold more
        // than one chunk's worth.
        let recs = sample(10_000);
        let bytes = write_trace(&recs, 64).unwrap();
        for mode in [ReadMode::Strict, ReadMode::Lenient] {
            let mut reader = TraceReader::new(&bytes, mode).unwrap();
            let mut count = 0u64;
            for item in &mut reader {
                assert!(item.is_ok());
                count += 1;
            }
            assert_eq!(count, 10_000);
            assert!(
                reader.peak_buffered() <= 64,
                "decoded-record residency must be O(chunk), saw {}",
                reader.peak_buffered()
            );
        }
    }

    #[test]
    fn garbage_between_chunks_is_one_skipped_region() {
        let recs = sample(200);
        let mut bytes = write_trace(&recs, 100).unwrap();
        let c0_payload = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        let c1_start = 16 + CHUNK_HEADER_LEN + c0_payload;
        // Splice garbage that even contains a false chunk magic.
        let mut garbage = b"xxxxCHNKyyyy".to_vec();
        garbage.extend_from_slice(&[0xEE; 40]);
        bytes.splice(c1_start..c1_start, garbage);
        let (back, health) = read_all(&bytes, ReadMode::Lenient).unwrap();
        assert_eq!(back, recs);
        assert_eq!(
            health.chunks_skipped, 1,
            "false anchors must not double-count"
        );
        assert_eq!(health.records_lost, 0);
    }
}
