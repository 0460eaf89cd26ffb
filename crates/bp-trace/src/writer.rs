//! Streaming `.bpt` writer.
//!
//! Records are buffered per chunk and flushed with a CRC32-sealed header;
//! [`TraceWriter::finish`] closes the file with a trailer chunk carrying
//! whole-file totals, which is what lets a reader distinguish "short trace"
//! from "truncated trace". Delta state resets at every chunk boundary so
//! chunks decode independently (the lenient reader's resync depends on it).

use std::io::{self, Write};

use bp_common::{BranchKind, BranchRecord};

use crate::crc32::Hasher;
use crate::varint;
use crate::{CHUNK_MAGIC, FILE_MAGIC, FORMAT_VERSION};

/// Encodes a branch kind into the tag byte's low three bits.
pub(crate) fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::Return => 4,
    }
}

/// Decodes the tag byte's low three bits back into a kind.
pub(crate) fn kind_from_code(c: u8) -> Option<BranchKind> {
    match c {
        0 => Some(BranchKind::Conditional),
        1 => Some(BranchKind::Direct),
        2 => Some(BranchKind::Indirect),
        3 => Some(BranchKind::Call),
        4 => Some(BranchKind::Return),
        _ => None,
    }
}

/// Appends one record to a chunk payload, delta-encoded against `prev_pc`.
pub(crate) fn encode_record(payload: &mut Vec<u8>, prev_pc: &mut u64, r: &BranchRecord) {
    let tag = kind_code(r.kind) | (u8::from(r.taken) << 3);
    payload.push(tag);
    let pc = r.pc.raw();
    varint::write_u64(payload, varint::zigzag(pc.wrapping_sub(*prev_pc) as i64));
    varint::write_u64(
        payload,
        varint::zigzag(r.target.raw().wrapping_sub(pc) as i64),
    );
    varint::write_u64(payload, u64::from(r.gap));
    *prev_pc = pc;
}

/// What [`TraceWriter::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Records written.
    pub records: u64,
    /// Data chunks written (the trailer is not counted).
    pub chunks: u64,
    /// Total bytes written, header and trailer included.
    pub bytes: u64,
}

/// Streaming writer of the `.bpt` format.
///
/// Dropping a writer without calling [`finish`](TraceWriter::finish)
/// leaves a trailer-less file — exactly the torn tail the reader's
/// `torn_tail` flag reports.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    records_per_chunk: usize,
    payload: Vec<u8>,
    prev_pc: u64,
    count_in_chunk: u32,
    seq: u32,
    total_records: u64,
    bytes_written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the file header immediately.
    /// `records_per_chunk` is clamped to at least 1
    /// ([`crate::DEFAULT_CHUNK_RECORDS`] is the conventional value).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the header write.
    pub fn new(mut out: W, records_per_chunk: usize) -> io::Result<TraceWriter<W>> {
        let mut header = Vec::with_capacity(crate::FILE_HEADER_LEN);
        header.extend_from_slice(&FILE_MAGIC);
        header.push(FORMAT_VERSION);
        header.extend_from_slice(&0u32.to_le_bytes()); // flags (reserved)
        header.extend_from_slice(&crate::crc32::checksum(&header).to_le_bytes());
        out.write_all(&header)?;
        Ok(TraceWriter {
            out,
            records_per_chunk: records_per_chunk.max(1),
            payload: Vec::new(),
            prev_pc: 0,
            count_in_chunk: 0,
            seq: 0,
            total_records: 0,
            bytes_written: header.len() as u64,
        })
    }

    /// Appends one record, flushing a chunk when full.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a record no reader would accept (a not-taken
    /// unconditional branch — the writer refuses to produce a file that
    /// cannot round-trip); otherwise propagates I/O errors.
    pub fn push(&mut self, r: &BranchRecord) -> io::Result<()> {
        if !r.taken && r.kind != BranchKind::Conditional {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "unconditional branches must be taken",
            ));
        }
        encode_record(&mut self.payload, &mut self.prev_pc, r);
        self.count_in_chunk += 1;
        self.total_records += 1;
        if self.count_in_chunk as usize >= self.records_per_chunk {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Writes the buffered records as one chunk (no-op when empty).
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.count_in_chunk == 0 {
            return Ok(());
        }
        let count = self.count_in_chunk;
        let seq = self.seq;
        let payload = std::mem::take(&mut self.payload);
        self.write_chunk(seq, count, &payload)?;
        self.seq += 1;
        self.count_in_chunk = 0;
        self.prev_pc = 0;
        Ok(())
    }

    /// Emits one raw chunk: header fields, CRC over fields + payload,
    /// payload.
    fn write_chunk(&mut self, seq: u32, count: u32, payload: &[u8]) -> io::Result<()> {
        let mut fields = [0u8; 12];
        fields[0..4].copy_from_slice(&seq.to_le_bytes());
        fields[4..8].copy_from_slice(&count.to_le_bytes());
        fields[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut h = Hasher::new();
        h.update(&fields);
        h.update(payload);
        self.out.write_all(&CHUNK_MAGIC)?;
        self.out.write_all(&fields)?;
        self.out.write_all(&h.finish().to_le_bytes())?;
        self.out.write_all(payload)?;
        self.bytes_written += (crate::CHUNK_HEADER_LEN + payload.len()) as u64;
        Ok(())
    }

    /// Flushes the last partial chunk, writes the trailer (a chunk with
    /// record count 0 whose payload is the varint-encoded whole-file
    /// totals), and flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the file must be considered torn if this
    /// fails.
    pub fn finish(mut self) -> io::Result<WriteSummary> {
        self.flush_chunk()?;
        let mut totals = Vec::new();
        varint::write_u64(&mut totals, self.total_records);
        varint::write_u64(&mut totals, u64::from(self.seq));
        let seq = self.seq;
        let payload = std::mem::take(&mut totals);
        self.write_chunk(seq, 0, &payload)?;
        self.out.flush()?;
        Ok(WriteSummary {
            records: self.total_records,
            chunks: u64::from(self.seq),
            bytes: self.bytes_written,
        })
    }
}

/// Writes a whole record slice to an in-memory trace (tests and tools).
///
/// # Errors
///
/// Propagates [`TraceWriter::push`]'s record validation; plain I/O cannot
/// fail on a `Vec`.
pub fn write_trace(records: &[BranchRecord], records_per_chunk: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut w = TraceWriter::new(&mut out, records_per_chunk)?;
    for r in records {
        w.push(r)?;
    }
    w.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_common::Addr;

    #[test]
    fn header_and_trailer_frame_every_file() {
        let bytes = write_trace(&[], 16).unwrap();
        assert_eq!(&bytes[..7], &FILE_MAGIC);
        assert_eq!(bytes[7], FORMAT_VERSION);
        // Header + one trailer chunk with a 2-byte totals payload.
        assert_eq!(
            bytes.len(),
            crate::FILE_HEADER_LEN + crate::CHUNK_HEADER_LEN + 2
        );
        assert_eq!(&bytes[16..20], &CHUNK_MAGIC);
    }

    #[test]
    fn refuses_unroundtrippable_records() {
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out, 4).unwrap();
        let bad = BranchRecord {
            pc: Addr::new(0x10),
            kind: BranchKind::Direct,
            target: Addr::new(0x20),
            taken: false,
            gap: 0,
        };
        assert_eq!(
            w.push(&bad).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn summary_counts_match_the_layout() {
        let r = BranchRecord::conditional(Addr::new(0x4000), Addr::new(0x4010), true, 3);
        let records = vec![r; 10];
        let mut out = Vec::new();
        let mut w = TraceWriter::new(&mut out, 4).unwrap();
        for rec in &records {
            w.push(rec).unwrap();
        }
        let s = w.finish().unwrap();
        assert_eq!(s.records, 10);
        assert_eq!(s.chunks, 3); // 4 + 4 + 2
        assert_eq!(s.bytes, out.len() as u64);
    }
}
