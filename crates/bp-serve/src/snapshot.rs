//! Shard snapshot persistence: a versioned magic line, a key line naming
//! what the payload belongs to, hex-encoded content lines, an FNV-1a seal,
//! and an `end` terminator whose absence marks a truncated write. Files
//! are written to a temporary name and renamed into place so a crash
//! mid-write can never leave a plausible-looking partial snapshot.
//!
//! The payload is the shard's replay journal prefix (not raw table bits):
//! replaying it through the exact live-serving path reconstructs the
//! predictor state bit-for-bit, and validation stays cheap and total.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fnv1a;
use crate::shard::{decode_kind, JournalEntry};

const MAGIC: &str = "hybp-serve-snapshot v1";
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Process-wide tmp-name uniquifier (pid alone is not enough: several
/// shards of one process may snapshot into the same directory).
static NAME_SEQ: AtomicU64 = AtomicU64::new(0);

fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard{shard}.snap"))
}

fn key_line(shard: usize, seed: u64, entries: usize) -> String {
    format!("key shard={shard} seed={seed:016x} entries={entries}")
}

fn entry_line(e: &JournalEntry) -> String {
    format!(
        "e {:x} {:x} {:x} {:x} {:x} {} {:x} {:x} {}",
        e.hw,
        e.asid,
        e.pc,
        e.kind,
        e.target,
        u8::from(e.taken),
        e.gap,
        e.now,
        u8::from(e.arm_stall),
    )
}

/// Serializes and atomically installs the journal prefix for `shard`.
pub(crate) fn write(
    dir: &Path,
    shard: usize,
    seed: u64,
    journal: &[JournalEntry],
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let key = key_line(shard, seed, journal.len());
    let mut body = String::with_capacity(64 + journal.len() * 64);
    let _ = writeln!(body, "{MAGIC}");
    let _ = writeln!(body, "{key}");
    let mut seal = fnv1a(key.as_bytes(), FNV_OFFSET);
    for e in journal {
        let line = entry_line(e);
        seal = fnv1a(line.as_bytes(), seal);
        let _ = writeln!(body, "{line}");
    }
    let _ = writeln!(body, "sum {seal:016x}");
    let _ = writeln!(body, "end");

    let seq = NAME_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".shard{shard}.{}.{seq}.tmp", std::process::id()));
    fs::write(&tmp, body.as_bytes())?;
    match fs::rename(&tmp, snapshot_path(dir, shard)) {
        Ok(()) => Ok(()),
        Err(err) => {
            let _ = fs::remove_file(&tmp);
            Err(err)
        }
    }
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn parse_flag(s: &str) -> Option<bool> {
    match s {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_entry(line: &str) -> Option<JournalEntry> {
    let mut it = line.split(' ');
    if it.next()? != "e" {
        return None;
    }
    let hw = parse_hex_u64(it.next()?)?;
    let asid = parse_hex_u64(it.next()?)?;
    let pc = parse_hex_u64(it.next()?)?;
    let kind = parse_hex_u64(it.next()?)?;
    let target = parse_hex_u64(it.next()?)?;
    let taken = parse_flag(it.next()?)?;
    let gap = parse_hex_u64(it.next()?)?;
    let now = parse_hex_u64(it.next()?)?;
    let arm_stall = parse_flag(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    if hw > u64::from(u8::MAX) || asid > u64::from(u16::MAX) || gap > u64::from(u32::MAX) {
        return None;
    }
    let kind = u8::try_from(kind).ok()?;
    decode_kind(kind)?;
    Some(JournalEntry {
        hw: hw as u8,
        asid: asid as u16,
        pc,
        kind,
        target,
        taken,
        gap: gap as u32,
        now,
        arm_stall,
    })
}

/// Loads and fully validates the snapshot for `shard`, or `None` when the
/// file is missing, foreign (wrong shard/seed), truncated, or corrupt.
/// Callers additionally compare the result against their in-memory journal
/// prefix before trusting it.
pub(crate) fn load(dir: &Path, shard: usize, seed: u64) -> Option<Vec<JournalEntry>> {
    let text = fs::read_to_string(snapshot_path(dir, shard)).ok()?;
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let key = lines.next()?;
    let rest = key.strip_prefix(&format!("key shard={shard} seed={seed:016x} entries="))?;
    let expected: usize = rest.parse().ok()?;
    let mut seal = fnv1a(key.as_bytes(), FNV_OFFSET);
    let mut entries = Vec::with_capacity(expected);
    loop {
        let line = lines.next()?;
        if let Some(sum) = line.strip_prefix("sum ") {
            if parse_hex_u64(sum)? != seal {
                return None;
            }
            break;
        }
        seal = fnv1a(line.as_bytes(), seal);
        entries.push(parse_entry(line)?);
        if entries.len() > expected {
            return None;
        }
    }
    if entries.len() != expected || lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bp-serve-snap-{tag}-{}-{}",
            std::process::id(),
            NAME_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample_journal() -> Vec<JournalEntry> {
        (0..5)
            .map(|i| JournalEntry {
                hw: (i % 2) as u8,
                asid: 100 + i as u16,
                pc: 0x40_0000 + i * 16,
                kind: (i % 5) as u8,
                target: 0x40_0400 + i * 4,
                taken: i % 2 == 0,
                gap: 7 + i as u32,
                now: 1_000 * (i + 1),
                arm_stall: i == 3,
            })
            .collect()
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let dir = tmpdir("roundtrip");
        let journal = sample_journal();
        write(&dir, 2, 0xfeed, &journal).expect("write snapshot");
        assert_eq!(load(&dir, 2, 0xfeed), Some(journal));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rejects_foreign_shard_or_seed() {
        let dir = tmpdir("foreign");
        write(&dir, 1, 0xfeed, &sample_journal()).expect("write snapshot");
        assert_eq!(load(&dir, 3, 0xfeed), None, "wrong shard has no file");
        // Same path, wrong seed: the key line refuses it.
        fs::rename(dir.join("shard1.snap"), dir.join("shard3.snap")).expect("rename");
        assert_eq!(load(&dir, 3, 0xfeed), None);
        fs::rename(dir.join("shard3.snap"), dir.join("shard1.snap")).expect("rename back");
        assert_eq!(load(&dir, 1, 0xbad), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rejects_corruption_and_truncation() {
        let dir = tmpdir("corrupt");
        let journal = sample_journal();
        write(&dir, 0, 0xfeed, &journal).expect("write snapshot");
        let path = snapshot_path(&dir, 0);
        let good = fs::read_to_string(&path).expect("read back");

        // Flip one hex digit inside an entry line: seal mismatch.
        let tampered = good.replacen("e 0 64", "e 1 64", 1);
        assert_ne!(tampered, good);
        fs::write(&path, tampered).expect("tamper");
        assert_eq!(load(&dir, 0, 0xfeed), None);

        // Drop the trailing `end`: torn write.
        let torn = good.trim_end().strip_suffix("end").unwrap().to_string();
        fs::write(&path, torn).expect("truncate");
        assert_eq!(load(&dir, 0, 0xfeed), None);

        // Restore intact bytes: loads again.
        fs::write(&path, good).expect("restore");
        assert_eq!(load(&dir, 0, 0xfeed), Some(journal));
        let _ = fs::remove_dir_all(&dir);
    }
}
