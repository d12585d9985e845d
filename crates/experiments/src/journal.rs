//! Crash-safe journal primitives of the campaign orchestrator
//! ([`crate::orchestrate`]).
//!
//! Two complementary durability idioms live here:
//!
//! * **Atomic snapshot writes** ([`write_atomic`]): the whole file is
//!   written to a temporary sibling and renamed into place, so a reader
//!   (or a crash mid-write) sees either the old snapshot or the new one,
//!   never a torn mixture. The campaign journal's header and repairs use
//!   this.
//! * **Checksummed append-only records** ([`seal_line`] /
//!   [`read_sealed`]): each record carries an FNV-1a digest of its
//!   payload, appended with [`append_line`]. On recovery a torn or
//!   half-written *final* record is detected and dropped — the crash-only
//!   recovery path of the campaign journal — while corruption anywhere
//!   else is reported as an error rather than silently skipped.

use std::io::Write;
use std::path::Path;

/// FNV-1a 64-bit hash — the content digest used for journal record seals
/// and the campaign config fingerprint. Deterministic across hosts and
/// runs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Extend an FNV-1a digest with more bytes (for chained hashing of
/// multi-part keys without concatenating them first).
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write `contents` to `path` atomically: write a temporary sibling, sync
/// it, and rename it into place. A crash at any point leaves either the
/// previous file or the complete new one. The temporary name carries the
/// writer's pid so concurrent processes targeting the same path never
/// rename each other's half-written file into place — last rename wins,
/// both succeed.
///
/// # Errors
/// The underlying I/O error (create, write, sync or rename).
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Strip a torn final line: if `text` does not end in a newline the last
/// (partial) line is dropped. Returns the clean prefix and whether
/// anything was dropped: the first step of [`parse_sealed`]'s recovery
/// from a writer that died mid-line.
fn drop_torn_tail(text: &str) -> (&str, bool) {
    if text.is_empty() || text.ends_with('\n') {
        (text, false)
    } else {
        match text.rfind('\n') {
            Some(i) => (&text[..=i], true),
            None => ("", true),
        }
    }
}

/// Marker separating a sealed record's payload from its digest.
const SEAL: &str = " #fnv=";

/// Seal a single-line record: append ` #fnv=<16-hex digest of payload>`.
///
/// # Panics
/// If `payload` contains a newline (records are one line each).
pub fn seal_line(payload: &str) -> String {
    assert!(!payload.contains('\n'), "journal records are single lines");
    format!("{payload}{SEAL}{:016x}", fnv64(payload.as_bytes()))
}

/// Verify a sealed record and return its payload, or `None` when the seal
/// is missing, malformed, or does not match the payload. The digest must be
/// spelled exactly as [`seal_line`] writes it: 16 lowercase hex digits, no
/// sign.
pub fn unseal_line(line: &str) -> Option<&str> {
    let at = line.rfind(SEAL)?;
    let (payload, rest) = line.split_at(at);
    (rest[SEAL.len()..] == format!("{:016x}", fnv64(payload.as_bytes()))).then_some(payload)
}

/// The verified contents of an append-only sealed journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SealedLog {
    /// Verified record payloads, in file order.
    pub records: Vec<String>,
    /// Whether a torn or corrupt final record was dropped during recovery.
    pub truncated: bool,
}

/// Parse an append-only sealed journal, tolerating a torn tail: a final
/// record that is incomplete (no trailing newline) or fails its seal is
/// dropped and reported via [`SealedLog::truncated`]. A bad seal anywhere
/// *before* the final record is corruption, not a crash artifact.
///
/// # Errors
/// A description of the first non-final record that fails verification.
pub fn parse_sealed(text: &str) -> Result<SealedLog, String> {
    let (clean, torn) = drop_torn_tail(text);
    let lines: Vec<&str> = clean.lines().collect();
    let mut log = SealedLog {
        records: Vec::with_capacity(lines.len()),
        truncated: torn,
    };
    for (n, line) in lines.iter().enumerate() {
        match unseal_line(line) {
            Some(payload) => log.records.push(payload.to_string()),
            // A bad final line is the torn tail of a crashed append; a bad
            // interior line means the file was corrupted after the fact.
            None if n + 1 == lines.len() => log.truncated = true,
            None => {
                return Err(format!(
                    "journal record {} fails its checksum: `{line}`",
                    n + 1
                ));
            }
        }
    }
    Ok(log)
}

/// Read and verify a sealed journal file (see [`parse_sealed`]).
///
/// # Errors
/// The read error, or the first non-final corrupt record.
pub fn read_sealed(path: &Path) -> Result<SealedLog, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse_sealed(&text)
}

/// Append one sealed record to `path` (followed by a newline) and sync it
/// to disk, creating the file if needed. The sync makes the record part of
/// the crash-recovery contract: once this returns, a kill -9 cannot lose
/// the record.
///
/// # Errors
/// The underlying I/O error.
pub fn append_line(path: &Path, sealed: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(sealed.as_bytes())?;
    f.write_all(b"\n")?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv64_extend(fnv64(b"foo"), b"bar"), fnv64(b"foobar"));
    }

    #[test]
    fn seal_round_trips_and_rejects_tampering() {
        let sealed = seal_line("done shard=3 seeds=8");
        assert_eq!(unseal_line(&sealed), Some("done shard=3 seeds=8"));
        let tampered = sealed.replace("shard=3", "shard=4");
        assert_eq!(unseal_line(&tampered), None);
        assert_eq!(unseal_line("no seal here"), None);
    }

    #[test]
    fn seals_the_writer_cannot_produce_are_refused() {
        // A payload whose digest starts with a zero digit, so the unpadded
        // spelling differs from the written one, and holds a letter, so the
        // upper-case one does too.
        let payload = (0..)
            .map(|i| format!("done shard={i}"))
            .find(|p| {
                let d = format!("{:016x}", fnv64(p.as_bytes()));
                d.starts_with('0') && d.bytes().any(|b| b.is_ascii_lowercase())
            })
            .expect("some shard number qualifies");
        let d = fnv64(payload.as_bytes());
        for digits in [
            format!("+{d:016x}"),
            format!("{d:016X}"),
            format!("{d:032x}"),
            format!("{d:x}"),
        ] {
            // Each spells the right digest to `u64::from_str_radix`.
            assert_eq!(u64::from_str_radix(&digits, 16), Ok(d), "{digits}");
            let line = format!("{payload}{SEAL}{digits}");
            assert_eq!(unseal_line(&line), None, "{line}");
            let interior = format!(
                "{}\n{line}\n{}\n",
                seal_line("header v=1"),
                seal_line("end")
            );
            assert!(parse_sealed(&interior).is_err(), "{line}");
        }
        assert_eq!(unseal_line(&seal_line(&payload)), Some(payload.as_str()));
    }

    #[test]
    fn torn_tail_is_dropped() {
        assert_eq!(drop_torn_tail("a\nb\n"), ("a\nb\n", false));
        assert_eq!(drop_torn_tail("a\nb=partial"), ("a\n", true));
        assert_eq!(drop_torn_tail("partial"), ("", true));
        assert_eq!(drop_torn_tail(""), ("", false));
    }

    #[test]
    fn sealed_log_recovers_from_a_torn_final_record() {
        let good = format!(
            "{}\n{}\n",
            seal_line("header v=1"),
            seal_line("done shard=0")
        );
        let log = parse_sealed(&good).expect("clean log parses");
        assert_eq!(log.records, vec!["header v=1", "done shard=0"]);
        assert!(!log.truncated);

        // Torn mid-record: the partial tail is dropped, the prefix kept.
        let torn = format!("{good}{}", &seal_line("done shard=1")[..10]);
        let log = parse_sealed(&torn).expect("torn log recovers");
        assert_eq!(log.records.len(), 2);
        assert!(log.truncated);

        // A complete final line with a bad seal is also a crash artifact
        // (the record and its newline raced the kill).
        let bad_tail = format!("{good}done shard=1 #fnv=0000000000000000\n");
        let log = parse_sealed(&bad_tail).expect("bad tail recovers");
        assert_eq!(log.records.len(), 2);
        assert!(log.truncated);

        // Corruption *before* the end is an error, not a silent skip.
        let corrupt = format!(
            "{}\nnot sealed at all\n{}\n",
            seal_line("header v=1"),
            seal_line("done shard=0")
        );
        assert!(parse_sealed(&corrupt).is_err());
    }

    #[test]
    fn atomic_write_and_append_round_trip() {
        let dir = std::env::temp_dir().join(format!("tls_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("log.txt");
        write_atomic(&path, &format!("{}\n", seal_line("header"))).expect("atomic write");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(entries, ["log.txt"], "the temp file is renamed into place");
        append_line(&path, &seal_line("rec 1")).expect("append");
        append_line(&path, &seal_line("rec 2")).expect("append");
        let log = read_sealed(&path).expect("parses");
        assert_eq!(log.records, vec!["header", "rec 1", "rec 2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
