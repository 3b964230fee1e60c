//! The store's append-only mutation journal (`journal.bin`, magic
//! `CWJL`) — the crash-safe delta log that lets a frozen sharded store
//! **grow** without a rebuild.
//!
//! A journal is a concatenation of independently framed records, each
//! one θ top-up's worth of incremental RR sets:
//!
//! ```text
//! record := CWJL u32le ‖ version u32le ‖ length u64le ‖ payload ‖ crc32(payload) u32le
//! payload:
//!   identity: graph_fingerprint u64, seed u64
//!   cursor:   theta_before u64, theta_after u64
//!   sets:     set_offsets (u64 count, then count × u64, record-local)
//!             members     (u64 count, then count × u32)
//!             weights     (u64 count, then count × f64)
//! ```
//!
//! Each record is one engine-codec frame, written in one pass by a
//! framed `SectionWriter` — the same 20-byte header/CRC envelope the
//! manifest and shards carry — so a journal record can never be parsed
//! as a manifest or a shard, and gets the same per-record bit-flip
//! detection.
//!
//! ## Commit and recovery discipline
//!
//! [`append`] writes one whole frame and `fsync`s before returning: a
//! record is **committed** iff its full frame (CRC included) is on disk.
//! [`replay`] walks the frames front to back and applies the standard
//! write-ahead-log recovery rule:
//!
//! * a **torn tail** — fewer than a header's worth of trailing bytes, a
//!   frame whose declared length runs past EOF, or a CRC failure on the
//!   *final* frame — is the signature of a crash mid-append: the tail is
//!   dropped and every earlier record replays ([`Replay::torn_bytes`]
//!   reports how much was discarded);
//! * corruption **before** the tail — a bad magic/version mid-file, a
//!   CRC failure with committed bytes after it, or a payload that passes
//!   its CRC but decodes inconsistently — can never be produced by a
//!   torn append and fails loudly with [`EngineError::Corrupt`]: silent
//!   record loss in the middle of the log would desync the θ cursor and
//!   poison every later record's chain.
//!
//! Identity and chain validation (fingerprint/seed against the
//! manifest, `theta_before` linking to the previous record's
//! `theta_after`) is the caller's job — the journal layer is generic
//! over what the records attach to.

use bytes::Buf;
use cwelmax_engine::codec::{unframe_tagged, SectionReader, SectionWriter};
use cwelmax_engine::EngineError;
use cwelmax_graph::NodeId;
use std::io::Write;
use std::path::Path;

/// Journal record magic: `CWJL` ("CWelmax JournaL").
pub const JOURNAL_MAGIC: u32 = 0x4357_4A4C;

/// Journal record format version.
pub const JOURNAL_VERSION: u32 = 1;

/// The journal's file name inside a store directory, beside
/// `manifest.bin`. Deliberately outside the `shard-*` namespace so
/// `write_store`'s stale-shard sweep never touches it.
pub const JOURNAL_FILE: &str = "journal.bin";

/// One committed θ top-up: the retained RR sets sampled at stream
/// indices `theta_before..theta_after` (empty/zero-weight samples in
/// that range bump the cursor but retain nothing, exactly like the
/// in-memory collection).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The store's graph fingerprint (identity check on replay).
    pub graph_fingerprint: u64,
    /// The store's build seed (the top-up continued this seed stream).
    pub seed: u64,
    /// θ before this top-up — must chain to the previous record (or the
    /// manifest, for the first record).
    pub theta_before: usize,
    /// θ after this top-up.
    pub theta_after: usize,
    /// Record-local offsets over `members` (starts at 0).
    pub set_offsets: Vec<usize>,
    /// Flattened members of the retained new sets.
    pub members: Vec<NodeId>,
    /// Weights of the retained new sets.
    pub weights: Vec<f64>,
}

impl JournalRecord {
    /// Number of retained sets this record carries.
    pub fn num_sets(&self) -> usize {
        self.weights.len()
    }

    /// Serialize to one framed journal record.
    pub fn to_bytes(&self) -> Vec<u8> {
        // four scalars, then three counted vectors
        let payload = 4 * 8
            + (8 + 8 * self.set_offsets.len())
            + (8 + 4 * self.members.len())
            + (8 + 8 * self.weights.len());
        let mut w = SectionWriter::framed(JOURNAL_MAGIC, JOURNAL_VERSION, payload);
        w.put_u64(self.graph_fingerprint);
        w.put_u64(self.seed);
        w.put_u64(self.theta_before as u64);
        w.put_u64(self.theta_after as u64);
        w.put_u64_iter(self.set_offsets.iter().map(|&x| x as u64));
        w.put_u32_slice(&self.members);
        w.put_f64_slice(&self.weights);
        w.finish()
    }

    /// Decode one record payload (the bytes inside a verified frame) and
    /// check its internal structure. Anything inconsistent here survived
    /// the CRC, so it is [`EngineError::Corrupt`] — never a torn write.
    fn from_payload(payload: &[u8]) -> Result<JournalRecord, EngineError> {
        let mut r = SectionReader::new(payload);
        let graph_fingerprint = r.get_u64("graph_fingerprint")?;
        let seed = r.get_u64("seed")?;
        let theta_before = r.get_u64("theta_before")? as usize;
        let theta_after = r.get_u64("theta_after")? as usize;
        let set_offsets: Vec<usize> = r
            .get_u64_vec("set_offsets")?
            .into_iter()
            .map(|x| x as usize)
            .collect();
        let members = r.get_u32_vec("members")?;
        let weights = r.get_f64_vec("weights")?;
        r.expect_end()?;
        if theta_after <= theta_before {
            return Err(EngineError::Corrupt(format!(
                "journal record does not advance θ: {theta_before} → {theta_after}"
            )));
        }
        if set_offsets.first() != Some(&0) {
            return Err(EngineError::Corrupt(
                "journal record offsets must start at 0".into(),
            ));
        }
        if set_offsets.len() != weights.len() + 1 {
            return Err(EngineError::Corrupt(format!(
                "journal record offset/weight mismatch: {} offsets for {} weights",
                set_offsets.len(),
                weights.len()
            )));
        }
        if set_offsets.last() != Some(&members.len()) {
            return Err(EngineError::Corrupt(format!(
                "journal record last offset {:?} does not match member count {}",
                set_offsets.last(),
                members.len()
            )));
        }
        if set_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(EngineError::Corrupt(
                "journal record offsets must be non-decreasing".into(),
            ));
        }
        if weights.len() > theta_after - theta_before {
            return Err(EngineError::Corrupt(format!(
                "journal record retains {} sets over a θ delta of {}",
                weights.len(),
                theta_after - theta_before
            )));
        }
        if let Some(&w) = weights.iter().find(|&&w| !w.is_finite() || w <= 0.0) {
            return Err(EngineError::Corrupt(format!(
                "journal record weight {w} is not positive/finite"
            )));
        }
        Ok(JournalRecord {
            graph_fingerprint,
            seed,
            theta_before,
            theta_after,
            set_offsets,
            members,
            weights,
        })
    }
}

/// What [`replay`] recovered from a journal's bytes.
#[derive(Debug, Default)]
pub struct Replay {
    /// Committed records, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of the committed prefix (the journal's valid length — a
    /// recovering store truncates the file here before appending again).
    pub committed_bytes: u64,
    /// Bytes dropped from a torn tail (0 on a clean journal).
    pub torn_bytes: u64,
}

/// Replay a journal's bytes under the WAL recovery rule documented in
/// the module docs: torn tail dropped, interior corruption loud.
pub fn replay(bytes: &[u8]) -> Result<Replay, EngineError> {
    let mut out = Replay::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rem = &bytes[pos..];
        if rem.len() < 16 {
            // not even a header survived: torn tail
            out.torn_bytes = rem.len() as u64;
            break;
        }
        let mut hdr = &rem[..16];
        let magic = hdr.get_u32_le();
        let version = hdr.get_u32_le();
        let len = hdr.get_u64_le();
        if magic != JOURNAL_MAGIC {
            return Err(EngineError::Corrupt(format!(
                "journal record at byte {pos}: bad magic {magic:#010x} \
                 (expected {JOURNAL_MAGIC:#010x})"
            )));
        }
        if version != JOURNAL_VERSION {
            return Err(EngineError::UnsupportedVersion(version));
        }
        // 20-byte envelope + payload; an overflowing or past-EOF length
        // is what a crash mid-append leaves behind — torn tail
        let total = match usize::try_from(len).ok().and_then(|l| l.checked_add(20)) {
            Some(t) if t <= rem.len() => t,
            _ => {
                out.torn_bytes = rem.len() as u64;
                break;
            }
        };
        let frame = &rem[..total];
        match unframe_tagged(JOURNAL_MAGIC, JOURNAL_VERSION..=JOURNAL_VERSION, frame) {
            Ok((_, payload)) => {
                // payload corruption that *passes* the CRC decodes here;
                // it is structural corruption wherever it sits, not a
                // torn write — from_payload fails loudly
                out.records.push(JournalRecord::from_payload(payload)?);
                pos += total;
                out.committed_bytes = pos as u64;
            }
            Err(e) => {
                if total == rem.len() {
                    // CRC failure on the final frame: torn append
                    out.torn_bytes = rem.len() as u64;
                    break;
                }
                // a failing frame with committed bytes after it cannot
                // be a torn tail — the next append would have landed
                // after a good frame
                return Err(match e {
                    EngineError::UnsupportedVersion(v) => EngineError::UnsupportedVersion(v),
                    other => EngineError::Corrupt(format!(
                        "journal record at byte {pos} is corrupt mid-file: {other}"
                    )),
                });
            }
        }
    }
    Ok(out)
}

/// Read and replay a store directory's journal. A missing file is an
/// empty journal, not an error — every store starts without one.
pub fn replay_file(dir: &Path) -> Result<Replay, EngineError> {
    match std::fs::read(dir.join(JOURNAL_FILE)) {
        Ok(bytes) => replay(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Replay::default()),
        Err(e) => Err(e.into()),
    }
}

/// Append one record to the directory's journal, fsync, and return the
/// framed record's byte length. The record is committed exactly when
/// this returns `Ok`: a crash before the `sync_all` leaves (at worst) a
/// torn tail that [`replay`] drops.
pub fn append(dir: &Path, record: &JournalRecord) -> Result<u64, EngineError> {
    let bytes = record.to_bytes();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(JOURNAL_FILE))?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    Ok(bytes.len() as u64)
}

/// Truncate the journal to `committed_bytes` (crash hygiene after a torn
/// replay: the next append must land on the committed prefix, not on
/// top of torn garbage). A missing file is fine.
pub fn truncate_to(dir: &Path, committed_bytes: u64) -> Result<(), EngineError> {
    match std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(JOURNAL_FILE))
    {
        Ok(f) => {
            f.set_len(committed_bytes)?;
            f.sync_all()?;
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Remove the journal entirely: after compaction has renamed in a
/// manifest that folds its records in, or on open when every record is
/// already folded in. A missing file is fine. Neither that manifest nor
/// this removal is fsynced, so a power loss right after compaction can
/// lose the folded sets; a killed process cannot.
pub fn remove(dir: &Path) -> Result<(), EngineError> {
    match std::fs::remove_file(dir.join(JOURNAL_FILE)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(theta_before: usize, sets: &[(&[NodeId], f64)]) -> JournalRecord {
        let mut offsets = vec![0usize];
        let mut members = Vec::new();
        let mut weights = Vec::new();
        for (s, w) in sets {
            members.extend_from_slice(s);
            offsets.push(members.len());
            weights.push(*w);
        }
        JournalRecord {
            graph_fingerprint: 0xFEED,
            seed: 7,
            theta_before,
            theta_after: theta_before + sets.len() + 1, // one discarded sample
            set_offsets: offsets,
            members,
            weights,
        }
    }

    #[test]
    fn records_roundtrip_and_concatenate() {
        let a = record(100, &[(&[1, 2], 1.0), (&[3], 0.5)]);
        let b = record(a.theta_after, &[(&[4], 2.0)]);
        let mut bytes = a.to_bytes();
        bytes.extend_from_slice(&b.to_bytes());
        let r = replay(&bytes).unwrap();
        assert_eq!(r.records, vec![a, b]);
        assert_eq!(r.committed_bytes, bytes.len() as u64);
        assert_eq!(r.torn_bytes, 0);
    }

    #[test]
    fn empty_journal_replays_empty() {
        let r = replay(&[]).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.committed_bytes, 0);
        assert_eq!(r.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_dropped_committed_prefix_survives() {
        let a = record(0, &[(&[1], 1.0)]);
        let b = record(a.theta_after, &[(&[2, 3], 1.5)]);
        let mut bytes = a.to_bytes();
        let committed = bytes.len();
        bytes.extend_from_slice(&b.to_bytes());
        // every truncation strictly inside record b must recover exactly a
        for cut in committed..bytes.len() - 1 {
            let r = replay(&bytes[..cut + 1]).unwrap();
            assert_eq!(r.records, vec![a.clone()], "cut at {cut}");
            assert_eq!(r.committed_bytes, committed as u64);
            assert_eq!(r.torn_bytes, (cut + 1 - committed) as u64);
        }
    }

    #[test]
    fn final_record_crc_failure_is_torn() {
        let a = record(0, &[(&[1], 1.0)]);
        let b = record(a.theta_after, &[(&[2], 1.0)]);
        let mut bytes = a.to_bytes();
        let committed = bytes.len();
        bytes.extend_from_slice(&b.to_bytes());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip inside b's CRC
        let r = replay(&bytes).unwrap();
        assert_eq!(r.records, vec![a]);
        assert!(r.torn_bytes > 0);
        assert_eq!(r.committed_bytes, committed as u64);
    }

    #[test]
    fn interior_corruption_fails_loudly() {
        let a = record(0, &[(&[1, 2, 3], 1.0)]);
        let b = record(a.theta_after, &[(&[4], 1.0)]);
        let mut bytes = a.to_bytes();
        let a_len = bytes.len();
        bytes.extend_from_slice(&b.to_bytes());
        // flip a payload byte of record a (interior: committed bytes follow)
        let mut bad = bytes.clone();
        bad[20] ^= 0x01;
        assert!(matches!(replay(&bad), Err(EngineError::Corrupt(_))));
        // flip record a's magic
        let mut bad = bytes.clone();
        bad[0] ^= 0x01;
        assert!(matches!(replay(&bad), Err(EngineError::Corrupt(_))));
        // bump record a's version mid-file
        let mut bad = bytes;
        bad[4] = 9;
        assert!(matches!(
            replay(&bad),
            Err(EngineError::UnsupportedVersion(9))
        ));
        let _ = a_len;
    }

    #[test]
    fn crc_passing_structural_corruption_is_corrupt_even_at_the_tail() {
        // a record whose *contents* are inconsistent (θ does not advance)
        // but whose frame CRC is valid: this is not a torn write anywhere
        let mut r = record(10, &[(&[1], 1.0)]);
        r.theta_after = 10;
        assert!(matches!(
            replay(&r.to_bytes()),
            Err(EngineError::Corrupt(msg)) if msg.contains("advance")
        ));
    }

    #[test]
    fn append_replay_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("cwjl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = record(0, &[(&[5, 6], 1.0)]);
        let n = append(&dir, &a).unwrap();
        assert_eq!(n, a.to_bytes().len() as u64);
        let b = record(a.theta_after, &[(&[7], 0.25)]);
        append(&dir, &b).unwrap();
        let r = replay_file(&dir).unwrap();
        assert_eq!(r.records, vec![a, b]);
        // truncate back to just the first record
        let first = r.records[0].to_bytes().len() as u64;
        truncate_to(&dir, first).unwrap();
        let r = replay_file(&dir).unwrap();
        assert_eq!(r.records.len(), 1);
        remove(&dir).unwrap();
        assert!(replay_file(&dir).unwrap().records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
