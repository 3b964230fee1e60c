//! The store's on-disk format: one `manifest.bin` plus N shard files.
//!
//! Both file kinds, like the journal's records, use the engine codec's
//! frame (`magic ‖ version ‖ length ‖ payload ‖ crc32(payload)`) under
//! one magic per kind, so a manifest, a shard and a journal record can
//! never be parsed as one another, and every file gets the frame's
//! truncation and bit-flip detection.
//!
//! ## Manifest (`manifest.bin`, magic `CWSM`)
//!
//! ```text
//! meta:    eps f64, ell f64, seed u64, budget_cap u64, graph_fingerprint u64
//! shape:   num_nodes u64, num_sampled u64 (θ), total_sets u64
//! pool:    budget-cap greedy pool (u64 count, then count × u32 node ids)
//! shards:  shard_count u64, then per shard:
//!          set_start u64, set_count u64, file_bytes u64, file_crc u64
//! ```
//!
//! The manifest is the *whole* eager surface of a store: build metadata
//! to validate queries against, the precomputed ordered greedy pool at
//! the budget cap (so fresh campaigns are answered without touching any
//! shard file), and per-shard integrity records (`file_bytes` +
//! CRC-32 over the **entire** shard file) that catch a swapped, edited,
//! or truncated shard before its own frame is even parsed.
//!
//! ## Shard files (`shard-NNNN.cwsx`, magic `CWSH`)
//!
//! ```text
//! id:      shard_id u64, graph_fingerprint u64, set_start u64
//! data:    set_offsets (u64 count, then count × u64, shard-local)
//!          members     (u64 count, then count × u32)
//!          weights     (u64 count, then count × f64)
//! ```
//!
//! Shard `k` holds the contiguous global set range
//! `[set_start, set_start + set_count)` with offsets rebased to 0 —
//! exactly the canonical parts of an [`cwelmax_engine::RrIndex`] over the
//! full node universe, so a loaded shard freezes into a per-shard index
//! (with its own postings) through the validating
//! `RrIndex::from_canonical`. Everything is little-endian and a pure
//! function of the index contents: writing the same index at the same
//! shard count twice produces byte-identical files.

use cwelmax_engine::codec::{unframe_tagged, SectionReader, SectionWriter};
use cwelmax_engine::{EngineError, IndexMeta};
use cwelmax_graph::NodeId;
use std::path::{Path, PathBuf};

/// Manifest file magic: `CWSM` ("CWelmax Store Manifest").
pub const MANIFEST_MAGIC: u32 = 0x4357_534D;

/// Shard file magic: `CWSH` ("CWelmax SHard").
pub const SHARD_MAGIC: u32 = 0x4357_5348;

/// Store format version (manifest and shard files move together).
pub const STORE_VERSION: u32 = 1;

/// The manifest's file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// The path of shard `k` inside a store directory.
pub fn shard_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k:04}.cwsx"))
}

/// Per-shard record in the manifest: which global set range the shard
/// holds and what its file must look like on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// Global id of the shard's first retained set.
    pub set_start: usize,
    /// Number of retained sets in the shard (may be 0 when the shard
    /// count exceeds the set count).
    pub set_count: usize,
    /// Exact byte length of the shard file.
    pub file_bytes: u64,
    /// CRC-32 over the entire shard file (frame included).
    pub file_crc: u32,
}

/// The decoded manifest: everything a store knows without opening a
/// single shard file.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Build metadata, as the index was built with it.
    pub meta: IndexMeta,
    /// Node-universe size.
    pub num_nodes: usize,
    /// θ — total sets sampled (estimator denominator; global, not
    /// per-shard: conditioning and estimation always scale by the full
    /// sampling effort).
    pub num_sampled: usize,
    /// Total retained sets across all shards.
    pub total_sets: usize,
    /// The ordered greedy pool at `meta.budget_cap`, persisted at build
    /// time so fresh campaigns never fault a shard in.
    pub pool: Vec<NodeId>,
    /// Shard directory in shard order (contiguous, covering
    /// `0..total_sets`).
    pub shards: Vec<ShardInfo>,
}

impl Manifest {
    /// Serialize to framed manifest bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        // eight scalars, the pool, the shard count, four u64s per shard
        let payload = 8 * 8 + (8 + 4 * self.pool.len()) + 8 + 32 * self.shards.len();
        let mut w = SectionWriter::framed(MANIFEST_MAGIC, STORE_VERSION, payload);
        w.put_f64(self.meta.eps);
        w.put_f64(self.meta.ell);
        w.put_u64(self.meta.seed);
        w.put_u64(self.meta.budget_cap as u64);
        w.put_u64(self.meta.graph_fingerprint);
        w.put_u64(self.num_nodes as u64);
        w.put_u64(self.num_sampled as u64);
        w.put_u64(self.total_sets as u64);
        w.put_u32_slice(&self.pool);
        w.put_u64(self.shards.len() as u64);
        for s in &self.shards {
            w.put_u64(s.set_start as u64);
            w.put_u64(s.set_count as u64);
            w.put_u64(s.file_bytes);
            w.put_u64(s.file_crc as u64);
        }
        w.finish()
    }

    /// Parse and validate framed manifest bytes. Corruption that survives
    /// the CRC (or a deliberately inconsistent manifest) is rejected with
    /// a structural error, never served.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, EngineError> {
        let (_, payload) = unframe_tagged(MANIFEST_MAGIC, STORE_VERSION..=STORE_VERSION, bytes)?;
        let mut r = SectionReader::new(payload);
        let eps = r.get_f64("eps")?;
        let ell = r.get_f64("ell")?;
        let seed = r.get_u64("seed")?;
        let budget_cap_raw = r.get_u64("budget_cap")?;
        let budget_cap = u32::try_from(budget_cap_raw).map_err(|_| {
            EngineError::Corrupt(format!("budget_cap {budget_cap_raw} overflows u32"))
        })?;
        let graph_fingerprint = r.get_u64("graph_fingerprint")?;
        let num_nodes = r.get_u64("num_nodes")? as usize;
        let num_sampled = r.get_u64("num_sampled")? as usize;
        let total_sets = r.get_u64("total_sets")? as usize;
        let pool = r.get_u32_vec("pool")?;
        let shard_count = r.get_u64("shard_count")? as usize;
        // each shard record is 32 payload bytes — bound before allocating
        if shard_count
            .checked_mul(32)
            .is_none_or(|b| b > payload.len())
        {
            return Err(EngineError::Corrupt(format!(
                "implausible shard_count {shard_count}"
            )));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for k in 0..shard_count {
            let set_start = r.get_u64("set_start")? as usize;
            let set_count = r.get_u64("set_count")? as usize;
            let file_bytes = r.get_u64("file_bytes")?;
            let file_crc_raw = r.get_u64("file_crc")?;
            let file_crc = u32::try_from(file_crc_raw).map_err(|_| {
                EngineError::Corrupt(format!("shard {k}: crc {file_crc_raw} overflows u32"))
            })?;
            shards.push(ShardInfo {
                set_start,
                set_count,
                file_bytes,
                file_crc,
            });
        }
        r.expect_end()?;
        if !eps.is_finite() || eps <= 0.0 || !ell.is_finite() || ell <= 0.0 {
            return Err(EngineError::Corrupt(format!(
                "implausible accuracy parameters eps={eps} ell={ell}"
            )));
        }
        if shards.is_empty() {
            return Err(EngineError::Corrupt("store has no shards".into()));
        }
        if total_sets > num_sampled {
            return Err(EngineError::Corrupt(format!(
                "{total_sets} retained sets exceed θ = {num_sampled}"
            )));
        }
        let mut next = 0usize;
        for (k, s) in shards.iter().enumerate() {
            if s.set_start != next {
                return Err(EngineError::Corrupt(format!(
                    "shard {k} starts at set {} (expected {next}); shards must be contiguous",
                    s.set_start
                )));
            }
            next = next
                .checked_add(s.set_count)
                .ok_or_else(|| EngineError::Corrupt(format!("shard {k}: set range overflows")))?;
        }
        if next != total_sets {
            return Err(EngineError::Corrupt(format!(
                "shards cover {next} sets but the manifest declares {total_sets}"
            )));
        }
        if let Some(&v) = pool.iter().find(|&&v| v as usize >= num_nodes) {
            return Err(EngineError::Corrupt(format!(
                "pool node {v} out of range n={num_nodes}"
            )));
        }
        if pool.len() > num_nodes {
            return Err(EngineError::Corrupt(format!(
                "pool of {} seeds exceeds the {num_nodes}-node universe",
                pool.len()
            )));
        }
        Ok(Manifest {
            meta: IndexMeta {
                eps,
                ell,
                seed,
                budget_cap,
                graph_fingerprint,
            },
            num_nodes,
            num_sampled,
            total_sets,
            pool,
            shards,
        })
    }
}

/// The canonical parts of one shard, ready to encode: shard-local offsets
/// (rebased to 0) over the members/weights of its contiguous set range.
pub struct ShardParts<'a> {
    pub shard_id: usize,
    pub graph_fingerprint: u64,
    pub set_start: usize,
    pub set_offsets: Vec<u64>,
    pub members: &'a [NodeId],
    pub weights: &'a [f64],
}

/// Serialize one shard to framed file bytes.
pub fn shard_to_bytes(parts: &ShardParts<'_>) -> Vec<u8> {
    // three scalars, then three counted vectors
    let payload = 3 * 8
        + (8 + 8 * parts.set_offsets.len())
        + (8 + 4 * parts.members.len())
        + (8 + 8 * parts.weights.len());
    let mut w = SectionWriter::framed(SHARD_MAGIC, STORE_VERSION, payload);
    w.put_u64(parts.shard_id as u64);
    w.put_u64(parts.graph_fingerprint);
    w.put_u64(parts.set_start as u64);
    w.put_u64_slice(&parts.set_offsets);
    w.put_u32_slice(parts.members);
    w.put_f64_slice(parts.weights);
    w.finish()
}

/// Parsed (but not yet index-validated) shard file contents.
pub struct ShardPayload {
    pub shard_id: usize,
    pub graph_fingerprint: u64,
    pub set_start: usize,
    pub set_offsets: Vec<usize>,
    pub members: Vec<NodeId>,
    pub weights: Vec<f64>,
}

/// Parse framed shard bytes (structural validation of the parts happens
/// downstream in `RrIndex::from_canonical`).
pub fn shard_from_bytes(bytes: &[u8]) -> Result<ShardPayload, EngineError> {
    let (_, payload) = unframe_tagged(SHARD_MAGIC, STORE_VERSION..=STORE_VERSION, bytes)?;
    let mut r = SectionReader::new(payload);
    let shard_id = r.get_u64("shard_id")? as usize;
    let graph_fingerprint = r.get_u64("graph_fingerprint")?;
    let set_start = r.get_u64("set_start")? as usize;
    let set_offsets: Vec<usize> = r
        .get_u64_vec("set_offsets")?
        .into_iter()
        .map(|x| x as usize)
        .collect();
    let members = r.get_u32_vec("members")?;
    let weights = r.get_f64_vec("weights")?;
    r.expect_end()?;
    Ok(ShardPayload {
        shard_id,
        graph_fingerprint,
        set_start,
        set_offsets,
        members,
        weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest {
            meta: IndexMeta {
                eps: 0.5,
                ell: 1.0,
                seed: 7,
                budget_cap: 6,
                graph_fingerprint: 0xABCD,
            },
            num_nodes: 50,
            num_sampled: 300,
            total_sets: 120,
            pool: vec![3, 1, 4, 15, 9, 2],
            shards: vec![
                ShardInfo {
                    set_start: 0,
                    set_count: 60,
                    file_bytes: 1234,
                    file_crc: 0xDEAD_BEEF,
                },
                ShardInfo {
                    set_start: 60,
                    set_count: 60,
                    file_bytes: 999,
                    file_crc: 0x1234_5678,
                },
            ],
        }
    }

    #[test]
    fn manifest_roundtrips_byte_stably() {
        let m = manifest();
        let bytes = m.to_bytes();
        let back = Manifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn manifest_rejects_non_contiguous_shards() {
        let mut m = manifest();
        m.shards[1].set_start = 61;
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(EngineError::Corrupt(msg)) if msg.contains("contiguous")
        ));
        let mut m = manifest();
        m.total_sets = 121;
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn manifest_rejects_out_of_range_pool() {
        let mut m = manifest();
        m.pool[0] = 50;
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(EngineError::Corrupt(msg)) if msg.contains("pool node")
        ));
    }

    #[test]
    fn wrong_magic_is_rejected_both_ways() {
        let m = manifest();
        // a manifest is not a shard, a shard is not a manifest
        assert!(shard_from_bytes(&m.to_bytes()).is_err());
        let shard = shard_to_bytes(&ShardParts {
            shard_id: 0,
            graph_fingerprint: 1,
            set_start: 0,
            set_offsets: vec![0, 1],
            members: &[4],
            weights: &[1.0],
        });
        assert!(Manifest::from_bytes(&shard).is_err());
        let back = shard_from_bytes(&shard).unwrap();
        assert_eq!(back.set_offsets, vec![0, 1]);
        assert_eq!(back.members, vec![4]);
        assert_eq!(back.weights, vec![1.0]);
    }

    #[test]
    fn truncated_manifest_is_an_error() {
        let bytes = manifest().to_bytes();
        for cut in [0, 4, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
