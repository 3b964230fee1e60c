//! Snapshot persistence for [`RrIndex`]: versioned, checksummed binary
//! round-trip so an index built once on a large graph is reused across
//! processes.
//!
//! ## Format
//!
//! Framed by `codec::frame` (magic `CWRX`, version, payload length, CRC-32
//! over the payload). The payload is a fixed sequence of little-endian
//! sections:
//!
//! ```text
//! meta:    eps f64, ell f64, seed u64, budget_cap u64, graph_fingerprint u64
//! shape:   num_nodes u64, num_sampled u64
//! data:    set_offsets  (u64 count, then count × u64)
//!          members      (u64 count, then count × u32)
//!          weights      (u64 count, then count × f64)
//! views:   (version ≥ 2 only) view_count u64, then per view an SP node
//!          list (u64 count, then count × u32)
//! ```
//!
//! The `views` section persists the SP node sets of conditioned views the
//! operator wants pre-warmed: views are *derived* state (a deterministic
//! selection over the canonical sets — `engine::conditioned`), so only
//! the conditioning node sets are stored, never the views. Version-1
//! snapshots simply lack the section and load as "no persisted views" —
//! forward compatibility is tested, as is rejection of a corrupted views
//! section.
//!
//! Only the **canonical** data is stored; the inverted postings are
//! deterministically rebuilt on load. Serialization is a pure function of
//! the index contents (no timestamps, no map iteration order), so two
//! indexes built with the same `(graph, params, budget_cap)` produce
//! byte-identical snapshots — which tests assert, and which makes
//! snapshots diffable and content-addressable.

use crate::codec::{frame, unframe, SectionReader, SectionWriter, VERSION_V1};
use crate::error::EngineError;
use crate::index::{IndexMeta, RrIndex};
use cwelmax_graph::NodeId;
use std::path::Path;

/// Serialize an index (with no persisted views) to snapshot bytes.
pub fn to_bytes(index: &RrIndex) -> Vec<u8> {
    to_bytes_with_views(index, &[])
}

/// Serialize an index plus the SP node sets of views to pre-warm on load.
pub fn to_bytes_with_views(index: &RrIndex, views: &[Vec<NodeId>]) -> Vec<u8> {
    let (set_offsets, members, weights) = index.canonical_parts();
    let mut w = SectionWriter::new();
    let meta = index.meta();
    w.put_f64(meta.eps);
    w.put_f64(meta.ell);
    w.put_u64(meta.seed);
    w.put_u64(meta.budget_cap as u64);
    w.put_u64(meta.graph_fingerprint);
    w.put_u64(index.num_nodes() as u64);
    w.put_u64(index.num_sampled() as u64);
    let offsets64: Vec<u64> = set_offsets.iter().map(|&x| x as u64).collect();
    w.put_u64_slice(&offsets64);
    w.put_u32_slice(members);
    w.put_f64_slice(weights);
    w.put_u64(views.len() as u64);
    for sp in views {
        w.put_u32_slice(sp);
    }
    frame(&w.finish())
}

/// Deserialize snapshot bytes back into an index, discarding any persisted
/// views (see [`from_bytes_full`]). Integrity is layered: the frame CRC
/// catches random corruption, and the validating `RrIndex::from_canonical`
/// constructor catches structurally invalid data that a correct checksum
/// could still carry.
pub fn from_bytes(bytes: &[u8]) -> Result<RrIndex, EngineError> {
    from_bytes_full(bytes).map(|(index, _)| index)
}

/// Deserialize snapshot bytes into an index plus the persisted SP node
/// sets (empty for version-1 snapshots, which predate the section).
pub fn from_bytes_full(bytes: &[u8]) -> Result<(RrIndex, Vec<Vec<NodeId>>), EngineError> {
    let (version, payload) = unframe(bytes)?;
    let mut r = SectionReader::new(payload);
    let eps = r.get_f64("eps")?;
    let ell = r.get_f64("ell")?;
    let seed = r.get_u64("seed")?;
    let budget_cap_raw = r.get_u64("budget_cap")?;
    let budget_cap = u32::try_from(budget_cap_raw)
        .map_err(|_| EngineError::Corrupt(format!("budget_cap {budget_cap_raw} overflows u32")))?;
    let graph_fingerprint = r.get_u64("graph_fingerprint")?;
    let num_nodes = r.get_u64("num_nodes")? as usize;
    let num_sampled = r.get_u64("num_sampled")? as usize;
    let set_offsets: Vec<usize> = r
        .get_u64_vec("set_offsets")?
        .into_iter()
        .map(|x| x as usize)
        .collect();
    let members = r.get_u32_vec("members")?;
    let weights = r.get_f64_vec("weights")?;
    let views = if version > VERSION_V1 {
        let count = r.get_u64("view_count")? as usize;
        // each view costs ≥ 8 bytes (its length prefix) — bound before
        // allocating, mirroring SectionReader's own length hygiene
        if count.checked_mul(8).is_none_or(|b| b > payload.len()) {
            return Err(EngineError::Corrupt(format!(
                "implausible view_count {count}"
            )));
        }
        let mut out = Vec::with_capacity(count);
        for k in 0..count {
            let sp = r.get_u32_vec("view_sp_nodes")?;
            if let Some(&v) = sp.iter().find(|&&v| v as usize >= num_nodes) {
                return Err(EngineError::Corrupt(format!(
                    "view {k}: SP node {v} out of range n={num_nodes}"
                )));
            }
            out.push(sp);
        }
        out
    } else {
        Vec::new()
    };
    r.expect_end()?;
    if !eps.is_finite() || eps <= 0.0 || !ell.is_finite() || ell <= 0.0 {
        return Err(EngineError::Corrupt(format!(
            "implausible accuracy parameters eps={eps} ell={ell}"
        )));
    }
    let index = RrIndex::from_canonical(
        num_nodes,
        num_sampled,
        set_offsets,
        members,
        weights,
        IndexMeta {
            eps,
            ell,
            seed,
            budget_cap,
            graph_fingerprint,
        },
    )?;
    Ok((index, views))
}

/// Save a snapshot to a file (write-then-rename for crash atomicity).
pub fn save(index: &RrIndex, path: impl AsRef<Path>) -> Result<(), EngineError> {
    save_with_views(index, &[], path)
}

/// Save a snapshot carrying persisted view SP node sets.
pub fn save_with_views(
    index: &RrIndex,
    views: &[Vec<NodeId>],
    path: impl AsRef<Path>,
) -> Result<(), EngineError> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, to_bytes_with_views(index, views))?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load a snapshot from a file, discarding any persisted views.
pub fn load(path: impl AsRef<Path>) -> Result<RrIndex, EngineError> {
    from_bytes(&std::fs::read(path)?)
}

/// Load a snapshot plus its persisted view SP node sets from a file.
pub fn load_full(path: impl AsRef<Path>) -> Result<(RrIndex, Vec<Vec<NodeId>>), EngineError> {
    from_bytes_full(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::graph_fingerprint;
    use cwelmax_graph::{generators, ProbabilityModel as PM};
    use cwelmax_rrset::{ImmParams, RrCollection, StandardRr};

    fn small_index(seed: u64) -> RrIndex {
        let g = generators::erdos_renyi(60, 300, seed, PM::WeightedCascade);
        let mut c = RrCollection::new(60);
        c.extend_parallel(&g, &StandardRr, 500, seed, 2);
        RrIndex::freeze(
            &c,
            IndexMeta {
                eps: 0.5,
                ell: 1.0,
                seed,
                budget_cap: 8,
                graph_fingerprint: graph_fingerprint(&g),
            },
        )
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let idx = small_index(3);
        let bytes = to_bytes(&idx);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.canonical_parts(), idx.canonical_parts());
        assert_eq!(back.num_nodes(), idx.num_nodes());
        assert_eq!(back.num_sampled(), idx.num_sampled());
        assert_eq!(back.meta(), idx.meta());
        // serialization is pure: re-serializing is byte-identical
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn file_roundtrip() {
        let idx = small_index(5);
        let dir = std::env::temp_dir().join("cwelmax-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file_roundtrip.cwrx");
        save(&idx, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(to_bytes(&back), to_bytes(&idx));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn build_determinism_gives_identical_snapshots() {
        let g = generators::erdos_renyi(80, 400, 9, PM::WeightedCascade);
        let p = ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed: 21,
            threads: 2,
            max_rr_sets: 300_000,
        };
        let a = RrIndex::build(&g, 4, &p);
        let b = RrIndex::build(&g, 4, &p);
        assert_eq!(to_bytes(&a), to_bytes(&b));
        // a different seed gives a different snapshot
        let p2 = ImmParams { seed: 22, ..p };
        assert_ne!(to_bytes(&RrIndex::build(&g, 4, &p2)), to_bytes(&a));
    }

    #[test]
    fn views_roundtrip_and_plain_load_ignores_them() {
        let idx = small_index(7);
        let views = vec![vec![0u32, 5, 9], vec![], vec![59]];
        let bytes = to_bytes_with_views(&idx, &views);
        let (back, got) = from_bytes_full(&bytes).unwrap();
        assert_eq!(got, views);
        assert_eq!(back.canonical_parts(), idx.canonical_parts());
        // re-serializing with the same views is byte-identical
        assert_eq!(to_bytes_with_views(&back, &got), bytes);
        // the views-unaware entry point still loads the index
        assert_eq!(
            from_bytes(&bytes).unwrap().canonical_parts(),
            idx.canonical_parts()
        );
    }

    #[test]
    fn v1_snapshot_without_views_section_loads() {
        // a genuine version-1 file: same payload minus the views section
        let idx = small_index(11);
        let v2 = to_bytes(&idx);
        let (_, payload) = crate::codec::unframe(&v2).unwrap();
        // v2 with zero views ends with the 8-byte view_count = 0
        let v1_payload = &payload[..payload.len() - 8];
        let v1 = crate::codec::frame_with_version(crate::codec::VERSION_V1, v1_payload);
        let (back, views) = from_bytes_full(&v1).unwrap();
        assert!(views.is_empty());
        assert_eq!(back.canonical_parts(), idx.canonical_parts());
        assert_eq!(back.meta(), idx.meta());
    }

    #[test]
    fn corrupt_views_section_is_rejected() {
        let idx = small_index(13);
        // out-of-range SP node survives the CRC (we re-frame after editing)
        let bad = to_bytes_with_views(&idx, &[vec![1_000_000]]);
        match from_bytes_full(&bad) {
            Err(EngineError::Corrupt(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // implausible view_count: truncate the payload after a huge count
        let bytes = to_bytes(&idx);
        let (_, payload) = crate::codec::unframe(&bytes).unwrap();
        let mut forged = payload[..payload.len() - 8].to_vec();
        forged.extend_from_slice(&u64::MAX.to_le_bytes());
        let forged = crate::codec::frame(&forged);
        match from_bytes_full(&forged) {
            Err(EngineError::Corrupt(msg)) => assert!(msg.contains("view_count")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        match load("/nonexistent/definitely/missing.cwrx") {
            Err(EngineError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
