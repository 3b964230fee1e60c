//! The one composed walk: every whole-store operation over an ordered
//! list of in-memory parts — the base shards in global set order, then
//! the journal overlay as the last part.
//!
//! Bit-identity with the monolithic [`RrIndex`] (and with a cold build
//! at the topped-up θ) rests on one fact, kept true in this one place:
//! parts hold *contiguous* global set ranges, so walking parts in order
//! visits sets in exactly the global order. That preserves the `f64`
//! accumulation order of coverage and marginal gains and the argmax
//! tie-breaks. Selection — fresh, or conditioned on an SP — is not
//! written here: the store hands its parts to the engine's one loop,
//! `cwelmax_engine::greedy_select_parts`, which a monolithic index runs
//! as a single part; a follow-up view is that selection with SP's sets
//! masked, so conditioning filters, copies and concatenates nothing.
//! `tests/store_properties.rs` and `tests/journal_recovery.rs` proptest
//! the equivalence across shard counts with and without an overlay.

use cwelmax_engine::{EngineError, IndexMeta, RrIndex};
use cwelmax_graph::NodeId;
use cwelmax_rrset::RrCollection;
use std::sync::Arc;

/// Canonical `(set_offsets, members, weights)` parts under construction:
/// slices appended in global order, offsets rebased onto the running
/// member count.
pub(crate) struct Canonical {
    pub(crate) set_offsets: Vec<usize>,
    pub(crate) members: Vec<NodeId>,
    pub(crate) weights: Vec<f64>,
}

impl Canonical {
    pub(crate) fn new() -> Canonical {
        Canonical {
            set_offsets: vec![0],
            members: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Append one part's sets (`set_offsets` local to `members`).
    pub(crate) fn push(&mut self, set_offsets: &[usize], members: &[NodeId], weights: &[f64]) {
        let base = self.members.len();
        self.members.extend_from_slice(members);
        self.weights.extend_from_slice(weights);
        self.set_offsets
            .extend(set_offsets[1..].iter().map(|&x| x + base));
    }

    /// Check the sets' structure exactly as [`Canonical::freeze`] does
    /// (`RrCollection::from_parts`), without building postings — for a
    /// writer that only needs the slices.
    pub(crate) fn validated(
        self,
        num_nodes: usize,
        num_sampled: usize,
    ) -> Result<Canonical, EngineError> {
        let (set_offsets, members, weights) = RrCollection::from_parts(
            num_nodes,
            self.set_offsets,
            self.members,
            self.weights,
            num_sampled,
        )
        .map_err(EngineError::Corrupt)?
        .into_parts();
        Ok(Canonical {
            set_offsets,
            members,
            weights,
        })
    }

    /// Freeze into an index through the validating constructor, so an
    /// internal bug surfaces as `Corrupt`, not a later panic.
    pub(crate) fn freeze(
        self,
        num_nodes: usize,
        num_sampled: usize,
        meta: IndexMeta,
    ) -> Result<RrIndex, EngineError> {
        RrIndex::from_canonical(
            num_nodes,
            num_sampled,
            self.set_offsets,
            self.members,
            self.weights,
            meta,
        )
    }
}

/// The parts' sets concatenated in global order.
pub(crate) fn concat(parts: &[Arc<RrIndex>]) -> Canonical {
    let mut out = Canonical::new();
    for part in parts {
        let (o, m, w) = part.canonical_parts();
        out.push(o, m, w);
    }
    out
}

/// Total weight covered by `seeds`: seeds outer, parts in global set
/// order inner, so every `f64` addition happens in the order
/// [`RrIndex::coverage_of`] performs it on the monolithic index.
pub(crate) fn coverage(parts: &[Arc<RrIndex>], seeds: &[NodeId]) -> f64 {
    let mut covered: Vec<Vec<bool>> = parts.iter().map(|p| vec![false; p.num_sets()]).collect();
    let mut total = 0.0;
    for &s in seeds {
        for (part, cov) in parts.iter().zip(covered.iter_mut()) {
            let weights = part.canonical_parts().2;
            for &j in part.postings(s) {
                if !cov[j as usize] {
                    cov[j as usize] = true;
                    total += weights[j as usize];
                }
            }
        }
    }
    total
}
