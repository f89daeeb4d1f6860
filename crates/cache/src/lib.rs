//! `pinpoint-cache`: a dependency-free persistent analysis cache for the
//! Pinpoint reproduction (PLDI 2018).
//!
//! The paper's industrial requirement — checking millions of lines in
//! hours (§5) — demands that repeated runs not pay the whole-program
//! price. The bottom-up, per-function architecture makes that possible:
//! each function's analysis depends only on its own lowered body, the
//! summary shapes of its (transitive) callees, and the configuration.
//! This crate persists those per-function artifacts on disk, keyed by a
//! content hash of exactly those inputs, so a warm re-run re-analyzes
//! only the edited caller chain and splices everything else.
//!
//! * [`keys`] — derives the cache key per function: a 128-bit FNV hash
//!   of `(format version ⊕ config, transitive SCC fingerprint, own
//!   fingerprint, function id)`;
//! * [`codec`] — a hand-rolled binary codec (no serde) for the artifact
//!   types: transformed bodies, connector shapes, guarded points-to
//!   results, and private term arenas;
//! * [`store`] — the on-disk object store with atomic (temp file +
//!   rename) writes, per-entry checksums, and hit/miss/invalidation
//!   counters; a crashed or concurrent run degrades to a cold run, never
//!   a corrupt one.
//!
//! The [`PtaArtifactStore`] adapter plugs a [`CacheStore`] into
//! [`pinpoint_pta::analyze_module_par`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod keys;
pub mod store;

pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use keys::{config_fp, module_keys, module_keys_with_graph};
pub use store::{CacheInfo, CacheStats, CacheStore, VerifyOutcome, FORMAT_VERSION, HEADER_LEN};

use pinpoint_pta::{ArtifactStore, FuncArtifact};

/// Adapter implementing [`pinpoint_pta::ArtifactStore`] over a
/// [`CacheStore`], using the `"pta"` stage namespace.
#[derive(Debug)]
pub struct PtaArtifactStore<'a> {
    store: &'a mut CacheStore,
}

impl<'a> PtaArtifactStore<'a> {
    /// Wraps `store`.
    pub fn new(store: &'a mut CacheStore) -> Self {
        PtaArtifactStore { store }
    }
}

impl ArtifactStore for PtaArtifactStore<'_> {
    fn load(&mut self, key: u128) -> Option<FuncArtifact> {
        self.store
            .load_with("pta", key, |bytes| codec::decode_artifact(bytes).ok())
    }

    fn store(&mut self, key: u128, artifact: &FuncArtifact) {
        let payload = codec::encode_artifact(artifact);
        self.store.store("pta", key, &payload);
    }
}
