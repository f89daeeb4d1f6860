//! `pinpoint-cache`: the dependency-free persistence layer of the
//! Pinpoint reproduction (PLDI 2018).
//!
//! Pinpoint's premise is that everything before the demand-driven search
//! is a cheap, local, per-function pass and that the cost sits in
//! deciding path conditions. Measured on this code base that holds
//! across runs too: recomputing a function's points-to result and SEG is
//! faster than reading them back from disk, so the one thing worth
//! persisting is what the solver established — the verdict table
//! (`pinpoint-core` encodes it; this crate frames and stores it).
//!
//! * [`keys`] — derives a key per function: a 128-bit FNV hash of
//!   `(format version ⊕ config, transitive SCC fingerprint, own
//!   fingerprint, function id)`. In memory these drive incremental
//!   dirtying and query-cache validation; they never reach the disk;
//! * [`codec`] — the hand-rolled byte-stream writer and bounds-checked
//!   reader (no serde) payloads are encoded with;
//! * [`store`] — the on-disk object store with atomic (temp file +
//!   rename) writes, per-entry checksums, and hit/miss/invalidation
//!   counters; a crashed or concurrent run degrades to a cold run, never
//!   a corrupt one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod keys;
pub mod store;

pub use codec::{ByteReader, ByteWriter, DecodeError};
pub use keys::{config_fp, module_keys, module_keys_with_graph};
pub use store::{CacheInfo, CacheStats, CacheStore, VerifyOutcome, FORMAT_VERSION, HEADER_LEN};
