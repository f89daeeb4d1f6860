//! Function-key derivation.
//!
//! A function's analysis result is unchanged exactly when every input of
//! its analysis is unchanged, and the key is a hash of those inputs — so
//! diffing two builds' keys finds what an edit dirtied
//! (`Analysis::update_incremental`), a query-cache entry is valid while
//! the keys of the functions its search visited are, and a fold over all
//! of them stamps the in-memory interface summaries. The inputs are:
//!
//! * its own lowered body ([`pinpoint_ir::func_fingerprint`]);
//! * the summary shapes of its transitive callees — covered by a
//!   *transitive SCC fingerprint* folded bottom-up over the call-graph
//!   condensation, so any edit below a function changes its key;
//! * the configuration that shapes results ([`config_fp`]: the
//!   [`PtaConfig`] knobs, the access-path depth bound, and the on-disk
//!   [`FORMAT_VERSION`]);
//! * its `FuncId`. Opaque values are named `f{fid}.v{vid}`, so a result
//!   only carries over at the same function index. Including the id
//!   makes index shifts (function insertions/deletions) conservative
//!   invalidations rather than wrong reuse.
//!
//! Detection-stage knobs (`DetectConfig`) are deliberately *excluded*:
//! the keys cover the points-to/SEG stages only, which detection
//! consumes read-only. Keys never leave the process.

use crate::store::FORMAT_VERSION;
use pinpoint_ir::fingerprint::Fnv128;
use pinpoint_ir::{module_fingerprints, CallGraph, Module};
use pinpoint_pta::{PtaConfig, MAX_PATH_DEPTH};

/// Fingerprint of everything configuration-shaped that flows into a
/// function's analysis: the points-to knobs, the path-depth bound, and
/// the format version.
pub fn config_fp(config: &PtaConfig) -> u128 {
    let mut h = Fnv128::new();
    h.write_u32(FORMAT_VERSION);
    h.write_u32(config.prune as u32);
    h.write_u32(MAX_PATH_DEPTH);
    h.finish()
}

/// Derives the key of every function in `module` (indexed by
/// `FuncId`), against the *pre-transform* module.
///
/// The transitive SCC fingerprint is computed bottom-up over the
/// condensation: `tfp(scc) = H(sorted member fingerprints, sorted
/// distinct callee-SCC tfps)`. Because call-graph edges are derived
/// from callee *names* resolved against the module, adding or removing
/// a function that changes any resolution changes the affected callers'
/// edge sets and hence their keys.
pub fn module_keys(module: &Module, config_fp: u128) -> Vec<u128> {
    module_keys_with_graph(module, config_fp, &CallGraph::new(module))
}

/// [`module_keys`] over a caller-supplied call graph of `module`.
pub fn module_keys_with_graph(module: &Module, config_fp: u128, cg: &CallGraph) -> Vec<u128> {
    let fps = module_fingerprints(module);
    // `sccs` is emitted in reverse topological order of the condensation
    // (callee components first), so one forward pass sees every callee
    // tfp before it is needed.
    let mut scc_tfp = vec![0u128; cg.scc_count()];
    for (si, members) in cg.sccs().enumerate() {
        let mut member_fps: Vec<u128> = members.iter().map(|f| fps[f.0 as usize]).collect();
        member_fps.sort_unstable();
        let mut callee_tfps: Vec<u128> = members
            .iter()
            .flat_map(|&f| cg.callees(f))
            .map(|&c| cg.scc_of(c))
            .filter(|&sc| sc != si)
            .map(|sc| scc_tfp[sc])
            .collect();
        callee_tfps.sort_unstable();
        callee_tfps.dedup();
        let mut h = Fnv128::new();
        h.write_u64(member_fps.len() as u64);
        for fp in member_fps {
            h.write_u128(fp);
        }
        h.write_u64(callee_tfps.len() as u64);
        for fp in callee_tfps {
            h.write_u128(fp);
        }
        scc_tfp[si] = h.finish();
    }
    module
        .iter_funcs()
        .map(|(fid, _)| {
            let mut h = Fnv128::new();
            h.write_u128(config_fp);
            h.write_u128(scc_tfp[cg.scc_of(fid)]);
            h.write_u128(fps[fid.0 as usize]);
            h.write_u32(fid.0);
            h.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(src: &str) -> (Module, Vec<u128>) {
        let m = pinpoint_ir::compile(src).unwrap();
        let cfg = config_fp(&PtaConfig::default());
        let keys = module_keys(&m, cfg);
        (m, keys)
    }

    #[test]
    fn callee_edit_invalidates_caller_chain_only() {
        let base = "fn leaf() { return; }
                    fn mid(p: int*) { leaf(); return; }
                    fn top(p: int*) { mid(p); return; }
                    fn lone(p: int*) { free(p); return; }";
        let edited = "fn leaf() { let x: int = 1; print(x); return; }
                      fn mid(p: int*) { leaf(); return; }
                      fn top(p: int*) { mid(p); return; }
                      fn lone(p: int*) { free(p); return; }";
        let (m1, k1) = keys_of(base);
        let (m2, k2) = keys_of(edited);
        let idx = |m: &Module, n: &str| m.func_by_name(n).unwrap().0 as usize;
        assert_ne!(k1[idx(&m1, "leaf")], k2[idx(&m2, "leaf")]);
        assert_ne!(
            k1[idx(&m1, "mid")],
            k2[idx(&m2, "mid")],
            "caller chain dirty"
        );
        assert_ne!(k1[idx(&m1, "top")], k2[idx(&m2, "top")]);
        assert_eq!(
            k1[idx(&m1, "lone")],
            k2[idx(&m2, "lone")],
            "untouched stays clean"
        );
    }

    #[test]
    fn corpus_keys_match_values_recorded_before_the_csr_call_graph() {
        // Recorded with the nested-`Vec` call graph this crate derived
        // keys over until then. A cache directory populated by an older
        // binary stays warm only while these hold.
        for (file, pinned) in [
            ("callee_pair.pp", 0x5671019cd83c24293cc74ea3701753fd_u128),
            ("recursive_safe.pp", 0x6b79c2180d7daa3df338855b31315f2c),
        ] {
            let path = format!("{}/../../tests/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
            let (_, keys) = keys_of(&std::fs::read_to_string(path).unwrap());
            let mut h = Fnv128::new();
            h.write_u64(keys.len() as u64);
            for k in keys {
                h.write_u128(k);
            }
            assert_eq!(h.finish(), pinned, "{file}: cache keys moved");
        }
    }

    #[test]
    fn config_changes_every_key() {
        let src = "fn f(p: int*) { free(p); return; }";
        let m = pinpoint_ir::compile(src).unwrap();
        let a = module_keys(&m, config_fp(&PtaConfig { prune: true }));
        let b = module_keys(&m, config_fp(&PtaConfig { prune: false }));
        assert_ne!(a[0], b[0]);
    }
}
