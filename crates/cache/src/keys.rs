//! Function-key derivation: the reference statement of what an edit
//! dirties.
//!
//! A function's analysis result is unchanged exactly when every input of
//! its analysis is unchanged, and the key is a hash of those inputs, so
//! the functions whose keys differ between two modules are the ones an
//! edit from one to the other dirtied. The inputs are:
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
//! An update does not fold keys: it closes the functions whose own
//! fingerprint changed over their callers on the new call graph
//! (`pinpoint_pta::dirty_closure`), which gives the same set (the key of
//! a function moves exactly when something in its callee closure, itself
//! included, changed its fingerprint), and the query cache validates
//! against the update stamps of that closure. The key diff stays the
//! reference the update's tests compare that closure against.
//!
//! Detection-stage knobs (`DetectConfig`) are deliberately *excluded*:
//! the keys cover the points-to/SEG stages only, which detection
//! consumes read-only. Keys never leave the process.

use crate::store::FORMAT_VERSION;
use pinpoint_ir::fingerprint::Fnv128;
use pinpoint_ir::{module_fingerprints, CallGraph, FuncId, Module};
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
/// `FuncId`), against the *pre-transform* module: its
/// [`module_fingerprints`] folded over its call graph by [`fold_keys`].
pub fn module_keys(module: &Module, config_fp: u128) -> Vec<u128> {
    fold_keys(
        &module_fingerprints(module),
        config_fp,
        &CallGraph::new(module),
    )
}

/// The key of every function, indexed by `FuncId`, from each function's
/// local fingerprint `fps` ([`pinpoint_ir::func_fingerprint`] of its
/// pre-transform body) and the module's call graph `cg`.
///
/// The transitive SCC fingerprint is computed bottom-up over the
/// condensation: `tfp(scc) = H(sorted member fingerprints, sorted
/// distinct callee-SCC tfps)`. Because call-graph edges are derived
/// from callee *names* resolved against the module, adding or removing
/// a function that changes any resolution changes the affected callers'
/// edge sets and hence their keys.
pub fn fold_keys(fps: &[u128], config_fp: u128, cg: &CallGraph) -> Vec<u128> {
    // `sccs` is emitted in reverse topological order of the
    // condensation (callee components first), so one forward pass sees
    // every callee tfp before it is needed.
    let mut scc = vec![0u128; cg.scc_count()];
    for si in 0..scc.len() {
        scc[si] = scc_fingerprint(si, fps, &scc, cg);
    }
    fps.iter()
        .enumerate()
        .map(|(i, &fp)| func_key(config_fp, scc[cg.scc_of(FuncId(i as u32))], fp, i))
        .collect()
}

/// `tfp(si)` from its members' fingerprints and the already folded
/// transitive fingerprints `scc` of its callee SCCs.
fn scc_fingerprint(si: usize, fps: &[u128], scc: &[u128], cg: &CallGraph) -> u128 {
    let members = cg.scc(si);
    let mut member_fps: Vec<u128> = members.iter().map(|f| fps[f.0 as usize]).collect();
    member_fps.sort_unstable();
    let mut callee_tfps: Vec<u128> = members
        .iter()
        .flat_map(|&f| cg.callees(f))
        .map(|&c| cg.scc_of(c))
        .filter(|&sc| sc != si)
        .map(|sc| scc[sc])
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
    h.finish()
}

/// The key of function `i`, whose SCC's transitive fingerprint is `tfp`
/// and whose local fingerprint is `fp`.
fn func_key(config_fp: u128, tfp: u128, fp: u128, i: usize) -> u128 {
    let mut h = Fnv128::new();
    h.write_u128(config_fp);
    h.write_u128(tfp);
    h.write_u128(fp);
    h.write_u32(i as u32);
    h.finish()
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

    /// Digest of a module's keys, in `FuncId` order.
    fn keys_digest(src: &str) -> u128 {
        let (_, keys) = keys_of(src);
        let mut h = Fnv128::new();
        h.write_u64(keys.len() as u64);
        for k in keys {
            h.write_u128(k);
        }
        h.finish()
    }

    /// Every `tests/corpus/*.pp` file, by name, in name order.
    fn corpus() -> Vec<(String, String)> {
        let dir = format!("{}/../../tests/corpus", env!("CARGO_MANIFEST_DIR"));
        let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "pp"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&p).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn corpus_keys_match_values_recorded_before_the_csr_call_graph() {
        // Those of `callee_pair.pp` and `recursive_safe.pp` were recorded
        // with the nested-`Vec` call graph this crate derived keys over
        // until then; the rest, and the grammar module (`gen_project
        // --fuzz --kloc 3`), with the IR that still named callees and
        // values by strings. A cache directory populated by an older
        // binary stays warm only while these hold.
        const PINNED: &[(&str, u128)] = &[
            (
                "arith_breaks_pointer_flow.pp",
                0x146656a4050941d3c6208ac3ba338f22,
            ),
            ("callee_pair.pp", 0x5671019cd83c24293cc74ea3701753fd),
            ("callee_pair_safe.pp", 0x5ac09de1640902f9d1c141b3875560eb),
            ("deep_nesting.pp", 0xb623c4fe31e6c7f3e21cef46efad4c13),
            ("deep_nesting_safe.pp", 0xdfbafac2a2fd3f7e985775bb434869ee),
            ("double_ptr_swap.pp", 0xa13ba69bebf1e42a5a7f43c249077a22),
            ("global_roundtrip.pp", 0xbe4d3fc54f2dc8113b8c4e8a1bad5ba8),
            ("guarded_safe.pp", 0x89178e9dc426e70dcceeaff6defca58b),
            ("leak_conditional.pp", 0x81ec1dd2b2eea23ac5ead7c1a448112f),
            ("leak_never.pp", 0xff7afffc5c103d38097c632cdad8d1a2),
            ("leak_none_crosscall.pp", 0x303bfbba6efcd97a3627078c66fd13e2),
            ("null_guard_chain.pp", 0x44b3aa93027bfafae9bf3cf359a06cf5),
            ("null_reported.pp", 0x1ba05ea40e73bd323fb5940d40e34dd8),
            ("recursive_safe.pp", 0x6b79c2180d7daa3df338855b31315f2c),
            ("return_freed.pp", 0x84e65ecba145b40c5209d6341494377e),
            ("taint_both_kinds.pp", 0x1f5ce26d05ab597e3bd70d0deb8e0101),
            (
                "taint_global_channel.pp",
                0x5e8938c2f5533cce30237648779f4d7a,
            ),
            ("taint_guarded_safe.pp", 0x16865878c268867568fb51e858a7f608),
            (
                "taint_through_helpers.pp",
                0x588305739646ec98dae321814e7cfcba,
            ),
            ("uaf_phi_merge.pp", 0xae3f5e8403dbe3265c428e96bb637408),
            ("uaf_store_kill.pp", 0x2096da9d73029f446dc6cc8893f16705),
            ("while_guarded.pp", 0x9441ba52bc74283db557055fffcd1ca2),
            ("fuzz-kloc3-seed1", 0x8bd361da14a1dd28fe2791a9781d0b53),
        ];
        let fuzz =
            pinpoint_workload::fuzzgen::generate(&pinpoint_workload::fuzzgen::FuzzGenConfig {
                seed: 1,
                functions: 166,
                max_stmts: 10,
                globals: 4,
                recursion: true,
            });
        let mut inputs = corpus();
        inputs.push(("fuzz-kloc3-seed1".to_string(), fuzz));
        let actual: Vec<(String, u128)> = inputs
            .iter()
            .map(|(name, src)| (name.clone(), keys_digest(src)))
            .collect();
        let table: String = actual
            .iter()
            .map(|(name, d)| format!("(\"{name}\", 0x{d:032x}),\n"))
            .collect();
        assert_eq!(actual.len(), PINNED.len(), "inputs moved; now:\n{table}");
        for ((name, digest), &(pinned_name, pinned)) in actual.iter().zip(PINNED) {
            assert_eq!(name, pinned_name, "inputs moved; now:\n{table}");
            assert_eq!(*digest, pinned, "{name}: cache keys moved; now:\n{table}");
        }
    }

    /// The key diff of an edit is the callers-closure of the functions
    /// whose fingerprint it changed: the rule an update applies instead
    /// of folding keys.
    #[test]
    fn key_diff_equals_the_callers_closure() {
        let fuzz =
            pinpoint_workload::fuzzgen::generate(&pinpoint_workload::fuzzgen::FuzzGenConfig {
                seed: 3,
                functions: 60,
                max_stmts: 10,
                globals: 2,
                recursion: true,
            });
        // The grammar recurses only directly; add a two-function cycle
        // with a callee below it and a caller above it.
        let cycle = "fn leaf(n: int) -> int { return n; }
            fn even(n: int) -> int { let a: int = odd(n - 1); let b: int = leaf(a); return b; }
            fn odd(n: int) -> int { let a: int = even(n - 1); return a; }
            fn top(n: int) -> int { let a: int = even(n); return a; }";
        let m = pinpoint_ir::compile(&format!("{fuzz}\n{cycle}")).unwrap();
        let cg = CallGraph::new(&m);
        assert!(
            cg.sccs().any(|members| members.len() > 1),
            "no recursion cycle"
        );
        let cfg = config_fp(&PtaConfig::default());
        let fps = module_fingerprints(&m);
        let base = fold_keys(&fps, cfg, &cg);
        let n = m.funcs.len();
        // Nothing, every function alone, pairs far apart, everything.
        let mut edits: Vec<Vec<usize>> = vec![vec![]];
        edits.extend((0..n).map(|i| vec![i]));
        edits.extend((0..n / 2).map(|i| vec![i, n - 1 - i]));
        edits.push((0..n).collect());
        for changed in edits {
            let (mut edited, mut closed) = (fps.clone(), vec![false; n]);
            for &i in &changed {
                edited[i] ^= 1;
                closed[i] = true;
            }
            pinpoint_pta::dirty_closure(&cg, &mut closed);
            let keys = fold_keys(&edited, cfg, &cg);
            let moved: Vec<bool> = base.iter().zip(&keys).map(|(a, b)| a != b).collect();
            assert_eq!(moved, closed, "{changed:?}");
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
