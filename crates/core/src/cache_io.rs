//! Binary codec for persisted SEG artifacts, plus the adapter that backs
//! [`SegStore`](crate::seg::SegStore) with the on-disk
//! [`pinpoint_cache::CacheStore`].
//!
//! The artifact layout mirrors [`pinpoint_cache::codec`]: little-endian
//! fixed-width scalars, length-prefixed sequences, keyed sections in
//! ascending key order so encoding is deterministic. A [`SegArtifact`]
//! frame is
//!
//! ```text
//! arena · cached_values · out_edges · in_edges · control_deps ·
//! arg_uses · receivers · ret_index · call_sites · edge_count
//! ```
//!
//! Both edge groupings are persisted even though they hold the same
//! edges: `in_edges` lists them per *destination* in insertion order,
//! which cannot be reconstructed from the per-source `out_edges` without
//! changing per-vertex order (and hence downstream iteration order).
//!
//! A graph in memory names callees by [`FuncId`], which means nothing to
//! a later process; the frame stores the callee's *name* wherever a call
//! appears (read off the call instruction when encoding, resolved against
//! the module being built when decoding).

use crate::seg::{CallSite, EdgeKind, SegArtifact, SegEdge, SegParts, SegStore};
use pinpoint_cache::codec::{get_arena, get_term_id, put_arena, put_term_id};
use pinpoint_cache::{ByteReader, ByteWriter, CacheStore, DecodeError};
use pinpoint_ir::{BlockId, FuncId, Function, Inst, InstId, Module, ValueId};
use pinpoint_smt::{verdict_config_fp, SmtSession, Verdict, VerdictTable};
use std::path::Path;

type Result<T> = std::result::Result<T, DecodeError>;

fn put_value_id(w: &mut ByteWriter, v: ValueId) {
    w.u32(v.0);
}

/// Reads a value id of a function with `values` values.
fn get_value_id(r: &mut ByteReader, values: usize) -> Result<ValueId> {
    let v = r.u32()?;
    if v as usize >= values {
        return Err(DecodeError("value id out of range"));
    }
    Ok(ValueId(v))
}

fn put_inst_id(w: &mut ByteWriter, i: InstId) {
    w.u32(i.block.0);
    w.u32(i.index);
}

fn get_inst_id(r: &mut ByteReader) -> Result<InstId> {
    let block = BlockId(r.u32()?);
    let index = r.u32()?;
    Ok(InstId { block, index })
}

fn put_edge(w: &mut ByteWriter, e: &SegEdge) {
    put_value_id(w, e.src);
    put_value_id(w, e.dst);
    put_term_id(w, e.cond);
    w.u8(match e.kind {
        EdgeKind::Direct => 0,
        EdgeKind::Memory => 1,
        EdgeKind::Transform => 2,
    });
}

fn get_edge(r: &mut ByteReader, arena_len: usize, values: usize) -> Result<SegEdge> {
    let src = get_value_id(r, values)?;
    let dst = get_value_id(r, values)?;
    let cond = get_term_id(r, arena_len)?;
    let kind = match r.u8()? {
        0 => EdgeKind::Direct,
        1 => EdgeKind::Memory,
        2 => EdgeKind::Transform,
        _ => return Err(DecodeError("bad edge kind")),
    };
    Ok(SegEdge {
        src,
        dst,
        cond,
        kind,
    })
}

/// Writes a keyed section: the number of values of `0..values` with a
/// non-empty `row`, then each such value with its row, in ascending
/// order.
fn put_rows<'s, T: 's>(
    w: &mut ByteWriter,
    values: usize,
    row: impl Fn(ValueId) -> &'s [T],
    put: impl Fn(&mut ByteWriter, &T),
) {
    let keyed = || {
        (0..values as u32)
            .map(ValueId)
            .filter(|&v| !row(v).is_empty())
    };
    w.len(keyed().count());
    for v in keyed() {
        put_value_id(w, v);
        w.len(row(v).len());
        for item in row(v) {
            put(w, item);
        }
    }
}

/// Reads the key of the next entry of a keyed section: strictly above
/// `prev`, as the encoder writes them.
fn next_key(r: &mut ByteReader, prev: &mut Option<ValueId>, values: usize) -> Result<ValueId> {
    let k = get_value_id(r, values)?;
    if prev.is_some_and(|p| p >= k) {
        return Err(DecodeError("section keys not ascending"));
    }
    *prev = Some(k);
    Ok(k)
}

/// Reads one edge grouping; every edge of key `k` must have `k` as its
/// `end` (source or destination).
fn get_edges(
    r: &mut ByteReader,
    arena_len: usize,
    values: usize,
    end: impl Fn(&SegEdge) -> ValueId,
) -> Result<Vec<SegEdge>> {
    let n = r.len()?;
    let mut edges = Vec::new();
    let mut prev = None;
    for _ in 0..n {
        let k = next_key(r, &mut prev, values)?;
        let m = r.len()?;
        edges.reserve(m);
        for _ in 0..m {
            let e = get_edge(r, arena_len, values)?;
            if end(&e) != k {
                return Err(DecodeError("edge filed under the wrong vertex"));
            }
            edges.push(e);
        }
    }
    Ok(edges)
}

/// The callee name the body spells at `site`.
fn callee_name(f: &Function, site: InstId) -> &str {
    match f.inst(site) {
        Inst::Call { callee, .. } => callee,
        other => unreachable!("SEG call site {site} is {other:?}"),
    }
}

/// Encodes `artifact`, the persisted SEG of `f`, into the payload bytes
/// of a cache frame.
pub fn encode_seg_artifact(artifact: &SegArtifact, f: &Function) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_arena(&mut w, &artifact.arena);
    w.len(artifact.cached_values.len());
    for &v in &artifact.cached_values {
        put_value_id(&mut w, v);
    }
    let seg = &artifact.seg;
    let values = f.values.len();
    put_rows(&mut w, values, |v| seg.succs(v), put_edge);
    put_rows(&mut w, values, |v| seg.preds(v), put_edge);
    w.len(seg.block_count());
    for b in 0..seg.block_count() {
        let deps = seg.control_deps(BlockId(b as u32));
        w.len(deps.len());
        for &(v, pol) in deps {
            put_value_id(&mut w, v);
            w.bool(pol);
        }
    }
    put_rows(
        &mut w,
        values,
        |v| seg.arg_uses(v),
        |w, u| {
            put_inst_id(w, u.site);
            w.str(callee_name(f, u.site));
            w.u64(u.index as u64);
        },
    );
    w.len(seg.receivers().len());
    for (k, d) in seg.receivers() {
        put_value_id(&mut w, k);
        put_inst_id(&mut w, d.site);
        w.str(callee_name(f, d.site));
        w.u64(d.index as u64);
    }
    w.len(seg.ret_values().len());
    for &(k, idx) in seg.ret_values() {
        put_value_id(&mut w, k);
        w.u64(idx as u64);
    }
    w.len(seg.call_sites().count());
    for call in seg.call_sites() {
        put_inst_id(&mut w, call.site);
        w.str(callee_name(f, call.site));
        w.len(call.args.len());
        for &a in call.args {
            put_value_id(&mut w, a);
        }
        w.len(call.dsts.len());
        for &v in call.dsts {
            put_value_id(&mut w, v);
        }
    }
    w.u64(seg.edge_count() as u64);
    w.into_bytes()
}

/// Decodes the [`SegArtifact`] of function `fid` of `module` from
/// cache-frame payload bytes, validating every structural invariant the
/// warm path relies on: ids in range for the function, sections in key
/// order, every argument use and receiver backed by a call site.
pub fn decode_seg_artifact(bytes: &[u8], module: &Module, fid: FuncId) -> Result<SegArtifact> {
    let f = module
        .funcs
        .get(fid.0 as usize)
        .ok_or(DecodeError("no such function"))?;
    let values = f.values.len();
    let mut r = ByteReader::new(bytes);
    let arena = get_arena(&mut r)?;
    let arena_len = arena.len();
    let n = r.len()?;
    let mut cached_values = Vec::with_capacity(n);
    for _ in 0..n {
        cached_values.push(get_value_id(&mut r, values)?);
    }
    let mut parts = SegParts::new(values);
    parts.out = get_edges(&mut r, arena_len, values, |e| e.src)?;
    parts.inc = Some(get_edges(&mut r, arena_len, values, |e| e.dst)?);
    if r.len()? != f.blocks.len() {
        return Err(DecodeError("control deps do not cover the blocks"));
    }
    for _ in 0..f.blocks.len() {
        let m = r.len()?;
        let mut deps = Vec::with_capacity(m);
        for _ in 0..m {
            let v = get_value_id(&mut r, values)?;
            deps.push((v, r.bool()?));
        }
        parts.push_control(deps);
    }
    // The argument-use and receiver sections repeat what the call-site
    // section after them says; the tables are derived from the calls and
    // these are only checked against them.
    let mut arg_uses: Vec<(ValueId, InstId, usize)> = Vec::new();
    let n = r.len()?;
    let mut prev = None;
    for _ in 0..n {
        let k = next_key(&mut r, &mut prev, values)?;
        for _ in 0..r.len()? {
            let site = get_inst_id(&mut r)?;
            r.str_ref()?;
            arg_uses.push((k, site, r.u64()? as usize));
        }
    }
    let mut receivers: Vec<(ValueId, InstId, usize)> = Vec::new();
    let n = r.len()?;
    let mut prev = None;
    for _ in 0..n {
        let k = next_key(&mut r, &mut prev, values)?;
        let site = get_inst_id(&mut r)?;
        r.str_ref()?;
        receivers.push((k, site, r.u64()? as usize));
    }
    let n = r.len()?;
    let mut prev = None;
    for _ in 0..n {
        let k = next_key(&mut r, &mut prev, values)?;
        parts.rets.push((k, r.u64()? as usize));
    }
    let n = r.len()?;
    let mut prev: Option<InstId> = None;
    let (mut args, mut dsts) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let site = get_inst_id(&mut r)?;
        if prev.is_some_and(|p| p >= site) {
            return Err(DecodeError("call sites not ascending"));
        }
        prev = Some(site);
        let callee = module.func_by_name(r.str_ref()?);
        for list in [&mut args, &mut dsts] {
            list.clear();
            for _ in 0..r.len()? {
                list.push(get_value_id(&mut r, values)?);
            }
        }
        parts.push_call(CallSite {
            site,
            callee,
            args: &args,
            dsts: &dsts,
        });
    }
    let edge_count = r.u64()? as usize;
    if edge_count != parts.out.len() || parts.inc.as_ref().map(Vec::len) != Some(edge_count) {
        return Err(DecodeError("edge count mismatch"));
    }
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes in seg artifact"));
    }
    let seg = parts.seal();
    let value_ids = || (0..values as u32).map(ValueId);
    let derived_uses =
        value_ids().flat_map(|v| seg.arg_uses(v).iter().map(move |u| (v, u.site, u.index)));
    let derived_receivers = seg.receivers().map(|(v, d)| (v, d.site, d.index));
    if !derived_uses.eq(arg_uses) || !derived_receivers.eq(receivers) {
        return Err(DecodeError(
            "boundary sections disagree with the call sites",
        ));
    }
    Ok(SegArtifact {
        seg,
        arena,
        cached_values,
    })
}

/// Adapter implementing [`SegStore`] on top of the on-disk
/// [`CacheStore`], under the `"seg"` stage prefix, for the functions of
/// one module.
#[derive(Debug)]
pub struct SegCacheStore<'a> {
    store: &'a mut CacheStore,
    module: &'a Module,
}

impl<'a> SegCacheStore<'a> {
    /// Wraps `store` for the SEG stage of `module`.
    pub fn new(store: &'a mut CacheStore, module: &'a Module) -> Self {
        Self { store, module }
    }
}

impl SegStore for SegCacheStore<'_> {
    fn load(&mut self, key: u128, fid: FuncId) -> Option<SegArtifact> {
        let module = self.module;
        self.store.load_with("seg", key, |bytes| {
            decode_seg_artifact(bytes, module, fid).ok()
        })
    }

    fn store(&mut self, key: u128, fid: FuncId, artifact: &SegArtifact) {
        let payload = encode_seg_artifact(artifact, self.module.func(fid));
        self.store.store("seg", key, &payload);
    }
}

/// Encodes a verdict table into cache-frame payload bytes: entries
/// sorted by fingerprint (so encoding is deterministic), each a
/// fingerprint plus its verdict. A SAT verdict carries its canonical
/// boolean witness, sorted by canonical variable index.
pub fn encode_verdicts(table: &VerdictTable) -> Vec<u8> {
    let mut entries: Vec<(u128, &Verdict)> = table.iter().map(|(fp, v)| (*fp, v)).collect();
    entries.sort_unstable_by_key(|&(fp, _)| fp);
    let mut w = ByteWriter::new();
    w.len(entries.len());
    for (fp, v) in entries {
        w.u128(fp);
        match v {
            Verdict::Unsat => w.u8(0),
            Verdict::Sat(vals) => {
                w.u8(1);
                w.len(vals.len());
                for &(idx, value) in vals {
                    w.u32(idx);
                    w.bool(value);
                }
            }
        }
    }
    w.into_bytes()
}

/// Decodes a verdict table from cache-frame payload bytes.
pub fn decode_verdicts(bytes: &[u8]) -> Result<VerdictTable> {
    let mut r = ByteReader::new(bytes);
    let n = r.len()?;
    let mut table = VerdictTable::new();
    for _ in 0..n {
        let fp = r.u128()?;
        let verdict = match r.u8()? {
            0 => Verdict::Unsat,
            1 => {
                let m = r.len()?;
                let mut vals = Vec::with_capacity(m);
                for _ in 0..m {
                    let idx = r.u32()?;
                    let value = r.bool()?;
                    vals.push((idx, value));
                }
                Verdict::Sat(vals)
            }
            _ => return Err(DecodeError("bad verdict tag")),
        };
        if !table.insert(fp, verdict) {
            return Err(DecodeError("duplicate verdict fingerprint"));
        }
    }
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes in verdict table"));
    }
    Ok(table)
}

/// The cache key persisted verdicts live under: the solver-configuration
/// fingerprint (canonicalisation version + round budget), widened to the
/// store's `u128` key space. A configuration change moves the key, so
/// stale tables simply stop being found.
fn verdict_store_key() -> u128 {
    u128::from(verdict_config_fp(SmtSession::default().max_rounds))
}

/// Loads the persisted verdict table from `dir`, or an empty table when
/// there is none — or when the stored record is truncated, corrupt, or
/// written under a different solver configuration. Any failure degrades
/// to a cold (empty) table, never a wrong one: the frame checksum and
/// decoder reject damaged bytes, and the key covers the configuration.
///
/// Uses a private [`CacheStore`] instance on the same directory so
/// verdict traffic never shows up in the artifact cache's hit/miss
/// counters.
pub fn load_verdicts(dir: &Path) -> VerdictTable {
    let Ok(mut store) = CacheStore::open(dir) else {
        return VerdictTable::new();
    };
    store
        .load_with("verdicts", verdict_store_key(), |bytes| {
            decode_verdicts(bytes).ok()
        })
        .unwrap_or_default()
}

/// Persists `table` to `dir` (atomic temp-file + rename, checksummed
/// frame). Failures are swallowed — the next run just starts cold.
pub fn persist_verdicts(dir: &Path, table: &VerdictTable) {
    if let Ok(mut store) = CacheStore::open(dir) {
        store.store("verdicts", verdict_store_key(), &encode_verdicts(table));
    }
}

// ---------------------------------------------------------------------
// Interface summaries (the "vfsum" cache stage)
// ---------------------------------------------------------------------

/// Encodes one function's interface summary (see `vfsummary`): per-value
/// class flags plus the return- and parameter-index bitsets. The layout
/// is purely structural — no [`TermId`]s — so records are stable across
/// processes.
pub fn encode_func_summary(s: &crate::vfsummary::FuncSummary) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(s.len());
    for i in 0..s.len() {
        w.u8(s.flags[i]);
        w.u64(s.rets[i]);
        w.u64(s.params[i]);
    }
    w.into_bytes()
}

/// Decodes [`encode_func_summary`] bytes. Callers must additionally
/// validate the value count against the live function before trusting
/// the record.
pub fn decode_func_summary(bytes: &[u8]) -> Result<crate::vfsummary::FuncSummary> {
    let mut r = ByteReader::new(bytes);
    let n = r.len()?;
    let mut s = crate::vfsummary::FuncSummary {
        flags: Vec::with_capacity(n),
        rets: Vec::with_capacity(n),
        params: Vec::with_capacity(n),
    };
    for _ in 0..n {
        s.flags.push(r.u8()?);
        s.rets.push(r.u64()?);
        s.params.push(r.u64()?);
    }
    if !r.is_at_end() {
        return Err(DecodeError("trailing bytes in func summary"));
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::Seg;
    use pinpoint_pta::analyze_module;

    fn build_artifact(src: &str, func: &str) -> (Module, FuncId, SegArtifact) {
        let mut module = pinpoint_ir::compile(src).unwrap();
        let analysis = analyze_module(&mut module);
        let fid = module.func_by_name(func).unwrap();
        let mut arena = pinpoint_smt::TermArena::new();
        let mut symbols = pinpoint_pta::Symbols::new();
        let f = &module.funcs[fid.0 as usize];
        let seg = Seg::build(
            &mut arena,
            &mut symbols,
            &module,
            fid,
            f,
            &analysis.pta[fid.0 as usize],
        );
        let artifact = SegArtifact {
            seg: seg.without_memory_edges(),
            arena,
            cached_values: symbols.cached_values(fid),
        };
        (module, fid, artifact)
    }

    #[test]
    fn seg_artifact_roundtrips() {
        let (module, fid, art) = build_artifact(
            "fn f(p: int*, c: int) {
                let x: int = 1;
                if (c < 3) { *p = x; } else { *p = 2; }
                let y: int = *p;
                print(y);
                return;
             }",
            "f",
        );
        let bytes = encode_seg_artifact(&art, module.func(fid));
        let back = decode_seg_artifact(&bytes, &module, fid).unwrap();
        assert_eq!(back.cached_values, art.cached_values);
        assert_eq!(back.seg, art.seg);
        assert_eq!(back.arena.len(), art.arena.len());
        // Deterministic: re-encoding the decoded artifact is byte-identical.
        assert_eq!(encode_seg_artifact(&back, module.func(fid)), bytes);
    }

    #[test]
    fn truncated_artifact_is_rejected() {
        let (module, fid, art) = build_artifact("fn g(p: int*) { free(p); return; }", "g");
        let bytes = encode_seg_artifact(&art, module.func(fid));
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_seg_artifact(&bytes[..cut], &module, fid).is_err(),
                "cut={cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_seg_artifact(&extended, &module, fid).is_err());
    }

    #[test]
    fn artifact_of_another_body_is_rejected_not_spliced() {
        // A frame only makes sense against the body it was built from:
        // ids beyond the function's tables are an error, never an index.
        let src = "fn small(p: int*) { free(p); return; }
                   fn large(a: int*, b: int*) -> int* {
                       let c: int* = a;
                       let d: int* = b;
                       if (c == d) { free(c); }
                       let e: int* = d;
                       return e;
                   }";
        let (module, large, art) = build_artifact(src, "large");
        let bytes = encode_seg_artifact(&art, module.func(large));
        let small = module.func_by_name("small").unwrap();
        assert!(decode_seg_artifact(&bytes, &module, small).is_err());
        assert!(decode_seg_artifact(&bytes, &module, FuncId(9)).is_err());
    }

    /// FNV-1a-128 over every `(key, frame)` a cold build of `file`
    /// stores, in store order.
    fn stored_frames_digest(file: &str, seg_stage: bool) -> u128 {
        use pinpoint_ir::fingerprint::Fnv128;
        use pinpoint_pta::{analyze_module_par, ArtifactStore, FuncArtifact, PtaConfig};
        struct Digest<'m>(Fnv128, Option<&'m Module>);
        impl Digest<'_> {
            fn frame(&mut self, key: u128, bytes: &[u8]) {
                self.0.write_u128(key);
                self.0.write_u64(bytes.len() as u64);
                self.0.write(bytes);
            }
        }
        impl ArtifactStore for Digest<'_> {
            fn load(&mut self, _key: u128) -> Option<FuncArtifact> {
                None
            }
            fn store(&mut self, key: u128, artifact: &FuncArtifact) {
                self.frame(key, &pinpoint_cache::codec::encode_artifact(artifact));
            }
        }
        impl SegStore for Digest<'_> {
            fn load(&mut self, _key: u128, _fid: FuncId) -> Option<SegArtifact> {
                None
            }
            fn store(&mut self, key: u128, fid: FuncId, artifact: &SegArtifact) {
                let f = self.1.expect("seg stage runs over a module").func(fid);
                self.frame(key, &encode_seg_artifact(artifact, f));
            }
        }
        let path = format!("{}/../../tests/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
        let mut m = pinpoint_ir::compile(&std::fs::read_to_string(path).unwrap()).unwrap();
        let config = PtaConfig::default();
        let keys = pinpoint_cache::module_keys(&m, pinpoint_cache::config_fp(&config));
        let cg = pinpoint_ir::CallGraph::new(&m);
        let trace = &mut pinpoint_obs::TraceBuf::off();
        let mut pta_frames = Digest(Fnv128::new(), None);
        let store = Some((keys.as_slice(), &mut pta_frames as &mut dyn ArtifactStore));
        let mut a = analyze_module_par(&mut m, &config, 1, trace, &cg, store);
        if !seg_stage {
            return pta_frames.0.finish();
        }
        let mut seg_frames = Digest(Fnv128::new(), Some(&m));
        let store = Some((keys.as_slice(), &mut seg_frames as &mut dyn SegStore));
        crate::seg::ModuleSeg::build_par(&m, &mut a.arena, &mut a.symbols, &a.pta, 1, trace, store);
        seg_frames.0.finish()
    }

    #[test]
    fn corpus_frames_match_bytes_recorded_before_the_dense_tables() {
        // Recorded with the keyed-map `Seg` and `FuncPta::points_to` these
        // codecs encoded until then. A cache directory written by an older
        // binary stays warm, and one written now stays the same size,
        // only while these hold.
        for (file, pta, seg) in [
            (
                "callee_pair.pp",
                0xe6059dfe50ae24d88d50b30cdb6bb1f7_u128,
                0xebf2bc8beeb6b37469d00ddc0d308daf_u128,
            ),
            (
                "recursive_safe.pp",
                0x122ab2382b8575149d6e8cf2471bd34b,
                0x01f6ea66431173fc20fb7c13ee05b702,
            ),
        ] {
            let got = stored_frames_digest(file, false);
            assert_eq!(got, pta, "{file}: FuncArtifact bytes moved ({got:#034x})");
            let got = stored_frames_digest(file, true);
            assert_eq!(got, seg, "{file}: SegArtifact bytes moved ({got:#034x})");
        }
    }

    fn sample_verdicts() -> VerdictTable {
        let mut t = VerdictTable::new();
        t.insert(7, Verdict::Unsat);
        t.insert(3, Verdict::Sat(vec![(0, true), (2, false)]));
        t.insert(u128::MAX, Verdict::Sat(Vec::new()));
        t
    }

    #[test]
    fn verdict_table_roundtrips_deterministically() {
        let t = sample_verdicts();
        let bytes = encode_verdicts(&t);
        let back = decode_verdicts(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        for (fp, v) in t.iter() {
            assert_eq!(back.get(*fp), Some(v));
        }
        // Sorted-by-fingerprint encoding: re-encoding the decoded table
        // (whatever its hash-map iteration order) is byte-identical.
        assert_eq!(encode_verdicts(&back), bytes);
    }

    #[test]
    fn damaged_verdict_payloads_are_rejected() {
        let bytes = encode_verdicts(&sample_verdicts());
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_verdicts(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_verdicts(&extended).is_err(), "trailing bytes");
        let mut bad_tag = bytes.clone();
        bad_tag[8 + 16] = 9; // first entry's verdict tag
        assert!(decode_verdicts(&bad_tag).is_err(), "unknown verdict tag");
    }

    #[test]
    fn verdict_store_roundtrips_and_shrugs_off_corruption() {
        let dir =
            std::env::temp_dir().join(format!("pinpoint-verdict-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_verdicts(&dir).is_empty(), "no store yet");
        let t = sample_verdicts();
        persist_verdicts(&dir, &t);
        let back = load_verdicts(&dir);
        assert_eq!(back.len(), t.len());
        assert_eq!(back.get(7), Some(&Verdict::Unsat));
        // Flip one payload bit: the frame checksum rejects the record and
        // the table degrades to cold.
        let obj = std::fs::read_dir(dir.join("objects"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("verdicts-"))
            })
            .unwrap();
        let mut raw = std::fs::read(&obj).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        std::fs::write(&obj, &raw).unwrap();
        assert!(load_verdicts(&dir).is_empty(), "corrupt record reads cold");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
