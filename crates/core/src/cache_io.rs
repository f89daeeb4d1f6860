//! Binary codec for the persisted verdict table, and its load/persist
//! pair over the on-disk [`pinpoint_cache::CacheStore`] — the one thing
//! `--cache-dir` keeps between runs.
//!
//! The layout follows [`pinpoint_cache::codec`]: little-endian
//! fixed-width scalars, length-prefixed sequences, entries in ascending
//! fingerprint order so encoding is deterministic.

use pinpoint_cache::{ByteReader, ByteWriter, CacheStore, DecodeError};
use pinpoint_smt::{verdict_config_fp, SmtSession, Verdict, VerdictTable};

type Result<T> = std::result::Result<T, DecodeError>;

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

/// Loads the persisted verdict table from `store`, or an empty table
/// when there is none — or when the stored record is truncated, corrupt,
/// or written under a different solver configuration. Any failure
/// degrades to a cold (empty) table, never a wrong one: the frame
/// checksum and decoder reject damaged bytes, and the key covers the
/// configuration.
pub fn load_verdicts(store: &mut CacheStore) -> VerdictTable {
    store
        .load_with("verdicts", verdict_store_key(), |bytes| {
            decode_verdicts(bytes).ok()
        })
        .unwrap_or_default()
}

/// Persists `table` to `store` (atomic temp-file + rename, checksummed
/// frame). Failures are swallowed — the next run just starts cold.
pub fn persist_verdicts(store: &mut CacheStore, table: &VerdictTable) {
    store.store("verdicts", verdict_store_key(), &encode_verdicts(table));
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut store = CacheStore::open(&dir).unwrap();
        assert!(load_verdicts(&mut store).is_empty(), "nothing stored yet");
        let t = sample_verdicts();
        persist_verdicts(&mut store, &t);
        let back = load_verdicts(&mut store);
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
        assert!(
            load_verdicts(&mut store).is_empty(),
            "corrupt record reads cold"
        );
        let stats = store.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.invalidated),
            (1, 2, 1),
            "{stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
