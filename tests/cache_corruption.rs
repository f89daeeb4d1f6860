//! Crash-safety tests for the persistent verdict store: every corrupted
//! or torn on-disk state must degrade to a correct cold run — identical
//! reports, bumped `invalidated`/`misses` counters, never a panic or a
//! wrong result.

use pinpoint::cache::{CacheStore, HEADER_LEN};
use pinpoint::{Analysis, AnalysisBuilder};
use std::path::{Path, PathBuf};

const SRC: &str = "fn release(x: int*) { free(x); return; }
fn main(c: bool) {
    let p: int* = malloc();
    if (c) { release(p); }
    let x: int = *p;
    print(x);
    return;
}";

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pinpoint-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(cache: Option<&Path>) -> Analysis {
    let mut b = AnalysisBuilder::new().threads(1);
    if let Some(dir) = cache {
        b = b.cache_dir(dir);
    }
    b.build_source(SRC).unwrap()
}

fn render(analysis: &Analysis) -> String {
    let mut out: Vec<String> = analysis
        .check_all()
        .iter()
        .map(ToString::to_string)
        .collect();
    out.push(format!("terms={}", analysis.arena.len()));
    out.join("\n")
}

/// Checks the program with the store at `dir`, which leaves the verdict
/// table there.
fn prime(dir: &Path) {
    render(&build(Some(dir)));
}

/// The one object a primed store holds.
fn verdict_object(dir: &Path) -> PathBuf {
    let files: Vec<PathBuf> = std::fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    let [file] = files.as_slice() else {
        panic!("a primed store holds exactly the verdict table: {files:?}");
    };
    let name = file.file_name().unwrap().to_string_lossy();
    assert!(name.starts_with("verdicts-"), "{name}");
    file.clone()
}

/// Primes a store, corrupts it via `mutate`, and asserts the warm run
/// still matches the cold baseline while counting invalidations.
fn corruption_degrades_to_cold(tag: &str, mutate: impl Fn(&Path)) -> pinpoint::cache::CacheStats {
    let dir = temp_cache(tag);
    prime(&dir);
    mutate(&verdict_object(&dir));
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(
        render(&warm),
        render(&cold),
        "{tag}: reports must match cold run"
    );
    let stats = warm.stats.cache;
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

#[test]
fn truncated_files_fall_back_cold() {
    let stats = corruption_degrades_to_cold("truncate", |f| {
        let bytes = std::fs::read(f).unwrap();
        // Cut inside the payload (checksum catches it) — and for tiny
        // files, inside the header (length check catches it).
        let keep = (bytes.len() * 2 / 3).min(bytes.len().saturating_sub(1));
        std::fs::write(f, &bytes[..keep]).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn header_shorter_than_frame_falls_back_cold() {
    let stats = corruption_degrades_to_cold("tiny", |f| {
        std::fs::write(f, [0xAAu8; HEADER_LEN - 1]).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn flipped_version_byte_falls_back_cold() {
    let stats = corruption_degrades_to_cold("version", |f| {
        let mut bytes = std::fs::read(f).unwrap();
        bytes[4] ^= 0xFF; // first byte of the little-endian format version
        std::fs::write(f, &bytes).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn flipped_key_echo_falls_back_cold() {
    let stats = corruption_degrades_to_cold("keyecho", |f| {
        let mut bytes = std::fs::read(f).unwrap();
        bytes[8] ^= 0x01; // first byte of the key echo
        std::fs::write(f, &bytes).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn flipped_payload_byte_falls_back_cold() {
    let stats = corruption_degrades_to_cold("payload", |f| {
        let mut bytes = std::fs::read(f).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(f, &bytes).unwrap();
    });
    assert!(stats.invalidated > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}

/// A crash mid-write leaves a `.tmp-` file but never a partially
/// renamed object: the warm run ignores the debris and hits normally,
/// and `verify` reports the store healthy.
#[test]
fn interrupted_write_debris_is_ignored() {
    let dir = temp_cache("torn");
    prime(&dir);
    std::fs::write(dir.join("objects/.tmp-deadbeef-42"), b"partial write").unwrap();
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.stats.cache.misses, 0, "{:?}", warm.stats.cache);
    assert!(warm.stats.cache.hits > 0);
    let info = CacheStore::info(&dir).unwrap();
    assert_eq!(info.temp_files, 1);
    let outcome = CacheStore::verify(&dir).unwrap();
    assert!(outcome.corrupt.is_empty(), "{outcome:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `verify` pinpoints exactly the corrupted entries.
#[test]
fn verify_reports_corrupt_entries() {
    let dir = temp_cache("verify");
    prime(&dir);
    assert_eq!(CacheStore::verify(&dir).unwrap().ok, 1);
    let victim = verdict_object(&dir);
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();
    let outcome = CacheStore::verify(&dir).unwrap();
    assert_eq!(outcome.corrupt, vec![victim]);
    assert_eq!(outcome.ok, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table stored under another key — what a build with a different
/// solver configuration leaves behind — is never looked at: the probe is
/// a clean miss (no invalidation — the entry is valid, just for another
/// key), and the run equals cold.
#[test]
fn stale_fingerprints_miss_cleanly() {
    let dir = temp_cache("stale");
    prime(&dir);
    let object = verdict_object(&dir);
    let stale = object.with_file_name(format!("verdicts-{:032x}.bin", 0xDEAD_BEEF_u128));
    std::fs::rename(&object, &stale).unwrap();
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.stats.cache.hits, 0, "{:?}", warm.stats.cache);
    assert_eq!(warm.stats.cache.invalidated, 0, "{:?}", warm.stats.cache);
    assert!(warm.stats.cache.misses > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable cache directory degrades the whole build to cold
/// without failing it.
#[test]
fn unopenable_cache_dir_degrades_to_cold() {
    let dir = temp_cache("unopenable");
    std::fs::create_dir_all(&dir).unwrap();
    // A *file* where the objects directory should be makes open() fail.
    std::fs::write(dir.join("objects"), b"not a directory").unwrap();
    let warm = build(Some(&dir));
    let cold = build(None);
    assert_eq!(render(&warm), render(&cold));
    assert_eq!(warm.stats.cache, Default::default());
    let _ = std::fs::remove_dir_all(&dir);
}
