//! The on-disk object store.
//!
//! Layout: `<dir>/objects/<stage>-<key as 032x hex>.bin`, one file per
//! object. Every file carries a header — magic, format version, an
//! echo of the key it was stored under, and an FNV-1a checksum of the
//! payload — so any torn, truncated, stale, or foreign file is detected
//! on load and counted as an invalidation (and a miss), never trusted.
//!
//! Writes go to a `.tmp-*` file of their own — named by process *and* by
//! a per-process write counter, since the sessions of one server persist
//! under one key — and are moved into place with an atomic rename: a
//! crashed writer leaves only an ignored temp file, and concurrent
//! writers of the same key each install a whole frame, the last rename
//! winning. Store failures are swallowed — the worst outcome of any
//! filesystem trouble is a cold run.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Version of the on-disk format. Bump on any codec or key-derivation
/// change; it participates both in every file header and in every
/// function key (via [`crate::keys::config_fp`]).
pub const FORMAT_VERSION: u32 = 1;

/// Distinguishes the temp files of one process's writers; it publishes
/// nothing, so `Relaxed` is enough.
static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);

const MAGIC: [u8; 4] = *b"PPCF";
/// Size in bytes of a cache frame's header: magic, format version,
/// key echo, payload checksum.
pub const HEADER_LEN: usize = 4 + 4 + 16 + 8;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Counters describing a run's cache traffic, exported as the
/// `cache.*` metrics family.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Objects loaded and accepted.
    pub hits: u64,
    /// Keys with no usable stored object.
    pub misses: u64,
    /// Stored objects rejected (bad magic/version/key/checksum or
    /// undecodable payload); each also counts as a miss.
    pub invalidated: u64,
    /// Wall-clock nanoseconds spent probing and loading.
    pub load_ns: u64,
    /// Wall-clock nanoseconds spent encoding headers and writing.
    pub store_ns: u64,
}

/// Summary returned by [`CacheStore::info`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// Number of stored objects.
    pub entries: u64,
    /// Total bytes across stored objects.
    pub bytes: u64,
    /// Leftover temp files from interrupted writes.
    pub temp_files: u64,
}

/// Outcome of [`CacheStore::verify`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Objects whose header and checksum verified.
    pub ok: u64,
    /// Paths of objects that failed verification.
    pub corrupt: Vec<PathBuf>,
}

/// A directory-backed object store with hit/miss accounting.
#[derive(Debug)]
pub struct CacheStore {
    objects: PathBuf,
    stats: CacheStats,
}

impl CacheStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the objects directory cannot
    /// be created.
    pub fn open(dir: &Path) -> io::Result<CacheStore> {
        let objects = dir.join("objects");
        fs::create_dir_all(&objects)?;
        Ok(CacheStore {
            objects,
            stats: CacheStats::default(),
        })
    }

    /// The counters accumulated by this handle.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn object_path(&self, stage: &str, key: u128) -> PathBuf {
        self.objects.join(format!("{stage}-{key:032x}.bin"))
    }

    /// Loads the object stored under `(stage, key)` and decodes it with
    /// `decode`. Classifies the outcome into the stats counters: absent
    /// file → miss; present but failing any header, checksum, or decode
    /// check → invalidated *and* miss; success → hit.
    pub fn load_with<T>(
        &mut self,
        stage: &str,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let start = Instant::now();
        let out = self.load_inner(stage, key, decode);
        self.stats.load_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn load_inner<T>(
        &mut self,
        stage: &str,
        key: u128,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let path = self.object_path(stage, key);
        let mut bytes = Vec::new();
        match fs::File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes)) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses += 1;
                return None;
            }
            Err(_) => {
                self.stats.invalidated += 1;
                self.stats.misses += 1;
                return None;
            }
        }
        match Self::check_frame(&bytes, key).and_then(decode) {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.invalidated += 1;
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Validates a stored frame's magic, version, key echo, and payload
    /// checksum, returning the payload on success.
    fn check_frame(bytes: &[u8], key: u128) -> Option<&[u8]> {
        if bytes.len() < HEADER_LEN {
            return None;
        }
        if bytes[0..4] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return None;
        }
        let echo = u128::from_le_bytes(bytes[8..24].try_into().unwrap());
        if echo != key {
            return None;
        }
        let checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let payload = &bytes[HEADER_LEN..];
        if checksum != fnv64(payload) {
            return None;
        }
        Some(payload)
    }

    /// Persists `payload` under `(stage, key)` atomically (temp file +
    /// rename). Failures are swallowed: the next run just misses.
    pub fn store(&mut self, stage: &str, key: u128, payload: &[u8]) {
        let start = Instant::now();
        let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame.extend_from_slice(&key.to_le_bytes());
        frame.extend_from_slice(&fnv64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let tmp = self.objects.join(format!(
            ".tmp-{key:032x}-{}-{}",
            std::process::id(),
            NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
        ));
        let final_path = self.object_path(stage, key);
        let result = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&frame))
            .and_then(|_| fs::rename(&tmp, &final_path));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        self.stats.store_ns += start.elapsed().as_nanos() as u64;
    }

    /// Counts the store's objects and bytes without touching counters.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory is unreadable.
    /// A store that was never created reports zero entries.
    pub fn info(dir: &Path) -> io::Result<CacheInfo> {
        let mut out = CacheInfo::default();
        for entry in Self::read_objects(dir)? {
            let (path, meta) = entry?;
            if Self::is_temp(&path) {
                out.temp_files += 1;
            } else {
                out.entries += 1;
                out.bytes += meta.len();
            }
        }
        Ok(out)
    }

    /// Removes every stored object and temp file, returning how many
    /// files were deleted.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn clear(dir: &Path) -> io::Result<u64> {
        let mut removed = 0;
        for entry in Self::read_objects(dir)? {
            let (path, _) = entry?;
            fs::remove_file(&path)?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Checks every stored object's header and checksum (temp files are
    /// skipped — they are never read by loads).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory is unreadable.
    pub fn verify(dir: &Path) -> io::Result<VerifyOutcome> {
        let mut out = VerifyOutcome::default();
        let mut paths = Vec::new();
        for entry in Self::read_objects(dir)? {
            let (path, _) = entry?;
            if !Self::is_temp(&path) {
                paths.push(path);
            }
        }
        paths.sort();
        for path in paths {
            let bytes = fs::read(&path)?;
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let key = name
                .rsplit('-')
                .next()
                .and_then(|tail| tail.strip_suffix(".bin"))
                .and_then(|hex| u128::from_str_radix(hex, 16).ok());
            let valid = match key {
                Some(k) => Self::check_frame(&bytes, k).is_some(),
                None => false,
            };
            if valid {
                out.ok += 1;
            } else {
                out.corrupt.push(path);
            }
        }
        Ok(out)
    }

    fn is_temp(path: &Path) -> bool {
        path.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(".tmp-"))
    }

    /// Iterates `<dir>/objects`, treating a missing directory as empty.
    #[allow(clippy::type_complexity)]
    fn read_objects(
        dir: &Path,
    ) -> io::Result<Box<dyn Iterator<Item = io::Result<(PathBuf, fs::Metadata)>>>> {
        let objects = dir.join("objects");
        match fs::read_dir(&objects) {
            Ok(rd) => Ok(Box::new(rd.map(|e| {
                let e = e?;
                let meta = e.metadata()?;
                Ok((e.path(), meta))
            }))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Box::new(std::iter::empty())),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pinpoint-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_hit_after_store() {
        let dir = tmp_dir("roundtrip");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("verdicts", 42, b"payload");
        let got = store.load_with("verdicts", 42, |b| Some(b.to_vec()));
        assert_eq!(got.as_deref(), Some(&b"payload"[..]));
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_key_is_a_plain_miss() {
        let dir = tmp_dir("miss");
        let mut store = CacheStore::open(&dir).unwrap();
        assert!(store
            .load_with("verdicts", 7, |b| Some(b.to_vec()))
            .is_none());
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().invalidated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frames_invalidate() {
        let dir = tmp_dir("corrupt");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("verdicts", 1, b"data");
        // Flip a payload byte: checksum fails.
        let path = dir
            .join("objects")
            .join(format!("verdicts-{:032x}.bin", 1u128));
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store
            .load_with("verdicts", 1, |b| Some(b.to_vec()))
            .is_none());
        assert_eq!(store.stats().invalidated, 1);
        assert_eq!(store.stats().misses, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintenance_info_clear_verify() {
        let dir = tmp_dir("maint");
        let mut store = CacheStore::open(&dir).unwrap();
        store.store("verdicts", 1, b"one");
        store.store("verdicts", 2, b"two");
        fs::write(dir.join("objects").join(".tmp-dead-1"), b"partial").unwrap();
        let info = CacheStore::info(&dir).unwrap();
        assert_eq!(info.entries, 2);
        assert_eq!(info.temp_files, 1);
        let v = CacheStore::verify(&dir).unwrap();
        assert_eq!(v.ok, 2);
        assert!(v.corrupt.is_empty());
        let removed = CacheStore::clear(&dir).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(CacheStore::info(&dir).unwrap().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_key_install_whole_frames() {
        // The sessions of one server: same process, same key, each with
        // its own table. Whoever renames last wins; nobody's frame is
        // ever a mixture of two.
        const WRITERS: usize = 4;
        let dir = tmp_dir("same-key");
        let payloads: Vec<Vec<u8>> = (0..WRITERS)
            .map(|t| vec![t as u8; 1 << (2 * t + 4)])
            .collect();
        for round in 0..100 {
            let barrier = std::sync::Barrier::new(WRITERS);
            std::thread::scope(|s| {
                for payload in &payloads {
                    let (dir, barrier) = (&dir, &barrier);
                    s.spawn(move || {
                        let mut store = CacheStore::open(dir).unwrap();
                        barrier.wait();
                        store.store("verdicts", 7, payload);
                    });
                }
            });
            let mut store = CacheStore::open(&dir).unwrap();
            let got = store.load_with("verdicts", 7, |b| Some(b.to_vec()));
            assert_eq!(store.stats().invalidated, 0, "round {round}: torn frame");
            let got = got.expect("someone's frame is in place");
            assert!(payloads.contains(&got), "round {round}: nobody wrote this");
        }
        let info = CacheStore::info(&dir).unwrap();
        assert_eq!((info.entries, info.temp_files), (1, 0), "no debris");
        let _ = fs::remove_dir_all(&dir);
    }
}
