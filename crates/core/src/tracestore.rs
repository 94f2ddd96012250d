//! Shared reference-trace cache for the figure sweeps.
//!
//! Every figure is a cross-product of schemes over a handful of
//! workloads, and the post-cache reference stream of a cell depends
//! only on `(workload, seed, refs_per_core)` — never on the scheme (see
//! [`sdpcm_trace::reftrace`]). A [`TraceStore`] therefore captures each
//! distinct stream once and hands the same `Arc<RefTrace>` to every
//! cell that wants it, at any sweep worker count:
//!
//! * **First-toucher capture.** Each key maps to an
//!   `Arc<OnceLock<…>>`; the map mutex is held only to fetch the slot,
//!   then the first worker to reach `get_or_init` captures while any
//!   other worker wanting the same workload blocks on the lock — never
//!   capturing twice, never blocking workers on *other* workloads.
//! * **Optional on-disk cache.** When constructed [`TraceStore::from_env`]
//!   honours the `SDPCM_TRACE_DIR` environment variable: traces are
//!   stored as `<content-key>.sdpt` (the key hashes workload, seed,
//!   quota and the wire schema version), written atomically via a
//!   temporary file + rename. Corrupted, truncated or stale files are
//!   detected by the wire layer's digest/schema checks and silently
//!   regenerated.
//! * **Compact traces.** A trace holds each core's references as one
//!   var-int encoded byte stream (schema v2, see
//!   [`sdpcm_trace::TRACE_SCHEMA_VERSION`]): about 35 bytes per ref on
//!   write-heavy mcf, against 88 for a decoded record. The file carries
//!   the same bytes, so a load is one validated copy; a file from
//!   another schema version (v1's fixed-width records included) fails
//!   as `WrongSchema` and is recaptured and rewritten.
//! * **Parallel capture.** A miss captures through
//!   [`RefTrace::capture`], which drains the eight per-core streams on
//!   up to `available_parallelism` threads of its own; the bytes are
//!   the same at any thread count, so the store's output does not
//!   depend on it.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use sdpcm_engine::hash::FxHashMap;
use sdpcm_trace::{RefTrace, TraceMeta, Workload};

/// Environment variable naming the on-disk trace cache directory.
pub const TRACE_DIR_ENV: &str = "SDPCM_TRACE_DIR";

/// A process-wide cache of captured [`RefTrace`]s, shared across sweep
/// workers.
#[derive(Debug, Default)]
pub struct TraceStore {
    dir: Option<PathBuf>,
    slots: Mutex<FxHashMap<u64, Arc<OnceLock<Arc<RefTrace>>>>>,
}

impl TraceStore {
    /// An in-memory store (no disk cache).
    #[must_use]
    pub fn in_memory() -> TraceStore {
        TraceStore::default()
    }

    /// A store backed by an on-disk cache directory.
    #[must_use]
    pub fn with_dir(dir: PathBuf) -> TraceStore {
        TraceStore {
            dir: Some(dir),
            slots: Mutex::default(),
        }
    }

    /// A store honouring the `SDPCM_TRACE_DIR` environment variable
    /// (in-memory when unset or empty).
    #[must_use]
    pub fn from_env() -> TraceStore {
        match std::env::var(TRACE_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => TraceStore::with_dir(PathBuf::from(dir)),
            _ => TraceStore::in_memory(),
        }
    }

    /// The trace for `(workload, seed, refs_per_core)`: loaded from the
    /// disk cache when available and valid, captured (once) otherwise.
    /// Concurrent callers for the same key share one capture; callers
    /// for different keys never block each other.
    #[must_use]
    pub fn get(&self, workload: &Workload, seed: u64, refs_per_core: u64) -> Arc<RefTrace> {
        let meta = TraceMeta::of(workload, seed, refs_per_core);
        let key = meta.content_key();
        let slot = {
            let mut slots = self.slots.lock().expect("trace store poisoned");
            slots.entry(key).or_default().clone()
        };
        slot.get_or_init(|| self.load_or_capture(workload, &meta, key))
            .clone()
    }

    fn load_or_capture(&self, workload: &Workload, meta: &TraceMeta, key: u64) -> Arc<RefTrace> {
        if let Some(trace) = self.try_load(meta, key) {
            return Arc::new(trace);
        }
        let trace = RefTrace::capture(workload, meta.seed, meta.refs_per_core);
        self.try_store(&trace, key);
        Arc::new(trace)
    }

    fn cache_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.sdpt")))
    }

    /// Loads and validates a cached trace; any failure (missing file,
    /// digest mismatch, wrong schema, or a content-hash collision where
    /// the stored meta differs) means "capture instead".
    fn try_load(&self, meta: &TraceMeta, key: u64) -> Option<RefTrace> {
        let path = self.cache_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        let trace = RefTrace::from_bytes(&bytes).ok()?;
        (trace.meta == *meta).then_some(trace)
    }

    /// Best-effort atomic write: the cache is an accelerator, so IO
    /// errors are swallowed (the next run simply recaptures).
    fn try_store(&self, trace: &RefTrace, key: u64) {
        let Some(path) = self.cache_path(key) else {
            return;
        };
        let Some(dir) = path.parent() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!("{key:016x}.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, trace.to_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpcm_trace::BenchKind;

    fn tiny_workload() -> Workload {
        Workload::homogeneous(BenchKind::Wrf)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sdpcm-tracestore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn same_key_shares_one_capture() {
        let store = TraceStore::in_memory();
        let w = tiny_workload();
        let a = store.get(&w, 1, 50);
        let b = store.get(&w, 1, 50);
        assert!(Arc::ptr_eq(&a, &b), "second get must reuse the capture");
        let c = store.get(&w, 2, 50);
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different trace");
    }

    #[test]
    fn concurrent_getters_agree() {
        let store = TraceStore::in_memory();
        let w = tiny_workload();
        let traces: Vec<Arc<RefTrace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| store.get(&w, 3, 40))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }

    #[test]
    fn disk_cache_round_trips() {
        let dir = tmp_dir("roundtrip");
        let w = tiny_workload();
        let first = TraceStore::with_dir(dir.clone()).get(&w, 7, 60);
        // A fresh store must load the same bytes from disk.
        let second = TraceStore::with_dir(dir.clone()).get(&w, 7, 60);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*first, *second);
        assert_eq!(first.to_bytes(), second.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_entry_is_regenerated() {
        let dir = tmp_dir("corrupt");
        let w = tiny_workload();
        let reference = TraceStore::in_memory().get(&w, 9, 60);
        let key = reference.meta.content_key();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{key:016x}.sdpt"));

        // Corrupted payload: digest check rejects it, capture replaces it.
        let mut bytes = reference.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        std::fs::write(&path, &bytes).unwrap();
        let got = TraceStore::with_dir(dir.clone()).get(&w, 9, 60);
        assert_eq!(*got, *reference);
        assert_eq!(std::fs::read(&path).unwrap(), reference.to_bytes());

        // Stale schema version: rejected and regenerated too.
        let mut stale = reference.to_bytes();
        stale[4] ^= 0xff; // schema u32 follows the 4-byte magic
        let tail = stale.len() - 8;
        let digest = sdpcm_trace::wire::fnv1a(&stale[..tail]);
        stale[tail..].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(&path, &stale).unwrap();
        let got = TraceStore::with_dir(dir.clone()).get(&w, 9, 60);
        assert_eq!(*got, *reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_file_under_the_key_is_recaptured_and_rewritten() {
        let dir = tmp_dir("v1");
        let w = tiny_workload();
        let reference = TraceStore::in_memory().get(&w, 11, 20);
        let key = reference.meta.content_key();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{key:016x}.sdpt"));
        // A v1 file with the same meta: fixed-width records, intact digest.
        let mut v1 = sdpcm_trace::wire::Writer::new();
        v1.put_u32(u32::from_le_bytes(*b"SDPT"));
        v1.put_u32(1);
        v1.put_str(&reference.meta.workload);
        v1.put_u64(11);
        v1.put_u64(20);
        v1.put_u32(8);
        for core in 0..8 {
            v1.put_u64(20);
            for r in reference.refs(core) {
                v1.put_u64(r.gap);
                v1.put_u64(r.vpage);
                v1.put_u8(r.slot);
                v1.put_u8(u8::from(r.is_write));
                if r.is_write {
                    r.mask.iter().for_each(|&word| v1.put_u64(word));
                }
            }
        }
        let v1 = v1.finish();
        assert_eq!(
            RefTrace::from_bytes(&v1),
            Err(sdpcm_trace::wire::WireError::WrongSchema)
        );
        std::fs::write(&path, &v1).unwrap();
        let got = TraceStore::with_dir(dir.clone()).get(&w, 11, 20);
        assert_eq!(*got, *reference);
        assert_eq!(std::fs::read(&path).unwrap(), reference.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
