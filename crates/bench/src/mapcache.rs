//! Content-keyed mapping / II-table cache.
//!
//! Compiling a kernel — baseline mapping, constrained mapping, and the
//! PageMaster transform at every halving-chain budget — is the expensive
//! step of both figure sweeps, and the grids revisit identical
//! `(kernel, fabric, options)` configurations constantly. This cache
//! computes each [`KernelProfile`] **once per process** and optionally
//! persists it to `target/mapcache/*.json` so later runs skip the mapper
//! entirely.
//!
//! ## Keying and invalidation
//!
//! An entry is keyed by the *content* of everything that determines the
//! result:
//!
//! * the kernel's structural fingerprint ([`cgra_dfg::Dfg::fingerprint`]
//!   — name, ops, edges; a kernel edit changes the key),
//! * the fabric's structural fingerprint
//!   ([`cgra_arch::CgraConfig::fingerprint`] — mesh, page shape, PE
//!   capability, rotating RF and memory model; any change is a new key),
//! * the mapper option fingerprint ([`cgra_mapper::MapOptions::fingerprint`]
//!   — any knob change, including the search seed, changes the key),
//! * a format version ([`SCHEMA`]), bumped whenever the mapper or
//!   transform *algorithms* change meaning — the one hazard content
//!   keys cannot see. Bump it in the same commit as such a change.
//!
//! Stale, corrupt, truncated or unreadable disk entries are never
//! errors: the profile recomputes and the entry is rewritten. Delete
//! `target/mapcache/` (or pass `--no-cache`) to force a cold run.
//!
//! ## Concurrency
//!
//! Reads go through an `RwLock`ed map of per-key `OnceLock` cells:
//! many sweep workers can hit the cache concurrently, and when several
//! miss the same key at once exactly one computes while the rest block
//! on the cell — no duplicated mapper work, no torn disk writes (files
//! are written to a temp name and renamed into place).

use crate::engine::EngineConfig;
use crate::jsonio::Json;
use cgra_arch::CgraConfig;
use cgra_dfg::Dfg;
use cgra_mapper::MapOptions;
use cgra_obs::Tracer;
use cgra_sim::{KernelLibrary, KernelProfile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// On-disk format version. Bump when mapper/transform semantics change
/// in ways a content key cannot capture; old entries are then ignored.
pub const SCHEMA: u32 = 2;

/// Cache-hit counters (all monotone; read with [`MapCache::stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Served from memory.
    pub mem_hits: u64,
    /// Served from a valid disk entry.
    pub disk_hits: u64,
    /// Computed from scratch.
    pub misses: u64,
    /// Disk entries that existed but were rejected (corrupt, stale
    /// schema, key mismatch) and recomputed.
    pub disk_rejects: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    kernel: String,
    dfg_fp: u64,
    cgra_fp: u64,
    opts_fp: u64,
    /// Pages of the fabric — implied by `cgra_fp`, kept to name the file
    /// and to re-audit a loaded entry.
    num_pages: u16,
}

impl Key {
    /// Stable digest used in the cache file name.
    fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.kernel.as_bytes());
        eat(&self.dfg_fp.to_le_bytes());
        eat(&self.cgra_fp.to_le_bytes());
        eat(&self.opts_fp.to_le_bytes());
        h
    }

    fn file_name(&self) -> String {
        format!(
            "profile-{}-{}pages-{:016x}.json",
            self.kernel,
            self.num_pages,
            self.digest()
        )
    }
}

type Cell = Arc<OnceLock<Arc<KernelProfile>>>;
type LibCell = Arc<OnceLock<Arc<KernelLibrary>>>;

/// Process-wide cache of compiled kernel profiles and libraries.
pub struct MapCache {
    profiles: RwLock<HashMap<Key, Cell>>,
    /// Keyed by `(CgraConfig::fingerprint, MapOptions::fingerprint)`.
    libraries: RwLock<HashMap<(u64, u64), LibCell>>,
    /// `None` = memory only; `Some(dir)` = also read/write JSON entries.
    disk_dir: Option<PathBuf>,
    /// When false, every lookup recomputes and nothing is stored — the
    /// `--no-cache` mode, and the uncached arm of the determinism test.
    enabled: bool,
    /// Receives mapper/transform events for every *compilation* (memory
    /// and disk hits emit nothing — the search they would describe never
    /// ran). Each profile's events are forwarded as one contiguous batch,
    /// so traces stay segment-ordered even under concurrent misses.
    tracer: Tracer,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    disk_rejects: AtomicU64,
}

impl std::fmt::Debug for MapCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapCache")
            .field("disk_dir", &self.disk_dir)
            .field("enabled", &self.enabled)
            .field("stats", &self.stats())
            .finish()
    }
}

impl MapCache {
    fn with(disk_dir: Option<PathBuf>, enabled: bool) -> Self {
        MapCache {
            profiles: RwLock::new(HashMap::new()),
            libraries: RwLock::new(HashMap::new()),
            disk_dir,
            enabled,
            tracer: Tracer::off(),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_rejects: AtomicU64::new(0),
        }
    }

    /// Memory-only cache (the default for tests and library use).
    pub fn in_memory() -> Self {
        Self::with(None, true)
    }

    /// Cache persisted under `dir` (created on first write).
    pub fn persistent_at(dir: impl Into<PathBuf>) -> Self {
        Self::with(Some(dir.into()), true)
    }

    /// Cache persisted at the default location: `$CGRA_MAPCACHE_DIR` if
    /// set, else `target/mapcache` relative to the working directory.
    pub fn persistent() -> Self {
        let dir = std::env::var_os("CGRA_MAPCACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/mapcache"));
        Self::persistent_at(dir)
    }

    /// A cache that never caches: every call recomputes (`--no-cache`).
    pub fn disabled() -> Self {
        Self::with(None, false)
    }

    /// The cache a sweep binary runs with: [`persistent`](Self::persistent)
    /// normally, [`disabled`](Self::disabled) when the user passed
    /// `--no-cache`.
    pub fn for_config(cfg: EngineConfig) -> Self {
        if cfg.use_cache {
            Self::persistent()
        } else {
            Self::disabled()
        }
    }

    /// Emit mapper/transform events for every compilation to `tracer`.
    /// Cache hits (memory or disk) emit nothing: the events describe a
    /// search, and a hit means no search ran.
    pub fn traced(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
        }
    }

    /// The compiled profile for `dfg` on `cgra` under `opts` — computed
    /// at most once per process per key.
    ///
    /// # Panics
    /// Panics if the kernel fails to compile (the benchmark suite is
    /// expected to compile on every grid fabric).
    pub fn profile(&self, dfg: &Dfg, cgra: &CgraConfig, opts: &MapOptions) -> Arc<KernelProfile> {
        let key = Key {
            kernel: dfg.name.clone(),
            dfg_fp: dfg.fingerprint(),
            cgra_fp: cgra.fingerprint(),
            opts_fp: opts.fingerprint(),
            num_pages: cgra.layout().num_pages() as u16,
        };
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compile(dfg, cgra, opts, &self.tracer));
        }
        let cell = self.cell(&key);
        if let Some(hit) = cell.get() {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        cell.get_or_init(|| {
            if let Some(profile) = self.load(&key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::new(profile);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let profile = compile(dfg, cgra, opts, &self.tracer);
            self.store(&key, &profile);
            Arc::new(profile)
        })
        .clone()
    }

    /// The full benchmark library for a fabric, assembled from (and
    /// sharing) the per-kernel profile cache.
    pub fn library(&self, cgra: &CgraConfig, opts: &MapOptions) -> Arc<KernelLibrary> {
        let build = || {
            let profiles = cgra_dfg::kernels::all()
                .iter()
                .map(|k| (*self.profile(k, cgra, opts)).clone())
                .collect();
            Arc::new(KernelLibrary {
                profiles,
                num_pages: cgra.layout().num_pages() as u16,
            })
        };
        if !self.enabled {
            return build();
        }
        let key = (cgra.fingerprint(), opts.fingerprint());
        let cell = {
            let read = self.libraries.read().expect("library lock");
            read.get(&key).cloned()
        }
        .unwrap_or_else(|| {
            self.libraries
                .write()
                .expect("library lock")
                .entry(key)
                .or_default()
                .clone()
        });
        cell.get_or_init(build).clone()
    }

    fn cell(&self, key: &Key) -> Cell {
        if let Some(cell) = self.profiles.read().expect("profile lock").get(key) {
            return cell.clone();
        }
        self.profiles
            .write()
            .expect("profile lock")
            .entry(key.clone())
            .or_default()
            .clone()
    }

    /// Best-effort disk read; any failure (missing, corrupt, stale) is a
    /// miss, never an error.
    fn load(&self, key: &Key) -> Option<KernelProfile> {
        let dir = self.disk_dir.as_ref()?;
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path).ok()?;
        match parse_entry(&text, key) {
            Some(profile) => Some(profile),
            None => {
                self.disk_rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Best-effort atomic disk write (temp file + rename); failures are
    /// reported on stderr and otherwise ignored.
    fn store(&self, key: &Key, profile: &KernelProfile) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        if let Err(e) = write_entry(dir, key, profile) {
            eprintln!("mapcache: could not persist {}: {e}", key.file_name());
        }
    }
}

impl Default for MapCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

fn compile(dfg: &Dfg, cgra: &CgraConfig, opts: &MapOptions, tracer: &Tracer) -> KernelProfile {
    // Batched so concurrent misses interleave at whole-profile
    // granularity in a shared sink, never event-by-event.
    tracer.batched(|t| {
        crate::compile::compile(dfg, cgra, opts, t)
            .unwrap_or_else(|e| panic!("profile {} on {:?}: {e}", dfg.name, cgra))
            .profile
    })
}

fn u64_json(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn u64_from(j: Option<&Json>) -> Option<u64> {
    u64::from_str_radix(j?.as_str()?, 16).ok()
}

fn write_entry(dir: &Path, key: &Key, profile: &KernelProfile) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let doc = Json::obj([
        ("schema", Json::Int(SCHEMA as i64)),
        ("kernel", Json::Str(key.kernel.clone())),
        ("dfg_fp", u64_json(key.dfg_fp)),
        ("cgra_fp", u64_json(key.cgra_fp)),
        ("opts_fp", u64_json(key.opts_fp)),
        ("num_pages", Json::Int(key.num_pages as i64)),
        ("profile", profile_to_json(profile)),
    ]);
    let path = dir.join(key.file_name());
    let tmp = dir.join(format!(".{}.tmp-{}", key.file_name(), std::process::id()));
    std::fs::write(&tmp, doc.pretty())?;
    std::fs::rename(&tmp, &path)
}

fn parse_entry(text: &str, key: &Key) -> Option<KernelProfile> {
    let doc = Json::parse(text).ok()?;
    // Every key component must match; a mismatch means a digest
    // collision or a hand-edited file — reject either way.
    (doc.get("schema")?.as_int()? == SCHEMA as i64).then_some(())?;
    (doc.get("kernel")?.as_str()? == key.kernel).then_some(())?;
    (u64_from(doc.get("dfg_fp"))? == key.dfg_fp).then_some(())?;
    (u64_from(doc.get("cgra_fp"))? == key.cgra_fp).then_some(())?;
    (u64_from(doc.get("opts_fp"))? == key.opts_fp).then_some(())?;
    (doc.get("num_pages")?.as_int()? == key.num_pages as i64).then_some(())?;
    let profile = profile_from_json(doc.get("profile")?)?;
    // Key match only proves the entry is *for* this request; the profile
    // itself may still have been corrupted on disk. Re-derive its
    // invariants before trusting it.
    let report = cgra_analyze::analyze_profile(
        &profile.name,
        profile.ii_baseline,
        profile.ii_constrained,
        profile.used_pages,
        &profile.ii_by_pages,
        key.num_pages,
    );
    (!report.has_errors()).then_some(profile)
}

/// Explicit JSON encoding of a [`KernelProfile`] (the workspace `serde`
/// is an offline marker shim — see `crates/serde`).
pub fn profile_to_json(p: &KernelProfile) -> Json {
    Json::obj([
        ("name", Json::Str(p.name.clone())),
        ("ii_baseline", Json::Int(p.ii_baseline as i64)),
        ("ii_constrained", Json::Int(p.ii_constrained as i64)),
        ("used_pages", Json::Int(p.used_pages as i64)),
        (
            "ii_by_pages",
            Json::Arr(
                p.ii_by_pages
                    .iter()
                    .map(|&(m, ii)| Json::Arr(vec![Json::Int(m as i64), Json::Int(ii as i64)]))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`profile_to_json`]; `None` on any shape or range error.
pub fn profile_from_json(j: &Json) -> Option<KernelProfile> {
    let int = |name: &str| j.get(name)?.as_int();
    let ii_by_pages = j
        .get("ii_by_pages")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            Some((
                u16::try_from(pair[0].as_int()?).ok()?,
                u32::try_from(pair[1].as_int()?).ok()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(KernelProfile {
        name: j.get("name")?.as_str()?.to_string(),
        ii_baseline: u32::try_from(int("ii_baseline")?).ok()?,
        ii_constrained: u32::try_from(int("ii_constrained")?).ok()?,
        used_pages: u16::try_from(int("used_pages")?).ok()?,
        ii_by_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgra;
    use cgra_arch::{Mesh, PageShape};

    fn sample_profile() -> KernelProfile {
        KernelProfile {
            name: "k".into(),
            ii_baseline: 2,
            ii_constrained: 3,
            used_pages: 2,
            ii_by_pages: vec![(4, 3), (2, 5), (1, 9)],
        }
    }

    #[test]
    fn profile_json_round_trip() {
        let p = sample_profile();
        assert_eq!(profile_from_json(&profile_to_json(&p)), Some(p));
    }

    #[test]
    fn memory_cache_computes_once() {
        let cache = MapCache::in_memory();
        let fabric = cgra(4, 4);
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::mpeg2();
        let a = cache.profile(&k, &fabric, &opts);
        let b = cache.profile(&k, &fabric, &opts);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.misses, s.mem_hits), (1, 1));
    }

    #[test]
    fn disabled_cache_always_recomputes_identically() {
        let cache = MapCache::disabled();
        let fabric = cgra(4, 4);
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::sor();
        let a = cache.profile(&k, &fabric, &opts);
        let b = cache.profile(&k, &fabric, &opts);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b, "mapping must be deterministic");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disk_round_trip_and_corruption_fallback() {
        let dir = std::env::temp_dir().join(format!("mapcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = cgra(4, 4);
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::fir();

        let first = MapCache::persistent_at(&dir);
        let computed = first.profile(&k, &fabric, &opts);
        assert_eq!(first.stats().misses, 1);

        // A fresh cache instance must serve the same profile from disk.
        let second = MapCache::persistent_at(&dir);
        let loaded = second.profile(&k, &fabric, &opts);
        assert_eq!(*computed, *loaded);
        assert_eq!(second.stats().disk_hits, 1);
        assert_eq!(second.stats().misses, 0);

        // Corrupt every entry: the cache must recompute, not error.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::write(entry.unwrap().path(), "{not json").unwrap();
        }
        let third = MapCache::persistent_at(&dir);
        let recomputed = third.profile(&k, &fabric, &opts);
        assert_eq!(*computed, *recomputed);
        let s = third.stats();
        assert_eq!((s.misses, s.disk_rejects), (1, 1));

        // And the rewrite healed the entry.
        let fourth = MapCache::persistent_at(&dir);
        fourth.profile(&k, &fabric, &opts);
        assert_eq!(fourth.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_from_a_crashed_writer_is_rejected_and_recomputed() {
        // The crash-safety contract: entries are written to a temp name
        // and renamed into place, so a visible entry is either whole or
        // absent. This test models the failure the contract defends
        // against — a file cut off mid-write — and checks the read path
        // treats it as a miss, not an error, even with a stale temp file
        // from the dead writer still sitting in the directory.
        let dir = std::env::temp_dir().join(format!("mapcache-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = cgra(4, 4);
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::fir();

        let first = MapCache::persistent_at(&dir);
        let computed = first.profile(&k, &fabric, &opts);

        // Truncate every entry mid-file and plant a stale temp file, as
        // a writer killed between `write` and `rename` would leave.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.len() > 16, "entry must be long enough to truncate");
            std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            std::fs::write(dir.join(format!(".{name}.tmp-0")), &text[..8]).unwrap();
        }

        // The sweep must recompute, not fail.
        let second = MapCache::persistent_at(&dir);
        let recomputed = second.profile(&k, &fabric, &opts);
        assert_eq!(*computed, *recomputed);
        let s = second.stats();
        assert_eq!((s.misses, s.disk_rejects), (1, 1));

        // The recompute healed the entry in place; the stale temp file
        // is inert (it is never a cache key) and must not be served.
        let third = MapCache::persistent_at(&dir);
        assert_eq!(*computed, *third.profile(&k, &fabric, &opts));
        assert_eq!(third.stats().disk_hits, 1);
        assert_eq!(third.stats().disk_rejects, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn semantically_corrupt_entry_is_rejected_by_the_analyzer() {
        // Well-formed JSON with matching key fields, but a profile whose
        // numbers an analyzer pass can prove wrong: only the semantic
        // check in `parse_entry` can catch this.
        let dir = std::env::temp_dir().join(format!("mapcache-sem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fabric = cgra(4, 4);
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::fir();

        let first = MapCache::persistent_at(&dir);
        let computed = first.profile(&k, &fabric, &opts);

        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            // 99 used pages on a 4-page fabric — A405 on load.
            let broken = text.replace(
                &format!("\"used_pages\": {}", computed.used_pages),
                "\"used_pages\": 99",
            );
            assert_ne!(broken, text, "corruption must actually hit the entry");
            std::fs::write(&path, broken).unwrap();
        }

        let second = MapCache::persistent_at(&dir);
        let recomputed = second.profile(&k, &fabric, &opts);
        assert_eq!(*computed, *recomputed);
        let s = second.stats();
        assert_eq!((s.misses, s.disk_rejects), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn library_shares_profile_cache() {
        let cache = MapCache::in_memory();
        let fabric = cgra(4, 4);
        let opts = MapOptions::default();
        // Warm one kernel's profile, then build the library: only the
        // remaining kernels should be misses.
        cache.profile(&cgra_dfg::kernels::mpeg2(), &fabric, &opts);
        let lib = cache.library(&fabric, &opts);
        assert_eq!(lib.len(), cgra_dfg::kernels::all().len());
        assert_eq!(cache.stats().misses, lib.len() as u64);
        // Same Arc on the second library request.
        assert!(Arc::ptr_eq(&lib, &cache.library(&fabric, &opts)));
    }

    #[test]
    fn different_opts_are_different_entries() {
        let cache = MapCache::in_memory();
        let fabric = cgra(4, 4);
        let k = cgra_dfg::kernels::sobel();
        cache.profile(&k, &fabric, &MapOptions::default());
        cache.profile(&k, &fabric, &MapOptions::fast());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn no_cache_config_recomputes_libraries() {
        let cache = MapCache::for_config(EngineConfig {
            jobs: 1,
            use_cache: false,
        });
        let a = cache.library(&cgra(4, 4), &MapOptions::default());
        let b = cache.library(&cgra(4, 4), &MapOptions::default());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b, "library compilation must be deterministic");
    }

    #[test]
    fn fabrics_sharing_size_and_page_size_are_different_entries() {
        // Mesh side and page size alone do not identify a fabric: a 1x4
        // page shape, a 2x8 mesh or a smaller RF compile differently
        // from the 4x4 with 2x2 pages, so none may be served its profile.
        let cache = MapCache::in_memory();
        let opts = MapOptions::default();
        let k = cgra_dfg::kernels::mpeg2();
        cache.profile(&k, &CgraConfig::square(4), &opts);
        let others = [
            CgraConfig::new(Mesh::new(4, 4), PageShape::new(1, 4)).unwrap(),
            CgraConfig::new(Mesh::new(2, 8), PageShape::new(2, 2)).unwrap(),
            CgraConfig::square(4).with_rf_size(2),
        ];
        for (i, fabric) in others.iter().enumerate() {
            let cached = cache.profile(&k, fabric, &opts);
            let fresh = crate::compile::compile(&k, fabric, &opts, &Tracer::off())
                .unwrap()
                .profile;
            assert_eq!(*cached, fresh, "{fabric:?}");
            assert_eq!(cache.stats().mem_hits, 0, "{fabric:?}");
            assert_eq!(cache.stats().misses, i as u64 + 2);
        }
        let lib = cache.library(&CgraConfig::square(4), &opts);
        assert!(!Arc::ptr_eq(&lib, &cache.library(&others[0], &opts)));
    }
}
