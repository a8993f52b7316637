//! Content-addressed result cache for `branch-lab serve`.
//!
//! Every study is a pure, deterministic function of (study name, dataset
//! shape, study config, trace digest) — see the study registry — so its
//! rendered report and metrics manifest can be cached under a content
//! hash of exactly those inputs. [`CacheKey`] derives that hash;
//! [`ResultCache`] stores the (report, manifest) pair in two tiers:
//!
//! * **Memory** — an LRU-bounded map of `Arc`'d entries; repeat requests
//!   are served without touching disk.
//! * **Disk** — one `BLR1` file per key under the cache directory,
//!   written with the same unique-temp-file + atomic-rename + FNV-1a
//!   trailer durability pattern as the trace store: a `kill -9` mid-write
//!   can leave a stale temp file or no file, but never a
//!   loadable-but-wrong entry. Torn or corrupt files are quarantined as
//!   `.corrupt` and the result regenerates. The disk tier is LRU-bounded
//!   by resident bytes (coldest-by-mtime first across restarts).
//!
//! Key derivation canonicalizes before hashing: components are sorted by
//! name and joined unambiguously, so two requests that spell the same
//! configuration in different orders (JSON key order, flag order) hash
//! identically, while any single component *value* change produces a new
//! key.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use bp_metrics::{faultpoint, Counter};

/// File magic for v1 cache entries.
const MAGIC: &[u8; 4] = b"BLR1";
/// Refuse to load cache files larger than this (a corrupt or hostile
/// file must not drive allocation).
const MAX_ENTRY_BYTES: u64 = 256 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A content hash identifying one study result.
///
/// Built from named components via [`CacheKey::builder`]; the canonical
/// form sorts components by name, so insertion order never changes the
/// key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Starts an empty key derivation.
    #[must_use]
    pub fn builder() -> KeyBuilder {
        KeyBuilder {
            components: BTreeMap::new(),
        }
    }

    /// The raw 64-bit hash.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Fixed-width lower-hex rendering (the wire / file-name form).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`CacheKey::hex`] form.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(CacheKey)
    }
}

/// Accumulates named components for a [`CacheKey`].
#[derive(Clone, Debug, Default)]
pub struct KeyBuilder {
    components: BTreeMap<String, String>,
}

impl KeyBuilder {
    /// Adds (or replaces) one named component.
    #[must_use]
    pub fn component(mut self, name: &str, value: impl ToString) -> KeyBuilder {
        self.components.insert(name.to_string(), value.to_string());
        self
    }

    /// The canonical pre-hash form: `name=value` pairs sorted by name,
    /// newline-joined. Exposed so tests and logs can show exactly what
    /// was hashed.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.components {
            out.push_str(name);
            out.push('=');
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// Finishes the derivation: FNV-1a 64 over the canonical form.
    #[must_use]
    pub fn finish(&self) -> CacheKey {
        let mut hash = FNV_OFFSET;
        // Hash each component with explicit separators so no
        // concatenation of adjacent names/values can collide with a
        // different split of the same bytes.
        for (name, value) in &self.components {
            fnv1a(&mut hash, name.as_bytes());
            fnv1a(&mut hash, &[0x00]);
            fnv1a(&mut hash, value.as_bytes());
            fnv1a(&mut hash, &[0x01]);
        }
        CacheKey(hash)
    }
}

/// One cached result: the study's rendered report (byte-identical to the
/// equivalent CLI invocation's stdout) and its metrics manifest JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The key the entry was stored under.
    pub key: CacheKey,
    /// Rendered report bytes.
    pub body: Vec<u8>,
    /// Run-manifest JSON captured when the result was first computed.
    pub manifest: String,
}

impl CacheEntry {
    fn resident_bytes(&self) -> u64 {
        (self.body.len() + self.manifest.len()) as u64
    }

    /// Serializes to the `BLR1` on-disk form (without the trailer — the
    /// writer appends it).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 8 * 3 + self.body.len() + self.manifest.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.key.raw().to_le_bytes());
        out.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.manifest.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(self.manifest.as_bytes());
        out
    }

    /// Decodes and verifies a `BLR1` payload (including its trailer).
    fn decode(raw: &[u8], expect: CacheKey) -> Result<CacheEntry, String> {
        let header = 4 + 8 * 3;
        if raw.len() < header + 8 {
            return Err("truncated header".to_string());
        }
        let (payload, trailer) = raw.split_at(raw.len() - 8);
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, payload);
        if trailer != hash.to_le_bytes() {
            return Err("checksum mismatch".to_string());
        }
        if &payload[..4] != MAGIC {
            return Err("bad magic".to_string());
        }
        let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        let key = CacheKey(word(4));
        if key != expect {
            return Err(format!("key mismatch: file says {}", key.hex()));
        }
        let body_len = word(12) as usize;
        let manifest_len = word(20) as usize;
        if payload.len() - header != body_len.saturating_add(manifest_len) {
            return Err("length fields disagree with payload".to_string());
        }
        let body = payload[header..header + body_len].to_vec();
        let manifest = String::from_utf8(payload[header + body_len..].to_vec())
            .map_err(|_| "manifest is not UTF-8".to_string())?;
        Ok(CacheEntry { key, body, manifest })
    }
}

/// How a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-memory map.
    Memory,
    /// Served from the disk tier (and promoted to memory).
    Disk,
}

/// LRU bookkeeping by resident bytes: keys warmest-last. Used by each
/// result-cache tier, and by any other byte-budgeted store.
pub struct Lru<K> {
    /// `(key, bytes)`, front = coldest.
    order: Vec<(K, u64)>,
    resident: u64,
}

impl<K> Default for Lru<K> {
    fn default() -> Self {
        Lru { order: Vec::new(), resident: 0 }
    }
}

impl<K: PartialEq> Lru<K> {
    /// Marks `key` as just-used (inserting it with `bytes` if new), then
    /// returns the coldest keys to evict to fit `budget`, never the
    /// just-used key.
    pub fn note_use(&mut self, key: K, bytes: u64, budget: Option<u64>) -> Vec<K> {
        if let Some(pos) = self.order.iter().position(|(k, _)| *k == key) {
            let entry = self.order.remove(pos);
            self.order.push(entry);
        } else {
            self.order.push((key, bytes));
            self.resident += bytes;
        }
        let mut cold = Vec::new();
        if let Some(budget) = budget {
            while self.resident > budget && self.order.len() > 1 {
                let (k, b) = self.order.remove(0);
                self.resident -= b;
                cold.push(k);
            }
        }
        cold
    }

    /// Drops `key` (if tracked) and its bytes.
    pub fn forget(&mut self, key: &K) {
        if let Some(pos) = self.order.iter().position(|(k, _)| k == key) {
            let (_, b) = self.order.remove(pos);
            self.resident -= b;
        }
    }

    /// Bytes of every tracked key.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.resident
    }
}

/// The two-tier content-addressed result cache.
pub struct ResultCache {
    mem: Mutex<HashMap<CacheKey, Arc<CacheEntry>>>,
    mem_lru: Mutex<Lru<CacheKey>>,
    disk_lru: Mutex<Lru<CacheKey>>,
    dir: Option<PathBuf>,
    /// Per-tier resident-byte budget; `None` = unbounded.
    budget: Option<u64>,
    tmp_seq: AtomicU64,
    m_hit: Counter,
    m_disk_hit: Counter,
    m_miss: Counter,
    m_store: Counter,
    m_evict: Counter,
    m_corrupt: Counter,
}

impl ResultCache {
    /// A cache with an optional disk tier under `dir` and an optional
    /// per-tier resident-byte `budget`.
    #[must_use]
    pub fn new(dir: Option<PathBuf>, budget: Option<u64>) -> ResultCache {
        let cache = ResultCache {
            mem: Mutex::new(HashMap::new()),
            mem_lru: Mutex::new(Lru::default()),
            disk_lru: Mutex::new(Lru::default()),
            dir,
            budget,
            tmp_seq: AtomicU64::new(0),
            m_hit: Counter::get("serve.cache.hit"),
            m_disk_hit: Counter::get("serve.cache.disk_hit"),
            m_miss: Counter::get("serve.cache.miss"),
            m_store: Counter::get("serve.cache.store"),
            m_evict: Counter::get("serve.cache.evict"),
            m_corrupt: Counter::get("serve.cache.corrupt"),
        };
        cache.scan_disk();
        cache
    }

    /// Seeds the disk LRU from pre-existing entries, coldest (oldest
    /// mtime) first, so the byte budget holds across restarts.
    fn scan_disk(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(read) = std::fs::read_dir(dir) else { return };
        let mut found: Vec<(std::time::SystemTime, CacheKey, u64)> = Vec::new();
        for dent in read.flatten() {
            let name = dent.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".blr")) else {
                continue;
            };
            let Some(key) = CacheKey::from_hex(stem) else { continue };
            let Ok(meta) = dent.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((mtime, key, meta.len()));
        }
        found.sort();
        let mut lru = self.disk_lru.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, key, bytes) in found {
            lru.order.push((key, bytes));
            lru.resident += bytes;
        }
    }

    fn entry_path(&self, key: CacheKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.blr", key.hex())))
    }

    /// Looks `key` up: memory first, then disk (verifying the trailer and
    /// promoting the entry to memory). Returns the entry and the tier
    /// that satisfied it, or `None` on a miss. Corrupt disk entries are
    /// quarantined as `.corrupt` and report as misses.
    #[must_use]
    pub fn get(&self, key: CacheKey) -> Option<(Arc<CacheEntry>, Tier)> {
        let hit = {
            let mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
            mem.get(&key).cloned()
        };
        if let Some(entry) = hit {
            self.m_hit.incr();
            self.touch_mem(&entry);
            return Some((entry, Tier::Memory));
        }
        if let Some(entry) = self.load_disk(key) {
            let entry = Arc::new(entry);
            self.m_disk_hit.incr();
            {
                let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
                mem.insert(key, Arc::clone(&entry));
            }
            self.touch_mem(&entry);
            self.touch_disk(key, std::fs::metadata(self.entry_path(key)?).map_or(0, |m| m.len()));
            return Some((entry, Tier::Disk));
        }
        self.m_miss.incr();
        None
    }

    /// Memory-tier lookup without touching the hit/miss counters or the
    /// LRU. This is the double-checked lookup a singleflight leader runs
    /// before executing: it only needs to observe an entry another leader
    /// stored moments ago (stores always populate memory), and it must
    /// not double-count the request's one [`ResultCache::get`].
    #[must_use]
    pub fn peek(&self, key: CacheKey) -> Option<Arc<CacheEntry>> {
        let mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
        mem.get(&key).cloned()
    }

    fn load_disk(&self, key: CacheKey) -> Option<CacheEntry> {
        let path = self.entry_path(key)?;
        let meta = std::fs::metadata(&path).ok()?;
        if meta.len() > MAX_ENTRY_BYTES {
            self.quarantine(key, &path, "oversized entry");
            return None;
        }
        let raw = std::fs::read(&path).ok()?;
        let injected = faultpoint::should_fail("serve.cache.load");
        match CacheEntry::decode(&raw, key) {
            Ok(_) if injected => {
                self.quarantine(key, &path, "injected fault: corrupt cache entry");
                None
            }
            Ok(entry) => Some(entry),
            Err(reason) => {
                self.quarantine(key, &path, &reason);
                None
            }
        }
    }

    /// Quarantines a damaged entry so it is never served and never
    /// reloaded: renamed to `.corrupt` (deleted if even the rename
    /// fails), forgotten by the LRU, counted.
    fn quarantine(&self, key: CacheKey, path: &Path, reason: &str) {
        self.m_corrupt.incr();
        eprintln!(
            "branch-lab serve: quarantined corrupt cache entry {} ({reason})",
            path.display()
        );
        let target = path.with_extension("blr.corrupt");
        if std::fs::rename(path, &target).is_err() {
            let _ = std::fs::remove_file(path);
        }
        self.disk_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .forget(&key);
    }

    /// Inserts a freshly computed entry into both tiers. The disk write
    /// is best-effort (a full disk degrades to memory-only caching) and
    /// crash-safe: unique temp file, FNV-1a trailer, atomic rename.
    pub fn store(&self, entry: CacheEntry) -> Arc<CacheEntry> {
        self.m_store.incr();
        let key = entry.key;
        let entry = Arc::new(entry);
        {
            let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
            mem.insert(key, Arc::clone(&entry));
        }
        self.touch_mem(&entry);
        if let Some(path) = self.entry_path(key) {
            if faultpoint::should_fail("serve.cache.save") {
                eprintln!("branch-lab serve: injected fault: skipping cache save {}", key.hex());
            } else {
                match self.save_disk(&entry, &path) {
                    Ok(bytes) => self.touch_disk(key, bytes),
                    Err(e) => eprintln!(
                        "branch-lab serve: failed to persist cache entry {}: {e}",
                        path.display()
                    ),
                }
            }
        }
        entry
    }

    fn save_disk(&self, entry: &CacheEntry, path: &Path) -> std::io::Result<u64> {
        let dir = path.parent().expect("entry path always has a parent");
        std::fs::create_dir_all(dir)?;
        let mut payload = entry.encode();
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, &payload);
        payload.extend_from_slice(&hash.to_le_bytes());
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &payload)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(payload.len() as u64)
    }

    fn touch_mem(&self, entry: &Arc<CacheEntry>) {
        let cold = self
            .mem_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_use(entry.key, entry.resident_bytes(), self.budget);
        if !cold.is_empty() {
            let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
            for key in cold {
                mem.remove(&key);
                self.m_evict.incr();
            }
        }
    }

    fn touch_disk(&self, key: CacheKey, bytes: u64) {
        let cold = self
            .disk_lru
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .note_use(key, bytes, self.budget);
        for key in cold {
            if let Some(path) = self.entry_path(key) {
                let _ = std::fs::remove_file(path);
                self.m_evict.incr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bp-serve-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(key: CacheKey, body: &str) -> CacheEntry {
        CacheEntry {
            key,
            body: body.as_bytes().to_vec(),
            manifest: format!("{{\"run\": \"{body}\"}}"),
        }
    }

    #[test]
    fn key_components_canonicalize_and_discriminate() {
        let a = CacheKey::builder()
            .component("study", "fig7")
            .component("trace_len", 1_000_000)
            .finish();
        let b = CacheKey::builder()
            .component("trace_len", 1_000_000)
            .component("study", "fig7")
            .finish();
        assert_eq!(a, b, "component order must not matter");
        let c = CacheKey::builder()
            .component("study", "fig7")
            .component("trace_len", 1_000_001)
            .finish();
        assert_ne!(a, c, "value changes must change the key");
        // Name/value boundary ambiguity must not collide.
        let d = CacheKey::builder().component("ab", "c").finish();
        let e = CacheKey::builder().component("a", "bc").finish();
        assert_ne!(d, e);
        assert_eq!(CacheKey::from_hex(&a.hex()), Some(a));
    }

    #[test]
    fn memory_roundtrip_and_miss() {
        let cache = ResultCache::new(None, None);
        let key = CacheKey::builder().component("k", 1).finish();
        assert!(cache.get(key).is_none());
        cache.store(entry(key, "hello"));
        let (got, tier) = cache.get(key).unwrap();
        assert_eq!(tier, Tier::Memory);
        assert_eq!(got.body, b"hello");
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = temp_dir("persist");
        let key = CacheKey::builder().component("k", 2).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            cache.store(entry(key, "persisted"));
        }
        let fresh = ResultCache::new(Some(dir.clone()), None);
        let (got, tier) = fresh.get(key).unwrap();
        assert_eq!(tier, Tier::Disk);
        assert_eq!(got.body, b"persisted");
        assert_eq!(got.manifest, "{\"run\": \"persisted\"}");
        // Second lookup is a memory hit (promotion).
        assert_eq!(fresh.get(key).unwrap().1, Tier::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_quarantine_and_regenerate() {
        let dir = temp_dir("corrupt");
        let key = CacheKey::builder().component("k", 3).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            cache.store(entry(key, "good"));
        }
        let path = dir.join(format!("{}.blr", key.hex()));
        // Flip a byte in the body region: the trailer must catch it.
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() - 12;
        raw[at] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();

        let fresh = ResultCache::new(Some(dir.clone()), None);
        assert!(fresh.get(key).is_none(), "corrupt entry must read as a miss");
        assert!(!path.exists(), "corrupt entry must not stay loadable");
        assert!(
            dir.join(format!("{}.blr.corrupt", key.hex())).exists(),
            "corrupt entry must be quarantined, not deleted"
        );
        // Regeneration overwrites cleanly.
        fresh.store(entry(key, "good"));
        assert!(fresh.get(key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_rejected() {
        let dir = temp_dir("torn");
        let key = CacheKey::builder().component("k", 4).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            cache.store(entry(key, "some body text that is long enough to truncate"));
        }
        let path = dir.join(format!("{}.blr", key.hex()));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let fresh = ResultCache::new(Some(dir.clone()), None);
        assert!(fresh.get(key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_detected() {
        let dir = temp_dir("mismatch");
        let key_a = CacheKey::builder().component("k", 5).finish();
        let key_b = CacheKey::builder().component("k", 6).finish();
        {
            let cache = ResultCache::new(Some(dir.clone()), None);
            cache.store(entry(key_a, "a"));
        }
        // Masquerade entry A as entry B.
        std::fs::rename(
            dir.join(format!("{}.blr", key_a.hex())),
            dir.join(format!("{}.blr", key_b.hex())),
        )
        .unwrap();
        let fresh = ResultCache::new(Some(dir.clone()), None);
        assert!(fresh.get(key_b).is_none(), "renamed entry must not serve under the wrong key");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_budget_evicts_coldest_but_never_the_entry_in_use() {
        let dir = temp_dir("lru");
        // Each entry is ~60 bytes on disk; budget fits roughly two.
        let cache = ResultCache::new(Some(dir.clone()), Some(150));
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::builder().component("k", 100 + i).finish())
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            cache.store(entry(key, &format!("body-{i}")));
        }
        let on_disk = |key: CacheKey| dir.join(format!("{}.blr", key.hex())).exists();
        assert!(!on_disk(keys[0]), "coldest entry must evict");
        assert!(on_disk(keys[3]), "the just-stored entry must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
