//! The content-addressed result cache.
//!
//! Every sweep job is addressed by its [`CacheKey`] — a stable digest of
//! (workload + scale, machine geometry/topology, system configuration,
//! cost model, thresholds; see `dsm_bench::cache_key`).  Simulation is
//! deterministic, so equal keys mean bit-identical [`SimResult`]s, and a
//! stored result can substitute for a run outright.  The cache persists
//! results to an append-only text file so they survive server restarts and
//! are shared by every client of the same cache file.
//!
//! # File format (`# dsm-sweep-cache v1`)
//!
//! One header line, then one line per entry:
//!
//! ```text
//! <key:32hex> <fingerprint:16hex> <system> <workload> <exec> <accesses>
//!   <barriers> <nodes> <14 counters per node>... <10 messages> <10 bytes>
//! ```
//!
//! All fields are space-separated on a single line; `system` and `workload`
//! are percent-escaped so they cannot contain separators.  Entries are
//! verified on load: a line whose re-computed [`SimResult::fingerprint`]
//! does not match its stored fingerprint (truncated write, hand edit,
//! format drift) is dropped, never served.  A file with an unknown header
//! is left untouched and the cache starts empty against a fresh path.
//! Each entry keeps its verified fingerprint in memory, so a hit hands it
//! out without recomputing it.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dsm_bench::CacheKey;
use dsm_core::{NodeStats, SimResult};
use dsm_protocol::{MsgKind, TrafficStats};
use sim_engine::Cycles;

/// Header line identifying the cache-file format.
pub const CACHE_HEADER: &str = "# dsm-sweep-cache v1";

/// An in-memory result cache, optionally backed by an append-only file.
#[derive(Debug)]
pub struct ResultCache {
    // Ordered map: cache contents feed service responses, and an ordered
    // container keeps every observable path free of iteration-order
    // nondeterminism (the same policy the sim crates follow).
    entries: BTreeMap<CacheKey, Entry>,
    path: Option<PathBuf>,
    file: Option<File>,
    hits: u64,
    misses: u64,
}

/// One stored result with its fingerprint, which always equals
/// `result.fingerprint()`: verified against the file on load, and computed
/// from the result (or handed over by the engine that computed it) on
/// insert.
#[derive(Debug)]
struct Entry {
    result: SimResult,
    fingerprint: u64,
}

/// A point-in-time view of the cache counters (the `cache-stats` response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct results held.
    pub entries: usize,
    /// Lifetime lookup hits (since this process opened the cache).
    pub hits: u64,
    /// Lifetime lookup misses.
    pub misses: u64,
    /// Backing file, if persistent.
    pub path: Option<PathBuf>,
}

impl ResultCache {
    /// A cache with no backing file (results live for the process only).
    pub fn in_memory() -> Self {
        ResultCache {
            entries: BTreeMap::new(),
            path: None,
            file: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Open (or create) a persistent cache at `path`.  Existing entries are
    /// loaded and fingerprint-verified; corrupt lines are skipped.  New
    /// inserts append to the file immediately, so results survive even an
    /// unclean shutdown.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut entries = BTreeMap::new();
        match File::open(&path) {
            Ok(f) => load_entries(BufReader::new(f), &mut entries)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(format!("{CACHE_HEADER}\n").as_bytes())?;
        } else if !ends_with_newline(&path)? {
            // A torn last line (a crash mid-append): end it, so the next
            // entry starts a line of its own instead of joining the torn
            // one, which fails to decode and is dropped.
            file.write_all(b"\n")?;
        }
        Ok(ResultCache {
            entries,
            path: Some(path),
            file: Some(file),
            hits: 0,
            misses: 0,
        })
    }

    /// Look up `key`, counting the hit or miss.
    pub fn lookup(&mut self, key: CacheKey) -> Option<SimResult> {
        self.lookup_with_fingerprint(key).map(|(result, _)| result)
    }

    /// [`ResultCache::lookup`], also returning the stored result's
    /// [`SimResult::fingerprint`].
    pub(crate) fn lookup_with_fingerprint(&mut self, key: CacheKey) -> Option<(SimResult, u64)> {
        match self.entries.get(&key) {
            Some(e) => {
                self.hits += 1;
                Some((e.result.clone(), e.fingerprint))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// `true` if `key` is cached (no counter effect).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Store `result` under `key`, appending to the backing file.  A key
    /// already present is left as-is (equal keys mean equal results, so
    /// re-writing would only duplicate the file line).
    pub fn insert(&mut self, key: CacheKey, result: &SimResult) {
        self.insert_with_fingerprint(key, result, result.fingerprint());
    }

    /// [`ResultCache::insert`] for a caller that already holds
    /// `result.fingerprint()` (the sweep engine computes it once per
    /// simulated job).
    pub(crate) fn insert_with_fingerprint(
        &mut self,
        key: CacheKey,
        result: &SimResult,
        fingerprint: u64,
    ) {
        debug_assert_eq!(fingerprint, result.fingerprint(), "foreign fingerprint");
        if self.entries.contains_key(&key) {
            return;
        }
        if let Some(file) = &mut self.file {
            // One write for the entry and its newline, so a crash cannot
            // leave a whole entry without its line end.  An append failure
            // (disk full, file deleted) degrades to in-memory caching for
            // this entry; the in-memory copy still serves this process.
            let mut line = encode_entry(key, result, fingerprint);
            line.push('\n');
            let _ = file.write_all(line.as_bytes());
        }
        self.entries.insert(
            key,
            Entry {
                result: result.clone(),
                fingerprint,
            },
        );
    }

    /// Distinct results held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no results are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            hits: self.hits,
            misses: self.misses,
            path: self.path.clone(),
        }
    }
}

/// `true` if the (non-empty) file at `path` ends in a newline.
fn ends_with_newline(path: &Path) -> io::Result<bool> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8];
    file.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

fn load_entries(reader: impl BufRead, entries: &mut BTreeMap<CacheKey, Entry>) -> io::Result<()> {
    let mut lines = reader.lines();
    match lines.next() {
        // Unknown header: a different format (or not a cache file at all).
        // Serving nothing is always safe; appends will extend the file with
        // v1 lines, which a future loader with a different header ignores
        // wholesale — so refuse to adopt the file instead.
        Some(Ok(header)) if header.trim_end() != CACHE_HEADER => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not a dsm-sweep-cache file (header `{header}`)"),
            ));
        }
        Some(Err(e)) => return Err(e),
        _ => {}
    }
    for line in lines {
        let line = line?;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, entry)) = decode_entry(&line) {
            entries.insert(key, entry);
        }
        // A line that fails to decode or verify is dropped silently: the
        // cache is a pure accelerator, and the worst case of dropping is
        // re-simulating one point.
    }
    Ok(())
}

fn encode_entry(key: CacheKey, r: &SimResult, fingerprint: u64) -> String {
    let mut out = format!(
        "{} {:016x} {} {} {} {} {} {}",
        key.to_hex(),
        fingerprint,
        escape_field(&r.system),
        escape_field(&r.workload),
        r.execution_time.raw(),
        r.accesses,
        r.barriers,
        r.per_node.len(),
    );
    for n in &r.per_node {
        for v in node_counters(n) {
            out.push(' ');
            out.push_str(&v.to_string());
        }
    }
    for kind in MsgKind::ALL {
        out.push(' ');
        out.push_str(&r.traffic.messages_of(kind).to_string());
    }
    for kind in MsgKind::ALL {
        out.push(' ');
        out.push_str(&r.traffic.bytes_of(kind).to_string());
    }
    out
}

fn decode_entry(line: &str) -> Option<(CacheKey, Entry)> {
    let mut fields = line.split_ascii_whitespace();
    let key = CacheKey::from_hex(fields.next()?)?;
    let fingerprint = u64::from_str_radix(fields.next()?, 16).ok()?;
    let system = unescape_field(fields.next()?)?;
    let workload = unescape_field(fields.next()?)?;
    let mut num = move || fields.next()?.parse::<u64>().ok();
    let execution_time = Cycles::new(num()?);
    let accesses = num()?;
    let barriers = num()?;
    let nodes = num()?;
    // A node count beyond any real cluster means a corrupt line; bail
    // before trying to allocate for it.
    if nodes > 1 << 20 {
        return None;
    }
    let mut per_node = Vec::with_capacity(nodes as usize);
    for _ in 0..nodes {
        per_node.push(NodeStats {
            l1_hits: num()?,
            local_misses: num()?,
            remote_misses: num()?,
            remote_capacity_misses: num()?,
            cold_misses: num()?,
            coherence_misses: num()?,
            capacity_conflict_misses: num()?,
            migrations: num()?,
            replications: num()?,
            relocations: num()?,
            page_cache_replacements: num()?,
            switches_to_rw: num()?,
            page_op_cycles: Cycles::new(num()?),
            memory_stall_cycles: Cycles::new(num()?),
        });
    }
    let mut messages = [0u64; 10];
    for m in &mut messages {
        *m = num()?;
    }
    let mut bytes = [0u64; 10];
    for b in &mut bytes {
        *b = num()?;
    }
    if num().is_some() {
        return None; // trailing garbage
    }
    let result = SimResult {
        system,
        workload,
        execution_time,
        per_node,
        traffic: TrafficStats::from_counts(messages, bytes),
        accesses,
        barriers,
    };
    // The stored fingerprint must match the result re-derived from the
    // decoded fields — this catches truncated writes, hand edits, and any
    // drift in the entry format itself.
    if result.fingerprint() != fingerprint {
        return None;
    }
    Some((
        key,
        Entry {
            result,
            fingerprint,
        },
    ))
}

/// The 14 `NodeStats` counters in [`SimResult::fingerprint`] order.
fn node_counters(n: &NodeStats) -> [u64; 14] {
    [
        n.l1_hits,
        n.local_misses,
        n.remote_misses,
        n.remote_capacity_misses,
        n.cold_misses,
        n.coherence_misses,
        n.capacity_conflict_misses,
        n.migrations,
        n.replications,
        n.relocations,
        n.page_cache_replacements,
        n.switches_to_rw,
        n.page_op_cycles.raw(),
        n.memory_stall_cycles.raw(),
    ]
}

/// Percent-escape a name so it contains no whitespace (fields are
/// space-separated) and no `%` ambiguity.
fn escape_field(s: &str) -> String {
    if s.is_empty() {
        return "%00".to_string(); // an empty field would vanish when split
    }
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_whitespace() || b == b'%' || b < 0x21 {
            out.push_str(&format!("%{b:02x}"));
        } else {
            out.push(b as char);
        }
    }
    out
}

fn unescape_field(s: &str) -> Option<String> {
    if s == "%00" {
        return Some(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Load and verify every entry of a cache file without opening it for
/// appends (used by tests and tooling).
pub fn read_cache_file(path: &Path) -> io::Result<BTreeMap<CacheKey, SimResult>> {
    let mut entries = BTreeMap::new();
    load_entries(BufReader::new(File::open(path)?), &mut entries)?;
    Ok(entries.into_iter().map(|(k, e)| (k, e.result)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(seed: u64) -> SimResult {
        let mut traffic = TrafficStats::new();
        for _ in 0..seed % 7 {
            traffic.record(MsgKind::ReadReply);
        }
        traffic.record(MsgKind::PageControl);
        SimResult {
            system: "R-NUMA 1/2".to_string(),
            workload: "lu contig".to_string(),
            execution_time: Cycles::new(1_000 + seed),
            per_node: (0..2)
                .map(|n| NodeStats {
                    l1_hits: seed * 10 + n,
                    remote_misses: 3 * n,
                    page_op_cycles: Cycles::new(seed + n),
                    ..Default::default()
                })
                .collect(),
            traffic,
            accesses: 5_000 + seed,
            barriers: 12,
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey::from_hex(&format!("{:032x}", 0xabc0 + n)).unwrap()
    }

    #[test]
    fn entries_round_trip_through_the_line_format() {
        let r = sample_result(42);
        let line = encode_entry(key(1), &r, r.fingerprint());
        let (k, decoded) = decode_entry(&line).expect("decodes");
        assert_eq!(k, key(1));
        assert_eq!(decoded.result, r, "decoded result is bit-identical");
        assert_eq!(decoded.fingerprint, r.fingerprint());
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        let r = sample_result(7);
        let line = encode_entry(key(2), &r, r.fingerprint());
        // Truncation, trailing garbage, and a flipped counter (fingerprint
        // mismatch) must all fail closed.
        assert!(decode_entry(&line[..line.len() - 4]).is_none());
        assert!(decode_entry(&format!("{line} 99")).is_none());
        let flipped = {
            let mut fields: Vec<String> = line.split(' ').map(str::to_string).collect();
            let last = fields.len() - 1;
            fields[last] = (fields[last].parse::<u64>().unwrap() + 1).to_string();
            fields.join(" ")
        };
        assert!(decode_entry(&flipped).is_none());
        assert!(decode_entry("").is_none());
        assert!(decode_entry("zz nonsense").is_none());
    }

    #[test]
    fn cache_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("dsm-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.cache");
        let _ = std::fs::remove_file(&path);

        let r1 = sample_result(1);
        let r2 = sample_result(2);
        {
            let mut cache = ResultCache::open(&path).unwrap();
            assert!(cache.is_empty());
            assert_eq!(cache.lookup(key(1)), None);
            cache.insert(key(1), &r1);
            cache.insert(key(2), &r2);
            cache.insert(key(1), &r1); // duplicate insert is a no-op
            assert_eq!(cache.len(), 2);
            assert_eq!(cache.lookup(key(1)), Some(r1.clone()));
            let s = cache.stats();
            assert_eq!((s.entries, s.hits, s.misses), (2, 1, 1));
        }
        // A fresh process sees both entries, counters reset.
        let mut cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(key(1)), Some(r1));
        assert_eq!(cache.lookup(key(2)), Some(r2));
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().path.as_deref(), Some(path.as_path()));

        // A truncated final line (simulated crash mid-append) drops only
        // that entry.
        let content = std::fs::read_to_string(&path).unwrap();
        let cut = content.len() - 10;
        std::fs::write(&path, &content[..cut]).unwrap();
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1, "only the damaged entry is lost");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_append_after_a_torn_line_survives_a_reopen() {
        let dir = std::env::temp_dir().join(format!("dsm-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.cache");
        let _ = std::fs::remove_file(&path);
        {
            let mut cache = ResultCache::open(&path).unwrap();
            cache.insert(key(1), &sample_result(1));
            cache.insert(key(2), &sample_result(2));
        }
        // A crash mid-append: the last entry loses its final 10 bytes.
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &content[..content.len() - 10]).unwrap();
        {
            let mut cache = ResultCache::open(&path).unwrap();
            assert_eq!(cache.len(), 1, "the torn entry is dropped");
            cache.insert(key(3), &sample_result(3));
            assert_eq!(cache.len(), 2);
        }
        // The entry appended after the torn line is not swallowed by it.
        let mut cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(key(3)), Some(sample_result(3)));
        assert_eq!(cache.lookup(key(1)), Some(sample_result(1)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_are_refused() {
        let dir = std::env::temp_dir().join(format!("dsm-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.cache");
        std::fs::write(&path, "not a cache file\n").unwrap();
        assert!(ResultCache::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn name_escaping_round_trips() {
        for name in ["plain", "has space", "pct%sign", "tab\tname", ""] {
            let escaped = escape_field(name);
            assert!(!escaped.contains(' ') && !escaped.contains('\t'));
            assert!(!escaped.is_empty());
            assert_eq!(unescape_field(&escaped).as_deref(), Some(name));
        }
        assert!(unescape_field("%zz").is_none());
        assert!(unescape_field("%2").is_none());
    }

    #[test]
    fn in_memory_cache_counts_without_a_file() {
        let mut cache = ResultCache::in_memory();
        let r = sample_result(9);
        assert!(cache.lookup(key(9)).is_none());
        cache.insert(key(9), &r);
        assert!(cache.contains(key(9)));
        assert_eq!(cache.lookup(key(9)), Some(r));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.path, None);
    }
}
