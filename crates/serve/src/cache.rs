//! The content-addressed result cache.
//!
//! Verdicts are keyed by the request's 128-bit content fingerprint
//! ([`crate::protocol::Request::cache_key`]). The in-memory index is
//! sharded: [`SHARD_COUNT`] independently locked open-addressed tables
//! (the same probing shape as `kiss-seq`'s visited table), with the
//! shard picked by the key's top bits — so concurrent lookups and
//! inserts on different shards never contend. Every insert is appended
//! to a single on-disk journal stream so a restarted server comes back
//! warm.
//!
//! Lock pressure is observable: the cache counts every shard-lock
//! acquisition and every acquisition that found the lock held
//! ([`ResultCache::lock_stats`]), and the server surfaces both in the
//! `metrics` snapshot — the proof that sharding removed the old
//! single-mutex contention is a contended/acquired ratio near zero
//! under concurrent load.
//!
//! The journal is line-oriented, one record per line. Current records
//! carry a per-record FNV-1a checksum over everything before the last
//! tab, so a torn or bit-flipped record is detected and skipped instead
//! of replaying a wrong verdict:
//!
//! ```text
//! v2<TAB>0123...cdef<TAB>verdict<TAB>steps<TAB>states<TAB>detail<TAB>checksum
//! ```
//!
//! Control characters in the detail are sanitized to spaces on write. Loading tolerates torn or garbage
//! lines (a crash mid-append loses at most the final record), and a
//! later record for the same key overrides an earlier one.
//!
//! Because the journal is append-only, overridden and re-journaled
//! records accumulate; [`ResultCache::compact`] rewrites the file to
//! one canonical record per live entry (sorted by key, so compaction
//! is byte-reproducible), and inserts trigger it automatically once
//! the journal holds ~4x more records than live entries.
//!
//! Failpoints (`serve.journal.append`, `serve.journal.compact`) let
//! the chaos suite inject torn writes, append errors, and compaction
//! failures; every fired injection is reported through the cache's
//! [`Obs`] handle as a `fault_injected` event.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use kiss_fault::Action;
use kiss_obs::{Event, Obs};

/// The journal file's name inside the cache directory.
pub const JOURNAL_FILE: &str = "cache.journal";

/// Independently locked index partitions. A power of two; the shard is
/// the key's top four bits, so uniformly mixed fingerprints spread
/// evenly.
pub const SHARD_COUNT: usize = 16;

/// Failpoint: one journal append (error = drop the record, truncate =
/// torn write of the record's first K bytes).
const APPEND_POINT: &str = "serve.journal.append";

/// Failpoint: one compaction pass (error = abort, journal untouched).
const COMPACT_POINT: &str = "serve.journal.compact";

/// A cached check verdict — exactly the deterministic half of a
/// response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// The verdict string (`pass`, `race`, ...).
    pub verdict: String,
    /// The deterministic detail line.
    pub detail: String,
    /// Steps the check executed.
    pub steps: u64,
    /// Distinct states the check recorded.
    pub states: u64,
}

/// What journal replay found on open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Valid records applied to the index (overrides included).
    pub replayed: usize,
    /// Garbage, torn, or checksum-failed lines skipped.
    pub skipped: usize,
}

/// One index partition: a power-of-two slot array, linear probing.
struct Shard {
    slots: Vec<Option<(u128, CachedVerdict)>>,
    len: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard { slots: vec![None; ResultCache::INITIAL_SHARD_CAPACITY], len: 0 }
    }

    fn lookup(&self, key: u128) -> Option<&CachedVerdict> {
        let mask = self.slots.len() - 1;
        let mut idx = slot_of(key) & mask;
        loop {
            match &self.slots[idx] {
                None => return None,
                Some((k, v)) if *k == key => return Some(v),
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    /// Inserts or overrides; `true` when the key is new to this shard.
    fn insert(&mut self, key: u128, verdict: CachedVerdict) -> bool {
        // Grow at 3/4 load so probe chains stay short.
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = slot_of(key) & mask;
        loop {
            match &mut self.slots[idx] {
                slot @ None => {
                    *slot = Some((key, verdict));
                    self.len += 1;
                    return true;
                }
                Some((k, v)) if *k == key => {
                    *v = verdict;
                    return false;
                }
                Some(_) => idx = (idx + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; doubled]);
        self.len = 0;
        for (key, verdict) in old.into_iter().flatten() {
            self.insert(key, verdict);
        }
    }
}

/// The single append stream behind every shard, plus its accounting.
/// One mutex guards it: appends are short buffered writes, and keeping
/// the stream singular preserves the on-disk format exactly.
struct Journal {
    writer: Option<BufWriter<File>>,
    /// The journal's path, for compaction rewrites.
    path: Option<PathBuf>,
    /// Lines currently in the journal file (valid or not), replay
    /// included — the auto-compaction trigger.
    records: usize,
    /// Approximate journal size on disk (bytes appended since open,
    /// plus what replay found; reset to the exact image size by
    /// compaction).
    bytes: u64,
    /// Compaction passes completed since open.
    compactions: u64,
    auto_compact_min: usize,
    obs: Obs,
}

impl Journal {
    fn append(&mut self, key: u128, verdict: &CachedVerdict) {
        if self.writer.is_none() {
            return;
        }
        let line = encode_record(key, verdict);
        let action = kiss_fault::hit(APPEND_POINT);
        if let Some(action) = action {
            self.note_fault(APPEND_POINT, action);
        }
        match action {
            // The record is dropped on the floor: the entry degrades to
            // memory-only, exactly like a real failed write.
            Some(Action::Error) => return,
            Some(Action::Panic) => panic!("kiss-fault: injected panic at {APPEND_POINT}"),
            Some(Action::Delay(d)) => std::thread::sleep(d),
            Some(Action::Truncate(cut)) => {
                // A torn write: the record's head lands in the file with
                // no newline, as if the process died mid-append.
                let writer = self.writer.as_mut().expect("checked above");
                let cut = cut.min(line.len());
                let _ = writer.write_all(&line.as_bytes()[..cut]);
                let _ = writer.flush();
                self.records += 1;
                self.bytes += cut as u64;
                return;
            }
            None => {}
        }
        let writer = self.writer.as_mut().expect("checked above");
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
        self.records += 1;
        self.bytes += line.len() as u64 + 1;
    }

    fn note_fault(&self, point: &str, action: Action) {
        self.obs.emit(|_| Event::FaultInjected {
            point: point.to_string(),
            action: action.name().to_string(),
        });
    }
}

/// The cache: sharded open-addressed index plus one optional
/// append-only journal. All methods take `&self`; locking is interior
/// and per-shard, so concurrent readers and writers on different keys
/// proceed in parallel.
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    /// Live entries across all shards (kept outside the shard locks so
    /// `len` and the auto-compaction trigger need no sweep).
    live: AtomicUsize,
    journal: Mutex<Journal>,
    replay: ReplayStats,
    /// Shard-lock acquisitions since open.
    lock_acquires: AtomicU64,
    /// Acquisitions that found the shard lock already held and had to
    /// block — the contention signal the `metrics` op surfaces.
    lock_contended: AtomicU64,
}

impl ResultCache {
    const INITIAL_SHARD_CAPACITY: usize = 16;

    /// Journals shorter than this never auto-compact: rewriting a tiny
    /// file buys nothing.
    const AUTO_COMPACT_MIN: usize = 1024;

    /// A cache with no journal: verdicts live for this process only.
    pub fn in_memory() -> ResultCache {
        ResultCache {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect(),
            live: AtomicUsize::new(0),
            journal: Mutex::new(Journal {
                writer: None,
                path: None,
                records: 0,
                bytes: 0,
                compactions: 0,
                auto_compact_min: Self::AUTO_COMPACT_MIN,
                obs: Obs::off(),
            }),
            replay: ReplayStats::default(),
            lock_acquires: AtomicU64::new(0),
            lock_contended: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) the journal-backed cache in `dir`,
    /// replaying any existing journal into the index.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut cache = ResultCache::in_memory();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let journal = cache.journal.get_mut().expect("journal lock");
                journal.bytes = text.len() as u64;
                for line in text.lines() {
                    // Garbage and torn lines are skipped, not fatal: the
                    // cache is an accelerator, never a source of truth.
                    journal.records += 1;
                    if let Some((key, verdict)) = parse_line(line) {
                        let shard =
                            cache.shards[shard_index(key)].get_mut().expect("shard lock");
                        if shard.insert(key, verdict) {
                            *cache.live.get_mut() += 1;
                        }
                        cache.replay.replayed += 1;
                    } else {
                        cache.replay.skipped += 1;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let journal = cache.journal.get_mut().expect("journal lock");
        journal.writer = Some(BufWriter::new(file));
        journal.path = Some(path);
        Ok(cache)
    }

    /// Routes this cache's `fault_injected` events into `obs`.
    pub fn with_observer(self, obs: Obs) -> ResultCache {
        self.journal.lock().expect("journal lock").obs = obs;
        self
    }

    /// Overrides the auto-compaction floor (tests shrink it; the
    /// default is `AUTO_COMPACT_MIN` records).
    pub fn with_auto_compact_min(self, min: usize) -> ResultCache {
        self.journal.lock().expect("journal lock").auto_compact_min = min;
        self
    }

    /// Cached verdicts held.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index partitions ([`SHARD_COUNT`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(acquisitions, contended)` shard-lock counts since open. The
    /// contended count is how many acquisitions found the lock held;
    /// under a well-sharded load it stays near zero.
    pub fn lock_stats(&self) -> (u64, u64) {
        (
            self.lock_acquires.load(Ordering::Relaxed),
            self.lock_contended.load(Ordering::Relaxed),
        )
    }

    /// What replaying the journal found when this cache was opened.
    pub fn replay_stats(&self) -> ReplayStats {
        self.replay
    }

    /// Lines currently in the journal file (live records, overridden
    /// duplicates, and skipped garbage).
    pub fn journal_records(&self) -> usize {
        self.journal.lock().expect("journal lock").records
    }

    /// Approximate journal size in bytes (exact after a compaction).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.lock().expect("journal lock").bytes
    }

    /// Compaction passes completed since this cache was opened.
    pub fn compactions(&self) -> u64 {
        self.journal.lock().expect("journal lock").compactions
    }

    /// Locks a key's shard, counting the acquisition and whether it had
    /// to block.
    fn shard(&self, key: u128) -> MutexGuard<'_, Shard> {
        self.lock_acquires.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[shard_index(key)];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.lock_contended.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("shard lock")
            }
            Err(TryLockError::Poisoned(e)) => panic!("shard lock: {e}"),
        }
    }

    /// Looks a fingerprint up (the verdict is cloned out of the shard
    /// so the lock is held only for the probe).
    pub fn lookup(&self, key: u128) -> Option<CachedVerdict> {
        self.shard(key).lookup(key).cloned()
    }

    /// Inserts (or overrides) a verdict, appending it to the journal.
    /// The shard lock is released before the journal lock is taken, so
    /// index traffic on other shards never waits on disk I/O. Journal
    /// write failures are swallowed: a full disk degrades the cache to
    /// in-memory, it does not take the server down.
    pub fn insert(&self, key: u128, verdict: CachedVerdict) {
        let fresh = self.shard(key).insert(key, verdict.clone());
        if fresh {
            self.live.fetch_add(1, Ordering::SeqCst);
        }
        let mut journal = self.journal.lock().expect("journal lock");
        journal.append(key, &verdict);
        if journal.writer.is_some()
            && journal.records >= journal.auto_compact_min
            && journal.records >= self.len().saturating_mul(4)
        {
            // A failed auto-compaction is not an error path: the journal
            // keeps appending and the next insert retries.
            let _ = self.compact_locked(&mut journal);
        }
    }

    /// Rewrites the journal to one record per live entry, sorted by
    /// key. The new image goes to a sibling `.tmp` file first and is
    /// renamed over the journal, so a crash mid-compaction leaves the
    /// original intact. Sorting makes the result canonical: compacting
    /// a compacted journal reproduces it byte for byte.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or renaming the new image; the original
    /// journal is untouched in that case.
    pub fn compact(&self) -> io::Result<()> {
        let mut journal = self.journal.lock().expect("journal lock");
        self.compact_locked(&mut journal)
    }

    fn compact_locked(&self, journal: &mut Journal) -> io::Result<()> {
        let Some(path) = journal.path.clone() else { return Ok(()) };
        if let Some(action) = kiss_fault::hit(COMPACT_POINT) {
            journal.note_fault(COMPACT_POINT, action);
            match action {
                Action::Error | Action::Truncate(_) => {
                    return Err(io::Error::other("kiss-fault: injected compaction failure"));
                }
                Action::Panic => panic!("kiss-fault: injected panic at {COMPACT_POINT}"),
                Action::Delay(d) => std::thread::sleep(d),
            }
        }
        // Sweep the shards (each locked briefly in turn) into one sorted
        // image. An insert racing this sweep either lands in the image
        // or appends to the new stream after the rename — both valid.
        let mut entries: Vec<(u128, CachedVerdict)> = Vec::with_capacity(self.len());
        for key_shard in 0..self.shards.len() {
            let shard = {
                self.lock_acquires.fetch_add(1, Ordering::Relaxed);
                self.shards[key_shard].lock().expect("shard lock")
            };
            entries.extend(shard.slots.iter().flatten().cloned());
        }
        entries.sort_unstable_by_key(|(k, _)| *k);
        let tmp = {
            let mut os = path.clone().into_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let write_image = || -> io::Result<u64> {
            let mut out = BufWriter::new(File::create(&tmp)?);
            let mut bytes = 0u64;
            for (key, verdict) in &entries {
                let record = encode_record(*key, verdict);
                out.write_all(record.as_bytes())?;
                out.write_all(b"\n")?;
                bytes += record.len() as u64 + 1;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
            Ok(bytes)
        };
        let bytes = match write_image() {
            Ok(bytes) => bytes,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        // Close the append handle before swapping the file under it.
        journal.writer = None;
        std::fs::rename(&tmp, &path)?;
        journal.writer =
            Some(BufWriter::new(OpenOptions::new().append(true).open(&path)?));
        journal.records = entries.len();
        journal.bytes = bytes;
        journal.compactions += 1;
        Ok(())
    }
}

/// The shard a key lives in: the fingerprint's top bits (its "prefix"),
/// so related keys spread by content, not by insertion order.
fn shard_index(key: u128) -> usize {
    (key >> (128 - SHARD_COUNT.trailing_zeros())) as usize
}

/// The fingerprint is already uniformly mixed, so the slot index just
/// folds the two lanes together.
fn slot_of(key: u128) -> usize {
    ((key as u64) ^ ((key >> 64) as u64)) as usize
}

/// Replaces the journal's separators (tabs, newlines) and other control
/// characters with spaces so a record stays one line of fixed fields.
fn sanitize(s: &str) -> String {
    s.chars().map(|c| if c.is_control() { ' ' } else { c }).collect()
}

/// FNV-1a, the record checksum. Not cryptographic — it guards against
/// torn writes and bit rot, not adversaries (the journal is local,
/// trusted state).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One checksummed `v2` journal line (no trailing newline).
fn encode_record(key: u128, v: &CachedVerdict) -> String {
    let body = format!(
        "v2\t{key:032x}\t{}\t{}\t{}\t{}",
        sanitize(&v.verdict),
        v.steps,
        v.states,
        sanitize(&v.detail),
    );
    let sum = fnv1a64(body.as_bytes());
    format!("{body}\t{sum:016x}")
}

fn parse_line(line: &str) -> Option<(u128, CachedVerdict)> {
    let (body, sum) = line.rsplit_once('\t')?;
    let rest = body.strip_prefix("v2\t")?;
    if u64::from_str_radix(sum, 16).ok()? != fnv1a64(body.as_bytes()) {
        return None;
    }
    let mut parts = rest.splitn(5, '\t');
    let key = u128::from_str_radix(parts.next()?, 16).ok()?;
    let verdict = parts.next()?.to_string();
    let steps = parts.next()?.parse().ok()?;
    let states = parts.next()?.parse().ok()?;
    let detail = parts.next()?.to_string();
    Some((key, CachedVerdict { verdict, detail, steps, states }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn verdict(tag: u64) -> CachedVerdict {
        CachedVerdict {
            verdict: "pass".to_string(),
            detail: format!("no error found #{tag}"),
            steps: tag,
            states: tag / 2,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kiss_serve_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_lookup_override_and_growth() {
        let cache = ResultCache::in_memory();
        assert!(cache.is_empty());
        // Enough entries to force several growth rounds; the shifts
        // spread keys across slots AND shards (high bits vary).
        for i in 0..500u64 {
            cache.insert((u128::from(i) << 7) | (u128::from(i) << 120), verdict(i));
        }
        assert_eq!(cache.len(), 500);
        for i in 0..500u64 {
            assert_eq!(
                cache.lookup((u128::from(i) << 7) | (u128::from(i) << 120)),
                Some(verdict(i))
            );
        }
        assert_eq!(cache.lookup(0xdead_beef), None);
        // A later insert for the same key overrides.
        cache.insert(u128::from(0u64), verdict(999));
        assert_eq!(cache.len(), 500);
        assert_eq!(cache.lookup(0).unwrap().steps, 999);
        let (acquires, _) = cache.lock_stats();
        assert!(acquires >= 1000, "every lookup and insert counts, got {acquires}");
    }

    #[test]
    fn keys_spread_across_shards_by_prefix() {
        let cache = ResultCache::in_memory();
        // Keys differing only in their top bits land in distinct shards.
        for i in 0..SHARD_COUNT as u128 {
            cache.insert(i << 124, verdict(i as u64));
        }
        assert_eq!(cache.len(), SHARD_COUNT);
        let occupied = cache
            .shards
            .iter()
            .filter(|s| s.lock().unwrap().len > 0)
            .count();
        assert_eq!(occupied, SHARD_COUNT, "one key per shard");
    }

    #[test]
    fn concurrent_inserts_and_lookups_stay_consistent() {
        let cache = std::sync::Arc::new(ResultCache::in_memory());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (u128::from(t * 1000 + i)) << 100;
                        cache.insert(key, verdict(t * 1000 + i));
                        assert_eq!(cache.lookup(key), Some(verdict(t * 1000 + i)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.len(), 800);
        let (acquires, contended) = cache.lock_stats();
        assert!(acquires >= 1600);
        // Contention is possible but must be the exception, not the rule.
        assert!(contended < acquires, "{contended}/{acquires}");
    }

    #[test]
    fn journal_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(7, verdict(7));
            cache.insert(8, verdict(8));
            cache.insert(7, verdict(70)); // override, journaled twice
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(7).unwrap().steps, 70, "later record wins");
        assert_eq!(cache.lookup(8), Some(verdict(8)));
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 3, skipped: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_and_garbage_journal_lines_are_skipped() {
        let dir = temp_dir("torn");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(1, verdict(1));
        }
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("complete garbage\n");
        text.push_str("v9\t0\tpass\t0\t0\tfuture version\n");
        // A record of the retired unchecksummed `v1` format.
        text.push_str("v1\t00000000000000000000000000000009\tpass\t9\t4\tno error found #9\n");
        // A good record, then the same record torn mid-write: the torn
        // copy fails its checksum and must not shadow anything.
        text.push_str(&encode_record(2, &verdict(2)));
        text.push('\n');
        let torn = encode_record(3, &verdict(3));
        text.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, text).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1), Some(verdict(1)));
        assert_eq!(cache.lookup(2), Some(verdict(2)));
        assert_eq!(cache.lookup(3), None);
        assert_eq!(cache.lookup(9), None);
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 2, skipped: 4 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interleaved_garbage_between_records_is_skipped() {
        let dir = temp_dir("interleave");
        let path = dir.join(JOURNAL_FILE);
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        for i in 0..8u64 {
            text.push_str(&encode_record(u128::from(i), &verdict(i)));
            text.push('\n');
            text.push_str(&format!("garbage between records {i}\n"));
        }
        std::fs::write(&path, text).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 8);
        for i in 0..8u64 {
            assert_eq!(cache.lookup(u128::from(i)), Some(verdict(i)));
        }
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 8, skipped: 8 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_record_fails_its_checksum() {
        let dir = temp_dir("bitflip");
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(5, verdict(5));
        }
        let path = dir.join(JOURNAL_FILE);
        // Flip one character inside the verdict field: "pass" -> "paXs".
        let text = std::fs::read_to_string(&path).unwrap().replace("pass", "paXs");
        assert!(text.contains("paXs"), "fixture must actually corrupt the record");
        std::fs::write(&path, text).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 0, "a corrupt verdict must not replay");
        assert_eq!(cache.replay_stats(), ReplayStats { replayed: 0, skipped: 1 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn details_with_separators_stay_one_record() {
        let dir = temp_dir("sanitize");
        let nasty = CachedVerdict {
            verdict: "error".to_string(),
            detail: "line one\nline\ttwo".to_string(),
            steps: 0,
            states: 0,
        };
        {
            let cache = ResultCache::open(&dir).unwrap();
            cache.insert(3, nasty);
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(3).unwrap().detail, "line one line two");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_dead_records_and_is_byte_reproducible() {
        let dir = temp_dir("compact");
        {
            let cache = ResultCache::open(&dir).unwrap();
            for round in 0..10u64 {
                for key in 0..20u64 {
                    cache.insert(u128::from(key), verdict(key * 100 + round));
                }
            }
            assert_eq!(cache.journal_records(), 200);
            let bytes_before = cache.journal_bytes();
            assert_eq!(
                bytes_before,
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
            );
            assert_eq!(cache.compactions(), 0);
            cache.compact().unwrap();
            assert_eq!(cache.journal_records(), 20);
            assert_eq!(cache.compactions(), 1);
            assert!(cache.journal_bytes() < bytes_before);
            assert_eq!(
                cache.journal_bytes(),
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
            );
            // The journal stays appendable after the swap.
            cache.insert(999, verdict(999));
            assert_eq!(
                cache.journal_bytes(),
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
            );
        }
        let path = dir.join(JOURNAL_FILE);
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 21);
        assert_eq!(
            cache.journal_bytes(),
            std::fs::metadata(&path).unwrap().len(),
            "replay seeds journal_bytes from the file"
        );
        for key in 0..20u64 {
            assert_eq!(cache.lookup(u128::from(key)).unwrap().steps, key * 100 + 9);
        }
        // Compacting a compacted journal reproduces it byte for byte.
        cache.compact().unwrap();
        let first = std::fs::read(&path).unwrap();
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        cache.compact().unwrap();
        let second = std::fs::read(&path).unwrap();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_every_shard_into_one_image() {
        let dir = temp_dir("shardcompact");
        {
            let cache = ResultCache::open(&dir).unwrap();
            // One key per shard, then overrides to bloat the journal.
            for i in 0..SHARD_COUNT as u128 {
                cache.insert(i << 124, verdict(i as u64));
                cache.insert(i << 124, verdict(i as u64 + 100));
            }
            cache.compact().unwrap();
            assert_eq!(cache.journal_records(), SHARD_COUNT);
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), SHARD_COUNT);
        for i in 0..SHARD_COUNT as u128 {
            assert_eq!(cache.lookup(i << 124).unwrap().steps, i as u64 + 100);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inserts_auto_compact_once_the_journal_bloats() {
        let dir = temp_dir("autocompact");
        let cache =
            ResultCache::open(&dir).unwrap().with_auto_compact_min(32);
        // Hammer four keys: the journal grows with every override until
        // it crosses 4x the live count and collapses back to 4 records.
        for round in 0..40u64 {
            for key in 0..4u64 {
                cache.insert(u128::from(key), verdict(round));
            }
        }
        assert_eq!(cache.len(), 4);
        assert!(
            cache.journal_records() < 40,
            "journal should have auto-compacted, has {} records",
            cache.journal_records()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
