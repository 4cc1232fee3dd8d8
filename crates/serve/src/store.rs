//! The release store: what the data owner retains per protected release,
//! either in memory or durably on disk.
//!
//! The paper's custodian must answer `detect` and `resolve-ownership`
//! claims *long after* a release was outsourced — the binning columns, the
//! mark and the ownership proof are the owner's evidence, and evidence must
//! survive process death. [`DurableStore`] therefore keeps every release in
//! an append-only **write-ahead log** and periodically folds the log into a
//! **snapshot**:
//!
//! ```text
//! append(release)           recovery (open)
//!   │                          │
//!   ▼                          ▼
//! wal.log  ──compaction──▶  snapshot.bin ──▶ index (id → record location)
//!   (length-prefixed,         (atomic tmp+rename,   ▲       + next id
//!    CRC-32 framed            same framing)         │
//!    records)                 torn WAL tail cut ────┘
//!   │                             │ old generation kept as
//!   │ header rewritten for the    ▼ snapshot.spare, rewritten in place
//!   ▼ next generation               by the next compaction
//! wal.log, recycled in place
//! ```
//!
//! * **Nothing decoded stays in memory.** The store's memory grows with
//!   the number of releases, not with their size: its index holds, per
//!   release, the fixed-size location of its latest full record (snapshot
//!   or WAL, byte offset, length, and the WAL generation its CRC covers)
//!   and the recipients logged since the last compaction.
//!   [`ReleaseStore::get`] reads that one frame with a positional read,
//!   checks its CRC, decodes it and folds the recipients in; a record that
//!   does not read back intact fails that read alone. Reads run under the
//!   index lock, and a compaction moves every location to the new snapshot
//!   under the same lock before the old files are reused, so no read ever
//!   lands on a retired location.
//! * **WAL records** are `[u32 len][u32 crc32][payload]` frames over the
//!   compact binary codec of [`medshield_core::codec`]; a crash can only
//!   tear the *tail*, which recovery detects (short frame, impossible
//!   length, checksum mismatch) and stops at.
//! * **WAL formats.** A log is created as v1: the magic `MSWAL\x01\r\n`,
//!   then frames whose CRC covers the payload. Its first compaction turns
//!   it into v2, the recyclable format: the magic `MSWAL\x02\r\n` and a
//!   little-endian `u64` **generation**, then frames whose CRC covers the
//!   eight generation bytes followed by the payload. A compaction retires
//!   every frame at once by moving the log to the next generation, so the
//!   file is overwritten from the front instead of shrunk: freeing a large
//!   file's blocks is synchronous, and on a disk mounted with `discard` it
//!   held the WAL lock for up to a second per compaction. Recovery reads
//!   the whole file and stops at the first frame whose CRC fails under the
//!   header's generation, so an older generation's stale frame reads
//!   exactly like a torn tail. Opening cuts the file to the recovered end
//!   with `set_len` and `fdatasync`s it before the first append (a clean
//!   v1 log ends there already, so opening one writes nothing): a torn
//!   frame can hide complete, unacknowledged frames of the same generation
//!   behind it, and an append that happened to end where one begins would
//!   otherwise bring it back. The cut also drops a recycled log's stale
//!   tail, so the next start reads only the live frames; it happens before
//!   the store serves anything, so no lock is held while the blocks are
//!   freed. Recovery decodes every record to validate it and keeps only its
//!   location.
//! * **Snapshots** are written to `snapshot.tmp`, fsynced, renamed over
//!   `snapshot.bin` and only then are the WAL's records retired. The
//!   previous generation's file is kept as `snapshot.spare` (its contents
//!   are never read) and recycled as the next `snapshot.tmp`, for the same
//!   reason the WAL is recycled. A compaction runs, in order:
//!   1. rename `snapshot.spare` to `snapshot.tmp` (create `snapshot.tmp`
//!      when there is no spare);
//!   2. overwrite it from offset 0, `set_len` it to the exact length and
//!      `fdatasync` it. The records stream in id order from the old
//!      snapshot and the WAL through buffered positional reads: each
//!      payload is copied as it is once its CRC checks out, and only a
//!      release with recipients logged since is decoded and re-encoded
//!      with them folded in. A record that fails its CRC fails the
//!      compaction here, before anything else changes;
//!   3. hard-link `snapshot.bin` as `snapshot.spare`, so the rename below
//!      drops a link instead of freeing the old file;
//!   4. rename `snapshot.tmp` over `snapshot.bin` (removing the fresh link
//!      if the rename fails), then point the index at the new file;
//!   5. fsync the directory;
//!   6. under the WAL lock, before any frame of the new generation is
//!      written, overwrite the WAL header at offset 0 with the v2 header of
//!      the next generation, `fdatasync` it, and append from just past it.
//!
//!   Crash argument: until step 4 is durable, recovery reads the old
//!   `snapshot.bin` plus the full WAL, and a leftover `snapshot.tmp` is
//!   discarded at open. After step 4 it reads the new `snapshot.bin` plus
//!   the full WAL, and replaying a record already folded into the snapshot
//!   is idempotent. The 16-byte header lies in the file's first sector, so
//!   step 6 lands whole or not at all; even a write torn between its two
//!   halves is safe. With the old header, recovery replays the old
//!   generation's frames, all of them folded into the new snapshot. With
//!   the new one, no frame validates yet. Over a v1 log, the v2 magic
//!   alone makes the first frame's header read as the generation, and the
//!   generation alone reads as a v1 frame that fails its CRC; either way
//!   no old frame replays, and the snapshot holds them all. The `fdatasync`
//!   in step 6 completes before the first frame of the new generation is
//!   written: were the header page lost after such a frame was
//!   acknowledged, recovery would read that frame under the old generation
//!   and miss it and every frame after it. So any error in step 6 fail-stops
//!   the store like a failed fsync. A failure in steps 1–5 leaves the WAL
//!   and its append cursor untouched. A crash between steps 3 and 4 leaves
//!   `snapshot.spare` as a second link to the live `snapshot.bin`, so the
//!   store never writes into a spare that is the same inode as
//!   `snapshot.bin`: such a spare is discarded at open and before each
//!   reuse.
//! * **fsync batching (group commit):** [`ReleaseStore::append`] only
//!   writes; [`ReleaseStore::sync`] makes everything appended so far
//!   durable before a `protect` reply is released, and concurrent workers
//!   waiting on the same sync share one `fdatasync` call instead of queuing
//!   one each.
//! * **Failed writes fail-stop.** A frame write that errors sets the same
//!   sticky flag as a failed fsync: every later append, recipient add and
//!   sync errors, while reads keep serving every record that still reads
//!   back with a valid CRC. The file is left as it is, since cutting it
//!   back would free a recycled log's stale tail under the WAL lock.
//!   Whether any of the frame reached the disk is unknown; a restart
//!   recovers every complete frame and stops at a torn one.
//! * **Recipient records:** `protect-for` appends a dedicated WAL record
//!   per registered recipient (release id, name, fingerprint mark) instead
//!   of rewriting the release; snapshots fold the recipients back into
//!   their release's record. Pre-refactor (v1) stores decode unchanged —
//!   their releases simply recover with empty recipient lists, and
//!   recipient-less releases are still *written* in the v1 byte format.
//! * **Id stability:** ids are assigned in WAL order under the log lock and
//!   `next id` is restored on recovery as one past the highest durable id —
//!   a release id handed to a client is never reassigned across restarts,
//!   so stale client ids can never alias onto new releases.

use medshield_binning::ColumnBinning;
use medshield_core::codec::{self, CodecError, Reader, Writer};
use medshield_dht::NodeId;
use medshield_watermark::{Mark, OwnershipProof};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write as IoWrite};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What the data holder keeps per protected release: everything detection
/// and dispute resolution need later.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRelease {
    /// Per-column binning state (maximal/minimal/ultimate node sets), in
    /// schema order of the quasi columns.
    pub columns: Vec<ColumnBinning>,
    /// The release's own mark — the owner's single-mark copy (`protect`).
    pub mark: Mark,
    /// The §5.4 ownership proof, when the release was protected with
    /// `mark_from_statistic` enabled.
    pub ownership: Option<OwnershipProof>,
    /// The recipients this release was fingerprinted for (`protect-for`),
    /// in registration order. Empty for single-mark releases, including
    /// every release recovered from a pre-refactor (v1) store.
    pub recipients: Vec<StoredRecipient>,
}

impl StoredRelease {
    /// The registered recipient with the given name, if any.
    pub fn recipient(&self, name: &str) -> Option<&StoredRecipient> {
        self.recipients.iter().find(|r| r.name == name)
    }

    /// Register each of `recipients` in order, skipping names already
    /// registered: a recipient record replayed over a release that already
    /// lists it (a snapshot folded it in) must not duplicate it.
    fn fold_recipients(&mut self, recipients: &[StoredRecipient]) {
        for recipient in recipients {
            if self.recipient(&recipient.name).is_none() {
                self.recipients.push(recipient.clone());
            }
        }
    }
}

/// One recipient copy of a release: the identity the fingerprint was derived
/// from and the derived mark itself (stored so `resolve-leaker` can score
/// recipients without re-deriving, and so the evidence survives a key
/// rotation).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecipient {
    /// The recipient's identity — the fingerprint derivation label.
    pub name: String,
    /// The fingerprint mark embedded into this recipient's copy.
    pub mark: Mark,
}

/// Errors from a release store.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the backing files failed.
    Io(std::io::Error),
    /// The backing files exist but cannot be decoded (and the damage is not
    /// a truncatable torn tail), or a stored record no longer reads back
    /// with a valid checksum.
    Corrupt(String),
    /// Another live process holds the data directory.
    Busy(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "release store i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "release store is corrupt: {m}"),
            StoreError::Busy(m) => write!(f, "release store is busy: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// Lock a mutex, recovering from poisoning: every mutex in the serving
/// layer guards plain-data state (maps, deques, counters) that is consistent
/// after any panic, so one panicking worker must not cascade into
/// `PoisonError` panics on unrelated connections.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // medlint::allow(lock-discipline, this IS the sanctioned acquisition point the rule funnels everyone into)
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where the serving layer keeps release state. All methods take `&self`:
/// implementations are shared across worker threads.
pub trait ReleaseStore: Send + Sync {
    /// Store a release and return its id. Ids are strictly increasing and
    /// never reused, in memory or across restarts.
    fn append(&self, release: StoredRelease) -> Result<u64, StoreError>;

    /// Register a recipient copy of release `id`. Returns the updated
    /// release, or `None` when no such release exists. Idempotent per name:
    /// re-registering an existing recipient returns the release unchanged
    /// (fingerprints are deterministic, so the mark cannot differ), and
    /// durable stores write no duplicate WAL record for it.
    fn add_recipient(
        &self,
        id: u64,
        recipient: StoredRecipient,
    ) -> Result<Option<Arc<StoredRelease>>, StoreError>;

    /// Make every release appended so far durable. Called by the server
    /// once per mutating queue drain *before* the `protect` or `protect-for`
    /// reply is released; concurrent callers share one fsync (group
    /// commit). A no-op for in-memory stores.
    fn sync(&self) -> Result<(), StoreError>;

    /// The release with the given id, or `None` when none is stored. Errs
    /// when the release is stored but cannot be read back: durable stores
    /// read it from disk on every call, and a record that fails its
    /// checksum fails this one release, not the store.
    fn get(&self, id: u64) -> Result<Option<Arc<StoredRelease>>, StoreError>;

    /// Number of stored releases.
    fn len(&self) -> usize;

    /// True when the store holds no releases.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id the next [`ReleaseStore::append`] will assign.
    fn next_id(&self) -> u64;

    /// True when the store survives a restart.
    fn is_durable(&self) -> bool;

    /// Compactions that failed since the store was opened, automatic ones
    /// and [`DurableStore::compact`] alike (observable via `ping`). A count
    /// that keeps rising means the WAL is no longer retired and keeps
    /// growing. Always 0 for a store that never compacts.
    fn compactions_failed(&self) -> u64 {
        0
    }

    /// Test hook: panic **while holding the store's internal lock**, to
    /// exercise mutex-poison recovery end to end. Only reachable through
    /// the debug-gated `panic` wire command; never called in production.
    #[doc(hidden)]
    fn poison_for_tests(&self) {
        // medlint::allow(no-panic, test hook reachable only via the debug-gated panic command; the panic is the point)
        panic!("debug poison hook");
    }
}

/// The default, restart-volatile store: a mutex-guarded map. Tests and
/// short-lived servers use it; `--data-dir` swaps in [`DurableStore`].
#[derive(Debug)]
pub struct MemoryStore {
    map: Mutex<HashMap<u64, Arc<StoredRelease>>>,
    next: AtomicU64,
}

impl MemoryStore {
    /// An empty in-memory store; ids start at 1.
    pub fn new() -> MemoryStore {
        MemoryStore { map: Mutex::new(HashMap::new()), next: AtomicU64::new(1) }
    }
}

impl Default for MemoryStore {
    /// Same as [`MemoryStore::new`] — a derived `Default` would start ids
    /// at 0, diverging from every other constructor's "ids start at 1"
    /// contract.
    fn default() -> MemoryStore {
        MemoryStore::new()
    }
}

impl ReleaseStore for MemoryStore {
    fn append(&self, release: StoredRelease) -> Result<u64, StoreError> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.map).insert(id, Arc::new(release));
        Ok(id)
    }

    fn add_recipient(
        &self,
        id: u64,
        recipient: StoredRecipient,
    ) -> Result<Option<Arc<StoredRelease>>, StoreError> {
        let mut map = lock_unpoisoned(&self.map);
        let Some(existing) = map.get_mut(&id) else { return Ok(None) };
        if existing.recipient(&recipient.name).is_none() {
            Arc::make_mut(existing).recipients.push(recipient);
        }
        Ok(Some(Arc::clone(existing)))
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn get(&self, id: u64) -> Result<Option<Arc<StoredRelease>>, StoreError> {
        Ok(lock_unpoisoned(&self.map).get(&id).cloned())
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.map).len()
    }

    fn next_id(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn is_durable(&self) -> bool {
        false
    }

    fn poison_for_tests(&self) {
        let _guard = lock_unpoisoned(&self.map);
        // medlint::allow(no-panic, test hook: panics while holding the lock to exercise poison recovery)
        panic!("debug poison hook (memory store)");
    }
}

/// File names inside the data directory.
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const SNAPSHOT_SPARE: &str = "snapshot.spare";
const LOCK_FILE: &str = "lock";

/// Magic prefixes identifying (and versioning) the file formats: a WAL is
/// v1 until its first compaction and v2 (recyclable) after it.
const WAL_MAGIC_V1: &[u8; 8] = b"MSWAL\x01\r\n";
const WAL_MAGIC_V2: &[u8; 8] = b"MSWAL\x02\r\n";
const SNAPSHOT_MAGIC: &[u8; 8] = b"MSSNP\x01\r\n";

/// Length of a v2 WAL header: the magic and the `u64` generation.
const WAL_HEADER_V2_LEN: u64 = 16;

/// Length of a snapshot header: the magic, the next id and the record
/// count.
const SNAPSHOT_HEADER_LEN: u64 = 24;

/// Length of a frame header: `[u32 len][u32 crc32]`.
const FRAME_HEADER_LEN: usize = 8;

/// Capacity of the buffered writer a compaction streams the snapshot
/// through: the snapshot is written in blocks of this size, not one
/// `write` per record.
const SNAPSHOT_BUFFER: usize = 256 * 1024;

/// Smallest read [`BlockReader`] makes: recovery and compaction read the
/// files in blocks of this size, not one `read` per record.
const READ_BUFFER: usize = 256 * 1024;

/// Recovery refuses record lengths beyond this: a frame header announcing
/// more is a torn or foreign tail, not a release record (real records are
/// a few hundred bytes).
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Version tags of the record payload encodings (the first payload byte).
///
/// * Tag 1 is the pre-refactor single-mark release record. It is still
///   **written** whenever a release has no recipients, so a store that never
///   sees `protect-for` stays byte-identical to one produced before the
///   per-recipient refactor — and a v1 store recovers without rewriting.
/// * Tag 2 is a release record with its recipient list folded in (snapshots
///   always fold; the WAL holds one when a `protect-for` created the
///   release).
/// * Tag 3 is the recipient-add record appended by
///   [`ReleaseStore::add_recipient`]; replaying it folds the recipient onto
///   its release.
const RELEASE_RECORD_V1: u8 = 1;
const RELEASE_RECORD_V2: u8 = 2;
const RECIPIENT_RECORD: u8 = 3;

/// The file a stored record lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Snapshot,
    Wal,
}

impl Source {
    fn file_name(self) -> &'static str {
        match self {
            Source::Snapshot => SNAPSHOT_FILE,
            Source::Wal => WAL_FILE,
        }
    }
}

/// Where a release's latest full record lies: the frame at byte `offset`
/// of the snapshot or the WAL, its payload length, and the generation its
/// CRC covers (`None` in a snapshot or a v1 WAL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Location {
    source: Source,
    offset: u64,
    len: u32,
    generation: Option<u64>,
}

/// What the index keeps per release.
#[derive(Debug)]
struct Entry {
    location: Location,
    /// Recipients logged since the record at `location` was written, in
    /// registration order; reads and compaction fold them in.
    pending: Vec<StoredRecipient>,
}

/// The index of a durable store, and the snapshot file its snapshot
/// locations point into. Every read of a record happens under its lock.
#[derive(Debug)]
struct Index {
    entries: BTreeMap<u64, Entry>,
    snapshot: Option<File>,
}

/// The sequencing state of the write-ahead log; guarded by one mutex so WAL
/// bytes and release ids are appended in the same order.
#[derive(Debug)]
struct Wal {
    file: File,
    /// The generation of a recycled (v2) log, whose frame CRCs cover it;
    /// `None` while the log is v1.
    generation: Option<u64>,
    /// The offset the next frame is written at.
    end: u64,
    /// Appends since the last snapshot, for the compaction trigger.
    since_snapshot: usize,
}

/// Group-commit bookkeeping: `synced` / `written` count records, not bytes.
#[derive(Debug, Default)]
struct SyncState {
    synced: u64,
    syncing: bool,
    /// Set on the first fsync failure, permanently. A failed `fdatasync`
    /// may have *discarded* the dirty pages it could not write (the
    /// "fsyncgate" semantics of Linux), so a later successful fsync must
    /// not be credited as covering the earlier records — the store
    /// fail-stops: reads keep serving, every further append/sync errors,
    /// and a restart re-derives the truth from what actually reached disk.
    /// A failed frame write or compaction step 6 sets it too.
    failed: bool,
}

/// The durable release store: WAL + snapshot + crash recovery. See the
/// module docs for the file formats, the index and the crash-ordering
/// argument.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    index: Mutex<Index>,
    wal: Mutex<Wal>,
    /// A second handle on the WAL: group commit fsyncs through it without
    /// holding the append lock, and records are read through it with
    /// positional reads, which leave the append cursor where it is.
    wal_file: File,
    /// The next id to assign; only mutated under the WAL lock so id order
    /// equals log order.
    next: AtomicU64,
    /// Records appended (and OS-buffered) so far.
    written: AtomicU64,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    /// Snapshot + compact after this many appends; 0 disables snapshots
    /// (the WAL alone still recovers everything).
    snapshot_every: usize,
    /// Releases restored by recovery (observable via `ping`).
    recovered: usize,
    /// Failed compactions (observable via `ping`).
    compactions_failed: AtomicU64,
    /// Holds the OS advisory lock on the data directory for the store's
    /// whole lifetime; released automatically when the process dies (even
    /// by SIGKILL), so a crashed owner never wedges the next one.
    _lock: File,
}

impl DurableStore {
    /// Open (or create) a durable store in `dir`, running crash recovery:
    /// index the snapshot if one exists, replay the WAL on top up to a torn
    /// tail record or a stale frame, cut the file there, and restore the
    /// next release id as one past the highest durable id.
    pub fn open(dir: impl AsRef<Path>, snapshot_every: usize) -> Result<DurableStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Exactly one live process may own a data directory: two writers
        // would interleave WAL frames and hand the same release id to
        // different clients — the aliasing this store exists to prevent.
        // An OS advisory lock fails the second opener fast and evaporates
        // with the holder's death, however abrupt.
        let lock = File::create(dir.join(LOCK_FILE))?;
        if lock.try_lock().is_err() {
            return Err(StoreError::Busy(format!(
                "data directory {} is locked by another live process",
                dir.display()
            )));
        }
        // A leftover snapshot.tmp was never renamed, i.e. never became the
        // snapshot: discard it.
        let tmp = dir.join(SNAPSHOT_TMP);
        if tmp.exists() {
            let _ = std::fs::remove_file(&tmp);
        }
        discard_linked_spare(&dir)?;

        let mut entries = BTreeMap::new();
        let mut next: u64 = 1;
        let snapshot = match File::open(dir.join(SNAPSHOT_FILE)) {
            Ok(file) => {
                parse_snapshot(&file, &mut entries, &mut next)?;
                Some(file)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let wal_path = dir.join(WAL_FILE);
        // Never truncate on open: recovery decides below how much of an
        // existing log survives.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut reader = BlockReader::new(&file)?;
        let head_len = reader.len.min(WAL_HEADER_V2_LEN) as usize;
        let header = WalHeader::parse(reader.get(0, head_len)?.unwrap_or_default());
        let (generation, valid_len) = match header {
            Some(WalHeader::Fresh) => {
                // New log — or one whose very first header write was torn,
                // which means it never held a record.
                file.set_len(0)?;
                file.write_all_at(WAL_MAGIC_V1, 0)?;
                file.sync_data()?;
                (None, WAL_MAGIC_V1.len() as u64)
            }
            Some(WalHeader::V1) => {
                let start = WAL_MAGIC_V1.len() as u64;
                let valid_len = replay_wal(&mut reader, start, None, &mut entries, &mut next)?;
                (None, valid_len)
            }
            Some(WalHeader::V2(generation)) => {
                let start = WAL_HEADER_V2_LEN;
                let valid_len =
                    replay_wal(&mut reader, start, Some(generation), &mut entries, &mut next)?;
                (Some(generation), valid_len)
            }
            // Anything else is a foreign file; refuse to overwrite it.
            None => {
                return Err(StoreError::Corrupt(format!(
                    "{} does not start with the WAL magic",
                    wal_path.display()
                )))
            }
        };
        // Cut whatever follows the recovered end (a torn frame, or a
        // recycled log's stale tail) before the first append: frames past a
        // torn one must not be revived by an append that ends where one
        // begins (see the module docs).
        if reader.len > valid_len {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        drop(reader);
        // Position the cursor for appending.
        file.seek(SeekFrom::Start(valid_len))?;
        // Make the log's *directory entry* durable too: fdatasync on the
        // file alone does not persist the creation of a fresh wal.log, and
        // losing that entry on power failure would resurrect an empty store
        // whose ids restart at 1 — the aliasing this module exists to
        // prevent. Same ordering the snapshot rename uses.
        File::open(&dir).and_then(|d| d.sync_all())?;

        let wal_file = file.try_clone()?;
        let recovered = entries.len();
        Ok(DurableStore {
            dir,
            index: Mutex::new(Index { entries, snapshot }),
            wal: Mutex::new(Wal { file, generation, end: valid_len, since_snapshot: 0 }),
            wal_file,
            next: AtomicU64::new(next),
            written: AtomicU64::new(0),
            sync_state: Mutex::new(SyncState::default()),
            sync_cv: Condvar::new(),
            snapshot_every,
            recovered,
            compactions_failed: AtomicU64::new(0),
            _lock: lock,
        })
    }

    /// Releases restored by crash recovery when the store was opened.
    pub fn recovered_releases(&self) -> usize {
        self.recovered
    }

    /// Fold every release into a snapshot and retire the WAL's records,
    /// without waiting for the `snapshot_every` trigger. Tests and
    /// operators use this; appends run it automatically.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut wal = lock_unpoisoned(&self.wal);
        self.snapshot_locked(&mut wal)
    }

    /// Read release `id` from its latest record: check the frame's length
    /// and CRC, decode it and fold in the recipients logged since. `None`
    /// when the index holds no such release. The read happens under the
    /// index lock, so it never lands on a location a compaction retired.
    fn read(&self, id: u64) -> Result<Option<StoredRelease>, StoreError> {
        let index = lock_unpoisoned(&self.index);
        let Some(entry) = index.entries.get(&id) else { return Ok(None) };
        let location = entry.location;
        let file = match location.source {
            Source::Wal => &self.wal_file,
            Source::Snapshot => index.snapshot.as_ref().ok_or_else(|| {
                StoreError::Corrupt(format!("r{id} is indexed in a snapshot the store lacks"))
            })?,
        };
        let mut frame = vec![0u8; FRAME_HEADER_LEN + location.len as usize];
        file.read_exact_at(&mut frame, location.offset)?;
        let payload = verified_payload(&frame, id, &location)?;
        let (stored_id, mut release) = decode_release_record(payload, &mut Vec::new())?;
        if stored_id != id {
            return Err(StoreError::Corrupt(format!(
                "the record indexed as r{id} is r{stored_id}"
            )));
        }
        release.fold_recipients(&entry.pending);
        Ok(Some(release))
    }

    /// Write `payload` as one frame of the WAL's generation, record it in
    /// the index with `apply` (given the frame's location), and compact once
    /// `snapshot_every` records have been logged since the last snapshot.
    ///
    /// A failed write fail-stops the store and leaves the file as it is:
    /// whether any of the frame reached the disk is unknown, and cutting the
    /// file back would free a recycled log's stale tail under the WAL lock.
    /// Recovery stops at the torn frame when the store is reopened.
    fn log<T>(
        &self,
        wal: &mut Wal,
        payload: &[u8],
        apply: impl FnOnce(&mut Index, Location) -> T,
    ) -> Result<T, StoreError> {
        if let Err(e) = wal.file.write_all(&frame_record(wal.generation, payload)) {
            lock_unpoisoned(&self.sync_state).failed = true;
            return Err(StoreError::Io(e));
        }
        let location = Location {
            source: Source::Wal,
            offset: wal.end,
            len: payload.len() as u32,
            generation: wal.generation,
        };
        wal.end += (FRAME_HEADER_LEN + payload.len()) as u64;
        self.written.fetch_add(1, Ordering::Release);
        let applied = apply(&mut lock_unpoisoned(&self.index), location);
        wal.since_snapshot += 1;
        if self.snapshot_every > 0 && wal.since_snapshot >= self.snapshot_every {
            // Compaction is an optimization, never a correctness need: the
            // WAL already holds this record, so a snapshot failure must not
            // fail the mutation (the client would retry a release that is
            // stored, durable and serving). The trigger counter was reset,
            // so compaction simply retries after another `snapshot_every`
            // records. A failure in steps 1–5 leaves the log and its append
            // cursor as they were; one in step 6 fail-stops the store, so
            // the next `sync` reports it.
            let _ = self.snapshot_locked(wal);
        }
        Ok(applied)
    }

    /// Compact under the WAL lock, and count the compaction if it fails.
    fn snapshot_locked(&self, wal: &mut Wal) -> Result<(), StoreError> {
        let compacted = self.write_snapshot_locked(wal);
        if compacted.is_err() {
            self.compactions_failed.fetch_add(1, Ordering::Relaxed);
        }
        compacted
    }

    /// Compact under the WAL lock, so no record can be logged between
    /// taking the plan and the header rewrite. The six steps and their
    /// crash argument are in the module docs.
    fn write_snapshot_locked(&self, wal: &mut Wal) -> Result<(), StoreError> {
        wal.since_snapshot = 0;
        // The WAL lock keeps every entry as it is until this returns; the
        // index lock is taken only to copy the plan and, after the rename,
        // to point the entries at the new file.
        let (old_snapshot, mut plan) = {
            let index = lock_unpoisoned(&self.index);
            let snapshot = index.snapshot.as_ref().map(File::try_clone).transpose()?;
            let plan: Vec<(u64, Location, Vec<StoredRecipient>)> = index
                .entries
                .iter()
                .map(|(id, entry)| (*id, entry.location, entry.pending.clone()))
                .collect();
            (snapshot, plan)
        };

        // Steps 1–2: recycle the spare as snapshot.tmp and overwrite it,
        // streaming each record from the file it lies in. Each entry's plan
        // location becomes the record's location in the new file.
        let tmp_path = self.dir.join(SNAPSHOT_TMP);
        let mut out = BufWriter::with_capacity(SNAPSHOT_BUFFER, self.open_snapshot_tmp(&tmp_path)?);
        out.write_all(SNAPSHOT_MAGIC)?;
        out.write_all(&self.next.load(Ordering::Relaxed).to_le_bytes())?;
        out.write_all(&(plan.len() as u64).to_le_bytes())?;
        let mut snapshot_reader = old_snapshot.as_ref().map(BlockReader::new).transpose()?;
        let mut wal_reader = BlockReader::new(&self.wal_file)?;
        let mut payload = Vec::new();
        let mut scratch = Vec::new();
        let mut at = SNAPSHOT_HEADER_LEN;
        for (id, location, pending) in &mut plan {
            let reader = match location.source {
                Source::Wal => Some(&mut wal_reader),
                Source::Snapshot => snapshot_reader.as_mut(),
            };
            let frame_len = FRAME_HEADER_LEN + location.len as usize;
            let frame = match reader {
                Some(reader) => reader.get(location.offset, frame_len)?.unwrap_or_default(),
                None => &[],
            };
            let record = verified_payload(frame, *id, location)?;
            let len = if pending.is_empty() {
                if location.generation.is_none() {
                    // The CRC covers the payload alone, as in a snapshot.
                    out.write_all(frame)?;
                } else {
                    out.write_all(&frame_header(None, record))?;
                    out.write_all(record)?;
                }
                record.len()
            } else {
                let (_, mut release) = decode_release_record(record, &mut scratch)?;
                release.fold_recipients(pending);
                let mut w = Writer::reusing(payload);
                write_release_record(&mut w, *id, &release);
                payload = w.into_bytes()?;
                out.write_all(&frame_header(None, &payload))?;
                out.write_all(&payload)?;
                payload.len()
            };
            *location = Location {
                source: Source::Snapshot,
                offset: at,
                len: len as u32,
                generation: None,
            };
            at += (FRAME_HEADER_LEN + len) as u64;
        }
        let snapshot = out.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        snapshot.set_len(at)?;
        snapshot.sync_data()?;
        // Steps 3–4: keep the old generation alive as the next spare, then
        // swap the new snapshot in. With no snapshot yet (or a filesystem
        // without hard links) the rename frees the old file instead.
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        let spare_path = self.dir.join(SNAPSHOT_SPARE);
        let linked = std::fs::hard_link(&snapshot_path, &spare_path).is_ok();
        if let Err(e) = std::fs::rename(&tmp_path, &snapshot_path) {
            if linked {
                let _ = std::fs::remove_file(&spare_path);
            }
            return Err(e.into());
        }
        // The new file is the snapshot now: every release reads from it
        // from here on, before step 6 retires the WAL's frames and the next
        // compaction overwrites the old snapshot.
        {
            let mut index = lock_unpoisoned(&self.index);
            index.snapshot = Some(snapshot);
            for (id, location, _) in plan {
                if let Some(entry) = index.entries.get_mut(&id) {
                    entry.location = location;
                    entry.pending = Vec::new();
                }
            }
        }
        // The rename itself must be durable before the WAL loses the same
        // records. If the directory cannot be fsynced, keep the log as it
        // is: it still holds everything and compaction retries later.
        if File::open(&self.dir).and_then(|d| d.sync_all()).is_err() {
            return Ok(());
        }
        // Step 6. Whether a failed header write or fsync reached the disk
        // is unknown, and frames appended under the wrong generation would
        // be invisible to recovery: fail-stop, as for a failed fsync.
        recycle_wal(wal).map_err(|e| {
            lock_unpoisoned(&self.sync_state).failed = true;
            StoreError::Io(e)
        })
    }

    /// Open `snapshot.tmp` for overwriting (and, once it is the snapshot,
    /// for reading): the previous generation's `snapshot.spare` renamed into
    /// place when there is one (its blocks are rewritten rather than freed
    /// and reallocated), a new file otherwise.
    fn open_snapshot_tmp(&self, tmp_path: &Path) -> Result<File, StoreError> {
        discard_linked_spare(&self.dir)?;
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        match std::fs::rename(self.dir.join(SNAPSHOT_SPARE), tmp_path) {
            Ok(()) => Ok(options.open(tmp_path)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok(options.create(true).truncate(true).open(tmp_path)?)
            }
            Err(e) => Err(e.into()),
        }
    }
}

/// The error every mutation of a fail-stopped store returns.
fn fail_stopped() -> StoreError {
    StoreError::Io(std::io::Error::other(
        "the store fail-stopped after a failed write or fsync; restart to recover",
    ))
}

/// Compaction step 6: retire every frame of `wal` by overwriting its header
/// with the v2 header of the next generation, make that durable, and move
/// the append cursor to just past it. The file keeps its length.
fn recycle_wal(wal: &mut Wal) -> std::io::Result<()> {
    let generation = wal.generation.map_or(1, |g| g.wrapping_add(1));
    let mut header = [0u8; WAL_HEADER_V2_LEN as usize];
    let (magic, tag) = header.split_at_mut(WAL_MAGIC_V2.len());
    magic.copy_from_slice(WAL_MAGIC_V2);
    tag.copy_from_slice(&generation.to_le_bytes());
    wal.file.write_all_at(&header, 0)?;
    wal.file.sync_data()?;
    wal.file.seek(SeekFrom::Start(WAL_HEADER_V2_LEN))?;
    wal.generation = Some(generation);
    wal.end = WAL_HEADER_V2_LEN;
    Ok(())
}

/// Buffered positional reads of one file: the bytes asked for come out of
/// a buffer of at least [`READ_BUFFER`] bytes filled with `read_at`, so
/// records read in file order cost one read per buffer, not one per record,
/// and the file's cursor (the WAL's append position) never moves.
struct BlockReader<'a> {
    file: &'a File,
    /// The file's length when the reader was made; nothing past it is read.
    len: u64,
    /// The bytes of the file from `start` on.
    buf: Vec<u8>,
    start: u64,
}

impl<'a> BlockReader<'a> {
    fn new(file: &'a File) -> std::io::Result<BlockReader<'a>> {
        Ok(BlockReader { file, len: file.metadata()?.len(), buf: Vec::new(), start: 0 })
    }

    /// The `len` bytes at offset `at`, or `None` when the file ends first.
    fn get(&mut self, at: u64, len: usize) -> std::io::Result<Option<&[u8]>> {
        let Some(end) = at.checked_add(len as u64).filter(|&end| end <= self.len) else {
            return Ok(None);
        };
        if at < self.start || end > self.start + self.buf.len() as u64 {
            let size = (self.len - at).min(len.max(READ_BUFFER) as u64) as usize;
            self.buf.resize(size, 0);
            self.file.read_exact_at(&mut self.buf, at)?;
            self.start = at;
        }
        let from = (at - self.start) as usize;
        Ok(self.buf.get(from..from + len))
    }
}

/// How a WAL file begins.
enum WalHeader {
    /// Empty, or torn inside its first header write: it never held a
    /// record.
    Fresh,
    /// A v1 log: frames follow the magic, their CRCs cover the payload.
    V1,
    /// A recycled (v2) log of this generation: frames follow the header,
    /// their CRCs cover the generation and the payload.
    V2(u64),
}

impl WalHeader {
    /// The header of a log that starts with `bytes`; `None` for a foreign
    /// file.
    fn parse(bytes: &[u8]) -> Option<WalHeader> {
        if bytes.starts_with(WAL_MAGIC_V1) {
            return Some(WalHeader::V1);
        }
        if let Some(rest) = bytes.strip_prefix(WAL_MAGIC_V2.as_slice()) {
            // A v2 header shorter than 16 bytes was torn while it was first
            // written over a v1 log that held no record.
            return Some(read_u64_at(rest, 0).map_or(WalHeader::Fresh, WalHeader::V2));
        }
        (WAL_MAGIC_V1.starts_with(bytes) || WAL_MAGIC_V2.starts_with(bytes))
            .then_some(WalHeader::Fresh)
    }
}

/// Remove `snapshot.spare` when it is the same file as `snapshot.bin` — a
/// crash between compaction's link and rename leaves it as a second link —
/// because the next compaction overwrites the spare in place.
fn discard_linked_spare(dir: &Path) -> Result<(), StoreError> {
    let spare_path = dir.join(SNAPSHOT_SPARE);
    let (Ok(spare), Ok(snapshot)) =
        (std::fs::metadata(&spare_path), std::fs::metadata(dir.join(SNAPSHOT_FILE)))
    else {
        return Ok(());
    };
    if (spare.dev(), spare.ino()) == (snapshot.dev(), snapshot.ino()) {
        std::fs::remove_file(&spare_path)?;
    }
    Ok(())
}

impl ReleaseStore for DurableStore {
    fn append(&self, release: StoredRelease) -> Result<u64, StoreError> {
        if lock_unpoisoned(&self.sync_state).failed {
            return Err(fail_stopped());
        }
        let mut wal = lock_unpoisoned(&self.wal);
        let id = self.next.load(Ordering::Relaxed);
        self.log(&mut wal, &encode_release_record(id, &release)?, |index, location| {
            self.next.store(id + 1, Ordering::Relaxed);
            index.entries.insert(id, Entry { location, pending: Vec::new() });
            id
        })
    }

    fn add_recipient(
        &self,
        id: u64,
        recipient: StoredRecipient,
    ) -> Result<Option<Arc<StoredRelease>>, StoreError> {
        if lock_unpoisoned(&self.sync_state).failed {
            return Err(fail_stopped());
        }
        // The WAL lock orders the existence check, the record bytes and the
        // index update against concurrent appends, exactly like `append`.
        let mut wal = lock_unpoisoned(&self.wal);
        let Some(mut release) = self.read(id)? else { return Ok(None) };
        // Re-registering a name logs nothing: the fingerprint is
        // deterministic, so there is nothing new to record.
        if release.recipient(&recipient.name).is_none() {
            self.log(&mut wal, &encode_recipient_record(id, &recipient)?, |index, _| {
                if let Some(entry) = index.entries.get_mut(&id) {
                    entry.pending.push(recipient.clone());
                }
            })?;
            release.recipients.push(recipient);
        }
        Ok(Some(Arc::new(release)))
    }

    fn sync(&self) -> Result<(), StoreError> {
        let target = self.written.load(Ordering::Acquire);
        let mut state = lock_unpoisoned(&self.sync_state);
        loop {
            if state.failed {
                // Sticky: a failed fdatasync may have dropped the dirty
                // pages it could not write, so no later fsync can vouch for
                // records written before the failure. See `SyncState`.
                return Err(fail_stopped());
            }
            if state.synced >= target {
                return Ok(());
            }
            if state.syncing {
                // Another worker's fsync is in flight; it covers (at least)
                // some of our records — wait and re-check. This is the
                // group commit: N waiters, one fdatasync.
                state = self.sync_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            state.syncing = true;
            // Cover everything OS-buffered up to *now*, which includes our
            // own records (written before `target` was read).
            let cover = self.written.load(Ordering::Acquire);
            drop(state);
            let result = self.wal_file.sync_data();
            state = lock_unpoisoned(&self.sync_state);
            state.syncing = false;
            match &result {
                Ok(()) => state.synced = state.synced.max(cover),
                Err(_) => state.failed = true,
            }
            self.sync_cv.notify_all();
            result.map_err(StoreError::Io)?;
        }
    }

    fn get(&self, id: u64) -> Result<Option<Arc<StoredRelease>>, StoreError> {
        Ok(self.read(id)?.map(Arc::new))
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.index).entries.len()
    }

    fn next_id(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn compactions_failed(&self) -> u64 {
        self.compactions_failed.load(Ordering::Relaxed)
    }

    fn poison_for_tests(&self) {
        let _guard = lock_unpoisoned(&self.index);
        // medlint::allow(no-panic, test hook: panics while holding the lock to exercise poison recovery)
        panic!("debug poison hook (durable store)");
    }
}

/// The `[u32 len][u32 crc32]` record header `bytes` start with; `None`
/// when they are fewer than eight — total on any input.
fn record_header(bytes: &[u8]) -> Option<(u32, u32)> {
    let header = bytes.get(..FRAME_HEADER_LEN)?;
    let (len_raw, crc_raw) = header.split_at(4);
    let len = u32::from_le_bytes(len_raw.try_into().ok()?);
    let crc = u32::from_le_bytes(crc_raw.try_into().ok()?);
    Some((len, crc))
}

/// Read a little-endian `u64` at `at`; `None` when out of range.
fn read_u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let raw = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(raw.try_into().ok()?))
}

/// The CRC of a frame: of the generation's little-endian bytes followed by
/// the payload in a v2 WAL, of the payload alone in a v1 WAL and in
/// snapshots (`generation` is `None`).
fn frame_crc(generation: Option<u64>, payload: &[u8]) -> u32 {
    let crc = codec::Crc32::new();
    let crc = match generation {
        Some(generation) => crc.update(&generation.to_le_bytes()),
        None => crc,
    };
    crc.update(payload).finish()
}

/// The `[u32 len][u32 crc32]` header framing `payload`, little-endian.
fn frame_header(generation: Option<u64>, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let [l0, l1, l2, l3] = (payload.len() as u32).to_le_bytes();
    let [c0, c1, c2, c3] = frame_crc(generation, payload).to_le_bytes();
    [l0, l1, l2, l3, c0, c1, c2, c3]
}

/// Frame a record payload: `[u32 len][u32 crc32][payload]`, little-endian.
fn frame_record(generation: Option<u64>, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + FRAME_HEADER_LEN);
    frame.extend_from_slice(&frame_header(generation, payload));
    frame.extend_from_slice(payload);
    frame
}

/// The payload of `frame`, the bytes read at `location` for release `id`,
/// once the frame's length and CRC match the location; otherwise the record
/// no longer reads back intact and the error names it.
fn verified_payload<'a>(
    frame: &'a [u8],
    id: u64,
    location: &Location,
) -> Result<&'a [u8], StoreError> {
    let payload = frame.get(FRAME_HEADER_LEN..).unwrap_or_default();
    let intact = record_header(frame).is_some_and(|(len, crc)| {
        len == location.len
            && payload.len() == len as usize
            && crc == frame_crc(location.generation, payload)
    });
    if intact {
        Ok(payload)
    } else {
        Err(StoreError::Corrupt(format!(
            "the record of r{id} at byte {} of {} does not read back with a valid checksum",
            location.offset,
            location.source.file_name()
        )))
    }
}

/// Encode one release record payload (version, id, columns, mark, proof,
/// and — under v2 — the recipient list). Recipient-less releases are
/// written in the v1 format so pre-refactor stores round-trip byte-for-byte.
fn encode_release_record(id: u64, release: &StoredRelease) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    write_release_record(&mut w, id, release);
    w.into_bytes()
}

/// Encode one release record payload into `w` (see
/// [`encode_release_record`]).
fn write_release_record(w: &mut Writer, id: u64, release: &StoredRelease) {
    let version = if release.recipients.is_empty() { RELEASE_RECORD_V1 } else { RELEASE_RECORD_V2 };
    w.u8(version);
    w.u64(id);
    w.count_u32(release.columns.len());
    for column in &release.columns {
        codec::write_column_binning(w, column);
    }
    codec::write_mark(w, &release.mark);
    match &release.ownership {
        None => w.u8(0),
        Some(proof) => {
            w.u8(1);
            codec::write_ownership_proof(w, proof);
        }
    }
    if version == RELEASE_RECORD_V2 {
        w.count_u32(release.recipients.len());
        for recipient in &release.recipients {
            w.str(&recipient.name);
            codec::write_mark(w, &recipient.mark);
        }
    }
}

/// Encode one recipient-add record payload (version, release id, name, mark).
fn encode_recipient_record(id: u64, recipient: &StoredRecipient) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u8(RECIPIENT_RECORD);
    w.u64(id);
    w.str(&recipient.name);
    codec::write_mark(&mut w, &recipient.mark);
    w.into_bytes()
}

/// One decoded WAL/snapshot record.
enum StoreRecord {
    /// A full release (v1 without recipients, v2 with), by id: it was
    /// decoded only to validate it.
    Release(u64),
    /// A recipient added to an existing release.
    Recipient(u64, StoredRecipient),
}

/// Decode one record payload, dispatching on the leading version tag. Node
/// lists are decoded through `scratch` (see
/// [`codec::read_column_binning`]).
fn decode_record(payload: &[u8], scratch: &mut Vec<NodeId>) -> Result<StoreRecord, CodecError> {
    match payload.first().copied() {
        Some(RELEASE_RECORD_V1) | Some(RELEASE_RECORD_V2) => {
            let (id, _) = decode_release_record(payload, scratch)?;
            Ok(StoreRecord::Release(id))
        }
        Some(RECIPIENT_RECORD) => {
            let mut r = Reader::new(payload);
            let _version = r.u8()?;
            let id = r.u64()?;
            let name = r.str()?.to_string();
            let mark = codec::read_mark(&mut r)?;
            r.finish()?;
            Ok(StoreRecord::Recipient(id, StoredRecipient { name, mark }))
        }
        Some(version) => Err(CodecError::Invalid(format!("unknown record version {version}"))),
        None => Err(CodecError::Truncated),
    }
}

/// Decode one release record payload (v1 or v2).
fn decode_release_record(
    payload: &[u8],
    scratch: &mut Vec<NodeId>,
) -> Result<(u64, StoredRelease), CodecError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != RELEASE_RECORD_V1 && version != RELEASE_RECORD_V2 {
        return Err(CodecError::Invalid(format!("unknown release record version {version}")));
    }
    let id = r.u64()?;
    let column_count = r.u32()? as usize;
    // A minimal encoded column is 16 bytes (name length + three node-set
    // counts); cap the preallocation accordingly so a corrupt count inside
    // a large record cannot force a huge Vec reservation before decoding
    // fails.
    if column_count.saturating_mul(16) > payload.len() {
        return Err(CodecError::Truncated);
    }
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        columns.push(codec::read_column_binning(&mut r, scratch)?);
    }
    let mark = codec::read_mark(&mut r)?;
    let ownership = match r.u8()? {
        0 => None,
        1 => Some(codec::read_ownership_proof(&mut r)?),
        tag => return Err(CodecError::Invalid(format!("unknown ownership tag {tag}"))),
    };
    let recipients = if version == RELEASE_RECORD_V2 {
        let count = r.u32()? as usize;
        // A minimal encoded recipient is 9 bytes (name length + mark
        // length); same preallocation cap rationale as the columns above.
        if count.saturating_mul(9) > payload.len() {
            return Err(CodecError::Truncated);
        }
        let mut recipients = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.str()?.to_string();
            let mark = codec::read_mark(&mut r)?;
            recipients.push(StoredRecipient { name, mark });
        }
        recipients
    } else {
        Vec::new()
    };
    r.finish()?;
    Ok((id, StoredRelease { columns, mark, ownership, recipients }))
}

/// Replay the WAL records of `generation` (`None` for a v1 log) that start
/// at byte `start` into `entries`, returning the byte length of the valid
/// prefix. Each record is decoded to validate it; the index keeps only its
/// location, or, for a recipient record, the recipient (once per name; a
/// record naming a release the index lacks is ignored, since recipient
/// records only ever follow their release's record, which an earlier
/// torn-tail truncation must have dropped). A short header, an impossible
/// length, a checksum mismatch under `generation` or an undecodable payload
/// all end the replay there — the torn tail of the crashed writer, or a
/// stale frame of an older generation.
fn replay_wal(
    reader: &mut BlockReader<'_>,
    start: u64,
    generation: Option<u64>,
    entries: &mut BTreeMap<u64, Entry>,
    next: &mut u64,
) -> std::io::Result<u64> {
    let mut at = start;
    let mut scratch = Vec::new();
    loop {
        let header = reader.get(at, FRAME_HEADER_LEN)?.and_then(record_header);
        let Some((len, crc)) = header.filter(|&(len, _)| len <= MAX_RECORD_LEN) else { break };
        let Some(payload) = reader.get(at + FRAME_HEADER_LEN as u64, len as usize)? else { break };
        if frame_crc(generation, payload) != crc {
            break;
        }
        let location = Location { source: Source::Wal, offset: at, len, generation };
        match decode_record(payload, &mut scratch) {
            Ok(StoreRecord::Release(id)) => {
                entries.insert(id, Entry { location, pending: Vec::new() });
                *next = (*next).max(id + 1);
            }
            Ok(StoreRecord::Recipient(id, recipient)) => {
                if let Some(entry) = entries.get_mut(&id) {
                    if !entry.pending.iter().any(|r| r.name == recipient.name) {
                        entry.pending.push(recipient);
                    }
                }
            }
            Err(_) => break,
        }
        at += (FRAME_HEADER_LEN + len as usize) as u64;
    }
    Ok(at)
}

/// Index a snapshot file **strictly**: snapshots are written atomically
/// (tmp + fsync + rename), so unlike the WAL they are never legitimately
/// torn — any damage is a hard [`StoreError::Corrupt`]. Each record is
/// decoded to validate it; the index keeps only its location.
fn parse_snapshot(
    file: &File,
    entries: &mut BTreeMap<u64, Entry>,
    next: &mut u64,
) -> Result<(), StoreError> {
    let corrupt = |m: &str| StoreError::Corrupt(format!("snapshot: {m}"));
    let mut reader = BlockReader::new(file)?;
    let header = reader
        .get(0, SNAPSHOT_HEADER_LEN as usize)?
        .filter(|header| header.starts_with(SNAPSHOT_MAGIC))
        .ok_or_else(|| corrupt("missing magic or header"))?;
    let (stored_next, count) = read_u64_at(header, SNAPSHOT_MAGIC.len())
        .zip(read_u64_at(header, SNAPSHOT_MAGIC.len() + 8))
        .ok_or_else(|| corrupt("missing magic or header"))?;
    let mut at = SNAPSHOT_HEADER_LEN;
    let mut scratch = Vec::new();
    for i in 0..count {
        let (len, crc) = reader
            .get(at, FRAME_HEADER_LEN)?
            .and_then(record_header)
            .ok_or_else(|| corrupt(&format!("record {i} header cut")))?;
        if len > MAX_RECORD_LEN {
            return Err(corrupt(&format!("record {i} announces {len} bytes")));
        }
        let payload = reader
            .get(at + FRAME_HEADER_LEN as u64, len as usize)?
            .ok_or_else(|| corrupt(&format!("record {i} payload cut")))?;
        if frame_crc(None, payload) != crc {
            return Err(corrupt(&format!("record {i} checksum mismatch")));
        }
        let (id, _) = decode_release_record(payload, &mut scratch)
            .map_err(|e| corrupt(&format!("record {i}: {e}")))?;
        let location = Location { source: Source::Snapshot, offset: at, len, generation: None };
        entries.insert(id, Entry { location, pending: Vec::new() });
        *next = (*next).max(id + 1);
        at += (FRAME_HEADER_LEN + len as usize) as u64;
    }
    if at != reader.len {
        return Err(corrupt("trailing bytes after the last record"));
    }
    *next = (*next).max(stored_next);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::GeneralizationSet;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("medshield-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn release(seed: u8) -> StoredRelease {
        let trees = medshield_datagen::ontology::all_trees();
        let columns = trees
            .iter()
            .map(|(name, tree)| ColumnBinning {
                column: name.clone(),
                maximal: GeneralizationSet::root_only(tree),
                minimal: GeneralizationSet::all_leaves(tree),
                ultimate: GeneralizationSet::at_depth(tree, 1),
            })
            .collect();
        StoredRelease {
            columns,
            mark: Mark::from_bytes(&[seed], 20),
            ownership: seed
                .is_multiple_of(2)
                .then(|| OwnershipProof { statistic: f64::from(seed) * 1.5, mark_len: 20 }),
            recipients: Vec::new(),
        }
    }

    fn recipient(name: &str) -> StoredRecipient {
        StoredRecipient { name: name.into(), mark: Mark::from_bytes(name.as_bytes(), 20) }
    }

    /// Bytes of live frames in the WAL of `dir`: what recovery would replay.
    fn live_wal_bytes(dir: &Path) -> u64 {
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let (start, generation) = match WalHeader::parse(&bytes) {
            Some(WalHeader::V1) => (WAL_MAGIC_V1.len() as u64, None),
            Some(WalHeader::V2(generation)) => (WAL_HEADER_V2_LEN, Some(generation)),
            _ => panic!("the WAL has no header"),
        };
        let file = File::open(dir.join(WAL_FILE)).unwrap();
        let mut reader = BlockReader::new(&file).unwrap();
        replay_wal(&mut reader, start, generation, &mut BTreeMap::new(), &mut 1).unwrap() - start
    }

    #[test]
    fn memory_store_assigns_increasing_ids_from_one() {
        let store = MemoryStore::new();
        assert_eq!(store.next_id(), 1);
        assert_eq!(store.append(release(1)).unwrap(), 1);
        assert_eq!(store.append(release(2)).unwrap(), 2);
        assert_eq!(store.len(), 2);
        assert!(!store.is_durable());
        assert_eq!(store.get(1).unwrap().unwrap().mark, Mark::from_bytes(&[1], 20));
        assert!(store.get(3).unwrap().is_none());
        store.sync().unwrap();
    }

    #[test]
    fn memory_store_registers_recipients_idempotently() {
        let store = MemoryStore::new();
        let id = store.append(release(1)).unwrap();
        assert!(store.add_recipient(99, recipient("clinic-a")).unwrap().is_none());
        let updated = store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
        assert_eq!(updated.recipients.len(), 1);
        let updated = store.add_recipient(id, recipient("clinic-b")).unwrap().unwrap();
        assert_eq!(updated.recipients.len(), 2);
        // Re-registering an existing name changes nothing.
        let again = store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
        assert_eq!(*again, *updated);
        assert_eq!(
            store.get(id).unwrap().unwrap().recipient("clinic-b"),
            Some(&recipient("clinic-b"))
        );
    }

    #[test]
    fn durable_recipient_records_recover_from_the_wal() {
        let dir = test_dir("recipients-wal");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            let id = store.append(release(1)).unwrap();
            store.append(release(2)).unwrap();
            store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
            store.add_recipient(id, recipient("clinic-b")).unwrap().unwrap();
            assert!(store.add_recipient(77, recipient("ghost")).unwrap().is_none());
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        // Recipient records are not releases: they restore onto release 1
        // and do not advance the id sequence.
        assert_eq!(store.recovered_releases(), 2);
        assert_eq!(store.next_id(), 3);
        let restored = store.get(1).unwrap().unwrap();
        assert_eq!(
            restored.recipients,
            vec![recipient("clinic-a"), recipient("clinic-b")],
            "registration order survives recovery"
        );
        assert!(store.get(2).unwrap().unwrap().recipients.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_folds_recipients_into_the_release_record() {
        let dir = test_dir("recipients-snap");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            let id = store.append(release(1)).unwrap();
            store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
            store.compact().unwrap();
            // Post-snapshot mutation: lives only in the WAL.
            store.add_recipient(id, recipient("clinic-b")).unwrap().unwrap();
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        let restored = store.get(1).unwrap().unwrap();
        assert_eq!(restored.recipients, vec![recipient("clinic-a"), recipient("clinic-b")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaying_a_recipient_already_folded_into_the_snapshot_is_idempotent() {
        let dir = test_dir("recipients-idem");
        let wal_path = dir.join(WAL_FILE);
        let before_compaction = {
            let store = DurableStore::open(&dir, 0).unwrap();
            let id = store.append(release(1)).unwrap();
            // Fold the release into a snapshot first, so the live generation
            // holds only the recipient frame.
            store.compact().unwrap();
            store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
            store.sync().unwrap();
            let bytes = std::fs::read(&wal_path).unwrap();
            store.compact().unwrap();
            store.sync().unwrap();
            bytes
        };
        // Simulate the crash window where the snapshot was renamed but the
        // WAL header rewrite never hit the disk: the WAL still carries the
        // recipient record the snapshot already folded in, and replaying it
        // lands on a release that already lists that recipient.
        std::fs::write(&wal_path, &before_compaction).unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        assert_eq!(store.get(1).unwrap().unwrap().recipients, vec![recipient("clinic-a")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recipient_records_trigger_the_snapshot_threshold() {
        let dir = test_dir("recipients-trigger");
        let store = DurableStore::open(&dir, 3).unwrap();
        let id = store.append(release(1)).unwrap();
        store.add_recipient(id, recipient("a")).unwrap().unwrap();
        let before_trigger = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        store.add_recipient(id, recipient("b")).unwrap().unwrap();
        // Three mutations since the last snapshot: the trigger fired, and
        // the WAL holds no live frame but was not shrunk.
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(live_wal_bytes(&dir), 0);
        assert!(wal_len >= before_trigger, "{wal_len} < {before_trigger}");
        drop(store);
        let store = DurableStore::open(&dir, 3).unwrap();
        assert_eq!(store.get(1).unwrap().unwrap().recipients.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recipient_release_records_roundtrip_through_the_codec() {
        let mut with = release(3);
        with.recipients = vec![recipient("clinic-a"), recipient("clinic-b")];
        let payload = encode_release_record(9, &with).unwrap();
        assert_eq!(payload[0], RELEASE_RECORD_V2);
        let (id, decoded) = decode_release_record(&payload, &mut Vec::new()).unwrap();
        assert_eq!(id, 9);
        assert_eq!(decoded, with);
        // Recipient-less releases still encode in the v1 format.
        let without = release(3);
        let payload = encode_release_record(9, &without).unwrap();
        assert_eq!(payload[0], RELEASE_RECORD_V1);
        assert_eq!(decode_release_record(&payload, &mut Vec::new()).unwrap().1, without);
    }

    #[test]
    fn durable_store_recovers_from_wal_alone() {
        let dir = test_dir("wal-only");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 1..=5u8 {
                store.append(release(seed)).unwrap();
            }
            store.sync().unwrap();
            // No shutdown hook: dropping the store models a hard kill
            // (everything synced lives only in the files).
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 5);
        assert_eq!(store.next_id(), 6, "ids must never be reused across restarts");
        for seed in 1..=5u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap().unwrap(), release(seed));
        }
        // New appends continue past the recovered ids.
        assert_eq!(store.append(release(9)).unwrap(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_store_recovers_from_snapshot_plus_wal() {
        let dir = test_dir("snap-wal");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 1..=4u8 {
                store.append(release(seed)).unwrap();
            }
            store.compact().unwrap();
            // These two live only in the post-snapshot WAL.
            store.append(release(5)).unwrap();
            store.append(release(6)).unwrap();
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 6);
        assert_eq!(store.next_id(), 7);
        for seed in 1..=6u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap().unwrap(), release(seed));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_trigger_compacts_the_wal() {
        let dir = test_dir("trigger");
        let store = DurableStore::open(&dir, 3).unwrap();
        for seed in 1..=7u8 {
            store.append(release(seed)).unwrap();
        }
        // Two snapshots fired (at 3 and 6); the WAL holds only record 7 live,
        // and it was not shrunk below its length before the second one.
        let frame_len = |seed: u8| {
            let payload = encode_release_record(u64::from(seed), &release(seed)).unwrap();
            frame_record(None, &payload).len() as u64
        };
        assert_eq!(live_wal_bytes(&dir), frame_len(7));
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(wal_len >= WAL_HEADER_V2_LEN + (4..=6).map(frame_len).sum::<u64>());
        drop(store);
        let store = DurableStore::open(&dir, 3).unwrap();
        assert_eq!(store.recovered_releases(), 7);
        assert_eq!(store.next_id(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_appends_resume() {
        let dir = test_dir("torn");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 1..=3u8 {
                store.append(release(seed)).unwrap();
            }
            store.sync().unwrap();
        }
        // Tear the last record mid-payload.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 2, "the torn third record is dropped");
        assert_eq!(store.next_id(), 3);
        // Recovery stopped at a record boundary and cut the torn bytes, so
        // new appends land cleanly after the survivors.
        assert_eq!(store.append(release(9)).unwrap(), 3);
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 3);
        assert_eq!(*store.get(3).unwrap().unwrap(), release(9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_failure_never_fails_a_durable_append() {
        let dir = test_dir("snapfail");
        let store = DurableStore::open(&dir, 2).unwrap();
        store.append(release(1)).unwrap();
        // Block compaction deterministically: a *directory* squatting on
        // snapshot.tmp makes File::create fail. The triggering append (and
        // every later one) must still succeed — the WAL already holds the
        // records, compaction is only an optimization.
        std::fs::create_dir_all(dir.join(SNAPSHOT_TMP)).unwrap();
        for seed in 2..=6u8 {
            store.append(release(seed)).unwrap();
        }
        store.sync().unwrap();
        assert!(store.compact().is_err(), "compaction is genuinely blocked");
        drop(store);
        // Recovery sees no snapshot, a full WAL, and all six releases.
        std::fs::remove_dir_all(dir.join(SNAPSHOT_TMP)).unwrap();
        let store = DurableStore::open(&dir, 2).unwrap();
        assert_eq!(store.recovered_releases(), 6);
        for seed in 1..=6u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap().unwrap(), release(seed));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_frame_write_fail_stops_the_store() {
        let dir = test_dir("write-fail");
        let store = DurableStore::open(&dir, 0).unwrap();
        store.append(release(1)).unwrap();
        store.compact().unwrap();
        let id = store.append(release(2)).unwrap();
        store.sync().unwrap();
        // A read-only handle on the same file: every frame write fails.
        lock_unpoisoned(&store.wal).file = File::open(dir.join(WAL_FILE)).unwrap();
        assert!(store.append(release(3)).is_err());
        let fail_stopped = |e: StoreError| e.to_string().contains("fail-stopped");
        assert!(fail_stopped(store.append(release(4)).unwrap_err()));
        assert!(fail_stopped(store.add_recipient(id, recipient("clinic-a")).unwrap_err()));
        assert!(fail_stopped(store.sync().unwrap_err()));
        // Reads keep serving what was acknowledged, and nothing else.
        assert_eq!(*store.get(id).unwrap().unwrap(), release(2));
        assert!(store.get(3).unwrap().is_none());
        assert_eq!(store.next_id(), 3);
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 2);
        for seed in 1..=2u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap().unwrap(), release(seed));
        }
        assert_eq!(store.next_id(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_checksum_stops_the_replay_at_the_boundary() {
        let dir = test_dir("crc");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.append(release(2)).unwrap();
            store.sync().unwrap();
        }
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        // Flip one payload byte of the second record: its CRC no longer
        // matches, so recovery keeps record 1 only.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        assert_eq!(store.next_id(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_snapshot_tmp_is_discarded() {
        let dir = test_dir("tmp");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.sync().unwrap();
        }
        std::fs::write(dir.join(SNAPSHOT_TMP), b"half-written snapshot").unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_opener_of_a_live_data_dir_is_refused() {
        let dir = test_dir("lock");
        let store = DurableStore::open(&dir, 0).unwrap();
        store.append(release(1)).unwrap();
        // While the first store lives, a second open must fail fast instead
        // of interleaving WAL frames and duplicating release ids.
        match DurableStore::open(&dir, 0) {
            Err(StoreError::Busy(m)) => assert!(m.contains("locked"), "{m}"),
            other => panic!("expected Busy, got {:?}", other.map(|s| s.len())),
        }
        // Dropping the store releases the lock (as does process death).
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_wal_file_is_refused_not_overwritten() {
        let dir = test_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"this is somebody's csv, not a wal").unwrap();
        match DurableStore::open(&dir, 0) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("magic"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = test_dir("badsnap");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.compact().unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(DurableStore::open(&dir, 0), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_coalesces_concurrent_syncs() {
        let dir = test_dir("group");
        let store = Arc::new(DurableStore::open(&dir, 0).unwrap());
        std::thread::scope(|scope| {
            for seed in 0..8u8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let id = store.append(release(seed)).unwrap();
                    store.sync().unwrap();
                    assert!(store.get(id).unwrap().is_some());
                });
            }
        });
        assert_eq!(store.len(), 8);
        // Every record is durable: a reopen sees all eight.
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The snapshot `write_release_record` gives for the releases `store`
    /// serves: header, then every release in id order, folded and framed.
    fn snapshot_of_decoded_releases(store: &DurableStore) -> Vec<u8> {
        let ids: Vec<u64> = lock_unpoisoned(&store.index).entries.keys().copied().collect();
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&store.next_id().to_le_bytes());
        bytes.extend_from_slice(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            let release = store.get(id).unwrap().unwrap();
            let mut w = Writer::new();
            write_release_record(&mut w, id, &release);
            bytes.extend_from_slice(&frame_record(None, &w.into_bytes().unwrap()));
        }
        bytes
    }

    #[test]
    fn streamed_compaction_writes_the_snapshot_the_decoded_releases_encode_to() {
        let dir = test_dir("streamed");
        let store = DurableStore::open(&dir, 0).unwrap();
        for seed in 1..=3u8 {
            store.append(release(seed)).unwrap();
        }
        store.add_recipient(1, recipient("clinic-a")).unwrap().unwrap();
        // First compaction: every record comes from the v1 WAL.
        let expected = snapshot_of_decoded_releases(&store);
        store.compact().unwrap();
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), expected);
        // Second: records from the snapshot, some with recipients logged
        // since, and records from a v2 WAL, one of them a release appended
        // with its recipients already folded in.
        store.add_recipient(2, recipient("clinic-b")).unwrap().unwrap();
        store.add_recipient(1, recipient("clinic-c")).unwrap().unwrap();
        store.append(release(4)).unwrap();
        let mut with = release(5);
        with.recipients = vec![recipient("clinic-d")];
        store.append(with).unwrap();
        store.add_recipient(4, recipient("clinic-e")).unwrap().unwrap();
        let expected = snapshot_of_decoded_releases(&store);
        store.compact().unwrap();
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), expected);
        // Third: every record copied from the snapshot as it is.
        store.compact().unwrap();
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), expected);
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(snapshot_of_decoded_releases(&store), expected);
        assert_eq!(
            store.get(1).unwrap().unwrap().recipients,
            vec![recipient("clinic-a"), recipient("clinic-c")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_store_keeps_no_decoded_release() {
        let dir = test_dir("undecoded");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        let recovered = store.get(1).unwrap().unwrap();
        let appended = store.append(release(2)).unwrap();
        let appended = store.get(appended).unwrap().unwrap();
        assert_eq!(Arc::strong_count(&recovered), 1);
        assert_eq!(Arc::strong_count(&appended), 1);
        store.compact().unwrap();
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        for id in 1..=2 {
            let compacted = store.get(id).unwrap().unwrap();
            assert_eq!(Arc::strong_count(&compacted), 1);
            assert_eq!(*compacted, release(id as u8));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gets_read_acknowledged_state_during_appends_recipients_and_compactions() {
        let dir = test_dir("concurrent-gets");
        let store = DurableStore::open(&dir, 4).unwrap();
        const RELEASES: u8 = 48;
        // Recipients acknowledged so far, per acknowledged release id.
        let acked: Mutex<BTreeMap<u64, usize>> = Mutex::new(BTreeMap::new());
        let done = std::sync::atomic::AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for seed in 1..=RELEASES {
                    let id = store.append(release(seed)).unwrap();
                    lock_unpoisoned(&acked).insert(id, 0);
                    // Each release gets one recipient now and one three
                    // appends later, so recipients are pending across
                    // compactions.
                    store.add_recipient(id, recipient(&names_of(id)[0])).unwrap().unwrap();
                    lock_unpoisoned(&acked).insert(id, 1);
                    if let Some(earlier) = id.checked_sub(3).filter(|&e| e > 0) {
                        store
                            .add_recipient(earlier, recipient(&names_of(earlier)[1]))
                            .unwrap()
                            .unwrap();
                        lock_unpoisoned(&acked).insert(earlier, 2);
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    while !done.load(Ordering::SeqCst) {
                        let snapshot: Vec<(u64, usize)> =
                            lock_unpoisoned(&acked).iter().map(|(id, n)| (*id, *n)).collect();
                        for (id, at_least) in snapshot {
                            let got = store.get(id).unwrap().expect("an acknowledged release");
                            let names: Vec<String> =
                                got.recipients.iter().map(|r| r.name.clone()).collect();
                            assert!(names.len() >= at_least, "r{id}: {names:?}");
                            assert_eq!(names[..], names_of(id)[..names.len()], "r{id}");
                            assert_eq!(got.columns, release(id as u8).columns);
                            assert_eq!(got.mark, release(id as u8).mark);
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(reads.load(Ordering::Relaxed) > 0);
        // Every fourth record logged triggered a compaction, and each one
        // moved the WAL on by one generation.
        let header = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let generation = read_u64_at(&header, WAL_MAGIC_V2.len()).unwrap();
        assert!(generation >= 10, "only {generation} compactions");
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        for id in 1..=u64::from(RELEASES) {
            let expected = if id + 3 <= u64::from(RELEASES) { 2 } else { 1 };
            let got = store.get(id).unwrap().unwrap();
            assert_eq!(got.recipients.len(), expected, "r{id}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The recipient names a release of the concurrent test ends up with.
    fn names_of(id: u64) -> Vec<String> {
        vec![format!("c{id}-0"), format!("c{id}-1")]
    }

    #[test]
    fn a_record_that_fails_its_checksum_fails_its_reads_and_compaction_only() {
        let dir = test_dir("bitrot");
        let store = DurableStore::open(&dir, 0).unwrap();
        for seed in 1..=3u8 {
            store.append(release(seed)).unwrap();
        }
        store.compact().unwrap();
        store.append(release(4)).unwrap();
        store.append(release(5)).unwrap();
        store.sync().unwrap();
        let frame_len = |seed: u8| {
            let payload = encode_release_record(u64::from(seed), &release(seed)).unwrap();
            frame_record(None, &payload).len() as u64
        };
        // Flip a payload byte of release 2 in the snapshot and of release 5
        // in the WAL, behind the open store's back.
        let flip = |file: &str, at: u64| {
            let file = OpenOptions::new().read(true).write(true).open(dir.join(file)).unwrap();
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, at).unwrap();
            file.write_all_at(&[byte[0] ^ 0x40], at).unwrap();
        };
        flip(SNAPSHOT_FILE, SNAPSHOT_HEADER_LEN + frame_len(1) + 20);
        flip(WAL_FILE, WAL_HEADER_V2_LEN + frame_len(4) + 20);
        for id in [2, 5] {
            match store.get(id) {
                Err(StoreError::Corrupt(m)) => assert!(m.contains(&format!("r{id} ")), "{m}"),
                other => panic!("r{id}: expected Corrupt, got {other:?}"),
            }
        }
        for id in [1, 3, 4] {
            assert_eq!(*store.get(id).unwrap().unwrap(), release(id as u8));
        }
        assert!(store.add_recipient(2, recipient("clinic-a")).is_err());
        // Compaction refuses to fold a damaged record and changes nothing.
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(store.compactions_failed(), 0);
        assert!(matches!(store.compact(), Err(StoreError::Corrupt(_))));
        assert_eq!(store.compactions_failed(), 1, "the refused compaction is counted");
        assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), wal);
        assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), snapshot);
        // The store did not fail-stop: it still appends, syncs and serves.
        let id = store.append(release(6)).unwrap();
        store.add_recipient(1, recipient("clinic-b")).unwrap().unwrap();
        store.sync().unwrap();
        assert_eq!(*store.get(id).unwrap().unwrap(), release(6));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
