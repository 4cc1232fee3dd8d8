//! Crash-recovery properties of the durable release store.
//!
//! The central claim: whatever prefix of the write-ahead log survives a
//! crash, recovery is *clean* — it never errors, never panics, restores
//! exactly the releases whose records are wholly inside the surviving
//! prefix (bit-perfect), never hands out an id that a recovered release
//! already owns, and leaves the log in a state that accepts new appends.

use medshield_binning::ColumnBinning;
use medshield_dht::GeneralizationSet;
use medshield_serve::store::{DurableStore, ReleaseStore, StoredRecipient, StoredRelease};
use medshield_watermark::{Mark, OwnershipProof};
use proptest::prelude::*;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "medshield-persistence-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic, seed-distinguishable release with real tree-backed
/// binning state (so the codec exercises the same shapes `protect` stores).
fn release(seed: u64) -> StoredRelease {
    let trees = medshield_datagen::ontology::all_trees();
    let columns: Vec<ColumnBinning> = trees
        .iter()
        .map(|(name, tree)| ColumnBinning {
            column: name.clone(),
            maximal: GeneralizationSet::root_only(tree),
            minimal: GeneralizationSet::all_leaves(tree),
            ultimate: GeneralizationSet::at_depth(tree, 1 + (seed as usize % 2)),
        })
        .collect();
    StoredRelease {
        columns,
        mark: Mark::from_bytes(&seed.to_be_bytes(), 20),
        ownership: (!seed.is_multiple_of(3))
            .then_some(OwnershipProof { statistic: seed as f64 * 0.75 + 0.125, mark_len: 20 }),
        recipients: Vec::new(),
    }
}

/// A pre-refactor (v1, single-mark) release record, replicated independently
/// of the store's own encoder from the documented wire layout: tag `1`, id,
/// column binnings, mark, optional ownership proof — and nothing else. This
/// is what every durable store on disk contained before recipient records
/// existed.
fn v1_record(id: u64, release: &StoredRelease) -> Vec<u8> {
    use medshield_core::codec::{self, Writer};
    assert!(release.recipients.is_empty(), "v1 records cannot carry recipients");
    let mut w = Writer::new();
    w.u8(1);
    w.u64(id);
    w.count_u32(release.columns.len());
    for column in &release.columns {
        codec::write_column_binning(&mut w, column);
    }
    codec::write_mark(&mut w, &release.mark);
    match &release.ownership {
        None => w.u8(0),
        Some(proof) => {
            w.u8(1);
            codec::write_ownership_proof(&mut w, proof);
        }
    }
    w.into_bytes().expect("fixture record encodes")
}

/// Frame a record as the WAL/snapshot do: `[u32 len][u32 crc32][payload]`,
/// little-endian.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&medshield_core::codec::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[test]
fn a_v1_single_mark_store_recovers_byte_identically_under_the_new_codec() {
    let dir = fresh_dir("v1-fixture");
    std::fs::create_dir_all(&dir).unwrap();

    // Build the fixture directory exactly as a pre-refactor server left it:
    // a snapshot with releases 1–2 folded in (next id 4: an id was burned
    // by a release whose WAL record died with the process) and a WAL tail
    // carrying release 3.
    let mut snapshot_bytes = b"MSSNP\x01\r\n".to_vec();
    snapshot_bytes.extend_from_slice(&4u64.to_le_bytes());
    snapshot_bytes.extend_from_slice(&2u64.to_le_bytes());
    for id in 1..=2u64 {
        snapshot_bytes.extend_from_slice(&frame(&v1_record(id, &release(id - 1))));
    }
    std::fs::write(dir.join("snapshot.bin"), &snapshot_bytes).unwrap();
    let mut wal_bytes = b"MSWAL\x01\r\n".to_vec();
    wal_bytes.extend_from_slice(&frame(&v1_record(3, &release(2))));
    std::fs::write(dir.join("wal.log"), &wal_bytes).unwrap();

    // The new codec recovers every release, with empty recipient lists…
    let store = DurableStore::open(&dir, 0).unwrap();
    assert_eq!(store.recovered_releases(), 3);
    for id in 1..=3u64 {
        let got = store.get(id).unwrap();
        assert_eq!(&*got, &release(id - 1), "release {id} corrupted by the upgrade");
        assert!(got.recipients.is_empty());
    }
    assert_eq!(store.next_id(), 4);
    // …without rewriting a single fixture byte: opening is read-only.
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), wal_bytes);
    assert_eq!(std::fs::read(dir.join("snapshot.bin")).unwrap(), snapshot_bytes);

    // Recipient-less appends still produce v1 bytes, so a store that never
    // uses protect-for keeps emitting records any pre-refactor reader (or
    // fixture replica) predicts byte-for-byte.
    assert_eq!(store.append(release(7)).unwrap(), 4);
    store.sync().unwrap();
    let wal_now = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(&wal_now[..wal_bytes.len()], &wal_bytes[..]);
    assert_eq!(&wal_now[wal_bytes.len()..], &frame(&v1_record(4, &release(7)))[..]);

    // A post-upgrade snapshot of recipient-less releases is likewise pure v1.
    store.compact().unwrap();
    let mut expected = b"MSSNP\x01\r\n".to_vec();
    expected.extend_from_slice(&5u64.to_le_bytes());
    expected.extend_from_slice(&4u64.to_le_bytes());
    for (id, seed) in [(1u64, 0u64), (2, 1), (3, 2), (4, 7)] {
        expected.extend_from_slice(&frame(&v1_record(id, &release(seed))));
    }
    assert_eq!(std::fs::read(dir.join("snapshot.bin")).unwrap(), expected);

    // Only registering a recipient departs from the v1 format — and the
    // upgraded store round-trips it cleanly.
    let mark = Mark::from_bytes(b"clinic", 20);
    store
        .add_recipient(3, StoredRecipient { name: "clinic".into(), mark: mark.clone() })
        .unwrap()
        .unwrap();
    drop(store);
    let store = DurableStore::open(&dir, 0).unwrap();
    let upgraded = store.get(3).unwrap();
    assert_eq!(upgraded.recipients.len(), 1);
    assert_eq!(upgraded.recipients[0].name, "clinic");
    assert_eq!(upgraded.recipients[0].mark, mark);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(dev, ino)` of a file: which file a directory entry names.
fn file_id(path: &Path) -> (u64, u64) {
    let meta = std::fs::metadata(path).unwrap();
    (meta.dev(), meta.ino())
}

/// Open a store in `dir`, append `seeds` and make them durable.
fn append_all(dir: &Path, seeds: impl IntoIterator<Item = u64>) -> DurableStore {
    let store = DurableStore::open(dir, 0).unwrap();
    for seed in seeds {
        store.append(release(seed)).unwrap();
    }
    store.sync().unwrap();
    store
}

/// Assert that `dir` recovers exactly the releases `seeds[i]` under ids
/// `1..=seeds.len()`.
fn assert_recovers(dir: &Path, seeds: &[u64]) {
    let store = DurableStore::open(dir, 0).unwrap();
    assert_eq!(store.recovered_releases(), seeds.len());
    for (id, seed) in (1u64..).zip(seeds) {
        assert_eq!(&*store.get(id).unwrap(), &release(*seed), "release {id}");
    }
    assert_eq!(store.next_id(), seeds.len() as u64 + 1);
}

#[test]
fn a_spare_linked_to_the_snapshot_is_never_written_into() {
    let dir = fresh_dir("spare-link");
    {
        let store = append_all(&dir, 0..3);
        store.compact().unwrap();
        store.append(release(3)).unwrap();
        store.sync().unwrap();
    }
    // A crash between compaction's link and rename leaves snapshot.spare as
    // a second link to the live snapshot.bin. A third link outside the
    // store's names witnesses whether that file is written while it is
    // still the snapshot.
    let snapshot = dir.join("snapshot.bin");
    std::fs::hard_link(&snapshot, dir.join("snapshot.spare")).unwrap();
    std::fs::hard_link(&snapshot, dir.join("witness")).unwrap();
    let live = file_id(&snapshot);
    let original = std::fs::read(&snapshot).unwrap();
    {
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 4);
        store.compact().unwrap();
        assert_ne!(file_id(&snapshot), live, "the new snapshot went into the live file");
        assert_eq!(
            std::fs::read(dir.join("witness")).unwrap(),
            original,
            "the live snapshot.bin was overwritten in place"
        );
        // Retired by that compaction, the old file is the next one's spare.
        store.append(release(4)).unwrap();
        store.compact().unwrap();
        store.append(release(5)).unwrap();
        store.sync().unwrap();
    }
    assert_recovers(&dir, &[0, 1, 2, 3, 4, 5]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_complete_older_snapshot_left_as_tmp_is_discarded_unread() {
    let dir = fresh_dir("older-tmp");
    {
        let store = append_all(&dir, 0..2);
        store.compact().unwrap();
        store.append(release(2)).unwrap();
        store.sync().unwrap();
    }
    // A crash right after compaction renamed the spare to snapshot.tmp
    // leaves a complete, well-formed older snapshot there. This one
    // disagrees with the live state (other releases under ids 1–2, next id
    // 50), so reading it would show.
    let mut older = b"MSSNP\x01\r\n".to_vec();
    older.extend_from_slice(&50u64.to_le_bytes());
    older.extend_from_slice(&2u64.to_le_bytes());
    for id in 1..=2u64 {
        older.extend_from_slice(&frame(&v1_record(id, &release(90 + id))));
    }
    std::fs::write(dir.join("snapshot.tmp"), &older).unwrap();
    assert_recovers(&dir, &[0, 1, 2]);
    assert!(!dir.join("snapshot.tmp").exists());
    // Compaction goes on as usual afterwards.
    {
        let store = DurableStore::open(&dir, 0).unwrap();
        store.compact().unwrap();
        store.append(release(3)).unwrap();
        store.compact().unwrap();
    }
    assert_recovers(&dir, &[0, 1, 2, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_garbage_spare_does_not_change_recovery() {
    let dir = fresh_dir("garbage-spare");
    {
        let store = append_all(&dir, 0..3);
        store.compact().unwrap();
        store.append(release(3)).unwrap();
        store.sync().unwrap();
    }
    // The spare's contents are never read, and the compaction that reuses
    // it cuts it to the new snapshot's exact length.
    let garbage =
        vec![0xA5u8; 3 * std::fs::metadata(dir.join("snapshot.bin")).unwrap().len() as usize];
    std::fs::write(dir.join("snapshot.spare"), &garbage).unwrap();
    assert_recovers(&dir, &[0, 1, 2, 3]);
    {
        let store = DurableStore::open(&dir, 0).unwrap();
        store.compact().unwrap();
        store.append(release(4)).unwrap();
        store.sync().unwrap();
    }
    assert_recovers(&dir, &[0, 1, 2, 3, 4]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_recycles_the_previous_snapshot_file() {
    let dir = fresh_dir("recycle");
    let store = append_all(&dir, [0]);
    store.compact().unwrap();
    let first = file_id(&dir.join("snapshot.bin"));
    store.append(release(1)).unwrap();
    store.compact().unwrap();
    // The previous snapshot.bin lives on as the spare instead of being
    // freed…
    let second = file_id(&dir.join("snapshot.bin"));
    assert_ne!(second, first);
    assert_eq!(file_id(&dir.join("snapshot.spare")), first);
    store.append(release(2)).unwrap();
    store.compact().unwrap();
    // …and the next compaction writes the new snapshot into it.
    assert_eq!(file_id(&dir.join("snapshot.bin")), first);
    assert_eq!(file_id(&dir.join("snapshot.spare")), second);
    assert!(!dir.join("snapshot.tmp").exists());
    drop(store);
    assert_recovers(&dir, &[0, 1, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_wal_prefix_truncation_recovers_cleanly(
        releases in 1usize..5,
        cut_per_mille in 0u32..1000,
    ) {
        let dir = fresh_dir("truncate");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 0..releases as u64 {
                store.append(release(seed)).unwrap();
            }
            store.sync().unwrap();
        }
        // Truncate the WAL at an arbitrary byte offset — every offset a
        // crash could leave behind, including inside the magic, inside a
        // frame header, and inside a payload.
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        let cut = (bytes.len() as u64 * u64::from(cut_per_mille) / 1000) as usize;
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();

        // Recovery must succeed, restoring a prefix of the appends…
        let store = DurableStore::open(&dir, 0).unwrap();
        let recovered = store.recovered_releases();
        prop_assert!(recovered <= releases, "recovered {recovered} of {releases}");
        // …monotone in the surviving bytes: whatever came back is
        // bit-perfect and owns ids 1..=recovered.
        for seed in 0..recovered as u64 {
            let got = store.get(seed + 1);
            prop_assert!(got.is_some(), "release {} lost", seed + 1);
            prop_assert_eq!(&*got.unwrap(), &release(seed));
        }
        for seed in recovered as u64..releases as u64 {
            prop_assert!(store.get(seed + 1).is_none());
        }
        // New ids start past every recovered id, and appends land cleanly
        // on the truncated log.
        prop_assert_eq!(store.next_id(), recovered as u64 + 1);
        let new_id = store.append(release(99)).unwrap();
        prop_assert_eq!(new_id, recovered as u64 + 1);
        store.sync().unwrap();
        drop(store);
        // One more restart proves the post-truncation log is well-formed.
        let store = DurableStore::open(&dir, 0).unwrap();
        prop_assert_eq!(store.recovered_releases(), recovered + 1);
        prop_assert_eq!(&*store.get(new_id).unwrap(), &release(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_truncated_wal_never_loses_snapshotted_releases(
        snapshotted in 1usize..4,
        tail in 1usize..4,
        cut_per_mille in 0u32..1000,
    ) {
        let dir = fresh_dir("snap");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 0..snapshotted as u64 {
                store.append(release(seed)).unwrap();
            }
            store.compact().unwrap();
            for seed in 0..tail as u64 {
                store.append(release(100 + seed)).unwrap();
            }
            store.sync().unwrap();
        }
        // Tear only the WAL: the snapshot is written atomically and a crash
        // cannot damage it.
        let wal_path = dir.join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        let cut = (bytes.len() as u64 * u64::from(cut_per_mille) / 1000) as usize;
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();

        let store = DurableStore::open(&dir, 0).unwrap();
        // Everything the snapshot folded in must survive any WAL damage.
        for seed in 0..snapshotted as u64 {
            prop_assert_eq!(&*store.get(seed + 1).unwrap(), &release(seed));
        }
        // The surviving WAL tail is a prefix of the post-snapshot appends.
        let recovered_tail = store.recovered_releases() - snapshotted;
        prop_assert!(recovered_tail <= tail);
        for i in 0..recovered_tail as u64 {
            prop_assert_eq!(
                &*store.get(snapshotted as u64 + i + 1).unwrap(),
                &release(100 + i)
            );
        }
        // Ids stay stable: even if the whole tail tore away, the snapshot's
        // next-id header prevents reuse of ids the dead process handed out
        // *before* the snapshot.
        prop_assert!(store.next_id() > snapshotted as u64);
        prop_assert_eq!(store.next_id(), snapshotted as u64 + recovered_tail as u64 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
