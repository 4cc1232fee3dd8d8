//! Crash-recovery properties of the durable release store.
//!
//! The central claim: whatever prefix of the write-ahead log survives a
//! crash, recovery is *clean* — it never errors, never panics, restores
//! exactly the releases whose records are wholly inside the surviving
//! prefix (bit-perfect), never hands out an id that a recovered release
//! already owns, and leaves the log in a state that accepts new appends.

use medshield_binning::ColumnBinning;
use medshield_core::codec::Crc32;
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

/// `[u32 len][u32 crc][payload]`, little-endian.
fn frame_with_crc(crc: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frame a record as a v1 WAL and the snapshot do: the CRC covers the
/// payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    frame_with_crc(medshield_core::codec::crc32(payload), payload)
}

/// Frame a record as a recycled (v2) WAL of `generation` does: the CRC
/// covers the generation's little-endian bytes, then the payload.
fn frame_v2(generation: u64, payload: &[u8]) -> Vec<u8> {
    frame_with_crc(Crc32::new().update(&generation.to_le_bytes()).update(payload).finish(), payload)
}

/// The header of a recycled (v2) WAL of `generation`.
fn header_v2(generation: u64) -> Vec<u8> {
    let mut out = b"MSWAL\x02\r\n".to_vec();
    out.extend_from_slice(&generation.to_le_bytes());
    out
}

/// A recipient-add record from the documented layout: tag `3`, release id,
/// name, mark.
fn recipient_record(id: u64, recipient: &StoredRecipient) -> Vec<u8> {
    use medshield_core::codec::{self, Writer};
    let mut w = Writer::new();
    w.u8(3);
    w.u64(id);
    w.str(&recipient.name);
    codec::write_mark(&mut w, &recipient.mark);
    w.into_bytes().expect("fixture record encodes")
}

fn recipient(name: &str) -> StoredRecipient {
    StoredRecipient { name: name.into(), mark: Mark::from_bytes(name.as_bytes(), 20) }
}

/// Bytes of one WAL frame holding release `id` (the same in both formats).
fn frame_len(id: u64, seed: u64) -> usize {
    v1_record(id, &release(seed)).len() + 8
}

/// A crash image of a WAL: the first `cut` bytes as written (`now`), then
/// what lay on disk before those writes (`before`, the file as the last
/// compaction left it): the unwritten part of the live prefix reads as the
/// previous generation's bytes, and the stale tail stays in place.
fn torn_image(now: &[u8], before: &[u8], cut: usize) -> Vec<u8> {
    let mut image = now[..cut].to_vec();
    image.extend_from_slice(before.get(cut..).unwrap_or_default());
    image
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
        let got = store.get(id).unwrap().unwrap();
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
    let upgraded = store.get(3).unwrap().unwrap();
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
        assert_eq!(&*store.get(id).unwrap().unwrap(), &release(*seed), "release {id}");
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

#[test]
fn a_stale_release_record_after_a_live_recipient_record_is_not_replayed() {
    let dir = fresh_dir("stale-boundary");
    {
        let store = append_all(&dir, [0]);
        store.add_recipient(1, recipient("clinic-a")).unwrap().unwrap();
        store.compact().unwrap();
    }
    // The snapshot holds release 1 with clinic-a. The live generation 7
    // registers clinic-b; right on its boundary lies a stale generation-6
    // copy of release 1's record, which carries no recipients: replaying it
    // would drop both.
    let live = frame_v2(7, &recipient_record(1, &recipient("clinic-b")));
    let stale = v1_record(1, &release(0));
    let wal = |stale_generation: u64| {
        let mut bytes = header_v2(7);
        bytes.extend_from_slice(&live);
        bytes.extend_from_slice(&frame_v2(stale_generation, &stale));
        bytes
    };
    std::fs::write(dir.join("wal.log"), wal(6)).unwrap();
    let store = DurableStore::open(&dir, 0).unwrap();
    assert_eq!(
        store.get(1).unwrap().unwrap().recipients,
        vec![recipient("clinic-a"), recipient("clinic-b")]
    );
    drop(store);
    // Control: the same record under the live generation would be replayed.
    std::fs::write(dir.join("wal.log"), wal(7)).unwrap();
    assert!(DurableStore::open(&dir, 0).unwrap().get(1).unwrap().unwrap().recipients.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The two ways the header rewrite of a compaction can tear: only the magic
/// or only the generation reaches the disk.
fn torn_headers(before: &[u8], after: &[u8]) -> [Vec<u8>; 2] {
    let only_magic = [&after[..8], &before[8..]].concat();
    let only_generation = [&before[..8], &after[8..16], &before[16..]].concat();
    [only_magic, only_generation]
}

#[test]
fn a_torn_header_rewrite_recovers_the_snapshot_without_loss() {
    // The first compaction turns a v1 log into v2; later ones move a v2 log
    // to its next generation. Tear the last header rewrite of each kind.
    for (compactions, tag) in [(1usize, "torn-v1"), (2, "torn-v2")] {
        let dir = fresh_dir(tag);
        let wal_path = dir.join("wal.log");
        let (before, after) = {
            let store = DurableStore::open(&dir, 0).unwrap();
            for round in 0..compactions as u64 {
                if round > 0 {
                    store.compact().unwrap();
                }
                for seed in 3 * round..3 * round + 3 {
                    store.append(release(seed)).unwrap();
                }
            }
            store.sync().unwrap();
            let before = std::fs::read(&wal_path).unwrap();
            store.compact().unwrap();
            (before, std::fs::read(&wal_path).unwrap())
        };
        assert_eq!(after.len(), before.len(), "the compaction shrank the WAL");
        let seeds: Vec<u64> = (0..3 * compactions as u64).collect();
        for image in torn_headers(&before, &after) {
            std::fs::write(&wal_path, &image).unwrap();
            assert_recovers(&dir, &seeds);
        }
        // The store goes on from the last image.
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(50)).unwrap();
            store.sync().unwrap();
        }
        let mut seeds = seeds;
        seeds.push(50);
        assert_recovers(&dir, &seeds);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_compaction_on_a_recycled_wal_keeps_appending_at_the_live_end() {
    let dir = fresh_dir("failed-recycled");
    drop(append_all(&dir, 0..6));
    // The second append after the restart compacts: the log of eight
    // records is recycled, and its stale tail reaches far past the live end.
    let store = DurableStore::open(&dir, 2).unwrap();
    for seed in 6..9 {
        store.append(release(seed)).unwrap();
    }
    let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len() as usize;
    assert!(16 + 3 * frame_len(9, 8) < wal_len, "no stale tail past the live end");
    // A directory squatting on snapshot.tmp fails every later compaction in
    // step 2; appends go on, and each must stay reachable by recovery.
    std::fs::create_dir_all(dir.join("snapshot.tmp")).unwrap();
    for seed in 9..13 {
        store.append(release(seed)).unwrap();
    }
    store.sync().unwrap();
    assert!(store.compact().is_err(), "compaction is genuinely blocked");
    drop(store);
    std::fs::remove_dir_all(dir.join("snapshot.tmp")).unwrap();
    assert_recovers(&dir, &(0..13).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_past_a_torn_one_is_not_revived_by_a_later_append() {
    let dir = fresh_dir("revive");
    let wal_path = dir.join("wal.log");
    {
        let store = append_all(&dir, []);
        store.compact().unwrap();
        for seed in 0..3 {
            store.append(release(seed)).unwrap();
        }
        store.sync().unwrap();
    }
    // The second frame's page never reached the disk, the third's did.
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let second = 16 + frame_len(1, 0) + 8;
    bytes[second] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();
    {
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        // The same release again: a frame exactly as long as the lost one,
        // so the cursor ends where the third frame begins.
        assert_eq!(store.append(release(1)).unwrap(), 2);
        store.sync().unwrap();
    }
    assert_recovers(&dir, &[0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_wal_prefix_truncation_recovers_cleanly(
        releases in 1usize..5,
        recycled in 0usize..4,
        cut_per_mille in 0u32..1000,
    ) {
        let dir = fresh_dir("truncate");
        let wal_path = dir.join("wal.log");
        // `recycled` rounds of three releases, each folded into a snapshot,
        // leave a recycled log with a stale tail behind.
        let folded = 3 * recycled;
        let stale = {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 0..folded as u64 {
                store.append(release(seed)).unwrap();
                if seed % 3 == 2 {
                    store.compact().unwrap();
                }
            }
            let stale = if recycled == 0 { Vec::new() } else { std::fs::read(&wal_path).unwrap() };
            for seed in 0..releases as u64 {
                store.append(release(100 + seed)).unwrap();
            }
            store.sync().unwrap();
            stale
        };
        // Cut the log at an arbitrary byte offset of its live prefix —
        // every offset a crash could leave behind. A fresh log is cut
        // anywhere: inside the magic, inside a frame header, inside a
        // payload. A recycled one is cut past its header (written and
        // synced by the compaction), and keeps its stale tail.
        let bytes = std::fs::read(&wal_path).unwrap();
        let (header, live_end) = if recycled == 0 {
            (0, bytes.len())
        } else {
            let ids = folded as u64 + 1..;
            (16, 16 + ids.zip(100..100 + releases as u64).map(|(id, seed)| frame_len(id, seed)).sum::<usize>())
        };
        let cut = header + ((live_end - header) as u64 * u64::from(cut_per_mille) / 1000) as usize;
        std::fs::write(&wal_path, torn_image(&bytes, &stale, cut)).unwrap();

        // Recovery must succeed, restoring the folded releases and a prefix
        // of the live appends…
        let store = DurableStore::open(&dir, 0).unwrap();
        let recovered = store.recovered_releases() - folded;
        prop_assert!(recovered <= releases, "recovered {recovered} of {releases}");
        // …monotone in the surviving bytes: whatever came back is
        // bit-perfect and owns ids 1..=folded + recovered.
        for seed in 0..folded as u64 {
            prop_assert_eq!(&*store.get(seed + 1).unwrap().unwrap(), &release(seed));
        }
        for i in 0..recovered as u64 {
            let got = store.get(folded as u64 + i + 1).unwrap();
            prop_assert!(got.is_some(), "release {} lost", folded as u64 + i + 1);
            prop_assert_eq!(&*got.unwrap(), &release(100 + i));
        }
        for i in recovered as u64..releases as u64 {
            prop_assert!(store.get(folded as u64 + i + 1).unwrap().is_none());
        }
        // New ids start past every recovered id, and appends land cleanly
        // on the cut log.
        let next = (folded + recovered) as u64 + 1;
        prop_assert_eq!(store.next_id(), next);
        let new_id = store.append(release(99)).unwrap();
        prop_assert_eq!(new_id, next);
        store.sync().unwrap();
        drop(store);
        // One more restart proves the log is well-formed after the cut.
        let store = DurableStore::open(&dir, 0).unwrap();
        prop_assert_eq!(store.recovered_releases(), folded + recovered + 1);
        prop_assert_eq!(&*store.get(new_id).unwrap().unwrap(), &release(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_truncated_wal_never_loses_snapshotted_releases(
        snapshotted in 1usize..4,
        tail in 1usize..4,
        recycled in 0usize..4,
        cut_per_mille in 0u32..1000,
    ) {
        let dir = fresh_dir("snap");
        let wal_path = dir.join("wal.log");
        let stale = {
            let store = DurableStore::open(&dir, 0).unwrap();
            // `recycled` earlier rounds of a compacted release each.
            for seed in 0..recycled as u64 {
                store.append(release(200 + seed)).unwrap();
                store.compact().unwrap();
            }
            for seed in 0..snapshotted as u64 {
                store.append(release(seed)).unwrap();
            }
            store.compact().unwrap();
            let stale = if recycled == 0 { Vec::new() } else { std::fs::read(&wal_path).unwrap() };
            for seed in 0..tail as u64 {
                store.append(release(100 + seed)).unwrap();
            }
            store.sync().unwrap();
            stale
        };
        // Tear only the WAL: the snapshot is written atomically and a crash
        // cannot damage it. Without earlier rounds the log is cut anywhere,
        // header included; with them, inside its live prefix, keeping the
        // stale tail.
        let bytes = std::fs::read(&wal_path).unwrap();
        let folded = recycled + snapshotted;
        let live_end = if recycled == 0 {
            bytes.len()
        } else {
            let ids = folded as u64 + 1..;
            16 + ids.zip(100..100 + tail as u64).map(|(id, seed)| frame_len(id, seed)).sum::<usize>()
        };
        let cut = (live_end as u64 * u64::from(cut_per_mille) / 1000) as usize;
        std::fs::write(&wal_path, torn_image(&bytes, &stale, cut)).unwrap();

        let store = DurableStore::open(&dir, 0).unwrap();
        // Everything the snapshots folded in must survive any WAL damage.
        for seed in 0..recycled as u64 {
            prop_assert_eq!(&*store.get(seed + 1).unwrap().unwrap(), &release(200 + seed));
        }
        for seed in 0..snapshotted as u64 {
            prop_assert_eq!(&*store.get(recycled as u64 + seed + 1).unwrap().unwrap(), &release(seed));
        }
        // The surviving WAL tail is a prefix of the post-snapshot appends.
        let recovered_tail = store.recovered_releases() - folded;
        prop_assert!(recovered_tail <= tail);
        for i in 0..recovered_tail as u64 {
            prop_assert_eq!(
                &*store.get(folded as u64 + i + 1).unwrap().unwrap(),
                &release(100 + i)
            );
        }
        // Ids stay stable: even if the whole tail tore away, the snapshot's
        // next-id header prevents reuse of ids the dead process handed out
        // *before* the snapshot.
        prop_assert!(store.next_id() > folded as u64);
        prop_assert_eq!(store.next_id(), folded as u64 + recovered_tail as u64 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
