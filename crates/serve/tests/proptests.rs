//! Property tests over loopback TCP: a `protect` round-trip is
//! byte-identical to the in-process engine whatever the table size or seed,
//! and pipelined replies match their request ids under random interleavings
//! of in-flight counts, worker counts and reply-claiming orders.

use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use medshield_relation::csv;
use medshield_serve::{serve, Client, Command, Request, ServeConfig};
use proptest::prelude::*;

fn engine_config() -> ProtectionConfig {
    ProtectionConfig::builder().k(3).eta(4).duplication(2).mark_text("prop-owner").build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn served_protect_is_byte_identical_to_in_process(
        rows in 0usize..160,
        seed in 0u64..1_000,
    ) {
        let handle = serve(
            ServeConfig { engine: engine_config(), workers: 2, ..ServeConfig::default() },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let ds = MedicalDataset::generate(&DatasetConfig {
            num_tuples: rows,
            seed,
            zipf_exponent: 0.8,
        });
        let table_csv = csv::to_csv(&ds.table);

        let reply = client.protect(&table_csv).unwrap();
        prop_assert!(reply.is_ok(), "{}", reply.json);

        let engine = ProtectionEngine::new(engine_config(), 1).unwrap();
        let expected = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
        let expected_csv = csv::to_csv(&expected.table);
        let expected_mark = expected.mark.to_string();
        let served_mark = reply.str_field("mark");
        prop_assert_eq!(reply.body.as_deref(), Some(expected_csv.as_str()));
        prop_assert_eq!(reply.u64_field("rows"), Some(expected.table.len() as u64));
        prop_assert_eq!(served_mark.as_deref(), Some(expected_mark.as_str()));

        // And the release detects its own mark through the same channel.
        if rows > 0 {
            let release_id = reply.release_id().unwrap();
            let detect = client.detect(&release_id, reply.body.as_deref().unwrap()).unwrap();
            prop_assert!(detect.is_ok(), "{}", detect.json);
            let expected_detection = engine
                .detect(&expected.table, &expected.binning.columns, &ds.trees)
                .unwrap();
            prop_assert_eq!(
                detect.u64_field("selected_tuples"),
                Some(expected_detection.selected_tuples as u64)
            );
        }
        handle.shutdown();
    }

    #[test]
    fn pipelined_replies_match_request_ids_under_random_interleavings(
        n in 1usize..24,
        perm_seed in 0u64..10_000,
        workers in 1usize..4,
    ) {
        // Every request sleeps a unique number of milliseconds and the reply
        // echoes it, so a reply delivered to the wrong id is unmissable.
        // Workers finish in data-dependent order; replies are then claimed
        // in a seed-randomized order, forcing `wait` to park and re-match.
        let handle = serve(
            ServeConfig {
                engine: engine_config(),
                workers,
                debug_hooks: true,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let mut ids: Vec<(u64, u64)> = Vec::new();
        for i in 0..n as u64 {
            let id = client
                .submit(&Request::new(Command::Sleep).param("ms", i.to_string()))
                .unwrap();
            ids.push((id, i));
        }
        // Fisher–Yates with an LCG: an arbitrary reply-claiming order.
        let mut state = perm_seed;
        for i in (1..ids.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            ids.swap(i, j);
        }
        for (id, ms) in ids {
            let reply = client.wait(id).unwrap();
            prop_assert!(reply.is_ok(), "{}", reply.json);
            prop_assert!(
                reply.u64_field("slept_ms") == Some(ms),
                "reply for id {} answers a different request: {}",
                id,
                reply.json
            );
        }
        prop_assert_eq!(client.pending(), 0);
        handle.shutdown();
    }
}
