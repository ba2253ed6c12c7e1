//! Property tests for the anti-entropy shard digests: the digest of a shard
//! must depend only on the *set* of records it holds (not their insertion
//! order), must move when any record's payload changes, and must mean the
//! same thing on both wire codecs — those three properties are what let
//! `ClusterClient::repair` compare two nodes without shipping their data.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use srra_explore::{fnv1a_64, PointRecord};
use srra_serve::{decode_payload, encode_response_frame, Response, ShardDigest, ShardedStore};

/// Unique scratch directory per test case (cases run back to back within one
/// process and must not share lock files).
fn scratch(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "srra-digest-props-{}-{label}-{seq}",
        std::process::id()
    ))
}

/// A fully synthetic record keyed by `budget`; `slices` doubles as the
/// mutable payload field for the discrimination property.
fn record_for(budget: u64, slices: u64) -> PointRecord {
    let canonical =
        format!("kernel=fir;algo=CPA-RA;budget={budget};latency=2;device=XCV1000-BG560");
    PointRecord {
        key: fnv1a_64(canonical.as_bytes()),
        canonical,
        kernel: "fir".to_owned(),
        algorithm: "CPA-RA".to_owned(),
        version: "v3".to_owned(),
        budget,
        ram_latency: 2,
        device: "XCV1000-BG560".to_owned(),
        feasible: true,
        fits: true,
        registers_used: budget / 2,
        total_cycles: 4000 + budget,
        compute_cycles: 4000,
        memory_cycles: budget,
        transfer_cycles: 42,
        clock_period_ns: 9.5,
        execution_time_us: 40.0,
        slices,
        block_rams: 2,
        distribution: "a:16 b:1".to_owned(),
    }
}

/// Distinct records from possibly-repeating generated budgets.
fn distinct_records(budgets: &[u64]) -> Vec<PointRecord> {
    let mut seen = std::collections::BTreeSet::new();
    budgets
        .iter()
        .filter(|&&budget| seen.insert(budget))
        .map(|&budget| record_for(budget, 100 + budget % 37))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The digest vector depends only on the record *set*: inserting the
    /// same records in a rotated-and-reversed order produces identical
    /// digests, and the per-shard counts sum to the set size.
    #[test]
    fn digests_are_insertion_order_insensitive(
        budgets in prop::collection::vec(0u64..10_000, 24),
        rotate in 0usize..24,
        shards in 1usize..=4,
    ) {
        let records = distinct_records(&budgets);
        let mut shuffled = records.clone();
        shuffled.rotate_left(rotate % records.len().max(1));
        shuffled.reverse();

        let (dir_a, dir_b) = (scratch("order-a"), scratch("order-b"));
        let store_a = ShardedStore::open(&dir_a, shards).unwrap();
        let store_b = ShardedStore::open(&dir_b, shards).unwrap();
        for record in &records {
            store_a.put_record(record).unwrap();
        }
        for record in &shuffled {
            store_b.put_record(record).unwrap();
        }
        let (digests_a, digests_b) = (store_a.digests(), store_b.digests());
        drop((store_a, store_b));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);

        prop_assert_eq!(&digests_a, &digests_b);
        prop_assert_eq!(digests_a.len(), shards);
        let total: u64 = digests_a.iter().map(|digest| digest.records).sum();
        prop_assert_eq!(total, records.len() as u64);
    }

    /// The digest discriminates: mutating one record's payload flips its
    /// shard's fold (without moving the count), and dropping a record flips
    /// the count.  A digest that missed either would make repair report
    /// "converged" over divergent replicas.
    #[test]
    fn digests_discriminate_payload_and_membership_changes(
        budgets in prop::collection::vec(0u64..10_000, 12),
        shards in 1usize..=4,
    ) {
        let records = distinct_records(&budgets);
        let mut mutated = records.clone();
        mutated[0].slices += 1;

        let dirs = [scratch("disc-a"), scratch("disc-b"), scratch("disc-c")];
        let store_a = ShardedStore::open(&dirs[0], shards).unwrap();
        let store_b = ShardedStore::open(&dirs[1], shards).unwrap();
        let store_c = ShardedStore::open(&dirs[2], shards).unwrap();
        for record in &records {
            store_a.put_record(record).unwrap();
        }
        for record in &mutated {
            store_b.put_record(record).unwrap();
        }
        for record in &records[1..] {
            store_c.put_record(record).unwrap();
        }
        let clean = store_a.digests();
        let payload_changed = store_b.digests();
        let member_dropped = store_c.digests();
        let shard = store_a.route(records[0].key);
        drop((store_a, store_b, store_c));
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }

        prop_assert_eq!(clean[shard].records, payload_changed[shard].records);
        prop_assert_ne!(clean[shard].fold, payload_changed[shard].fold);
        prop_assert_eq!(
            clean[shard].records,
            member_dropped[shard].records + 1
        );
    }

    /// A `digest` reply means the same thing on both codecs: rendering the
    /// response as a JSON line and as a binary frame round-trips to the same
    /// digest vector, so a JSON client and a binary client comparing nodes
    /// agree.
    #[test]
    fn digest_replies_round_trip_identically_on_both_codecs(
        records in prop::collection::vec(any::<u64>(), 4),
        folds in prop::collection::vec(any::<u64>(), 4),
    ) {
        let digests: Vec<ShardDigest> = records
            .iter()
            .zip(&folds)
            .map(|(&records, &fold)| ShardDigest { records, fold })
            .collect();
        let response = Response::Digests { digests: digests.clone() };

        let via_json = Response::parse(&response.render()).unwrap();

        let mut frame = Vec::new();
        encode_response_frame(&mut frame, None, &response).unwrap();
        let (via_binary, trace) = decode_payload::<Response>(&frame[5..]).unwrap();
        prop_assert_eq!(trace, None);

        let unpack = |parsed: Response| match parsed {
            Response::Digests { digests } => digests,
            other => panic!("not a digests reply: {other:?}"),
        };
        prop_assert_eq!(unpack(via_json), digests.clone());
        prop_assert_eq!(unpack(via_binary), digests);
    }
}

/// The digest folds each record's JSON line, so replicas of different
/// versions agree only while that rendering holds still.  The two records
/// of the `record.jsonl` wire fixture must keep these exact digests.
#[test]
fn golden_records_keep_their_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/record.jsonl");
    let text = std::fs::read_to_string(path).expect("fixture reads");
    let dir = scratch("golden");
    let store = ShardedStore::open(&dir, 2).unwrap();
    for line in text.lines() {
        let record = PointRecord::from_json_line(line).expect("fixture parses");
        assert!(store.put_record(&record).unwrap());
    }
    let digests = store.digests();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digests,
        [
            ShardDigest {
                records: 1,
                fold: 0x167f_9e8f_cd73_a7b4,
            },
            ShardDigest {
                records: 1,
                fold: 0x06e4_d7e3_8b82_8f1f,
            },
        ]
    );
}
