//! Property-based tests for the copy-on-write B+Tree store: arbitrary
//! operation sequences must match a `BTreeMap` model exactly, snapshots
//! must be immutable (also while the tree splits and merges under them),
//! and cursors must agree with model ranges.

use std::collections::BTreeMap;

use hat_kvdb::{Database, DbConfig, SyncMode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum KvOp {
    Put(Vec<u8>, Vec<u8>),
    Del(Vec<u8>),
    Get(Vec<u8>),
}

fn key() -> impl Strategy<Value = Vec<u8>> {
    // A smallish key space forces overwrite/delete collisions.
    prop::collection::vec(0u8..16, 1..6)
}

fn op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (key(), prop::collection::vec(any::<u8>(), 0..32)).prop_map(|(k, v)| KvOp::Put(k, v)),
        key().prop_map(KvOp::Del),
        key().prop_map(KvOp::Get),
    ]
}

/// A write in a restructuring batch: a put, or a delete of the live
/// tree's n-th key (mod its size), so that deletes hit and leaves drain.
#[derive(Debug, Clone)]
enum BatchOp {
    Put(Vec<u8>, Vec<u8>),
    DelNth(usize),
}

fn wide_key() -> impl Strategy<Value = Vec<u8>> {
    // A few thousand distinct keys: room for hundreds of entries per tree.
    prop::collection::vec(0u8..16, 2..4)
}

fn batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (wide_key(), prop::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| BatchOp::Put(k, v)),
        any::<usize>().prop_map(BatchOp::DelNth),
        // Deletes clustered at the front drain one leaf while its sibling
        // stays full, so their merge overflows and splits again.
        (0usize..4).prop_map(BatchOp::DelNth),
    ]
}

fn scan(read: &hat_kvdb::ReadTxn) -> Vec<(Vec<u8>, Vec<u8>)> {
    read.range(vec![]..vec![0xff; 8]).collect()
}

fn db() -> Database {
    Database::new(DbConfig { sync_mode: SyncMode::NoSync, ..Default::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(op(), 1..400)) {
        let db = db();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                KvOp::Put(k, v) => {
                    let mut txn = db.begin_write().unwrap();
                    txn.put(k, v);
                    txn.commit();
                    model.insert(k.clone(), v.clone());
                }
                KvOp::Del(k) => {
                    let mut txn = db.begin_write().unwrap();
                    let existed = txn.del(k);
                    txn.commit();
                    prop_assert_eq!(existed, model.remove(k).is_some());
                }
                KvOp::Get(k) => {
                    prop_assert_eq!(db.get(k), model.get(k).cloned());
                }
            }
        }
        prop_assert_eq!(db.len(), model.len());
        // Full-scan equivalence.
        let read = db.begin_read().unwrap();
        let scanned: Vec<_> = read.range(vec![]..vec![0xff; 8]).collect();
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    #[test]
    fn snapshots_never_observe_later_writes(
        initial in prop::collection::btree_map(key(), prop::collection::vec(any::<u8>(), 0..16), 1..50),
        later in prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..16)), 1..50),
    ) {
        let db = db();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &initial {
                txn.put(k, v);
            }
            txn.commit();
        }
        let snapshot = db.begin_read().unwrap();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &later {
                txn.put(k, v);
            }
            txn.commit();
        }
        // The snapshot equals the initial state exactly.
        let snap: Vec<_> = snapshot.range(vec![]..vec![0xff; 8]).collect();
        let want: Vec<_> = initial.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(snap, want);
    }

    #[test]
    fn snapshots_survive_splits_and_merges_of_shared_nodes(
        initial in prop::collection::vec(
            (wide_key(), prop::collection::vec(any::<u8>(), 0..16)), 200..600),
        batch in prop::collection::vec(batch_op(), 300..900),
        chunk in 1usize..32,
    ) {
        let db = db();
        // Loaded in random order, leaves end up anywhere from half to
        // entirely full, so some merges below overflow and split again.
        let mut before: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &initial {
                txn.put(k, v);
                before.insert(k.clone(), v.clone());
            }
            txn.commit();
        }
        let snapshot = db.begin_read().unwrap();
        // Two thirds of the batch deletes, so leaves underflow and merge
        // (re-splitting when a merge overflows); the puts split leaves.
        let mut model = before.clone();
        for ops in batch.chunks(chunk) {
            let mut txn = db.begin_write().unwrap();
            for op in ops {
                match op {
                    BatchOp::Put(k, v) => {
                        txn.put(k, v);
                        model.insert(k.clone(), v.clone());
                    }
                    BatchOp::DelNth(n) if !model.is_empty() => {
                        let k = model.keys().nth(n % model.len()).unwrap().clone();
                        prop_assert!(txn.del(&k));
                        model.remove(&k);
                    }
                    BatchOp::DelNth(_) => {}
                }
            }
            txn.commit();
        }
        let want_snap: Vec<_> = before.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(snapshot.len(), before.len());
        prop_assert_eq!(scan(&snapshot), want_snap);
        for (k, v) in &before {
            prop_assert_eq!(snapshot.get(k), Some(v.clone()));
        }
        let live = db.begin_read().unwrap();
        let want_live: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(live.len(), model.len());
        prop_assert_eq!(scan(&live), want_live);
    }

    #[test]
    fn range_scans_match_model_ranges(
        entries in prop::collection::btree_map(key(), prop::collection::vec(any::<u8>(), 0..8), 0..80),
        lo in key(),
        hi in key(),
    ) {
        let db = db();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &entries {
                txn.put(k, v);
            }
            txn.commit();
        }
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let read = db.begin_read().unwrap();
        let got: Vec<_> = read.range(lo.clone()..hi.clone()).collect();
        let want: Vec<_> = entries
            .range(lo..hi)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn aborted_transactions_leave_no_trace(
        committed in prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..8)), 1..30),
        aborted in prop::collection::vec((key(), prop::collection::vec(any::<u8>(), 0..8)), 1..30),
    ) {
        let db = db();
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &committed {
                txn.put(k, v);
            }
            txn.commit();
        }
        let before: Vec<_> = {
            let r = db.begin_read().unwrap();
            r.range(vec![]..vec![0xff; 8]).collect()
        };
        {
            let mut txn = db.begin_write().unwrap();
            for (k, v) in &aborted {
                txn.put(k, v);
            }
            for (k, _) in &committed {
                txn.del(k);
            }
            txn.abort();
        }
        let after: Vec<_> = {
            let r = db.begin_read().unwrap();
            r.range(vec![]..vec![0xff; 8]).collect()
        };
        prop_assert_eq!(before, after);
    }
}
