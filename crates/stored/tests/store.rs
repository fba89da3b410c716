//! Integration tests over a real directory: crash recovery, compaction,
//! warm-start lookup, and the full-tuple cache-key regression.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use stored::{digest_parts, encode_record, Fingerprint, Record, Store, StoreOptions, FEATURES};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stored-test-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fp(scenario: &str, goal: &str, arch: &str, suite: &[&str]) -> Fingerprint {
    let mut parts = vec![scenario, goal, arch];
    parts.extend_from_slice(suite);
    Fingerprint {
        cell_digest: digest_parts(&parts),
        arch: arch.into(),
        features: (0..FEATURES)
            .map(|i| (i + suite.len()) as f64 * 0.25)
            .collect(),
        problem: "inline".into(),
    }
}

fn rec(fingerprint: &Fingerprint, genes: &[i64], fitness: f64) -> Record {
    Record {
        fingerprint: fingerprint.clone(),
        genome: genes.to_vec(),
        fitness,
    }
}

fn no_compact() -> StoreOptions {
    StoreOptions {
        compact_threshold: 0,
        ..StoreOptions::default()
    }
}

#[test]
fn records_survive_reopen_bit_exactly() {
    let dir = temp_dir("reopen");
    let cell = fp("opt", "total", "x86-p4", &["db"]);
    let weird = f64::from_bits(0x3FEF_FFFF_FFFF_FFFF);
    {
        let store = Store::open_with(&dir, no_compact()).unwrap();
        store.append(&rec(&cell, &[1, 2, 3, 4, 5], 0.875)).unwrap();
        store.append(&rec(&cell, &[9, 8, 7, 6, 5], weird)).unwrap();
    }
    let store = Store::open_with(&dir, no_compact()).unwrap();
    assert_eq!(store.get(cell.cell_digest, &[1, 2, 3, 4, 5]), Some(0.875));
    assert_eq!(
        store
            .get(cell.cell_digest, &[9, 8, 7, 6, 5])
            .map(f64::to_bits),
        Some(weird.to_bits())
    );
    assert_eq!(store.stats().records, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_truncated_and_acked_records_survive() {
    let dir = temp_dir("torn");
    let cell = fp("adapt", "bal", "ppc-g4", &["jess", "db"]);
    {
        let store = Store::open_with(&dir, no_compact()).unwrap();
        for i in 0..10 {
            store
                .append(&rec(&cell, &[i, i + 1, i + 2], i as f64))
                .unwrap();
        }
    }
    // Kill mid-append: a prefix of the next record lands in the wal.
    let torn = encode_record(&rec(&cell, &[99, 99, 99], 99.0));
    for cut in [1, 7, 8, 9, torn.len() - 1] {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.seg"))
            .unwrap();
        f.write_all(&torn[..cut]).unwrap();
        drop(f);

        let store = Store::open_with(&dir, no_compact()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.records, 10, "cut={cut}: acked records lost");
        assert_eq!(stats.recovered_torn_bytes, cut as u64, "cut={cut}");
        assert_eq!(store.get(cell.cell_digest, &[99, 99, 99]), None);
        for i in 0..10 {
            assert_eq!(
                store.get(cell.cell_digest, &[i, i + 1, i + 2]),
                Some(i as f64),
                "cut={cut}"
            );
        }
        // Recovery truncated: the next open is clean.
        drop(store);
        let clean = Store::open_with(&dir, no_compact()).unwrap();
        assert_eq!(clean.stats().recovered_torn_bytes, 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appends_after_recovery_continue_the_wal() {
    let dir = temp_dir("resume");
    let cell = fp("opt", "run", "x86-p4", &["javac"]);
    {
        let store = Store::open_with(&dir, no_compact()).unwrap();
        store.append(&rec(&cell, &[1], 1.0)).unwrap();
    }
    // Tear the wal, recover, append more, reopen again.
    let torn = encode_record(&rec(&cell, &[2], 2.0));
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.seg"))
            .unwrap();
        f.write_all(&torn[..torn.len() / 2]).unwrap();
    }
    {
        let store = Store::open_with(&dir, no_compact()).unwrap();
        store.append(&rec(&cell, &[3], 3.0)).unwrap();
    }
    let store = Store::open_with(&dir, no_compact()).unwrap();
    assert_eq!(store.get(cell.cell_digest, &[1]), Some(1.0));
    assert_eq!(store.get(cell.cell_digest, &[2]), None);
    assert_eq!(store.get(cell.cell_digest, &[3]), Some(3.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_folds_wal_into_one_sorted_segment() {
    let dir = temp_dir("compact");
    let a = fp("opt", "total", "x86-p4", &["db"]);
    let b = fp("opt", "total", "ppc-g4", &["db"]);
    let store = Store::open_with(&dir, no_compact()).unwrap();
    for i in 0..20 {
        store.append(&rec(&a, &[i, 0], i as f64)).unwrap();
        store.append(&rec(&b, &[i, 0], -(i as f64))).unwrap();
    }
    let before = store.snapshot_records();
    let report = store.compact().unwrap();
    assert_eq!(report.records, 40);
    assert_eq!(
        store.snapshot_records(),
        before,
        "compaction changed records"
    );
    let stats = store.stats();
    assert_eq!((stats.segments, stats.wal_records), (1, 0));

    // Compact again (idempotent), append on top, reopen.
    store.compact().unwrap();
    store.append(&rec(&a, &[77, 77], 0.5)).unwrap();
    drop(store);
    let store = Store::open_with(&dir, no_compact()).unwrap();
    assert_eq!(store.stats().records, 41);
    assert_eq!(store.get(a.cell_digest, &[77, 77]), Some(0.5));
    assert_eq!(store.get(b.cell_digest, &[19, 0]), Some(-19.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_compaction_kicks_in_at_the_threshold() {
    let dir = temp_dir("bg");
    let cell = fp("adapt", "run", "x86-p4", &["db"]);
    let store = Store::open_with(
        &dir,
        StoreOptions {
            compact_threshold: 8,
            ..StoreOptions::default()
        },
    )
    .unwrap();
    for i in 0..64 {
        store.append(&rec(&cell, &[i], i as f64)).unwrap();
    }
    // The compactor runs asynchronously; wait for it to catch up. The
    // bound scales off SIM_TIMEOUT_MS (default 1000 ms, so 10 s here)
    // like the served/sim integration suites, so loaded machines can
    // stretch it without editing constants.
    let unit: u64 = std::env::var("SIM_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(unit * 10);
    while store.stats().compactions == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = store.stats();
    assert!(stats.compactions > 0, "background compaction never ran");
    assert_eq!(stats.records, 64, "compaction must not lose records");
    for i in 0..64 {
        assert_eq!(store.get(cell.cell_digest, &[i]), Some(i as f64));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_tuple_key_regression_no_aliasing_across_cells() {
    // The cluster-wide cache-key fix: one genome, four cells differing
    // in exactly one coordinate each (workload, arch, goal, scenario)
    // must stay four independent records.
    let dir = temp_dir("tuple");
    let genome = [25, 15, 8, 200, 135];
    let cells = [
        fp("opt", "total", "x86-p4", &["db"]),
        fp("opt", "total", "x86-p4", &["jess"]), // workload differs
        fp("opt", "total", "ppc-g4", &["db"]),   // arch differs
        fp("opt", "bal", "x86-p4", &["db"]),     // goal differs
        fp("adapt", "total", "x86-p4", &["db"]), // scenario differs
    ];
    let store = Store::open_with(&dir, no_compact()).unwrap();
    for (i, cell) in cells.iter().enumerate() {
        store.append(&rec(cell, &genome, i as f64)).unwrap();
    }
    assert_eq!(store.stats().records, cells.len());
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(
            store.get(cell.cell_digest, &genome),
            Some(i as f64),
            "cell {i} aliased another cell's measurement"
        );
    }
    // Suite *order* is part of the cell: evaluation order decides the
    // accumulation order of the geometric mean, and replay is bit-exact.
    let reordered = fp("opt", "total", "x86-p4", &["jess", "db"]);
    let in_order = fp("opt", "total", "x86-p4", &["db", "jess"]);
    assert_ne!(reordered.cell_digest, in_order.cell_digest);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_seeds_rank_nearest_cells_first_and_dedup() {
    let dir = temp_dir("seeds");
    let store = Store::open_with(&dir, no_compact()).unwrap();
    let near = Fingerprint {
        cell_digest: 1,
        arch: "x86-p4".into(),
        features: vec![1.0, 1.0],
        problem: "inline".into(),
    };
    let far = Fingerprint {
        cell_digest: 2,
        arch: "x86-p4".into(),
        features: vec![10.0, 10.0],
        problem: "inline".into(),
    };
    // near's best is [1,1] (fitness 0.1); far's best is [5,5] (0.05).
    store.append(&rec(&near, &[1, 1], 0.1)).unwrap();
    store.append(&rec(&near, &[2, 2], 0.9)).unwrap();
    store.append(&rec(&far, &[5, 5], 0.05)).unwrap();
    store.append(&rec(&far, &[1, 1], 0.5)).unwrap(); // duplicate genome

    let target = Fingerprint {
        cell_digest: 99,
        arch: "x86-p4".into(),
        features: vec![1.1, 1.1],
        problem: "inline".into(),
    };
    let seeds = store.warm_seeds(&target, 10);
    // Interleaved by rank depth, nearest cell first, duplicates dropped.
    assert_eq!(seeds, vec![vec![1, 1], vec![5, 5], vec![2, 2]]);
    assert_eq!(store.warm_seeds(&target, 2).len(), 2);

    let empty = Store::open_with(temp_dir("seeds-empty"), no_compact()).unwrap();
    assert!(empty.warm_seeds(&target, 4).is_empty());
    std::fs::remove_dir_all(store.dir()).ok();
    std::fs::remove_dir_all(empty.dir()).ok();
}

#[test]
fn warm_seeds_never_cross_problems() {
    // Cross-problem transfer regression: a flags genome means nothing
    // to an inlining search (and vice versa), no matter how close the
    // workload fingerprints look. Here the *other* problem's cell is
    // feature-identical to the target and holds the better fitness —
    // it must still be invisible.
    let dir = temp_dir("cross-problem");
    let store = Store::open_with(&dir, no_compact()).unwrap();
    let cell = |digest: u64, problem: &str| Fingerprint {
        cell_digest: digest,
        arch: "x86-p4".into(),
        features: vec![1.0, 1.0],
        problem: problem.into(),
    };
    store
        .append(&rec(&cell(1, "flags"), &[0, 1, 1, 1, 1], 0.05))
        .unwrap();
    store
        .append(&rec(&cell(2, "inline"), &[25, 15, 8, 200, 135], 0.9))
        .unwrap();

    let inline_target = cell(99, "inline");
    assert_eq!(
        store.warm_seeds(&inline_target, 10),
        vec![vec![25, 15, 8, 200, 135]],
        "an inline search was seeded with a foreign problem's genome"
    );
    let flags_target = cell(99, "flags");
    assert_eq!(
        store.warm_seeds(&flags_target, 10),
        vec![vec![0, 1, 1, 1, 1]]
    );
    // No cells of the problem at all → cold start, not a borrowed seed.
    assert!(store.warm_seeds(&cell(99, "dss"), 10).is_empty());

    // Both problems' records survive a reopen with their tags intact.
    drop(store);
    let store = Store::open_with(&dir, no_compact()).unwrap();
    assert_eq!(store.warm_seeds(&inline_target, 10).len(), 1);
    assert_eq!(store.warm_seeds(&flags_target, 10).len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_appends_are_free_and_first_wins() {
    let dir = temp_dir("dup");
    let cell = fp("opt", "total", "x86-p4", &["db"]);
    let store = Store::open_with(&dir, no_compact()).unwrap();
    assert!(store.append(&rec(&cell, &[1, 2], 0.5)).unwrap());
    assert!(!store.append(&rec(&cell, &[1, 2], 0.5)).unwrap());
    assert_eq!(store.stats().appends, 1);
    assert_eq!(store.stats().records, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_counters_track_traffic() {
    let dir = temp_dir("obs");
    let reg = Arc::new(obs::Registry::new());
    let cell = fp("opt", "total", "x86-p4", &["db"]);
    let store = Store::open_with(
        &dir,
        StoreOptions {
            compact_threshold: 0,
            obs: Arc::clone(&reg),
        },
    )
    .unwrap();
    store.append(&rec(&cell, &[1], 1.0)).unwrap();
    store.get(cell.cell_digest, &[1]);
    store.get(cell.cell_digest, &[2]);
    store.compact().unwrap();
    let snap = reg.snapshot();
    assert_eq!(snap.counter("store_appends"), 1);
    assert_eq!(snap.counter("store_hits"), 1);
    assert_eq!(snap.counter("store_misses"), 1);
    assert_eq!(snap.counter("store_compactions"), 1);
    assert!(
        snap.histogram("store_append_micros").is_some(),
        "append latency histogram missing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn immediate_drop_never_loses_the_compactor_wake_up() {
    // Open and at once drop, a thousand times: a compactor caught
    // between its shutdown check and its condvar wait must still wake.
    // Each round runs under a deadline so a lost wake-up fails the test
    // instead of hanging it.
    // The window is a few instructions wide: with the flag set
    // outside the lock, a 2-core host lost a wake-up about once per
    // few thousand rounds, so this guards probabilistically.
    let dir = temp_dir("wakeup");
    for round in 0..1000 {
        let (tx, rx) = std::sync::mpsc::channel();
        let d = dir.clone();
        let round_thread = std::thread::spawn(move || {
            drop(Store::open_with(&d, StoreOptions::default()).unwrap());
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok(),
            "round {round}: drop hung — the compactor missed the wake-up"
        );
        round_thread.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
