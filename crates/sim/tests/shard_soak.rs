//! Tier-1 smoke over the multi-tenant shard soak and bench: small
//! scale so `cargo test` stays fast — `simtest --scenario shard` runs
//! the headline 1000-client / 100-worker sweep in CI's soak stage.

use sim::{run_shard_bench, sweep, ShardSoak};

#[test]
fn a_small_soak_holds_every_invariant() {
    let soak = ShardSoak {
        clients: 32,
        workers: 6,
        shards: 4,
        runners: 4,
    };
    for r in sweep(&soak, 11, 2).rows {
        let seed = r.seed;
        assert!(r.ok(), "soak seed {seed} failed: {:?}", r.failures);
        assert!(r.total("admitted") > 0, "soak seed {seed} admitted nothing");
        assert_eq!(
            r.total("jobs_done"),
            r.total("admitted"),
            "soak seed {seed}: every admitted job must finish"
        );
        // The capped tenant's budget admits roughly a quarter of its
        // clients; the rest must have seen structured quota rejects.
        assert!(
            r.total("quota_rejects") > 0,
            "soak seed {seed} never exercised the quota path"
        );
    }
}

#[test]
fn the_bench_gate_holds_at_small_scale() {
    let r = run_shard_bench(21, 8, 4, &[1, 4]);
    assert_eq!(r.points.len(), 2);
    assert!(
        r.points.iter().all(|p| p.all_done),
        "bench lost jobs: {:?}",
        r.points
    );
    assert!(
        r.sharded_beats_single(),
        "sharded throughput fell below the single-queue baseline: {:?}",
        r.points
    );
}
