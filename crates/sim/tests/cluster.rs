//! End-to-end simulation tests: the acceptance gates of the harness.
//!
//! * Same seed, repeated executions → bit-identical final results.
//! * A seeded drop/partition/crash schedule that kills a worker
//!   mid-generation still converges to the exact fault-free genome.
//! * A daemon with re-dispatch disabled (lost work on retry) is caught
//!   by the sweep within a handful of seeds.
//! * Checkpoints written under faults stay loadable.

use std::time::Duration;

use sim::{
    sweep, Backlog, Cluster, ClusterConfig, FaultPlan, OnlineDrift, Outcome, Report, Scenario,
    StoreCrash,
};

/// One timeout unit. Deadlines scale off `SIM_TIMEOUT_MS` (default
/// 1000) so slow or loaded machines can stretch every bound with one
/// env var instead of editing constants — the same knob the served
/// integration suites honor. (The bound below caps *virtual* time, so
/// it exists to catch real hangs, not to race the wall clock; the
/// default still leaves an enormous margin over a healthy run.)
fn timeout_unit() -> Duration {
    let ms = std::env::var("SIM_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    Duration::from_millis(ms)
}

fn bound(units: u32) -> Duration {
    timeout_unit() * units
}

/// The failing rows of a sweep, for assertion messages.
fn failing(report: &Report) -> Vec<(u64, Vec<String>)> {
    report
        .failures()
        .map(|r| (r.seed, r.failures.clone()))
        .collect()
}

#[test]
fn same_seed_is_bit_identical_across_executions() {
    // Thread interleaving may vary retry counts between executions, but
    // the *outcome* must not move: both runs have to reproduce the
    // fault-free ground truth bit-for-bit (genome and fitness bits are
    // compared inside the backlog scenario).
    for run in 0..2 {
        let report = sweep(&Backlog::BASE, 3, 1);
        assert_eq!(
            report.passed(),
            1,
            "run {run} of seed 3 diverged: {:?}",
            failing(&report)
        );
    }
}

#[test]
fn crash_partition_and_frame_faults_converge_to_the_fault_free_result() {
    let cluster = Cluster::boot(&ClusterConfig {
        seed: 42,
        workers: 2,
        plan: FaultPlan {
            drop_p: 0.08,
            dup_p: 0.02,
            delay_p: 0.30,
            delay_max_micros: 15_000,
        },
        redispatch: true,
        ..ClusterConfig::default()
    })
    .expect("cluster boots");

    let spec = Cluster::spec(7);
    let (want_genes, want_fitness) = Cluster::expected(&spec).expect("reference tune");
    let id = cluster.submit(&spec).expect("submit");

    // Kill worker 0 mid-generation, cut worker 1 off for a window, then
    // let both come back — the job must ride it out on retries,
    // failover, and the local fallback.
    let mut fired = [false; 4];
    let outcome = cluster.wait(id, bound(60), |now_ms| {
        let mut fire = |slot: usize, at: u64| {
            let due = now_ms >= at && !fired[slot];
            if due {
                fired[slot] = true;
            }
            due
        };
        if fire(0, 60) {
            cluster.crash_worker(0);
        }
        if fire(1, 90) {
            cluster.partition_worker(1);
        }
        if fire(2, 180) {
            cluster.heal_worker(1);
        }
        if fire(3, 220) {
            cluster.restart_worker(0).expect("worker restarts");
        }
    });

    let Outcome::Done {
        genes,
        fitness,
        generations,
    } = outcome
    else {
        panic!("job did not finish under faults: {outcome:?}");
    };
    assert_eq!(genes, want_genes, "fault schedule changed the genome");
    assert_eq!(
        fitness.to_bits(),
        want_fitness.to_bits(),
        "fault schedule changed the fitness bits"
    );
    assert_eq!(generations, 3);
    let loaded = cluster.checkpoints_loadable().expect("checkpoints load");
    assert!(loaded >= 1, "expected at least one loadable checkpoint");
    assert!(
        fired.iter().all(|f| *f),
        "scenario too short to fire every fault event: {fired:?}"
    );
    cluster.shutdown();
}

#[test]
fn sweep_catches_a_daemon_that_loses_redispatched_work() {
    // The intentionally-broken build: DispatchConfig::redispatch = false
    // silently drops work claimed by a failing worker. With frame drops
    // in the schedule, some seed must hang on the lost genome.
    let broken = Backlog {
        redispatch: false,
        ..Backlog::BASE
    };
    let report = sweep(&broken, 9, 4);
    assert!(
        report.failures().next().is_some(),
        "no seed caught the lost-work bug — the sweep has no teeth"
    );
    for f in report.failures() {
        assert!(
            !f.trace.is_empty(),
            "failing seed {} carries no fault trace to replay from",
            f.seed
        );
    }
}

#[test]
fn mixed_problem_backlog_loses_no_job_and_stays_bit_identical() {
    // One daemon, three queued jobs — inline, flags, dss — per seed,
    // under the same seeded fault weather as the single-job sweep.
    // Every job must reach `done` with its own fault-free result.
    let report = sweep(&Backlog::MIXED, 1, 3);
    assert_eq!(
        report.passed(),
        3,
        "mixed-problem backlog lost or corrupted jobs: {:?}",
        failing(&report)
    );
    assert_eq!(
        report.total("jobs_done"),
        3 * sim::MIXED_PROBLEMS.len() as u64,
        "every submitted job must land, none dropped from the queue"
    );
}

#[test]
fn store_crash_recovery_sweep_passes_and_exercises_torn_tails() {
    let report = sweep(&StoreCrash, 1, 16);
    assert_eq!(
        report.passed(),
        16,
        "store lost or corrupted acknowledged records: {:?}",
        failing(&report)
    );
    assert!(
        report.total("torn_scenarios") > 0,
        "no scenario tore the wal — the sweep never hit the recovery path"
    );
    // A scenario is pure in its seed: replaying one yields the exact
    // same row, which is what makes `simtest --scenario store --seed N`
    // a complete reproduction recipe.
    let a = sweep(&StoreCrash, 5, 1);
    let b = sweep(&StoreCrash, 5, 1);
    assert_eq!(a.rows, b.rows);
    assert!(a.rows[0].total("records") > 0);
}

#[test]
fn online_drift_sweep_stays_bit_identical_and_commits_retunes() {
    // Online jobs under fault weather: the daemon's whole epoch
    // trajectory — per-epoch probes, retune decisions, detection
    // latencies, evaluation counts, final incumbent bits — must equal
    // the in-process reference runner, and the bounded-regret
    // invariants must hold on every seed.
    let report = sweep(&OnlineDrift, 1, 6);
    assert_eq!(
        report.passed(),
        6,
        "online scenarios diverged from the reference runner: {:?}",
        failing(&report)
    );
    assert!(
        report.total("retunes") > 0,
        "no scenario committed a retune — drift detection never fired"
    );
    // Scenario derivation is pure in the seed: the same seed replays
    // the identical schedule and drift identity, which is what makes
    // `simtest --scenario online --seed N` a complete reproduction
    // recipe.
    let (a, b) = (sweep(&OnlineDrift, 2, 1), sweep(&OnlineDrift, 2, 1));
    assert_eq!(a.rows[0].failures, b.rows[0].failures);
    assert_eq!(a.total("retunes"), b.total("retunes"));
    assert_eq!(OnlineDrift.derive(2).kind, OnlineDrift.derive(2).kind);
}

#[test]
fn clean_sweep_over_healthy_daemon_passes_and_injects_faults() {
    let report = sweep(&Backlog::BASE, 1, 6);
    assert_eq!(
        report.passed(),
        6,
        "healthy daemon failed seeds: {:?}",
        failing(&report)
    );
    assert!(
        report.total("dropped") + report.total("duplicated") + report.total("delayed") > 0,
        "sweep injected no faults at all — the schedules are inert"
    );
}
