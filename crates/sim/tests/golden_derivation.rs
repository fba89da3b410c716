//! Golden derivation digests: one FNV-1a digest per scenario family
//! over exactly the seed ranges CI sweeps, covering everything a seed
//! derives — fault-plan bits, timed events with their target workers,
//! GA and drift seeds, store kill and torn-tail parameters, and every
//! soak client's GA seed. A changed digest means CI no longer sweeps
//! the fault schedules it swept before, so a refactor of the derivation
//! code must leave every value here as it is.

use std::ops::RangeInclusive;

use sim::{Backlog, Event, Fault, FaultPlan, OnlineDrift, Scenario, ShardSoak, StoreCrash};

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn plan_text(p: &FaultPlan) -> String {
    format!(
        "plan={:x},{:x},{:x},{}",
        p.drop_p.to_bits(),
        p.dup_p.to_bits(),
        p.delay_p.to_bits(),
        p.delay_max_micros
    )
}

fn events_text(events: &[Event]) -> String {
    events
        .iter()
        .map(|e| {
            let fault = match e.fault {
                Fault::Crash => "crash",
                Fault::Restart => "restart",
                Fault::Partition => "partition",
                Fault::Heal => "heal",
            };
            format!("{fault}@{}/w{}", e.at_ms, e.worker)
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn digest(seeds: RangeInclusive<u64>, line: impl Fn(u64) -> String) -> u64 {
    fnv(&seeds.map(|seed| line(seed) + "\n").collect::<String>())
}

fn backlog_digest(seeds: RangeInclusive<u64>) -> u64 {
    digest(seeds, |seed| {
        let s = Backlog::BASE.derive(seed);
        format!(
            "seed={seed} {} events=[{}] ga={}",
            plan_text(&s.weather.plan),
            events_text(&s.weather.events),
            s.ga_seed
        )
    })
}

#[test]
fn base_and_mixed_derive_the_pinned_schedules() {
    // Mixed and broken sweeps derive exactly like base.
    assert_eq!(
        backlog_digest(1..=200),
        0x7593_9d96_745f_edc0,
        "base 1..=200"
    );
    assert_eq!(
        backlog_digest(9..=20),
        0xd6d0_1c82_8fab_1c5c,
        "broken 9..=20"
    );
    assert_eq!(backlog_digest(1..=8), 0x496c_b043_0d7f_ddbc, "mixed 1..=8");
    assert_eq!(
        Backlog::MIXED.derive(5).weather.events,
        Backlog::BASE.derive(5).weather.events
    );
}

#[test]
fn store_derives_the_pinned_schedules() {
    let d = digest(1..=60, |seed| {
        let s = StoreCrash.derive(seed);
        format!(
            "seed={seed} records={} kill_after={} cells={} compact={} before={} after={} torn={:?}",
            s.records,
            s.kill_after,
            s.cells,
            s.compact_threshold,
            s.compact_before_kill,
            s.compact_after_restart,
            s.torn_frac.map(f64::to_bits)
        )
    });
    assert_eq!(d, 0x83ed_ae04_c93f_e0ef, "store 1..=60");
}

#[test]
fn online_derives_the_pinned_schedules() {
    let d = digest(1..=50, |seed| {
        let s = OnlineDrift.derive(seed);
        format!(
            "seed={seed} {} events=[{}] ga={} kind={} drift={}",
            plan_text(&s.weather.plan),
            events_text(&s.weather.events),
            s.ga_seed,
            s.kind.name(),
            s.drift_seed
        )
    });
    assert_eq!(d, 0x7391_eb57_6433_9c48, "online 1..=50");
}

#[test]
fn shard_derives_the_pinned_schedules() {
    let soak = ShardSoak {
        clients: 1000,
        workers: 100,
        ..ShardSoak::default()
    };
    let d = digest(1..=50, |seed| {
        let s = soak.derive(seed);
        let clients: Vec<String> = s.client_ga_seeds.iter().map(u64::to_string).collect();
        format!(
            "seed={seed} {} events=[{}] clients=[{}]",
            plan_text(&s.weather.plan),
            events_text(&s.weather.events),
            clients.join(",")
        )
    });
    assert_eq!(
        d, 0xcb0d_93da_e7ce_a982,
        "shard 1..=50 at 1000 clients / 100 workers"
    );
}
