//! The seed sweep: one [`Scenario`] trait and one driver ([`sweep`])
//! behind every seeded fault sweep. Hundreds of randomized scenarios,
//! each fully determined by one `u64`, each checked against its
//! invariants, all in seconds of wall clock (the network is simulated
//! and the clock is virtual — only fitness evaluation costs real CPU).
//!
//! A scenario is *derived from its seed*, never stored: frame-level
//! fault probabilities, timed crash/partition events and the identity
//! of the work itself all come out of [`simrng::child_rng`] streams
//! rooted at the scenario seed. Re-running a failing seed therefore
//! replays the identical schedule — a replay is a one-seed sweep, and
//! `simtest --scenario <name> --seed N --trace` is the whole
//! reproduction recipe.
//!
//! The families (`simtest --scenario <name>`):
//! * `base` / `mixed` ([`Backlog`]) — one inlining job, or an `inline`,
//!   a `flags` and a `dss` job queued on one daemon, under seeded
//!   [`Weather`]; every job must bit-match its fault-free tune.
//! * `store` ([`StoreCrash`]) — a fitness store killed mid-append must
//!   serve every acknowledged record bit-exactly after recovery.
//! * `online` ([`crate::online::OnlineDrift`]) — drifting online jobs,
//!   bit-identical to the in-process reference runner epoch by epoch.
//! * `shard` ([`crate::shard_soak::ShardSoak`]) — the multi-tenant soak.
//!
//! Fault-free references are cached per sweep in the family's
//! [`Scenario::Cache`]: scenarios draw their GA seed from a small pool,
//! so a 200-seed sweep pays for only a handful of in-process reference
//! runs.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use served::JobSpec;
use simrng::{child_rng, Rng};

use crate::cluster::{Cluster, ClusterConfig, Outcome};
use crate::net::{FaultPlan, TraceEvent};

/// Virtual-time budget per job before it counts as hung. Far beyond
/// anything a healthy run needs (worst observed healthy runs finish in
/// well under ten virtual seconds even through crash + partition
/// schedules).
pub const SCENARIO_DEADLINE: Duration = Duration::from_secs(60);

/// GA seeds scenarios draw from (small on purpose — see the module docs
/// on reference caching).
pub(crate) const GA_SEEDS: [u64; 4] = [1, 7, 23, 77];

/// One family of seeded scenarios.
pub trait Scenario {
    /// Everything one seed denotes: fault schedule and work identity.
    type Plan;
    /// Fault-free references shared across one sweep.
    type Cache: Default;

    /// Derives the plan `seed` denotes. Pure: same seed, same plan, on
    /// every machine and every run.
    fn derive(&self, seed: u64) -> Self::Plan;

    /// Runs a plan and checks every invariant.
    fn run(&self, plan: &Self::Plan, cache: &mut Self::Cache) -> Row;
}

/// What one scenario seed produced. Green iff `failures` is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row {
    /// The scenario seed.
    pub seed: u64,
    /// Virtual ms the scenario ran for.
    pub virtual_ms: u64,
    /// Named counters (faults injected, jobs done, records, ...) —
    /// evidence the scenario exercised what it claims to.
    pub totals: BTreeMap<&'static str, u64>,
    /// Broken invariants, in the order they were caught.
    pub failures: Vec<String>,
    /// The fault trace, populated only when the seed failed.
    pub trace: Vec<String>,
}

impl Row {
    /// An empty row for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Whether every invariant held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// A named counter (0 when never counted).
    #[must_use]
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Adds `n` to a named counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.totals.entry(name).or_default() += n;
    }
}

/// A whole sweep: one row per seed, in seed order.
#[derive(Debug, Clone)]
pub struct Report {
    /// First seed swept.
    pub base_seed: u64,
    /// Every seed's row.
    pub rows: Vec<Row>,
}

impl Report {
    /// Rows whose invariants broke.
    pub fn failures(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| !r.ok())
    }

    /// Seeds on which every invariant held.
    #[must_use]
    pub fn passed(&self) -> usize {
        self.rows.iter().filter(|r| r.ok()).count()
    }

    /// Every named counter, summed over the sweep.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut sum = BTreeMap::new();
        for (name, n) in self.rows.iter().flat_map(|r| &r.totals) {
            *sum.entry(*name).or_default() += n;
        }
        sum
    }

    /// One named counter, summed over the sweep.
    #[must_use]
    pub fn total(&self, name: &str) -> u64 {
        self.rows.iter().map(|r| r.total(name)).sum()
    }

    /// Accumulated virtual milliseconds simulated.
    #[must_use]
    pub fn virtual_ms(&self) -> u64 {
        self.rows.iter().map(|r| r.virtual_ms).sum()
    }

    /// The slowest scenario — the sweep's worst-case distance from the
    /// hang cutoff (the first of equals).
    #[must_use]
    pub fn worst(&self) -> Option<&Row> {
        self.rows.iter().rev().max_by_key(|r| r.virtual_ms)
    }
}

/// Sweeps `seeds` consecutive seeds starting at `base_seed`, sharing one
/// reference cache across them.
#[must_use]
pub fn sweep<S: Scenario>(family: &S, base_seed: u64, seeds: u64) -> Report {
    let mut cache = S::Cache::default();
    Report {
        base_seed,
        rows: (base_seed..base_seed + seeds)
            .map(|seed| family.run(&family.derive(seed), &mut cache))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Cluster weather: the pieces every cluster family shares
// ---------------------------------------------------------------------

/// What a timed event does to its worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash the worker.
    Crash,
    /// Restart the crashed worker on the same address.
    Restart,
    /// Partition the worker from the daemon.
    Partition,
    /// Heal the partition.
    Heal,
}

/// One timed fault against one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual ms after the scenario started.
    pub at_ms: u64,
    /// The target worker index.
    pub worker: usize,
    /// What happens to it.
    pub fault: Fault,
}

impl Event {
    fn fire(self, cluster: &Cluster) {
        match self.fault {
            Fault::Crash => cluster.crash_worker(self.worker),
            Fault::Restart => {
                let _ = cluster.restart_worker(self.worker);
            }
            Fault::Partition => cluster.partition_worker(self.worker),
            Fault::Heal => cluster.heal_worker(self.worker),
        }
    }
}

/// Seeded distributed-systems weather: frame faults on every
/// daemon↔worker link plus timed events, ascending by time.
#[derive(Debug, Clone)]
pub struct Weather {
    /// Frame-level faults on every daemon↔worker link.
    pub plan: FaultPlan,
    /// Timed crash/partition events.
    pub events: Vec<Event>,
}

impl Weather {
    /// The single-job weather (`base`, `mixed`, `online`): an optional
    /// crash + restart of worker 0 and an optional partition + heal of
    /// the *last* worker, so the two compose without stepping on each
    /// other.
    pub fn derive(rng: &mut Rng, workers: usize) -> Self {
        let plan = FaultPlan {
            drop_p: rng.f64() * 0.12,
            dup_p: rng.f64() * 0.04,
            delay_p: rng.f64() * 0.35,
            delay_max_micros: 1_000 + rng.below(25_000),
        };
        let mut events = Vec::new();
        if rng.chance(0.5) {
            let crash_at = 40 + rng.below(220);
            let restart_at = crash_at + 40 + rng.below(180);
            pair(&mut events, Fault::Crash, crash_at, restart_at, 0);
        }
        if rng.chance(0.35) {
            let cut_at = 20 + rng.below(260);
            let heal_at = cut_at + 30 + rng.below(200);
            let last = workers.saturating_sub(1);
            pair(&mut events, Fault::Partition, cut_at, heal_at, last);
        }
        events.sort_by_key(|e| e.at_ms);
        Self { plan, events }
    }

    /// The soak weather (`shard`): milder frame faults over a large
    /// fleet, one or two crash/restart pairs and an optional
    /// partition/heal pair, each aimed at a seeded worker index.
    pub fn soak(rng: &mut Rng, workers: usize) -> Self {
        let plan = FaultPlan {
            drop_p: rng.f64() * 0.08,
            dup_p: rng.f64() * 0.03,
            delay_p: rng.f64() * 0.30,
            delay_max_micros: 1_000 + rng.below(15_000),
        };
        let mut events = Vec::new();
        for _ in 0..=rng.below(2) {
            let worker = rng.below(workers as u64) as usize;
            let crash_at = 40 + rng.below(400);
            let restart_at = crash_at + 40 + rng.below(300);
            pair(&mut events, Fault::Crash, crash_at, restart_at, worker);
        }
        if rng.chance(0.6) {
            let worker = rng.below(workers as u64) as usize;
            let cut_at = 20 + rng.below(400);
            let heal_at = cut_at + 30 + rng.below(250);
            pair(&mut events, Fault::Partition, cut_at, heal_at, worker);
        }
        events.sort_by_key(|e| e.at_ms);
        Self { plan, events }
    }
}

/// Pushes a fault and its undo (crash → restart, partition → heal).
fn pair(events: &mut Vec<Event>, fault: Fault, at_ms: u64, undo_ms: u64, worker: usize) {
    let undo = if fault == Fault::Crash {
        Fault::Restart
    } else {
        Fault::Heal
    };
    events.push(Event {
        at_ms,
        worker,
        fault,
    });
    events.push(Event {
        at_ms: undo_ms,
        worker,
        fault: undo,
    });
}

/// A booted cluster working through one scenario's timed events.
pub(crate) struct Run {
    pub(crate) cluster: Cluster,
    started_ms: u64,
    pending: Vec<Event>,
}

impl Run {
    pub(crate) fn boot(config: &ClusterConfig, events: &[Event]) -> Result<Self, String> {
        let cluster = Cluster::boot(config).map_err(|e| format!("boot: {e}"))?;
        Ok(Self {
            started_ms: cluster.now_ms(),
            cluster,
            pending: events.to_vec(),
        })
    }

    /// Fires every event the virtual clock has passed, in order.
    pub(crate) fn fire_due(&mut self) {
        fire_due(&self.cluster, self.started_ms, &mut self.pending);
    }

    /// Virtual ms since the scenario started.
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.cluster.now_ms() - self.started_ms
    }

    /// Polls one job to a terminal state (or [`SCENARIO_DEADLINE`]),
    /// firing events as the virtual clock passes them — they land during
    /// whichever job is running.
    pub(crate) fn wait(&mut self, id: u64) -> Outcome {
        let (cluster, started_ms, pending) = (&self.cluster, self.started_ms, &mut self.pending);
        cluster.wait(id, SCENARIO_DEADLINE, |_| {
            fire_due(cluster, started_ms, pending);
        })
    }

    /// The end of every cluster scenario: count the injected faults,
    /// keep the trace if the row failed, then tear down — `abandon` a
    /// hung cluster (its stuck threads cannot be joined), `shutdown`
    /// otherwise.
    pub(crate) fn finish(self, mut row: Row, hung: bool) -> Row {
        row.virtual_ms = self.elapsed_ms();
        let trace = self.cluster.net().trace();
        let mut faults = [0u64; 4];
        for e in &trace {
            match e {
                TraceEvent::Drop { .. } => faults[0] += 1,
                TraceEvent::Dup { .. } => faults[1] += 1,
                TraceEvent::Delay { .. } => faults[2] += 1,
                TraceEvent::Partitioned { .. } => faults[3] += 1,
                TraceEvent::Note { .. } => {}
            }
        }
        for (name, n) in ["dropped", "duplicated", "delayed", "blackholed"]
            .into_iter()
            .zip(faults)
        {
            row.add(name, n);
        }
        if !row.ok() {
            row.trace = trace.iter().map(ToString::to_string).collect();
        }
        if hung {
            self.cluster.abandon();
        } else {
            self.cluster.shutdown();
        }
        row
    }
}

fn fire_due(cluster: &Cluster, started_ms: u64, pending: &mut Vec<Event>) {
    let elapsed = cluster.now_ms().saturating_sub(started_ms);
    while pending.first().is_some_and(|e| elapsed >= e.at_ms) {
        pending.remove(0).fire(cluster);
    }
}

/// Fault-free reference cache shared across a sweep, keyed by
/// `(problem id, GA seed)` — each cell has its own fault-free
/// trajectory: `(genes, fitness bits)`.
pub type Expected = HashMap<(String, u64), (Vec<i64>, u64)>;

/// The fault-free result for `spec`, computed once per cache cell.
pub(crate) fn reference(expected: &mut Expected, spec: &JobSpec) -> (Vec<i64>, u64) {
    expected
        .entry((spec.problem.clone(), spec.ga.seed))
        .or_insert_with(|| {
            let (g, f) = Cluster::expected(spec).expect("reference tune of a valid spec");
            (g, f.to_bits())
        })
        .clone()
}

// ---------------------------------------------------------------------
// base / mixed: a job backlog under weather
// ---------------------------------------------------------------------

/// The problem ids a mixed scenario submits (every id in
/// [`problems::KNOWN`], spelled out so a new domain is an explicit
/// sweep decision, not a silent cost increase).
pub const MIXED_PROBLEMS: [&str; 3] = ["inline", "flags", "dss"];

/// `base` and `mixed`: one job per problem id, all submitted to one
/// daemon *before any completes*, drained under seeded [`Weather`].
/// Invariants: no lost jobs, every result bit-identical to its
/// fault-free tune, every checkpoint loadable.
#[derive(Debug, Clone, Copy)]
pub struct Backlog {
    /// Problem ids, one job each, in submission order.
    pub problems: &'static [&'static str],
    /// The [`ClusterConfig::redispatch`] hook: `false` builds the
    /// intentionally-broken daemon the base self-test must catch.
    pub redispatch: bool,
}

impl Backlog {
    /// `base`: one inlining job.
    pub const BASE: Self = Self {
        problems: &["inline"],
        redispatch: true,
    };
    /// `mixed`: a heterogeneous backlog — with one job runner, the
    /// daemon holds two queued problems while tuning the first.
    pub const MIXED: Self = Self {
        problems: &MIXED_PROBLEMS,
        redispatch: true,
    };
}

/// A derived `base`/`mixed` scenario.
#[derive(Debug, Clone)]
pub struct BacklogPlan {
    /// The root seed.
    pub seed: u64,
    /// Frame faults and timed events.
    pub weather: Weather,
    /// The GA seed every job uses (picks the search trajectory).
    pub ga_seed: u64,
    /// Workers in the cluster.
    pub workers: usize,
}

impl Scenario for Backlog {
    type Plan = BacklogPlan;
    type Cache = Expected;

    fn derive(&self, seed: u64) -> BacklogPlan {
        let mut rng = child_rng(seed, "sim/scenario");
        let workers = 2;
        let weather = Weather::derive(&mut rng, workers);
        BacklogPlan {
            seed,
            weather,
            ga_seed: *rng.choose(&GA_SEEDS),
            workers,
        }
    }

    fn run(&self, plan: &BacklogPlan, expected: &mut Expected) -> Row {
        let mut row = Row::new(plan.seed);
        let jobs: Vec<(JobSpec, (Vec<i64>, u64))> = self
            .problems
            .iter()
            .map(|p| {
                let spec = Cluster::spec_for(p, plan.ga_seed);
                let want = reference(expected, &spec);
                (spec, want)
            })
            .collect();

        let config = ClusterConfig {
            seed: plan.seed,
            workers: plan.workers,
            plan: plan.weather.plan,
            redispatch: self.redispatch,
            ..ClusterConfig::default()
        };
        let mut run = match Run::boot(&config, &plan.weather.events) {
            Ok(run) => run,
            Err(e) => {
                row.failures.push(e);
                return row;
            }
        };
        let mut ids = Vec::with_capacity(jobs.len());
        for (spec, _) in &jobs {
            match run.cluster.submit(spec) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    row.failures.push(format!("{}: submit: {e}", spec.problem));
                    return run.finish(row, true);
                }
            }
        }

        for (id, (spec, (want_genes, want_bits))) in ids.into_iter().zip(&jobs) {
            let problem = &spec.problem;
            match run.wait(id) {
                Outcome::Hang { waited_ms } => {
                    row.failures.push(format!(
                        "{problem}: hang: not terminal after {waited_ms} virtual ms"
                    ));
                    return run.finish(row, true);
                }
                Outcome::Failed(msg) => row.failures.push(format!("{problem}: {msg}")),
                Outcome::Done { genes, fitness, .. }
                    if genes == *want_genes && fitness.to_bits() == *want_bits =>
                {
                    row.add("jobs_done", 1);
                }
                Outcome::Done { genes, fitness, .. } => row.failures.push(format!(
                    "{problem}: got {genes:?} @ {fitness}, fault-free tune gives {want_genes:?} @ {}",
                    f64::from_bits(*want_bits)
                )),
            }
        }
        if let Err(e) = run.cluster.checkpoints_loadable() {
            row.failures.push(format!("checkpoints: {e}"));
        }
        run.finish(row, false)
    }
}

// ---------------------------------------------------------------------
// store: crash/recovery of the persistent fitness store
// ---------------------------------------------------------------------

/// `store`: a write session killed mid-append (an optionally torn
/// record tail on the wal), a recovery session that must serve every
/// acknowledged record bit-exactly, and a third open proving recovery
/// is idempotent. Each scenario runs in a scratch directory under the
/// system temp dir (removed afterwards).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCrash;

/// A derived `store` scenario.
#[derive(Debug, Clone)]
pub struct StorePlan {
    /// The root seed.
    pub seed: u64,
    /// Records appended across both write sessions.
    pub records: usize,
    /// Records acknowledged before the kill.
    pub kill_after: usize,
    /// Distinct tuning cells the records spread over.
    pub cells: usize,
    /// Wal records per background compaction (0 disables it).
    pub compact_threshold: usize,
    /// Whether session one compacts explicitly before the kill.
    pub compact_before_kill: bool,
    /// Whether session two compacts after recovering.
    pub compact_after_restart: bool,
    /// Where the in-flight record's write is cut, as a fraction of its
    /// encoded length. `None` = the process died between appends (a
    /// clean tail).
    pub torn_frac: Option<f64>,
}

impl Scenario for StoreCrash {
    type Plan = StorePlan;
    type Cache = ();

    fn derive(&self, seed: u64) -> StorePlan {
        let mut rng = child_rng(seed, "sim/store");
        let records = 12 + rng.below(36) as usize;
        StorePlan {
            seed,
            records,
            kill_after: 1 + rng.below(records as u64 - 1) as usize,
            cells: 1 + rng.below(3) as usize,
            compact_threshold: 4 + rng.below(12) as usize,
            compact_before_kill: rng.chance(0.4),
            compact_after_restart: rng.chance(0.5),
            torn_frac: rng.chance(0.8).then(|| rng.f64()),
        }
    }

    fn run(&self, plan: &StorePlan, _: &mut ()) -> Row {
        let dir =
            std::env::temp_dir().join(format!("simstore-{}-{}", std::process::id(), plan.seed));
        let _ = std::fs::remove_dir_all(&dir);
        let row = run_store(plan, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        row
    }
}

/// The deterministic record plan of a store scenario: `records` entries
/// over `cells` fingerprints, with deliberate duplicate keys (carrying
/// *different* fitness values) to exercise first-write-wins across the
/// crash boundary.
fn store_records(sc: &StorePlan) -> Vec<stored::Record> {
    let mut rng = child_rng(sc.seed, "sim/store/records");
    let fingerprints: Vec<stored::Fingerprint> = (0..sc.cells)
        .map(|c| stored::Fingerprint {
            cell_digest: stored::digest_parts(&["simstore", &c.to_string(), &sc.seed.to_string()]),
            arch: if c % 2 == 0 { "x86-p4" } else { "ppc-g4" }.to_string(),
            features: (0..stored::FEATURES).map(|_| rng.f64() * 8.0).collect(),
            // Mix tagged and untagged records so the crash sweep also
            // covers the optional problem-tag encoding.
            problem: ["inline", "flags", "dss"][c % 3].to_string(),
        })
        .collect();
    let mut plan: Vec<stored::Record> = Vec::with_capacity(sc.records + 1);
    // One extra record: the one "in flight" when the kill lands.
    for _ in 0..=sc.records {
        let rec = if !plan.is_empty() && rng.chance(0.15) {
            // A duplicate key with a conflicting fitness: the store must
            // keep serving the first acknowledged value.
            let prev = rng.choose(&plan).clone();
            stored::Record {
                fitness: rng.f64() * 4.0,
                ..prev
            }
        } else {
            stored::Record {
                fingerprint: rng.choose(&fingerprints).clone(),
                genome: (0..5).map(|_| rng.below(100) as i64).collect(),
                fitness: rng.f64() * 4.0,
            }
        };
        plan.push(rec);
    }
    plan
}

/// Acknowledged ground truth: first write wins per key, keyed exactly
/// like [`stored::Record::key`] resolves lookups.
type Acked = HashMap<(u64, Vec<i64>), f64>;

fn check_served(store: &stored::Store, acked: &Acked, when: &str, failures: &mut Vec<String>) {
    for ((cell, genome), want) in acked {
        match store.get(*cell, genome) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            Some(got) => failures.push(format!(
                "{when}: key ({cell:#x}, {genome:?}) served {got} (bits {:#x}), acked {want} (bits {:#x})",
                got.to_bits(),
                want.to_bits()
            )),
            None => failures.push(format!(
                "{when}: acked record ({cell:#x}, {genome:?}) lost"
            )),
        }
    }
    let stats = store.stats();
    if stats.records != acked.len() {
        failures.push(format!(
            "{when}: store indexes {} records, {} were acknowledged",
            stats.records,
            acked.len()
        ));
    }
}

fn run_store(sc: &StorePlan, dir: &std::path::Path) -> Row {
    let mut row = Row::new(sc.seed);
    let failures = &mut row.failures;
    let plan = store_records(sc);
    let mut acked = Acked::new();
    let open = || {
        stored::Store::open_with(
            dir,
            stored::StoreOptions {
                compact_threshold: sc.compact_threshold,
                obs: std::sync::Arc::new(obs::Registry::new()),
            },
        )
    };

    // Session one: append until the kill point, then die. `drop` joins
    // the compactor, which is the right model — the torn bytes below
    // stand in for the append that was *in flight* when the process was
    // killed, which by the ack contract is the only write that may be
    // lost.
    match open() {
        Err(e) => failures.push(format!("first open: {e}")),
        Ok(store) => {
            for rec in &plan[..sc.kill_after] {
                let dup = acked.contains_key(&(rec.fingerprint.cell_digest, rec.genome.clone()));
                match store.append(rec) {
                    Ok(fresh) => {
                        if fresh == dup {
                            failures.push(format!(
                                "append said fresh={fresh} for {} key {:?}",
                                if dup { "duplicate" } else { "new" },
                                rec.genome
                            ));
                        }
                        acked
                            .entry((rec.fingerprint.cell_digest, rec.genome.clone()))
                            .or_insert(rec.fitness);
                    }
                    Err(e) => failures.push(format!("append: {e}")),
                }
            }
            if sc.compact_before_kill {
                if let Err(e) = store.compact() {
                    failures.push(format!("pre-kill compact: {e}"));
                }
            }
        }
    }

    // The kill: a strict prefix of the in-flight record's encoding lands
    // on the wal tail.
    let mut torn_bytes = 0u64;
    if let Some(frac) = sc.torn_frac {
        let encoded = stored::encode_record(&plan[sc.kill_after]);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = 1 + ((frac * (encoded.len() - 2) as f64) as usize).min(encoded.len() - 2);
        torn_bytes = cut as u64;
        let tail = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.seg"))
            .and_then(|mut f| std::io::Write::write_all(&mut f, &encoded[..cut]));
        if let Err(e) = tail {
            failures.push(format!("injecting torn tail: {e}"));
        }
    }

    // Session two: recovery. Every acknowledged record must be served
    // bit-exactly, the torn tail must be measured and truncated, and the
    // remaining appends must land on the recovered wal.
    match open() {
        Err(e) => failures.push(format!("recovery open: {e}")),
        Ok(store) => {
            let recovered = store.stats().recovered_torn_bytes;
            if recovered != torn_bytes {
                failures.push(format!(
                    "recovery truncated {recovered} bytes, kill tore {torn_bytes}"
                ));
            }
            check_served(&store, &acked, "after recovery", failures);
            for rec in &plan[sc.kill_after..sc.records] {
                match store.append(rec) {
                    Ok(_) => {
                        acked
                            .entry((rec.fingerprint.cell_digest, rec.genome.clone()))
                            .or_insert(rec.fitness);
                    }
                    Err(e) => failures.push(format!("post-recovery append: {e}")),
                }
            }
            if sc.compact_after_restart {
                if let Err(e) = store.compact() {
                    failures.push(format!("post-recovery compact: {e}"));
                }
            }
            check_served(&store, &acked, "after restart writes", failures);
        }
    }

    // Session three: recovery must be idempotent — a clean reopen serves
    // the same records and finds nothing left to truncate.
    match open() {
        Err(e) => failures.push(format!("third open: {e}")),
        Ok(store) => {
            let recovered = store.stats().recovered_torn_bytes;
            if recovered != 0 {
                failures.push(format!(
                    "clean reopen truncated {recovered} bytes; recovery was not idempotent"
                ));
            }
            check_served(&store, &acked, "after clean reopen", failures);
        }
    }

    row.add("records", acked.len() as u64);
    row.add("torn_bytes", torn_bytes);
    // Scenarios whose kill actually tore the wal — evidence the sweep
    // exercised the recovery path, not just clean restarts.
    row.add("torn_scenarios", u64::from(torn_bytes > 0));
    row
}
