//! The online-drift sweep: seeded fault scenarios over **online**
//! jobs — a drifting workload, the drift detector, and warm retunes
//! all running inside the simulated cluster — checked against the
//! in-process reference runner ([`online::OnlineJob`]) epoch by epoch.
//!
//! A scenario derives everything from its seed through the same
//! [`Weather`] as the `base` family — frame-level fault probabilities,
//! an optional crash + restart, an optional partition + heal — plus the
//! job's identity — drift kind, GA seed, drift seed — drawn from small
//! pools so a 50-seed sweep pays for only a handful of reference runs.
//! What the sweep asserts per seed, on top of the usual no-lost-jobs /
//! checkpoints-loadable invariants:
//!
//! * **Bit-identical outcomes.** The daemon's final incumbent genome
//!   and fitness bits equal `OnlineJob::run(None)` for the same spec,
//!   and so does every per-epoch row (probe fitness, retune decision,
//!   post-epoch fitness), the retune count, the detection latencies
//!   and the evaluation count — the whole trajectory, not just the
//!   endpoint.
//! * **Bounded regret after detection.** The reconstructed
//!   [`online::OnlineReport`] passes
//!   [`online::OnlineReport::violations`] — retunes never worsen the
//!   incumbent, detection latency stays inside the window/period
//!   bound, probes hold steady inside a constant workload phase.
//!
//! Replay a failure with `simtest --scenario online --seed N --trace`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use simrng::child_rng;
use workloads::DriftKind;

use crate::cluster::{Cluster, ClusterConfig, Outcome};
use crate::sweep::{Row, Run, Scenario, Weather};

use online::{OnlineJob, OnlineReport};
use served::job::{JobSpec, OnlineSpec};

/// GA seeds online scenarios draw from (small on purpose: reference
/// runs are cached per (kind, GA seed, drift seed) cell).
const GA_SEEDS: [u64; 2] = [1, 23];

/// Drift-morph seeds scenarios draw from.
const DRIFT_SEEDS: [u64; 2] = [11, 29];

/// Epochs per online scenario. Six epochs over a period-2, two-phase
/// schedule crosses at least two boundaries — every seed exercises
/// detection, not just the initial tune.
const EPOCHS: u64 = 6;

/// `online`: one drifting online job per seed under seeded weather.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineDrift;

/// A derived `online` scenario.
#[derive(Debug, Clone)]
pub struct OnlinePlan {
    /// The root seed.
    pub seed: u64,
    /// Frame faults and timed events.
    pub weather: Weather,
    /// The drift schedule's shape.
    pub kind: DriftKind,
    /// The job's GA seed (picks search trajectories).
    pub ga_seed: u64,
    /// The workload morph seed (picks how phases differ).
    pub drift_seed: u64,
    /// Workers in the cluster.
    pub workers: usize,
}

impl OnlinePlan {
    /// The job spec this scenario submits: [`Cluster::spec`] plus an
    /// online section tight enough that drift detection fires within
    /// the sweep (one-probe window, 2 % threshold).
    #[must_use]
    pub fn spec(&self) -> JobSpec {
        let mut spec = Cluster::spec(self.ga_seed);
        spec.name = format!("sim-online-{}-{}", self.kind.name(), self.ga_seed);
        spec.online = Some(OnlineSpec {
            epochs: EPOCHS,
            kind: self.kind,
            period: 2,
            phases: 2,
            drift_seed: self.drift_seed,
            window: 1,
            threshold_pct: 2.0,
        });
        spec
    }
}

/// Reference-run cache shared across a sweep, keyed by
/// `(kind name, GA seed, drift seed)` — the three values that fully
/// determine an online trajectory (faults must not change it).
pub type OnlineExpected = HashMap<(&'static str, u64, u64), OnlineReport>;

/// The fault-free ground truth for an online spec: the in-process
/// reference runner over the same schedule, store-free — exactly what
/// the daemon must bit-match.
///
/// # Errors
/// Invalid spec.
pub fn online_reference(spec: &JobSpec) -> Result<OnlineReport, String> {
    let online = spec
        .online
        .as_ref()
        .ok_or_else(|| "spec has no online section".to_string())?;
    OnlineJob {
        problem: spec.problem.clone(),
        task: spec.task()?,
        base: spec.training()?,
        adapt: spec.adapt_cfg(),
        ga: spec.ga.clone(),
        strategy: spec.strategy.clone(),
        online: online.config(),
    }
    .run(None)
}

impl Scenario for OnlineDrift {
    type Plan = OnlinePlan;
    type Cache = OnlineExpected;

    fn derive(&self, seed: u64) -> OnlinePlan {
        let mut rng = child_rng(seed, "sim/online-scenario");
        let workers = 2;
        let weather = Weather::derive(&mut rng, workers);
        OnlinePlan {
            seed,
            weather,
            kind: *rng.choose(&DriftKind::ALL),
            ga_seed: *rng.choose(&GA_SEEDS),
            drift_seed: *rng.choose(&DRIFT_SEEDS),
            workers,
        }
    }

    fn run(&self, plan: &OnlinePlan, expected: &mut OnlineExpected) -> Row {
        let mut row = Row::new(plan.seed);
        let spec = plan.spec();
        let want = match expected.entry((plan.kind.name(), plan.ga_seed, plan.drift_seed)) {
            Entry::Occupied(cell) => cell.into_mut(),
            Entry::Vacant(cell) => match online_reference(&spec) {
                Ok(want) => cell.insert(want),
                Err(e) => {
                    row.failures.push(format!("reference run: {e}"));
                    return row;
                }
            },
        };

        let config = ClusterConfig {
            seed: plan.seed,
            workers: plan.workers,
            plan: plan.weather.plan,
            // Store-free on purpose: warm-start transfer reseeds retunes
            // from store cells, which is a deliberate trajectory change —
            // the bit-identity reference is the store-free runner.
            store: false,
            ..ClusterConfig::default()
        };
        let mut run = match Run::boot(&config, &plan.weather.events) {
            Ok(run) => run,
            Err(e) => {
                row.failures.push(e);
                return row;
            }
        };
        let id = match run.cluster.submit(&spec) {
            Ok(id) => id,
            Err(e) => {
                row.failures.push(format!("submit: {e}"));
                return run.finish(row, true);
            }
        };
        match run.wait(id) {
            Outcome::Hang { waited_ms } => {
                row.failures
                    .push(format!("hang: not terminal after {waited_ms} virtual ms"));
                return run.finish(row, true);
            }
            Outcome::Failed(msg) => row.failures.push(msg),
            Outcome::Done { genes, fitness, .. } => {
                match check_against(&run.cluster, id, &genes, fitness, want, &spec) {
                    Ok(retunes) => row.add("retunes", retunes),
                    Err(e) => row.failures.push(e),
                }
            }
        }
        run.finish(row, false)
    }
}

/// The online bit-identity check: final genome + fitness bits, then
/// the whole persisted trajectory (rows, retunes, latencies, evals)
/// against the reference, then the bounded-regret invariants, then
/// checkpoint loadability. Returns the retune count on success.
fn check_against(
    cluster: &Cluster,
    id: u64,
    genes: &[i64],
    fitness: f64,
    want: &OnlineReport,
    spec: &JobSpec,
) -> Result<u64, String> {
    if genes != want.genes || fitness.to_bits() != want.fitness.to_bits() {
        return Err(format!(
            "got {genes:?} @ {fitness}, reference run gives {:?} @ {}",
            want.genes, want.fitness
        ));
    }
    let snap = cluster.online_snapshot(id)?;
    let got = OnlineReport {
        rows: snap.rows,
        retunes: snap.retunes,
        detect_latencies: snap.detect_latencies,
        evals: snap.evals,
        genes: genes.to_vec(),
        fitness,
    };
    if got != *want {
        return Err(format!(
            "trajectory diverged: daemon rows/retunes/latencies/evals \
             {:?}/{}/{:?}/{} vs reference {:?}/{}/{:?}/{}",
            got.rows,
            got.retunes,
            got.detect_latencies,
            got.evals,
            want.rows,
            want.retunes,
            want.detect_latencies,
            want.evals,
        ));
    }
    let cfg = spec.online.as_ref().expect("online scenario spec").config();
    let violations = got.violations(&cfg);
    if !violations.is_empty() {
        return Err(format!(
            "regret invariants violated: {}",
            violations.join("; ")
        ));
    }
    cluster.checkpoints_loadable()?;
    Ok(got.retunes)
}
