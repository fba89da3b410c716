//! `service-churn`: an in-process `tuned` daemon (two shards, two
//! runners, two local eval threads, fitness store and checkpoints on),
//! one in-process `evald` worker and a loopback protocol server, driven
//! by two closed-loop clients.
//!
//! Each client submits a small job, watches it to its terminal frame and
//! only then submits the next. The server closes a connection after a
//! watch ends, so a client opens one connection per job and never holds
//! more than one at a time.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inlinetune::evald::{Chaos, EvalWorker};
use inlinetune::ga::GaConfig;
use inlinetune::jit::Scenario;
use inlinetune::obs::{HistSnapshot, Registry, RegistrySnapshot};
use inlinetune::served::checkpoint::f64_from_json;
use inlinetune::served::daemon::{Daemon, DaemonConfig};
use inlinetune::served::json::Json;
use inlinetune::served::{Client, JobSpec, MetricsSnapshot, RunDir, Server};
use inlinetune::simrng::{child_seed, Rng};
use inlinetune::stored::{Store, StoreOptions, StoreStats};
use inlinetune::tuner::{Goal, Tuner};

use crate::replay::{replay_sample, LayerTotals};
use crate::report::{median, quantile, ratio, Metrics, Report};
use crate::trace::{self, Span, Tracer};
use crate::tune::{all_evals, put_jit, tune_once, Passes, TuneRun};
use crate::SetupProbes;

/// The two tenants, one closed-loop client each.
pub const TENANTS: [&str; 2] = ["a", "b"];

/// Job and check sizes of `service-churn`.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// GA population of every job.
    pub pop: usize,
    /// GA generations of every job.
    pub generations: usize,
    /// Finished jobs re-run locally through `Tuner` per run.
    pub rerun_jobs: usize,
    /// Evaluated genomes of the re-runs replayed through the `jit`/`inline`
    /// split in the traced run.
    pub replay_genomes: usize,
}

/// The workload as listed in `BENCHMARK.json`.
#[must_use]
pub fn service_churn() -> ServiceSpec {
    ServiceSpec {
        pop: 8,
        generations: 8,
        rerun_jobs: 20,
        replay_genomes: 16,
    }
}

/// A job of the workload: Opt:Tot on x86-p4 over `db`.
#[must_use]
pub fn job_spec(spec: &ServiceSpec, tenant: &str, seed: u64) -> JobSpec {
    JobSpec {
        name: "Opt:Tot".into(),
        scenario: Scenario::Opt,
        goal: Goal::Total,
        arch: "x86-p4".into(),
        suite: vec!["db".into()],
        ga: GaConfig {
            pop_size: spec.pop,
            generations: spec.generations,
            stagnation_limit: None,
            threads: 1,
            seed,
            ..GaConfig::default()
        },
        strategy: "ga".into(),
        problem: "inline".into(),
        tenant: tenant.into(),
        online: None,
        drift_pos: None,
    }
}

/// The running service: store, eval worker, daemon and protocol server.
pub struct Service {
    dir: PathBuf,
    /// The daemon.
    pub daemon: Daemon,
    /// The fitness store.
    pub store: Arc<Store>,
    /// The registry daemon, worker and store record into.
    pub obs: Arc<Registry>,
    /// The eval worker's counters.
    pub worker: Arc<inlinetune::evald::server::WorkerCounters>,
    /// The worker's address.
    pub worker_addr: String,
    /// The protocol server's address.
    pub addr: String,
    stops: Vec<Arc<AtomicBool>>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

impl Service {
    /// Boots everything under `dir`, emptied first so that no earlier
    /// run's jobs are recovered.
    ///
    /// # Errors
    /// I/O or bind failures.
    pub fn start(dir: &Path) -> Result<Self, String> {
        match std::fs::remove_dir_all(dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", dir.display())),
        }
        let obs = Arc::new(Registry::new());
        let store = Arc::new(Store::open_with(
            dir.join("store"),
            StoreOptions {
                obs: Arc::clone(&obs),
                ..StoreOptions::default()
            },
        )?);
        let worker = EvalWorker::bind_with_obs("127.0.0.1:0", Chaos::inert(), Arc::clone(&obs))?;
        let worker_addr = worker.local_addr();
        let counters = worker.counters();
        let mut stops = vec![worker.stop_flag()];
        let mut threads = vec![spawn("perfbench-evald", move || worker.serve())?];
        let daemon = Daemon::start(
            DaemonConfig {
                workers: 2,
                shards: 2,
                eval_threads: 2,
                eval_workers: vec![worker_addr.clone()],
                store: Some(Arc::clone(&store)),
                obs: Arc::clone(&obs),
                ..DaemonConfig::default()
            },
            RunDir::open(dir.join("run"))?,
        )?;
        let server = Server::bind("127.0.0.1:0", daemon.clone())?;
        let addr = server.local_addr();
        stops.push(server.stop_flag());
        threads.push(spawn("perfbench-server", move || server.serve())?);
        Ok(Self {
            dir: dir.to_path_buf(),
            daemon,
            store,
            obs,
            worker: counters,
            worker_addr,
            addr,
            stops,
            threads,
        })
    }

    /// Stops the server and the worker, shuts the daemon down, joins
    /// every thread this service started and removes its directory.
    ///
    /// # Errors
    /// A serve loop failed, or the directory cannot be removed.
    pub fn stop(self) -> Result<(), String> {
        for s in &self.stops {
            s.store(true, Ordering::SeqCst);
        }
        self.daemon.shutdown();
        for t in self.threads {
            t.join()
                .map_err(|_| "service thread panicked".to_string())??;
        }
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }

    fn snapshot(&self) -> Snap {
        Snap {
            metrics: self.daemon.metrics_snapshot(),
            obs: self.obs.snapshot(),
            store: self.store.stats(),
            worker_evals: self.worker.evals.load(Ordering::Relaxed),
        }
    }
}

fn spawn(
    name: &str,
    f: impl FnOnce() -> Result<(), String> + Send + 'static,
) -> Result<JoinHandle<Result<(), String>>, String> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .map_err(|e| format!("cannot spawn {name}: {e}"))
}

/// Counts the protocol connections the clients hold.
#[derive(Debug, Default)]
pub struct ConnGauge {
    active: AtomicUsize,
    max: AtomicUsize,
}

impl ConnGauge {
    /// The most connections ever held at once.
    #[must_use]
    pub fn max(&self) -> usize {
        self.max.load(Ordering::SeqCst)
    }
}

/// A connection counted by a [`ConnGauge`] while it lives.
struct Conn<'g> {
    client: Client,
    gauge: &'g ConnGauge,
}

impl<'g> Conn<'g> {
    fn open(addr: &str, gauge: &'g ConnGauge) -> Result<Self, String> {
        let client = Client::connect(addr)?;
        let now = gauge.active.fetch_add(1, Ordering::SeqCst) + 1;
        gauge.max.fetch_max(now, Ordering::SeqCst);
        Ok(Self { client, gauge })
    }
}

impl Drop for Conn<'_> {
    fn drop(&mut self) {
        self.gauge.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One job as a client saw it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's spec.
    pub spec: JobSpec,
    /// Submit to terminal watch frame, s.
    pub job_s: f64,
    /// Terminal state.
    pub state: String,
    /// Tuned genome (empty unless done).
    pub genes: Vec<i64>,
    /// Its fitness.
    pub fitness: f64,
}

/// The server's `watch` poll period. A client that watches the instant
/// its submit returns sees job latency rounded up to whole polls, phase-
/// locked to the job's start, so a median near a poll boundary flips
/// between runs. Clients here wait a seeded fraction of one period
/// before watching, as independent clients would, so each job's latency
/// is its run time plus a uniformly spread share of the poll wait.
const WATCH_POLL: Duration = Duration::from_millis(50);

fn run_job(
    addr: &str,
    gauge: &ConnGauge,
    spec: JobSpec,
    tracer: &Tracer,
) -> Result<JobOutcome, String> {
    let dither = WATCH_POLL.mul_f64(Rng::seed_from_u64(child_seed(spec.ga.seed, "watch")).f64());
    let mut conn = Conn::open(addr, gauge)?;
    let started = Instant::now();
    let id = conn.client.submit(&spec)?;
    let submitted = Instant::now();
    std::thread::sleep(dither);
    let watching = Instant::now();
    let last = conn.client.watch(id, |_| {})?;
    let done = Instant::now();
    drop(conn);
    if let Some(job) = tracer.record("service.job", None, id, started, done) {
        tracer.record("served.submit", Some(job), id, started, submitted);
        tracer.record("client.watch_delay", Some(job), id, submitted, watching);
        tracer.record("served.watch", Some(job), id, watching, done);
    }
    let result = last.get("result");
    let genes = result
        .and_then(|r| r.get("params"))
        .and_then(|p| p.get("genes"))
        .and_then(Json::as_arr)
        .map(|g| g.iter().filter_map(Json::as_i64).collect())
        .unwrap_or_default();
    let fitness = result
        .and_then(|r| r.get("fitness"))
        .and_then(f64_from_json)
        .unwrap_or(f64::NAN);
    Ok(JobOutcome {
        spec,
        job_s: done.duration_since(started).as_secs_f64(),
        state: last
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .into(),
        genes,
        fitness,
    })
}

/// What one client did in a timed phase.
#[derive(Debug, Default)]
struct ClientLog {
    jobs: Vec<JobOutcome>,
    attempted: u64,
    errors: Vec<String>,
}

fn client_loop(
    addr: &str,
    gauge: &ConnGauge,
    spec: &ServiceSpec,
    tenant: &str,
    seed: u64,
    jobs: u64,
    tracer: &Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    for k in 0..jobs {
        let job = job_spec(spec, tenant, child_seed(seed, &format!("{tenant}-{k}")));
        log.attempted += 1;
        match run_job(addr, gauge, job, tracer) {
            Ok(outcome) => log.jobs.push(outcome),
            Err(e) => log.errors.push(e),
        }
    }
    log
}

/// Counters and histograms read before and after a timed phase.
struct Snap {
    metrics: MetricsSnapshot,
    obs: RegistrySnapshot,
    store: StoreStats,
    worker_evals: u64,
}

/// One timed phase of closed-loop traffic.
struct Phase {
    jobs: Vec<JobOutcome>,
    attempted: u64,
    errors: Vec<String>,
    seconds: f64,
    before: Snap,
    after: Snap,
}

impl Phase {
    fn failed(&self) -> u64 {
        let bad_jobs = self.jobs.iter().filter(|j| j.state != "done").count() as u64;
        let busy = self.after.metrics.busy_rejects - self.before.metrics.busy_rejects;
        bad_jobs + self.errors.len() as u64 + busy
    }

    fn delta(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        (f(&self.after.metrics) - f(&self.before.metrics)) as f64
    }

    /// The histogram's samples recorded during the phase.
    fn hist(&self, name: &str) -> HistSnapshot {
        let empty = HistSnapshot::empty();
        let a = self.after.obs.histogram(name).unwrap_or(&empty);
        let b = self.before.obs.histogram(name).unwrap_or(&empty);
        HistSnapshot {
            counts: a.counts.iter().zip(&b.counts).map(|(x, y)| x - y).collect(),
            total: a.total - b.total,
            sum: a.sum - b.sum,
            max: a.max,
        }
    }
}

fn run_phase(
    service: &Service,
    spec: &ServiceSpec,
    seed: u64,
    jobs: u64,
    gauge: &ConnGauge,
    tracer: &Tracer,
) -> Phase {
    let before = service.snapshot();
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|tenant| {
                scope.spawn(move || {
                    client_loop(&service.addr, gauge, spec, tenant, seed, jobs, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    let after = service.snapshot();
    let mut phase = Phase {
        jobs: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        seconds,
        before,
        after,
    };
    for log in logs {
        phase.jobs.extend(log.jobs);
        phase.attempted += log.attempted;
        phase.errors.extend(log.errors);
    }
    phase
}

/// Set-up's share of the per-layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct SetupLayers {
    /// Suite generation, ms.
    pub generate_ms: f64,
    /// Default-heuristic measurement (`Tuner::new`), ms.
    pub defaults_ms: f64,
    /// Reachable methods of the jobs' suite.
    pub reachable: usize,
}

/// Generates the jobs' suite, measures its default heuristic (the
/// process-wide cache the daemon and the worker read) and boots the
/// service. No warm-up job: its checkpoint and store fsyncs made set-up
/// time swing twofold with the host's disk between runs, and the first
/// job's dispatch connection and worker problem build are part of that
/// job's latency, as for a user.
///
/// # Errors
/// Boot failures.
pub fn setup(spec: &ServiceSpec, dir: &Path) -> Result<(Service, SetupLayers), String> {
    let probe = job_spec(spec, TENANTS[0], 0);
    let t = Instant::now();
    let training = probe.training()?;
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let reachable = training.iter().map(|b| b.program.reachable().len()).sum();
    let t = Instant::now();
    let _ = Tuner::new(probe.task()?, training, probe.adapt_cfg());
    let defaults_ms = t.elapsed().as_secs_f64() * 1e3;
    let service = Service::start(dir)?;
    Ok((
        service,
        SetupLayers {
            generate_ms,
            defaults_ms,
            reachable,
        },
    ))
}

/// Re-runs a seeded sample of finished jobs through `Tuner`, checking
/// genome and fitness bits against the daemon's result. The sample
/// depends only on the seed and the job list, so repeating the call
/// repeats the same tunes.
fn rerun_sample(
    report: &mut Report,
    spec: &ServiceSpec,
    seed: u64,
    jobs: &[JobOutcome],
) -> Vec<TuneRun> {
    let mut done: Vec<&JobOutcome> = jobs.iter().filter(|j| j.state == "done").collect();
    done.sort_by_key(|j| j.spec.ga.seed);
    Rng::seed_from_u64(child_seed(seed, "rerun")).shuffle(&mut done);
    done.truncate(spec.rerun_jobs);
    let quiet = Tracer::new(false);
    let mut runs = Vec::new();
    for (i, job) in done.into_iter().enumerate() {
        let (task, training) = match (job.spec.task(), job.spec.training()) {
            (Ok(t), Ok(s)) => (t, s),
            (t, s) => {
                report.check(false, || {
                    format!("job spec does not build: {:?} {:?}", t.err(), s.err())
                });
                continue;
            }
        };
        let tuner = Tuner::new(task, training, job.spec.adapt_cfg());
        let local = tune_once(&tuner, job.spec.ga.clone(), i, &quiet);
        report.check(
            local.best_genes == job.genes && local.best_fitness.to_bits() == job.fitness.to_bits(),
            || {
                format!(
                    "job seed {} tenant {}: daemon {:?}/{:#x}, local {:?}/{:#x}",
                    job.spec.ga.seed,
                    job.spec.tenant,
                    job.genes,
                    job.fitness.to_bits(),
                    local.best_genes,
                    local.best_fitness.to_bits()
                )
            },
        );
        runs.push(local);
    }
    runs
}

/// Checks a phase's jobs all ended `done`.
fn check_done(report: &mut Report, phase: &Phase) {
    for e in &phase.errors {
        report.check(false, || format!("client error: {e}"));
    }
    for j in phase.jobs.iter().filter(|j| j.state != "done") {
        report.check(false, || {
            format!("job seed {} ended {}", j.spec.ga.seed, j.state)
        });
    }
}

/// Checks that same-seed jobs of two phases gave the same bits.
fn check_same_results(report: &mut Report, a: &Phase, b: &Phase) {
    for j in &b.jobs {
        if let Some(u) = a.jobs.iter().find(|u| u.spec.ga.seed == j.spec.ga.seed) {
            report.check(
                u.genes == j.genes && u.fitness.to_bits() == j.fitness.to_bits(),
                || format!("job seed {}: results differ between phases", j.spec.ga.seed),
            );
        }
    }
}

/// Closed-loop phases per run, each of the same jobs, each later one on
/// a fresh service.
pub const PHASES: usize = 3;

/// One client's time per job (connect, submit, pre-watch wait, watch to
/// the terminal frame) on the 2-core host the benchmark was sized on, s:
/// each client submits `seconds / (PHASES * NOMINAL_JOB_S)` jobs per
/// phase. The work is fixed per seed: the process's peak resident set
/// steps up by about 8 MB between 199 and 203 jobs in a phase, so a job
/// count that followed the host's speed made `peak_rss_mb` jump between
/// runs.
const NOMINAL_JOB_S: f64 = 0.11;

/// Runs `service-churn`: [`PHASES`] phases of closed-loop traffic with
/// the same jobs, each later one on a fresh service from `restart` (fresh
/// store and run directory, so every phase meets the same conditions),
/// with a local re-run pass of the sampled jobs after each and set-up
/// probes after every phase and re-run pass. Contention
/// only adds time, so each job's latency, each genome's latency and the
/// phase rates are the fastest of their measurements (see
/// `tune::Passes`). A traced run repeats the jobs once more, traced, on
/// another fresh service.
///
/// # Errors
/// Service or set-up probe failures outside the checked outputs.
pub fn run_workload(
    spec: &ServiceSpec,
    service: &Service,
    restart: &dyn Fn() -> Result<Service, String>,
    seed: u64,
    seconds: f64,
    traced: Option<(&SetupLayers, &Path)>,
    probes: &mut SetupProbes<'_>,
) -> Result<(Report, usize), String> {
    let mut report = Report::default();
    let gauge = ConnGauge::default();
    let quiet = Tracer::new(false);
    let jobs = ((seconds / (PHASES as f64 * NOMINAL_JOB_S)).round() as u64).max(1);
    let first = run_phase(service, spec, seed, jobs, &gauge, &quiet);
    let mut phases = vec![first];
    let mut reruns = Vec::new();
    for k in 0..PHASES {
        if k > 0 {
            let fresh = restart()?;
            let phase = run_phase(&fresh, spec, seed, jobs, &gauge, &quiet);
            fresh.stop()?;
            phases.push(phase);
        }
        // Set-up probe gaps: after every phase and every re-run pass.
        probes.gap(2 * (PHASES - k))?;
        reruns.push(rerun_sample(&mut report, spec, seed, &phases[0].jobs));
        probes.gap(2 * (PHASES - k) - 1)?;
    }
    let reruns = Passes(reruns);
    for m in reruns.mismatches() {
        report.check(false, || m);
    }
    let first = &phases[0];
    report.attempted = first.attempted;
    report.failed = phases.iter().map(Phase::failed).max().unwrap_or(0);
    for p in &phases {
        check_done(&mut report, p);
        check_same_results(&mut report, first, p);
    }
    // Per job, the fastest of its latencies across the phases.
    let job_s: Vec<f64> = first
        .jobs
        .iter()
        .map(|j| {
            phases
                .iter()
                .flat_map(|p| p.jobs.iter().find(|k| k.spec.ga.seed == j.spec.ga.seed))
                .map(|k| k.job_s)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let lat = reruns.latencies();
    if let Some((layers, path)) = traced {
        let tracer = Tracer::new(true);
        let fresh = restart()?;
        let traced_phase = run_phase(&fresh, spec, seed, jobs, &gauge, &tracer);
        let fresh_worker = fresh.worker_addr.clone();
        fresh.stop()?;
        check_done(&mut report, &traced_phase);
        check_same_results(&mut report, first, &traced_phase);
        let traced_runs = rerun_sample(&mut report, spec, seed, &traced_phase.jobs);
        let probe = job_spec(spec, TENANTS[0], 0);
        let training = probe.training()?;
        let tuner = Tuner::new(probe.task()?, training.clone(), probe.adapt_cfg());
        let (acc, mismatches) = replay_sample(
            &tuner,
            &training,
            &probe.adapt_cfg(),
            all_evals(&traced_runs),
            seed,
            spec.replay_genomes,
            &tracer,
        );
        for m in mismatches {
            report.check(false, || m);
        }
        let spans = tracer.spans();
        put_layers(
            &mut report.metrics,
            &traced_phase,
            &acc,
            &spans,
            &fresh_worker,
            layers,
        );
        let m = &mut report.metrics;
        m.put("eval_ms_p50", median(&lat), "ms");
        m.put("eval_ms_p95", quantile(&lat, 0.95), "ms");
        m.put("job_s_p95", quantile(&job_s, 0.95), "s");
        m.put(
            "failed_frac",
            ratio(traced_phase.failed() as f64, traced_phase.attempted as f64),
            "ratio",
        );
        // One traced phase against the median untraced one, so a slow
        // stretch of the host weighs on both sides alike.
        let untraced: Vec<f64> = phases.iter().map(|p| p.seconds).collect();
        m.put(
            "trace.overhead_frac",
            traced_phase.seconds / median(&untraced) - 1.0,
            "ratio",
        );
        m.put("replay.evaluations", acc.evaluations as f64, "count");
        trace::write_jsonl(&spans, path)?;
    } else {
        let fast = phases
            .iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .expect("at least one phase");
        let done = fast.jobs.iter().filter(|j| j.state == "done").count();
        // The first job of the first tenant: deterministic per seed.
        let best = first
            .jobs
            .iter()
            .find(|j| j.spec.tenant == TENANTS[0] && j.spec.ga.seed == child_seed(seed, "a-0"))
            .map_or(f64::NAN, |j| j.fitness);
        let m = &mut report.metrics;
        m.put("tune_s", median(&job_s), "s");
        m.put(
            "evals_per_s",
            fast.delta(|s| s.evaluations) / fast.seconds,
            "1/s",
        );
        m.put("jobs_per_s", done as f64 / fast.seconds, "1/s");
        m.put("job_s_p50", median(&job_s), "s");
        m.put("best_fitness", best, "ratio");
        report
            .meta
            .push(("job_samples", Json::Int(job_s.len() as i64)));
        report
            .meta
            .push(("eval_samples", Json::Int(lat.len() as i64)));
    }
    Ok((report, gauge.max()))
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

fn put_layers(
    m: &mut Metrics,
    p: &Phase,
    acc: &LayerTotals,
    spans: &[Span],
    worker: &str,
    layers: &SetupLayers,
) {
    let label = [("worker", worker)];
    let rpc = p.hist(&inlinetune::obs::labeled("rpc_latency_micros", &label));
    let batch = p.hist(&inlinetune::obs::labeled("dispatch_batch_size", &label));
    let sched = p.hist("sched_delay_micros");
    let eval = p.hist("evald_eval_micros");
    let evald_batch = p.hist("evald_batch_size");
    let append = p.hist("store_append_micros");
    let evaluations = p.delta(|s| s.evaluations);
    let hits = p.delta(|s| s.cache_hits);
    let job_us: f64 = p.jobs.iter().map(|j| j.job_s * 1e6).sum();
    let submits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "served.submit")
        .map(|s| s.duration_us() / 1e3)
        .collect();
    let store_hits = (p.after.store.hits - p.before.store.hits) as f64;
    let store_misses = (p.after.store.misses - p.before.store.misses) as f64;

    m.put("workloads.generate_ms", layers.generate_ms, "ms");
    m.put(
        "workloads.reachable_methods",
        layers.reachable as f64,
        "count",
    );
    m.put("core.defaults_ms", layers.defaults_ms, "ms");
    m.put("core.fitness_calls", evaluations, "count");
    m.put("ga.proposals", evaluations + hits, "count");
    m.put("ga.memo_hits", hits, "count");
    m.put(
        "ga.memo_hit_ratio",
        ratio(hits, evaluations + hits),
        "ratio",
    );
    put_jit(m, acc, &trace::totals_by_name(spans));
    m.put("served.submit_rtt_ms_p50", median(&submits), "ms");
    m.put(
        "served.checkpoints_written",
        p.delta(|s| s.checkpoints_written),
        "count",
    );
    m.put(
        "served.remote_batches",
        p.delta(|s| s.remote_batches),
        "count",
    );
    m.put("served.rpc_latency_ms_p50", ms(rpc.p50()), "ms");
    m.put(
        "served.dispatch_batch_size_p50",
        batch.p50() as f64,
        "count",
    );
    m.put("served.eval_share", ratio(eval.sum as f64, job_us), "ratio");
    m.put(
        "served.cache_hit_ratio",
        ratio(hits, evaluations + hits),
        "ratio",
    );
    m.put(
        "served.remote_retries",
        p.delta(|s| s.remote_retries),
        "count",
    );
    m.put(
        "served.remote_timeouts",
        p.delta(|s| s.remote_timeouts),
        "count",
    );
    m.put(
        "served.remote_evictions",
        p.delta(|s| s.remote_evictions),
        "count",
    );
    m.put(
        "served.remote_fallback_evals",
        p.delta(|s| s.remote_fallback_evals),
        "count",
    );
    m.put("served.busy_rejects", p.delta(|s| s.busy_rejects), "count");
    m.put("shard.sched_delay_ms_p50", ms(sched.p50()), "ms");
    m.put("shard.sched_delay_ms_p95", ms(sched.p95()), "ms");
    m.put(
        "evald.evals",
        (p.after.worker_evals - p.before.worker_evals) as f64,
        "count",
    );
    m.put("evald.eval_ms_p50", ms(eval.p50()), "ms");
    m.put("evald.batch_size_p50", evald_batch.p50() as f64, "count");
    m.put(
        "stored.appends",
        (p.after.store.appends - p.before.store.appends) as f64,
        "count",
    );
    m.put("stored.append_ms_p50", ms(append.p50()), "ms");
    m.put(
        "stored.hit_ratio",
        ratio(store_hits, store_hits + store_misses),
        "ratio",
    );
}
