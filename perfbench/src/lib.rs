//! The repository's benchmark: tuning throughput and the tuning service,
//! measured end to end and layer by layer from outside the program.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

pub mod replay;
pub mod report;
pub mod service;
pub mod trace;
pub mod tune;

use std::path::{Path, PathBuf};
use std::time::Instant;

use inlinetune::served::json::Json;

use crate::report::{median, peak_rss_mb, Metrics, Report};

/// The seed the stored reference results belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run whose median is `setup_s`: this process's own and
/// `SETUP_SAMPLES - 1` in fresh child processes, spread evenly over the
/// gaps between the run's timed units of work. The host's speed holds
/// for seconds at a time, so set-ups taken back to back all see one
/// speed; spread over the run, they see as many speeds as the run does.
pub const SETUP_SAMPLES: usize = 15;

/// Where runs write traces and scratch state, relative to the checkout.
pub const OUT_DIR: &str = "perfbench-out";

/// End-to-end metrics and units, in output order (the untraced run).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tune_s", "s"),
    ("evals_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("best_fitness", "ratio"),
];

/// Per-layer metrics and units, in output order (the traced run). A
/// layer a workload does not exercise reports 0. The per-genome and tail
/// latencies lead the list: they are end-to-end in meaning but moved too
/// much between runs on the 2-core host the benchmark was sized on to
/// bound (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eval_ms_p50", "ms"),
    ("eval_ms_p95", "ms"),
    ("job_s_p95", "s"),
    ("workloads.generate_ms", "ms"),
    ("workloads.reachable_methods", "count"),
    ("core.defaults_ms", "ms"),
    ("core.fitness_calls", "count"),
    ("core.fitness_ms_self", "ms"),
    ("ga.proposals", "count"),
    ("ga.memo_hits", "count"),
    ("ga.memo_hit_ratio", "ratio"),
    ("ga.breed_ms", "ms"),
    ("jit.measure_calls", "count"),
    ("jit.measure_ms", "ms"),
    ("jit.baseline_compile_ms", "ms"),
    ("jit.adaptive_plan_ms", "ms"),
    ("jit.baseline_exec_ms", "ms"),
    ("jit.exec_ms", "ms"),
    ("jit.passes_ms", "ms"),
    ("jit.passes_folded", "count"),
    ("jit.passes_removed", "count"),
    ("jit.ir_stmts_after_passes", "count"),
    ("jit.genome_independent_share", "ratio"),
    ("inline.calls", "count"),
    ("inline.ms", "ms"),
    ("inline.sites_inlined", "count"),
    ("inline.ir_stmts_after_inline", "count"),
    ("inline.distinct_body_ratio", "ratio"),
    ("served.submit_rtt_ms_p50", "ms"),
    ("served.checkpoints_written", "count"),
    ("served.remote_batches", "count"),
    ("served.rpc_latency_ms_p50", "ms"),
    ("served.dispatch_batch_size_p50", "count"),
    ("served.eval_share", "ratio"),
    ("served.cache_hit_ratio", "ratio"),
    ("served.remote_retries", "count"),
    ("served.remote_timeouts", "count"),
    ("served.remote_evictions", "count"),
    ("served.remote_fallback_evals", "count"),
    ("served.busy_rejects", "count"),
    ("shard.sched_delay_ms_p50", "ms"),
    ("shard.sched_delay_ms_p95", "ms"),
    ("evald.evals", "count"),
    ("evald.eval_ms_p50", "ms"),
    ("evald.batch_size_p50", "count"),
    ("stored.appends", "count"),
    ("stored.append_ms_p50", "ms"),
    ("stored.hit_ratio", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("replay.evaluations", "count"),
];

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: &[&str] = &["adapt-dacapo", "service-churn"];

/// A workload with its sizes.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A local fixed-budget tuning workload.
    Tune(tune::TuneSpec),
    /// The tuning service under closed-loop clients.
    Service(service::ServiceSpec),
}

impl Workload {
    /// The workload of that name at its listed sizes.
    ///
    /// # Errors
    /// Unknown name.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "adapt-dacapo" => Ok(Self::Tune(tune::adapt_dacapo())),
            "service-churn" => Ok(Self::Service(service::service_churn())),
            other => Err(format!(
                "unknown workload '{other}' (known: {})",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Tune(_) => "adapt-dacapo",
            Self::Service(_) => "service-churn",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every GA and job seed derives from it.
    pub seed: u64,
    /// Length of the timed phase, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The checkout directory runs write under.
    pub out_dir: PathBuf,
}

/// A set-up that is ready to measure.
enum Ready {
    Tune(tune::TuneSpec, Box<tune::Setup>),
    Service(service::ServiceSpec, service::Service, service::SetupLayers),
}

fn scratch_dir(out: &Path, tag: &str) -> PathBuf {
    out.join(format!("{tag}-{}", std::process::id()))
}

fn set_up(opts: &RunOptions, tag: &str) -> Result<Ready, String> {
    Ok(match &opts.workload {
        Workload::Tune(spec) => Ready::Tune(spec.clone(), Box::new(tune::setup()?)),
        Workload::Service(spec) => {
            let dir = scratch_dir(&opts.out_dir, tag);
            let (svc, layers) = service::setup(spec, &dir)?;
            Ready::Service(spec.clone(), svc, layers)
        }
    })
}

/// Runs set-up only; returns the seconds from `process_start` to the end
/// of set-up. Meant for a process that exits right after, which ends the
/// set-up's threads: the set-up is not torn down, only its directory is
/// removed, because `Daemon::shutdown` called straight after
/// `Daemon::start` can hang (see README.md) and teardown is no part of
/// set-up.
///
/// # Errors
/// Set-up failures, or the directory cannot be removed.
pub fn probe_setup(opts: &RunOptions, process_start: Instant) -> Result<f64, String> {
    let ready = set_up(opts, "probe")?;
    let s = process_start.elapsed().as_secs_f64();
    if matches!(ready, Ready::Service(..)) {
        let dir = scratch_dir(&opts.out_dir, "probe");
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::mem::forget(ready);
    Ok(s)
}

/// The set-up samples a run takes in fresh processes, in the gaps between
/// its timed units of work.
pub struct SetupProbes<'p> {
    probe: &'p dyn Fn(usize) -> Result<Vec<f64>, String>,
    wanted: usize,
    samples: Vec<f64>,
}

fn no_probe(_: usize) -> Result<Vec<f64>, String> {
    Ok(Vec::new())
}

impl SetupProbes<'_> {
    /// Probes that take no samples.
    #[must_use]
    pub fn none() -> SetupProbes<'static> {
        SetupProbes {
            probe: &no_probe,
            wanted: 0,
            samples: Vec::new(),
        }
    }

    /// Takes this gap's even share of the samples still wanted;
    /// `gaps_left` counts this gap.
    ///
    /// # Errors
    /// A probe failed.
    pub fn gap(&mut self, gaps_left: usize) -> Result<(), String> {
        let n = (self.wanted - self.samples.len()).div_ceil(gaps_left.max(1));
        if n > 0 {
            self.samples.extend((self.probe)(n)?);
        }
        Ok(())
    }
}

/// Runs one workload: set-up, the timed phase (and the traced phase when
/// asked) and the output checks. On an untraced run `probe(n)` returns
/// `n` more set-up samples, taken in fresh processes.
///
/// # Errors
/// Failures that leave no result to report.
pub fn run(
    opts: &RunOptions,
    process_start: Instant,
    probe: impl Fn(usize) -> Result<Vec<f64>, String>,
) -> Result<Report, String> {
    let ready = set_up(opts, "run")?;
    let own_setup = process_start.elapsed().as_secs_f64();
    let mut probes = SetupProbes {
        probe: &probe,
        wanted: if opts.trace { 0 } else { SETUP_SAMPLES - 1 },
        samples: Vec::new(),
    };
    let trace_file = opts.out_dir.join(format!(
        "trace-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    let trace_path = opts.trace.then_some(trace_file.as_path());
    let mut report = match &ready {
        Ready::Tune(spec, setup) => tune::run_workload(
            spec,
            setup,
            opts.seed,
            opts.seconds,
            trace_path,
            &mut probes,
        )?,
        Ready::Service(spec, svc, layers) => {
            let restart =
                || service::setup(spec, &scratch_dir(&opts.out_dir, "rerun")).map(|(svc, _)| svc);
            let (mut r, max_conns) = service::run_workload(
                spec,
                svc,
                &restart,
                opts.seed,
                opts.seconds,
                trace_path.map(|p| (layers, p)),
                &mut probes,
            )?;
            r.check(max_conns <= service::TENANTS.len(), || {
                format!("clients held {max_conns} connections at once")
            });
            r.meta
                .push(("max_connections", Json::Int(max_conns as i64)));
            r
        }
    };
    if let Ready::Service(_, svc, _) = ready {
        svc.stop()?;
    }
    if !opts.trace {
        probes.gap(1)?;
        let mut setups = vec![own_setup];
        setups.extend(probes.samples);
        report.metrics.put("setup_s", median(&setups), "s");
        report.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        report.meta.push((
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ));
    } else {
        report
            .meta
            .push(("trace_file", Json::Str(trace_file.display().to_string())));
    }
    let canonical = if opts.trace { PER_LAYER } else { END_TO_END };
    report.metrics = canonical_order(&report.metrics, canonical, opts.trace)?;
    report.correct = report.check_failures.is_empty();
    Ok(report)
}

/// Orders metrics as `canonical` lists them. With `fill_missing`, a
/// metric of a layer the workload does not exercise reads 0; otherwise a
/// missing metric is an error. A metric outside the list is a bug in this
/// crate.
///
/// # Errors
/// A metric is missing, outside the list, or reported twice.
pub fn canonical_order(
    m: &Metrics,
    canonical: &[(&'static str, &'static str)],
    fill_missing: bool,
) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for &(name, unit) in canonical {
        let found: Vec<_> = m.0.iter().filter(|x| x.name == name).collect();
        match found.as_slice() {
            [] if fill_missing => out.put(name, 0.0, unit),
            [one] if one.unit == unit => out.put(name, one.value, unit),
            _ => {
                return Err(format!(
                    "metric {name} reported {} times or with a wrong unit",
                    found.len()
                ))
            }
        }
    }
    if let Some(extra) =
        m.0.iter()
            .find(|x| !canonical.iter().any(|(n, _)| *n == x.name))
    {
        return Err(format!("metric {} is not listed", extra.name));
    }
    Ok(out)
}

/// Run metadata: core count, seed, commit and the machine calibration.
#[must_use]
pub fn run_meta(opts: &RunOptions) -> Vec<(&'static str, Json)> {
    let cal = inlinetune::obs::calibrate(10);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("workload", Json::Str(opts.workload.name().into())),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("cores", Json::Int(cores as i64)),
        ("commit", Json::Str(commit())),
        ("calib_median_ms", Json::Num(cal.median_ms)),
        ("calib_cv_pct", Json::Num(cal.cv_percent)),
    ]
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
