//! `adapt-dacapo`: fixed-budget GA tunes of the paper's Adapt (PPC) cell
//! (Adapt / Balance / ppc-g4) over DaCapo+JBB, driven through
//! `GaState::step_with` and a benchmark-side [`Evaluator`] that times
//! every `Tuner::fitness` call on one thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use inlinetune::ga::{Evaluator, GaConfig, Genome};
use inlinetune::inliner::InlineParams;
use inlinetune::ir::interp::{run, InterpLimits};
use inlinetune::jit::{measure, AdaptConfig};
use inlinetune::served::json::Json;
use inlinetune::simrng::child_seed;
use inlinetune::tuner::{paper_tasks, Tuner};
use inlinetune::workloads::{dacapo_jbb, Benchmark};

use crate::replay::{measure_split, replay_sample, same_bits, LayerTotals, SplitCtx};
use crate::report::{median, quantile, ratio, Metrics, Report};
use crate::trace::{self, SpanTotals, Tracer};
use crate::SetupProbes;

/// The tuned cell, a task name from `tuner::paper_tasks`.
const TASK: &str = "Adapt (PPC)";

/// Wall time of one tune on the 2-core host the benchmark was sized on,
/// s: a run makes `seconds / (PASSES * NOMINAL_TUNE_S)` tunes per pass.
const NOMINAL_TUNE_S: f64 = 2.5;

/// The GA budget of every tune and the size of the replay.
#[derive(Debug, Clone)]
pub struct TuneSpec {
    /// GA population.
    pub pop: usize,
    /// GA generations per tune (no early stopping).
    pub generations: usize,
    /// Evaluated genomes of the first traced tune to replay through the
    /// `jit`/`inline` split.
    pub replay_genomes: usize,
}

/// `adapt-dacapo` as listed in `BENCHMARK.json`.
#[must_use]
pub fn adapt_dacapo() -> TuneSpec {
    TuneSpec {
        pop: 20,
        generations: 2,
        replay_genomes: 16,
    }
}

/// The adaptive-system config every tune uses (the paper's default).
fn adapt_cfg() -> AdaptConfig {
    AdaptConfig::default()
}

/// What set-up built, with the time each part took.
pub struct Setup {
    /// The training suite.
    pub suite: Vec<Benchmark>,
    /// The tuner (its default-heuristic measurements are taken).
    pub tuner: Tuner,
    /// Suite generation, ms.
    pub generate_ms: f64,
    /// `Tuner::new`, which measures the default heuristic, ms.
    pub defaults_ms: f64,
}

/// Generates the suite and builds the tuner.
///
/// # Errors
/// The tuned cell is missing from `tuner::paper_tasks`.
pub fn setup() -> Result<Setup, String> {
    let task = paper_tasks()
        .into_iter()
        .find(|t| t.name == TASK)
        .ok_or_else(|| format!("unknown task {TASK}"))?;
    let t = Instant::now();
    let suite = dacapo_jbb();
    let generate_ms = ms_since(t);
    let t = Instant::now();
    let tuner = Tuner::new(task, suite.clone(), adapt_cfg());
    let defaults_ms = ms_since(t);
    Ok(Setup {
        suite,
        tuner,
        generate_ms,
        defaults_ms,
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed `Tuner::fitness` call.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The genome.
    pub genes: Genome,
    /// Its fitness.
    pub fitness: f64,
    /// Latency, ms.
    pub ms: f64,
}

/// Evaluates genomes one after another with `Tuner::fitness`, timing
/// each call, inside a `ga.eval_batch` span under the open `ga.step`.
pub struct TimedEvaluator<'a> {
    tuner: &'a Tuner,
    tracer: &'a Tracer,
    /// The open `ga.step` span (0 = none) and its request id.
    parent: AtomicU64,
    request: AtomicU64,
    next_genome: AtomicU64,
    log: Mutex<Vec<EvalRecord>>,
}

impl<'a> TimedEvaluator<'a> {
    /// An evaluator over `tuner`.
    #[must_use]
    pub fn new(tuner: &'a Tuner, tracer: &'a Tracer) -> Self {
        Self {
            tuner,
            tracer,
            parent: AtomicU64::new(0),
            request: AtomicU64::new(0),
            next_genome: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    fn enter_step(&self, span: Option<u64>, request: u64) {
        self.parent.store(span.unwrap_or(0), Ordering::Relaxed);
        self.request.store(request, Ordering::Relaxed);
    }

    /// Every evaluation so far, in evaluation order.
    #[must_use]
    pub fn into_log(self) -> Vec<EvalRecord> {
        self.log.into_inner().expect("evaluation log poisoned")
    }
}

impl Evaluator for TimedEvaluator<'_> {
    fn evaluate(&self, genomes: &[Genome]) -> Vec<f64> {
        let parent = self.parent.load(Ordering::Relaxed);
        let request = self.request.load(Ordering::Relaxed);
        let batch = self
            .tracer
            .span("ga.eval_batch", (parent != 0).then_some(parent), request);
        let evals: Vec<EvalRecord> = genomes
            .iter()
            .map(|g| {
                let genome = self.next_genome.fetch_add(1, Ordering::Relaxed);
                let t = Instant::now();
                let fitness = {
                    let _s = self.tracer.span("core.fitness", batch.id(), genome);
                    self.tuner.fitness(&InlineParams::from_genes(g))
                };
                EvalRecord {
                    genes: g.clone(),
                    fitness,
                    ms: ms_since(t),
                }
            })
            .collect();
        drop(batch);
        let scores = evals.iter().map(|e| e.fitness).collect();
        self.log
            .lock()
            .expect("evaluation log poisoned")
            .extend(evals);
        scores
    }
}

/// One finished fixed-budget tune.
#[derive(Debug, Clone)]
pub struct TuneRun {
    /// GA seed.
    pub seed: u64,
    /// Wall time, s.
    pub wall_s: f64,
    /// Every evaluation, in evaluation order.
    pub evals: Vec<EvalRecord>,
    /// Distinct fitness evaluations.
    pub evaluations: usize,
    /// Population slots answered by the GA's memo.
    pub memo_hits: usize,
    /// Population slots scored (population × generations).
    pub proposals: usize,
    /// The tuned genome.
    pub best_genes: Genome,
    /// Its fitness.
    pub best_fitness: f64,
}

/// The GA seed of the `i`-th tune of a run.
#[must_use]
pub fn tune_seed(seed: u64, i: usize) -> u64 {
    child_seed(seed, &format!("tune-{i}"))
}

/// Runs one fixed-budget tune of `config` on `tuner`, one `ga.step`
/// span per generation.
#[must_use]
pub fn tune_once(tuner: &Tuner, config: GaConfig, tune: usize, tracer: &Tracer) -> TuneRun {
    let ev = TimedEvaluator::new(tuner, tracer);
    let (seed, pop) = (config.seed, config.pop_size);
    let mut state = tuner.start(config);
    let started = Instant::now();
    loop {
        let request = ((tune as u64) << 32) | state.generation() as u64;
        let span = tracer.span("ga.step", None, request);
        ev.enter_step(span.id(), request);
        let done = state.step_with(&ev);
        drop(span);
        if done {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let (genes, fitness) = state.best().expect("a finished tune has a best genome");
    TuneRun {
        seed,
        wall_s,
        best_genes: genes.clone(),
        best_fitness: fitness,
        evaluations: state.evaluations(),
        memo_hits: state.cache_hits(),
        proposals: pop * state.generation(),
        evals: ev.into_log(),
    }
}

/// Runs the `tune`-th fixed-budget tune of a run.
#[must_use]
pub fn run_tune(
    setup: &Setup,
    spec: &TuneSpec,
    seed: u64,
    tune: usize,
    tracer: &Tracer,
) -> TuneRun {
    let config = GaConfig {
        pop_size: spec.pop,
        generations: spec.generations,
        stagnation_limit: None,
        threads: 1,
        seed,
        ..GaConfig::default()
    };
    tune_once(&setup.tuner, config, tune, tracer)
}

/// How many times an untraced run repeats its tunes.
pub const PASSES: usize = 2;

/// The same tunes run several times, one pass after another. The
/// host's speed drifts in phases of several seconds (co-tenants contend
/// for memory bandwidth) and contention only ever adds time, so each
/// tune's wall time and each genome's latency is the fastest of its
/// measurements, which are spread across the whole run.
#[derive(Debug, Clone)]
pub struct Passes(pub Vec<Vec<TuneRun>>);

impl Passes {
    /// Runs `count` passes of the same `tunes` tunes, each pass's tunes
    /// back to back, with a set-up probe gap after every tune.
    ///
    /// # Errors
    /// A set-up probe failed.
    pub fn run(
        setup: &Setup,
        spec: &TuneSpec,
        seed: u64,
        tunes: usize,
        count: usize,
        tracer: &Tracer,
        probes: &mut SetupProbes<'_>,
    ) -> Result<Self, String> {
        let mut gaps_left = count * tunes;
        let mut passes = Vec::with_capacity(count);
        for _ in 0..count {
            let mut runs = Vec::with_capacity(tunes);
            for i in 0..tunes {
                runs.push(run_tune(setup, spec, tune_seed(seed, i), i, tracer));
                probes.gap(gaps_left)?;
                gaps_left -= 1;
            }
            passes.push(runs);
        }
        Ok(Self(passes))
    }

    /// The first pass.
    #[must_use]
    pub fn first(&self) -> &[TuneRun] {
        &self.0[0]
    }

    /// Per tune, the fastest wall time, s.
    #[must_use]
    pub fn walls(&self) -> Vec<f64> {
        (0..self.first().len())
            .map(|i| {
                self.0
                    .iter()
                    .map(|p| p[i].wall_s)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Per evaluated genome, the fastest latency, ms.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        let mut fastest: Vec<f64> = all_evals(self.first()).map(|e| e.ms).collect();
        for pass in &self.0[1..] {
            for (f, e) in fastest.iter_mut().zip(all_evals(pass)) {
                *f = f.min(e.ms);
            }
        }
        fastest
    }

    /// Tunes whose passes disagree on an evaluation or the result.
    #[must_use]
    pub fn mismatches(&self) -> Vec<String> {
        let evals = |r: &TuneRun| -> Vec<(Genome, u64)> {
            r.evals
                .iter()
                .map(|e| (e.genes.clone(), e.fitness.to_bits()))
                .collect()
        };
        let mut out = Vec::new();
        for (i, a) in self.first().iter().enumerate() {
            let want = evals(a);
            if self.0[1..]
                .iter()
                .any(|p| evals(&p[i]) != want || !same_result(a, &p[i]))
            {
                out.push(format!("tune seed {} differs between passes", a.seed));
            }
        }
        out
    }
}

fn same_result(a: &TuneRun, b: &TuneRun) -> bool {
    a.best_genes == b.best_genes && a.best_fitness.to_bits() == b.best_fitness.to_bits()
}

/// Every evaluation of `runs`, in evaluation order.
pub fn all_evals(runs: &[TuneRun]) -> impl Iterator<Item = &EvalRecord> {
    runs.iter().flat_map(|r| r.evals.iter())
}

/// The stored reference: `adapt-dacapo`'s first tune of the default
/// seed at the listed budget, as tuned genome and fitness bits.
const REFERENCE: ([i64; 5], u64) = ([17, 3, 8, 221, 276], 0x3fee_cb7a_a77e_8f6a);

/// Checks the first tune against the stored reference when the run uses
/// the default seed and the listed budget.
fn check_reference(report: &mut Report, spec: &TuneSpec, seed: u64, first: &TuneRun) {
    let listed = adapt_dacapo();
    if seed != crate::DEFAULT_SEED
        || spec.pop != listed.pop
        || spec.generations != listed.generations
    {
        return;
    }
    let (genes, bits) = REFERENCE;
    report.check(
        first.best_genes == genes && first.best_fitness.to_bits() == bits,
        || {
            format!(
                "tune 0 gave {:?} / {:#x}, reference is {genes:?} / {bits:#x}",
                first.best_genes,
                first.best_fitness.to_bits(),
            )
        },
    );
}

/// Interprets one suite program, chosen by seed, as written and as the
/// VM runs it under the tuned heuristic; return value and heap digest
/// must agree.
fn check_interp(report: &mut Report, setup: &Setup, seed: u64, genes: &[i64]) {
    let idx = (child_seed(seed, "interp") % setup.suite.len() as u64) as usize;
    let bench = &setup.suite[idx];
    let task = setup.tuner.task();
    let params = InlineParams::from_genes(genes);
    let mut acc = LayerTotals::default();
    let tracer = Tracer::new(false);
    let mut ctx = SplitCtx {
        acc: &mut acc,
        tracer: &tracer,
        parent: None,
        request: 0,
        program_key: idx,
    };
    let (m, state) = measure_split(
        &bench.program,
        task.scenario,
        &task.arch,
        &params,
        &adapt_cfg(),
        &mut ctx,
    );
    let direct = measure(
        &bench.program,
        task.scenario,
        &task.arch,
        &params,
        &adapt_cfg(),
    );
    report.check(same_bits(&m, &direct), || {
        format!(
            "split measurement of {} differs from jit::measure",
            bench.name()
        )
    });
    let limits = InterpLimits {
        fuel: 4_000_000_000,
        max_depth: 4096,
    };
    match (
        run(&bench.program, &[], &limits),
        run(&state.program, &[], &limits),
    ) {
        (Ok(a), Ok(b)) => {
            report.check(a.value == b.value && a.heap_digest == b.heap_digest, || {
                format!(
                "{} compiled under {genes:?}: value {} heap {:#x}, original: value {} heap {:#x}",
                bench.name(),
                b.value,
                b.heap_digest,
                a.value,
                a.heap_digest
            )
            })
        }
        (a, b) => report.check(false, || {
            format!(
                "{} did not interpret: {:?} / {:?}",
                bench.name(),
                a.err(),
                b.err()
            )
        }),
    }
    report
        .meta
        .push(("interp_program", Json::Str(bench.name().into())));
}

/// Runs the workload: [`PASSES`] passes of the same tunes, as many as
/// fill `seconds` at the nominal tune time. A traced run makes one
/// untraced and one traced pass of them instead, so that with the replay
/// and the checks it still ends well within the time a run may take, and
/// its overhead compares one pass with one. The work is fixed per seed,
/// so runs of one seed differ only in how fast the host ran them.
///
/// # Errors
/// A set-up probe or writing the trace failed.
pub fn run_workload(
    spec: &TuneSpec,
    setup: &Setup,
    seed: u64,
    seconds: f64,
    trace_path: Option<&std::path::Path>,
    probes: &mut SetupProbes<'_>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let quiet = Tracer::new(false);
    let tunes = ((seconds / (PASSES as f64 * NOMINAL_TUNE_S)).round() as usize).max(1);
    let count = if trace_path.is_some() { 1 } else { PASSES };
    let passes = Passes::run(setup, spec, seed, tunes, count, &quiet, probes)?;
    for m in passes.mismatches() {
        report.check(false, || m);
    }
    let evals: Vec<&EvalRecord> = all_evals(passes.first()).collect();
    report.attempted = evals.len() as u64;
    report.failed = evals.iter().filter(|e| !e.fitness.is_finite()).count() as u64;
    let first = &passes.first()[0];
    check_reference(&mut report, spec, seed, first);
    report.check(first.best_fitness.is_finite(), || {
        format!("tune 0 has non-finite fitness {}", first.best_fitness)
    });
    let walls = passes.walls();
    let latencies = passes.latencies();
    report.meta.push((
        "tune0",
        Json::obj(vec![
            (
                "genes",
                Json::Arr(first.best_genes.iter().map(|&g| Json::Int(g)).collect()),
            ),
            (
                "fitness_bits",
                Json::Str(format!("{:#x}", first.best_fitness.to_bits())),
            ),
        ]),
    ));

    if let Some(path) = trace_path {
        let tracer = Tracer::new(true);
        let traced = Passes::run(
            setup,
            spec,
            seed,
            tunes,
            1,
            &tracer,
            &mut SetupProbes::none(),
        )?;
        for (a, b) in passes.first().iter().zip(traced.first()) {
            report.check(same_result(a, b), || {
                format!(
                    "tune seed {}: untraced {:?}/{:#x}, traced {:?}/{:#x}",
                    a.seed,
                    a.best_genes,
                    a.best_fitness.to_bits(),
                    b.best_genes,
                    b.best_fitness.to_bits()
                )
            });
        }
        for m in traced.mismatches() {
            report.check(false, || m);
        }
        // The jit/inline split: a seeded sample of the genomes the first
        // traced tune evaluated, replayed through the public calls.
        let (acc, mismatches) = replay_sample(
            &setup.tuner,
            &setup.suite,
            &adapt_cfg(),
            traced.first()[0].evals.iter(),
            seed,
            spec.replay_genomes,
            &tracer,
        );
        for m in mismatches {
            report.check(false, || m);
        }
        let spans = tracer.spans();
        let layer = LocalLayers {
            setup,
            latencies: &latencies,
            walls: &walls,
            runs: traced.first(),
            acc: &acc,
            spans: &trace::totals_by_name(&spans),
            overhead: traced.walls().iter().sum::<f64>() / walls.iter().sum::<f64>() - 1.0,
            failed_frac: ratio(report.failed as f64, report.attempted as f64),
        };
        layer.put(&mut report.metrics);
        trace::write_jsonl(&spans, path)?;
    } else {
        let busy: f64 = walls.iter().sum();
        let m = &mut report.metrics;
        m.put("tune_s", median(&walls), "s");
        m.put("evals_per_s", evals.len() as f64 / busy, "1/s");
        m.put("jobs_per_s", tunes as f64 / busy, "1/s");
        m.put("job_s_p50", median(&walls), "s");
        m.put("best_fitness", first.best_fitness, "ratio");
        report.meta.push(("eval_samples", int(latencies.len())));
        report.meta.push(("job_samples", int(tunes)));
    }
    check_interp(&mut report, setup, seed, &first.best_genes);
    Ok(report)
}

fn int(n: usize) -> Json {
    Json::Int(n as i64)
}

/// The traced run's per-layer inputs on a tuning workload.
struct LocalLayers<'a> {
    setup: &'a Setup,
    /// The untraced passes' fastest per-genome latencies, ms.
    latencies: &'a [f64],
    /// The untraced passes' fastest per-tune wall times, s.
    walls: &'a [f64],
    runs: &'a [TuneRun],
    acc: &'a LayerTotals,
    /// Every traced span, totalled by name.
    spans: &'a SpanTotals,
    overhead: f64,
    failed_frac: f64,
}

impl LocalLayers<'_> {
    fn put(&self, m: &mut Metrics) {
        let s = self.setup;
        let reachable: usize = s.suite.iter().map(|b| b.program.reachable().len()).sum();
        let proposals: usize = self.runs.iter().map(|r| r.proposals).sum();
        let hits: usize = self.runs.iter().map(|r| r.memo_hits).sum();
        let evaluations: usize = self.runs.iter().map(|r| r.evaluations).sum();
        let step = self.spans.get("ga.step");
        let batch = self.spans.get("ga.eval_batch");

        m.put("workloads.generate_ms", s.generate_ms, "ms");
        m.put("workloads.reachable_methods", reachable as f64, "count");
        m.put("core.defaults_ms", s.defaults_ms, "ms");
        m.put("core.fitness_calls", evaluations as f64, "count");
        m.put("ga.proposals", proposals as f64, "count");
        m.put("ga.memo_hits", hits as f64, "count");
        m.put(
            "ga.memo_hit_ratio",
            ratio(hits as f64, proposals as f64),
            "ratio",
        );
        m.put("ga.breed_ms", step.mean_self_us() / 1e3, "ms");
        put_jit(m, self.acc, self.spans);
        m.put(
            "served.eval_share",
            ratio(batch.total_us, step.total_us),
            "ratio",
        );
        m.put("eval_ms_p50", median(self.latencies), "ms");
        m.put("eval_ms_p95", quantile(self.latencies, 0.95), "ms");
        m.put("job_s_p95", quantile(self.walls, 0.95), "s");
        m.put("failed_frac", self.failed_frac, "ratio");
        m.put("trace.overhead_frac", self.overhead, "ratio");
        m.put("replay.evaluations", self.acc.evaluations as f64, "count");
    }
}

/// The replay's metrics: `core.fitness_ms_self` and the `jit` and
/// `inline` metrics, per replayed evaluation. Times come from the
/// replay's spans, counts from `acc`.
pub fn put_jit(m: &mut Metrics, a: &LayerTotals, spans: &SpanTotals) {
    let per_eval = |x: f64| ratio(x, a.evaluations as f64);
    let ms_per_eval = |name: &str| per_eval(spans.get(name).total_us) / 1e3;
    let us = |name: &str| spans.get(name).total_us;
    m.put(
        "core.fitness_ms_self",
        spans.get("replay.fitness").mean_self_us() / 1e3,
        "ms",
    );
    m.put(
        "jit.measure_calls",
        per_eval(a.measure_calls as f64),
        "count",
    );
    m.put("jit.measure_ms", ms_per_eval("jit.measure"), "ms");
    m.put(
        "jit.baseline_compile_ms",
        ms_per_eval("jit.baseline_compile"),
        "ms",
    );
    m.put(
        "jit.adaptive_plan_ms",
        ms_per_eval("jit.adaptive_plan"),
        "ms",
    );
    m.put(
        "jit.baseline_exec_ms",
        ms_per_eval("jit.baseline_exec"),
        "ms",
    );
    m.put("jit.exec_ms", ms_per_eval("jit.exec"), "ms");
    m.put("jit.passes_ms", ms_per_eval("jit.passes"), "ms");
    m.put(
        "jit.passes_folded",
        per_eval(f64::from(a.passes.folded)),
        "count",
    );
    m.put(
        "jit.passes_removed",
        per_eval(f64::from(a.passes.removed)),
        "count",
    );
    m.put(
        "jit.ir_stmts_after_passes",
        per_eval(a.ir_stmts_after_passes as f64),
        "count",
    );
    m.put(
        "jit.genome_independent_share",
        ratio(
            us("jit.baseline_compile") + us("jit.adaptive_plan") + us("jit.baseline_exec"),
            us("jit.measure"),
        ),
        "ratio",
    );
    m.put("inline.calls", per_eval(a.inline_calls as f64), "count");
    m.put("inline.ms", ms_per_eval("inline.method"), "ms");
    m.put(
        "inline.sites_inlined",
        per_eval(a.sites_inlined as f64),
        "count",
    );
    m.put(
        "inline.ir_stmts_after_inline",
        per_eval(a.ir_stmts_after_inline as f64),
        "count",
    );
    m.put(
        "inline.distinct_body_ratio",
        ratio(a.distinct_bodies.len() as f64, a.inline_calls as f64),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_seeds_differ_per_tune_and_per_seed() {
        assert_ne!(tune_seed(1, 0), tune_seed(1, 1));
        assert_ne!(tune_seed(1, 0), tune_seed(2, 0));
        assert_eq!(tune_seed(7, 3), tune_seed(7, 3));
    }
}
