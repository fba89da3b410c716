//! The `jit`/`inline` split of one fitness evaluation, measured from
//! outside the program.
//!
//! [`measure_split`] calls the public `jit` and `inliner` functions in
//! the order `jit::measure` calls them, each inside a span of its own,
//! and rebuilds the same [`Measurement`]. [`replay_genome`] checks it against
//! `jit::measure` bit for bit, so the split cannot drift from the
//! program: a change to `jit::measure` that the split does not mirror
//! fails the run instead of skewing the per-layer numbers.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hasher};

use inlinetune::inliner::{inline_method, HotSites, InlineParams};
use inlinetune::ir::method::MethodId;
use inlinetune::ir::program::Program;
use inlinetune::ir::size::method_size;
use inlinetune::jit::adaptive::plan;
use inlinetune::jit::compile::{compile_all_baseline, CompiledMethod};
use inlinetune::jit::exec::exec_cycles;
use inlinetune::jit::{
    measure, optimize_method, AdaptConfig, ArchModel, CompileLevel, Measurement, PassStats,
    Scenario, VmState,
};
use inlinetune::simrng::{child_seed, Rng};
use inlinetune::tuner::{geometric_mean, Tuner};
use inlinetune::workloads::Benchmark;

use crate::trace::Tracer;
use crate::tune::EvalRecord;

/// Per-layer counts accumulated over replayed evaluations. The layers'
/// times are read from the replay's spans.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Genomes replayed.
    pub evaluations: u64,
    /// `jit::measure` calls.
    pub measure_calls: u64,
    /// Summed optimizer statistics.
    pub passes: PassStats,
    /// Statement count after the optimizer, over opt-compiled methods.
    pub ir_stmts_after_passes: u64,
    /// `inline_method` calls.
    pub inline_calls: u64,
    /// Call sites inlined.
    pub sites_inlined: u64,
    /// Statement count right after inlining.
    pub ir_stmts_after_inline: u64,
    /// Distinct (program, method, inlined body) triples seen.
    pub distinct_bodies: HashSet<(usize, u32, u64)>,
}

/// A `fmt::Write` sink that hashes what is written to it, so a method
/// body can be fingerprinted through its `Debug` form without building
/// the string.
struct HashSink(DefaultHasher);

impl std::fmt::Write for HashSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn body_digest(method: &inlinetune::ir::Method) -> u64 {
    let mut sink = HashSink(DefaultHasher::new());
    let _ = write!(sink, "{:?}|{:?}", method.body, method.ret);
    sink.0.finish()
}

/// Where one split measurement records: the counts, and the spans of one
/// benchmark's replay.
pub struct SplitCtx<'a> {
    /// Totals to add to.
    pub acc: &'a mut LayerTotals,
    /// Span sink.
    pub tracer: &'a Tracer,
    /// The enclosing `jit.replay` span.
    pub parent: Option<u64>,
    /// The genome's request id.
    pub request: u64,
    /// Index of the benchmark within its suite (keys distinct bodies).
    pub program_key: usize,
}

impl SplitCtx<'_> {
    /// Runs `f` inside a span named `name` under `parent`.
    fn timed<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _span = self.tracer.span(name, parent, self.request);
        f()
    }
}

/// Opt-compiles one method the way `jit::compile::opt_compile_into`
/// does, with the inliner and the optimizer in spans of their own under
/// `parent`.
#[allow(clippy::too_many_arguments)]
fn opt_compile_split(
    state: &mut VmState,
    original: &Program,
    id: MethodId,
    arch: &ArchModel,
    params: &InlineParams,
    hot: &HotSites,
    parent: Option<u64>,
    ctx: &mut SplitCtx<'_>,
) -> f64 {
    let (mut method, stats) = ctx.timed("inline.method", parent, || {
        inline_method(original, id, params, hot)
    });
    let key = ctx.program_key;
    let acc = &mut *ctx.acc;
    acc.inline_calls += 1;
    acc.sites_inlined += u64::from(stats.inlined);
    acc.ir_stmts_after_inline += method.stmt_count() as u64;
    acc.distinct_bodies
        .insert((key, id.0, body_digest(&method)));

    let opt_stats = ctx.timed("jit.passes", parent, || optimize_method(&mut method));
    let acc = &mut *ctx.acc;
    acc.passes.merge(&opt_stats);
    acc.ir_stmts_after_passes += method.stmt_count() as u64;

    let compile_cycles = arch.opt_compile_cycles(stats.final_size);
    let code_size = method_size(&method);
    state.program.methods[id.index()] = method;
    state.compiled.insert(
        id,
        CompiledMethod {
            level: CompileLevel::Opt,
            code_size,
            original_size: method_size(original.method(id)),
            inline_stats: stats,
            opt_stats,
            compile_cycles,
        },
    );
    compile_cycles
}

fn count_levels(state: &VmState) -> (usize, usize) {
    let opt = state
        .compiled
        .values()
        .filter(|c| c.level == CompileLevel::Opt)
        .count();
    (opt, state.compiled.len() - opt)
}

/// Rebuilds `jit::measure(program, scenario, arch, params, cfg)` from its
/// public parts, timing each layer into `ctx`. Returns the measurement
/// and the final VM state (whose program is what the VM runs).
#[must_use]
pub fn measure_split(
    program: &Program,
    scenario: Scenario,
    arch: &ArchModel,
    params: &InlineParams,
    cfg: &AdaptConfig,
    ctx: &mut SplitCtx<'_>,
) -> (Measurement, VmState) {
    match scenario {
        Scenario::Opt => {
            let mut state = VmState {
                program: program.clone(),
                compiled: BTreeMap::new(),
            };
            let hot = HotSites::new();
            let tracer = ctx.tracer;
            let compiling = tracer.span("jit.opt_compile", ctx.parent, ctx.request);
            for id in program.reachable() {
                opt_compile_split(
                    &mut state,
                    program,
                    id,
                    arch,
                    params,
                    &hot,
                    compiling.id(),
                    ctx,
                );
            }
            drop(compiling);
            let steady = ctx.timed("jit.exec", ctx.parent, || exec_cycles(&state, arch));
            let opt_compile = state.total_compile_cycles();
            let (n_opt, n_base) = count_levels(&state);
            let m = Measurement {
                total_cycles: opt_compile + steady.total_cycles,
                running_cycles: steady.total_cycles,
                compile_cycles: opt_compile,
                baseline_compile_cycles: 0.0,
                opt_compile_cycles: opt_compile,
                first_iter_exec_cycles: steady.total_cycles,
                steady,
                code_size: state.total_code_size(),
                inline_stats: state.aggregate_inline_stats(),
                n_opt_methods: n_opt,
                n_baseline_methods: n_base,
            };
            (m, state)
        }
        Scenario::Adapt => {
            let parent = ctx.parent;
            let mut state = ctx.timed("jit.baseline_compile", parent, || {
                compile_all_baseline(program, arch)
            });
            let baseline_compile = state.total_compile_cycles();
            let baseline_exec =
                ctx.timed("jit.baseline_exec", parent, || exec_cycles(&state, arch));
            let plan = ctx.timed("jit.adaptive_plan", parent, || plan(program, arch, cfg));
            let tracer = ctx.tracer;
            let compiling = tracer.span("jit.opt_compile", parent, ctx.request);
            let mut opt_compile = 0.0;
            for &m in &plan.hot_methods {
                opt_compile += opt_compile_split(
                    &mut state,
                    program,
                    m,
                    arch,
                    params,
                    &plan.hot_sites,
                    compiling.id(),
                    ctx,
                );
            }
            drop(compiling);
            let steady = ctx.timed("jit.exec", parent, || exec_cycles(&state, arch));

            let phi = cfg.warmup_fraction.clamp(0.0, 1.0);
            let first_iter_exec =
                phi * baseline_exec.total_cycles + (1.0 - phi) * steady.total_cycles;
            let (n_opt, n_base) = count_levels(&state);
            let m = Measurement {
                total_cycles: baseline_compile + opt_compile + first_iter_exec,
                running_cycles: steady.total_cycles,
                compile_cycles: baseline_compile + opt_compile,
                baseline_compile_cycles: baseline_compile,
                opt_compile_cycles: opt_compile,
                first_iter_exec_cycles: first_iter_exec,
                steady,
                code_size: state.total_code_size(),
                inline_stats: state.aggregate_inline_stats(),
                n_opt_methods: n_opt,
                n_baseline_methods: n_base,
            };
            (m, state)
        }
    }
}

/// Bit-for-bit equality of two measurements (`Debug` prints every `f64`
/// in its shortest round-trip form, so equal text means equal bits).
#[must_use]
pub fn same_bits(a: &Measurement, b: &Measurement) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Replays one evaluated genome: `jit::measure` per benchmark inside a
/// `replay.fitness` span, the fitness recombined exactly as
/// `Tuner::fitness` does, then the split per benchmark inside a
/// `jit.replay` span. Returns an error naming the first mismatch with
/// `jit::measure` or with `fitness`.
///
/// # Errors
/// The split or the recombined fitness differs from the program's.
fn replay_genome(
    tuner: &Tuner,
    benches: &[Benchmark],
    adapt_cfg: &AdaptConfig,
    evaluated: &EvalRecord,
    request: u64,
    tracer: &Tracer,
    acc: &mut LayerTotals,
) -> Result<(), String> {
    let task = tuner.task();
    let (genes, fitness) = (&evaluated.genes, evaluated.fitness);
    let params = InlineParams::from_genes(genes);
    let mut measured = Vec::with_capacity(benches.len());
    let recombined = {
        let fit = tracer.span("replay.fitness", None, request);
        let mut ratios = Vec::with_capacity(benches.len());
        let mut degenerate = false;
        for (b, default) in benches.iter().zip(tuner.defaults()) {
            let m = {
                let _s = tracer.span("jit.measure", fit.id(), request);
                measure(&b.program, task.scenario, &task.arch, &params, adapt_cfg)
            };
            acc.measure_calls += 1;
            let num = task.goal.metric(&m, default);
            let den = task.goal.metric(default, default);
            degenerate |= den <= 0.0;
            ratios.push(num / den);
            measured.push(m);
        }
        if degenerate {
            f64::INFINITY
        } else {
            geometric_mean(&ratios)
        }
    };
    acc.evaluations += 1;
    let sanitized = if recombined.is_finite() {
        recombined
    } else {
        f64::INFINITY
    };
    if sanitized.to_bits() != fitness.to_bits() {
        return Err(format!(
            "replayed fitness {recombined:?} != evaluated {fitness:?} for genes {genes:?}"
        ));
    }
    for (i, (b, m)) in benches.iter().zip(&measured).enumerate() {
        let span = tracer.span("jit.replay", None, request);
        let mut ctx = SplitCtx {
            acc: &mut *acc,
            tracer,
            parent: span.id(),
            request,
            program_key: i,
        };
        let (split, _) = measure_split(
            &b.program,
            task.scenario,
            &task.arch,
            &params,
            adapt_cfg,
            &mut ctx,
        );
        if !same_bits(&split, m) {
            return Err(format!(
                "split measurement of {} differs from jit::measure for genes {genes:?}",
                b.name()
            ));
        }
    }
    Ok(())
}

/// Replays a seeded sample of `n` of the `evaluated` genomes (see
/// [`replay_genome`]) and returns the layer totals with one message per
/// mismatch.
pub fn replay_sample<'e>(
    tuner: &Tuner,
    suite: &[Benchmark],
    adapt_cfg: &AdaptConfig,
    evaluated: impl Iterator<Item = &'e EvalRecord>,
    seed: u64,
    n: usize,
    tracer: &Tracer,
) -> (LayerTotals, Vec<String>) {
    let mut sample: Vec<&EvalRecord> = evaluated.collect();
    Rng::seed_from_u64(child_seed(seed, "replay")).shuffle(&mut sample);
    sample.truncate(n);
    let mut acc = LayerTotals::default();
    let mismatches = sample
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            replay_genome(tuner, suite, adapt_cfg, e, i as u64, tracer, &mut acc).err()
        })
        .collect();
    (acc, mismatches)
}
