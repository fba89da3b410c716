//! `simtest` — the seeded-scenario sweep runner.
//!
//! ```text
//! simtest --scenario base --seeds 200 --base-seed 1 --out BENCH_sim.json
//!     # sweep one family: base | mixed | store | online | shard
//! simtest --scenario online --seed 7 --trace      # replay one seed
//! simtest --scenario base --seeds 12 --base-seed 9 --broken
//!     # self-test: the redispatch-disabled daemon must be caught
//!     # (exit 0 iff >=1 seed fails; base only)
//! simtest --scenario shard --seeds 50 --shard-clients 1000 --shard-workers 100
//!     # multi-tenant soak (defaults: 1000 clients, 100 workers, 8 shards)
//! simtest --scale [--scale-workers 2,16]          # throughput-scaling suite:
//!     # virtual 1/2/4/8/16/50-worker fleet, "scale_ok: true|false"
//! simtest --shard-bench [--shard-bench-jobs N]    # 1/4/16-shard throughput
//!     # bench (exit 0 iff sharded >= single-queue and no job lost)
//! ```
//!
//! Every sweep prints one summary, the fault trace and a one-command
//! replay line per failing seed, and (`--trace`) one line per seed;
//! `--out FILE` writes the same JSON shape for every family. Exit
//! status: 0 when the run's expectation holds (all seeds green, or —
//! under `--broken` — at least one seed red), 1 otherwise, 2 on a usage
//! error.

use std::time::Instant;

use served::checkpoint::f64_to_json;
use served::json::Json;
use sim::{sweep, Backlog, OnlineDrift, Report, ShardSoak, StoreCrash};

const USAGE: &str = "usage: simtest --scenario <base|mixed|store|online|shard> \
     (--seeds N [--base-seed S] | --seed S [--trace]) [--out FILE] [--broken] \
     [--shard-clients N] [--shard-workers N]\n       \
     simtest --scale [--scale-workers 1,2,...] [--base-seed S] [--out FILE]\n       \
     simtest --shard-bench [--shard-bench-jobs N] [--shard-workers N] [--base-seed S] [--out FILE]";

struct Args {
    scenario: Option<String>,
    seeds: Option<u64>,
    base_seed: u64,
    out: Option<String>,
    trace: bool,
    broken: bool,
    soak: ShardSoak,
    scale: bool,
    scale_workers: Vec<usize>,
    shard_bench: bool,
    shard_bench_jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: None,
        seeds: None,
        base_seed: 1,
        out: None,
        trace: false,
        broken: false,
        soak: ShardSoak::default(),
        scale: false,
        scale_workers: sim::WORKER_COUNTS.to_vec(),
        shard_bench: false,
        shard_bench_jobs: 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--scenario" => args.scenario = Some(grab("--scenario")?),
            "--seeds" => args.seeds = Some(num(&grab("--seeds")?)?),
            "--base-seed" => args.base_seed = num(&grab("--base-seed")?)?,
            // A replay is a one-seed sweep.
            "--seed" => {
                args.base_seed = num(&grab("--seed")?)?;
                args.seeds = Some(1);
            }
            "--out" => args.out = Some(grab("--out")?),
            "--trace" => args.trace = true,
            "--broken" => args.broken = true,
            "--shard-clients" => args.soak.clients = num(&grab("--shard-clients")?)? as usize,
            "--shard-workers" => args.soak.workers = num(&grab("--shard-workers")?)? as usize,
            "--scale" => args.scale = true,
            "--scale-workers" => {
                args.scale_workers = grab("--scale-workers")?
                    .split(',')
                    .map(|w| num(w).map(|n| n as usize))
                    .collect::<Result<_, _>>()?;
            }
            "--shard-bench" => args.shard_bench = true,
            "--shard-bench-jobs" => {
                args.shard_bench_jobs = num(&grab("--shard-bench-jobs")?)? as usize;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.broken && args.scenario.as_deref() != Some("base") {
        return Err("--broken applies only to --scenario base".into());
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));

    // Throughput-scaling suite mode.
    if args.scale {
        let started = Instant::now();
        let suite = sim::run_scale_suite(args.base_seed, &args.scale_workers);
        let serial = sim::scale::serial_evals_per_sec(sim::scale::EVAL_COST);
        println!(
            "scaling sweep (seed {}, serial baseline {serial:.2} evals/vsec):",
            args.base_seed
        );
        for r in &suite.sweep {
            println!(
                "  {:>3} workers: {:>7.2} evals/vsec  efficiency {:.3}  \
                 ({} evals, {} batches, {} fallback, bit_identical {}, lossless {})",
                r.workers,
                r.evals_per_sec,
                r.efficiency,
                r.evaluations,
                r.batches,
                r.fallback_evals,
                r.bit_identical,
                r.lossless,
            );
        }
        for (label, r) in &suite.faulted {
            println!(
                "  fault {label:>13} ({} workers): {:>7.2} evals/vsec  \
                 ({} remote, {} fallback, bit_identical {}, lossless {})",
                r.workers,
                r.evals_per_sec,
                r.remote_evals,
                r.fallback_evals,
                r.bit_identical,
                r.lossless,
            );
        }
        let ok = suite.ok();
        println!(
            "scale_ok: {ok} ({:.2}s wall)",
            started.elapsed().as_secs_f64()
        );
        if let Some(path) = &args.out {
            let json = scale_json(&suite, args.base_seed, started.elapsed().as_secs_f64());
            if let Err(e) = std::fs::write(path, json.to_text() + "\n") {
                eprintln!("simtest: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("summary written to {path}");
        }
        std::process::exit(i32::from(!ok));
    }

    // Shard-bench mode: 1/4/16 shards, 16 concurrent jobs, the
    // `sharded >= single-queue` gate behind BENCH_shard.json.
    if args.shard_bench {
        let started = Instant::now();
        let report = sim::run_shard_bench(
            args.base_seed,
            args.shard_bench_jobs,
            args.soak.workers.min(16),
            &sim::BENCH_SHARD_COUNTS,
        );
        println!(
            "shard bench (seed {}, {} concurrent jobs):",
            report.seed, report.jobs
        );
        for p in &report.points {
            println!(
                "  {:>2} shards: {:>7.2} jobs/vsec  p95 sched delay {:>8} us  \
                 ({} virtual ms, all_done {})",
                p.shards, p.jobs_per_vsec, p.sched_delay_p95_micros, p.virtual_ms, p.all_done,
            );
        }
        let ok = report.is_ok();
        println!(
            "shard_bench_ok: {ok} ({:.2}s wall)",
            started.elapsed().as_secs_f64()
        );
        if let Some(path) = &args.out {
            let json = shard_bench_json(&report, started.elapsed().as_secs_f64());
            if let Err(e) = std::fs::write(path, json.to_text() + "\n") {
                eprintln!("simtest: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("summary written to {path}");
        }
        std::process::exit(i32::from(!ok));
    }

    let (Some(name), Some(seeds)) = (args.scenario.as_deref(), args.seeds) else {
        usage_error("a sweep needs --scenario and --seeds N or --seed S");
    };
    let started = Instant::now();
    let report = match name {
        "base" => sweep(
            &Backlog {
                redispatch: !args.broken,
                ..Backlog::BASE
            },
            args.base_seed,
            seeds,
        ),
        "mixed" => sweep(&Backlog::MIXED, args.base_seed, seeds),
        "store" => sweep(&StoreCrash, args.base_seed, seeds),
        "online" => sweep(&OnlineDrift, args.base_seed, seeds),
        "shard" => sweep(&args.soak, args.base_seed, seeds),
        other => usage_error(&format!("unknown scenario '{other}'")),
    };
    let wall_secs = started.elapsed().as_secs_f64();
    print_report(name, &report, &args, wall_secs);

    if let Some(path) = &args.out {
        write_json(path, &report_json(name, &report, args.broken, wall_secs));
    }
    let caught = report.failures().next().is_some();
    let ok = if args.broken {
        // Self-test: a daemon that drops re-dispatched work MUST be
        // caught by at least one seed, or the sweep has no teeth.
        if caught {
            println!("broken-build self-test: lost-work bug caught, as it must be");
        } else {
            println!("broken-build self-test FAILED: no seed caught the lost-work bug");
        }
        caught
    } else {
        !caught
    };
    std::process::exit(i32::from(!ok));
}

fn usage_error(msg: &str) -> ! {
    eprintln!("simtest: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn write_json(path: &str, json: &Json) {
    if let Err(e) = std::fs::write(path, json.to_text() + "\n") {
        eprintln!("simtest: cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("summary written to {path}");
}

fn totals_text(totals: &std::collections::BTreeMap<&'static str, u64>) -> String {
    totals
        .iter()
        .map(|(name, n)| format!("{name}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn print_report(name: &str, report: &Report, args: &Args, wall_secs: f64) {
    let seeds = report.rows.len() as u64;
    println!(
        "{name} sweep: {seeds} seeds ({}..{}): {} passed, {} failed in {wall_secs:.2}s wall / \
         {:.1}s virtual",
        report.base_seed,
        report.base_seed + seeds,
        report.passed(),
        report.failures().count(),
        report.virtual_ms() as f64 / 1000.0,
    );
    println!("totals: {}", totals_text(&report.totals()));
    if let Some(w) = report.worst() {
        println!(
            "worst scenario: seed {} at {} virtual ms",
            w.seed, w.virtual_ms
        );
    }
    if args.trace {
        for r in &report.rows {
            println!(
                "  seed {}: {} ({} virtual ms; {})",
                r.seed,
                if r.ok() { "ok" } else { "FAILED" },
                r.virtual_ms,
                totals_text(&r.totals)
            );
        }
    }
    let extra = if args.broken {
        " --broken".to_string()
    } else if name == "shard" {
        format!(
            " --shard-clients {} --shard-workers {}",
            args.soak.clients, args.soak.workers
        )
    } else {
        String::new()
    };
    for f in report.failures() {
        println!("\n{name} seed {} FAILED:", f.seed);
        for line in f.failures.iter().chain(&f.trace) {
            println!("  {line}");
        }
        println!("  replay: scripts/replay.sh {name} {}{extra}", f.seed);
    }
}

fn report_json(name: &str, report: &Report, broken: bool, wall_secs: f64) -> Json {
    let worst = report.worst();
    let int = |n: u64| Json::Int(n as i64);
    Json::obj(vec![
        ("bench", Json::Str("sim_sweep".into())),
        ("scenario", Json::Str(name.into())),
        ("base_seed", int(report.base_seed)),
        ("seeds", int(report.rows.len() as u64)),
        ("passed", int(report.passed() as u64)),
        ("failed", int(report.failures().count() as u64)),
        ("broken_mode", Json::Bool(broken)),
        ("wall_secs", f64_to_json(wall_secs)),
        ("virtual_ms", int(report.virtual_ms())),
        ("worst_virtual_ms", int(worst.map_or(0, |w| w.virtual_ms))),
        (
            "worst_seed",
            int(worst.map_or(report.base_seed, |w| w.seed)),
        ),
        (
            "totals",
            Json::Obj(
                report
                    .totals()
                    .into_iter()
                    .map(|(k, n)| (k.to_string(), int(n)))
                    .collect(),
            ),
        ),
        (
            "failing_seeds",
            Json::Arr(report.failures().map(|f| int(f.seed)).collect()),
        ),
    ])
}

fn scale_report_json(r: &sim::ScaleReport) -> Json {
    Json::obj(vec![
        ("workers", Json::Int(r.workers as i64)),
        ("evaluations", Json::Int(r.evaluations as i64)),
        ("elapsed_virtual_us", Json::Int(r.elapsed_micros as i64)),
        ("evals_per_vsec", f64_to_json(r.evals_per_sec)),
        ("efficiency", f64_to_json(r.efficiency)),
        ("remote_evals", Json::Int(r.remote_evals as i64)),
        ("fallback_evals", Json::Int(r.fallback_evals as i64)),
        ("batches", Json::Int(r.batches as i64)),
        ("bit_identical", Json::Bool(r.bit_identical)),
        ("lossless", Json::Bool(r.lossless)),
    ])
}

fn scale_json(suite: &sim::ScaleSuite, seed: u64, wall_secs: f64) -> Json {
    Json::obj(vec![
        ("bench", Json::Str("sim_scale".into())),
        ("seed", Json::Int(seed as i64)),
        (
            "serial_evals_per_vsec",
            f64_to_json(sim::scale::serial_evals_per_sec(sim::scale::EVAL_COST)),
        ),
        (
            "sweep",
            Json::Arr(suite.sweep.iter().map(scale_report_json).collect()),
        ),
        (
            "faulted",
            Json::Arr(
                suite
                    .faulted
                    .iter()
                    .map(|(label, r)| {
                        let Json::Obj(mut fields) = scale_report_json(r) else {
                            unreachable!("scale_report_json returns an object");
                        };
                        fields.insert(0, ("fault".into(), Json::Str(label.clone())));
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ),
        ("scale_ok", Json::Bool(suite.ok())),
        ("wall_secs", f64_to_json(wall_secs)),
    ])
}

fn shard_bench_json(report: &sim::ShardBenchReport, wall_secs: f64) -> Json {
    Json::obj(vec![
        ("bench", Json::Str("shard".into())),
        ("seed", Json::Int(report.seed as i64)),
        ("jobs", Json::Int(report.jobs as i64)),
        (
            "points",
            Json::Arr(
                report
                    .points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("shards", Json::Int(p.shards as i64)),
                            ("virtual_ms", Json::Int(p.virtual_ms as i64)),
                            ("jobs_per_vsec", f64_to_json(p.jobs_per_vsec)),
                            (
                                "sched_delay_p95_micros",
                                Json::Int(p.sched_delay_p95_micros as i64),
                            ),
                            ("all_done", Json::Bool(p.all_done)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sharded_beats_single",
            Json::Bool(report.sharded_beats_single()),
        ),
        ("shard_bench_ok", Json::Bool(report.is_ok())),
        ("wall_secs", f64_to_json(wall_secs)),
    ])
}
