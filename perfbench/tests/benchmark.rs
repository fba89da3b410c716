//! The benchmark's own tests: tiny-budget runs of every workload pass
//! every output check, span self times add up, the closed-loop clients
//! stay within their connection budget, and `BENCHMARK.json` lists exactly
//! the metrics the benchmark prints.

use std::path::PathBuf;
use std::time::Instant;

use inlinetune::served::json::{parse, Json};
use perfbench::replay::replay_sample;
use perfbench::service::ServiceSpec;
use perfbench::trace::{self_times, Tracer};
use perfbench::tune::{run_tune, setup, tune_seed, TuneSpec};
use perfbench::{run, RunOptions, Workload, END_TO_END, PER_LAYER, WORKLOADS};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn tiny() -> TuneSpec {
    TuneSpec {
        pop: 4,
        generations: 2,
        replay_genomes: 2,
    }
}

fn tiny_service() -> ServiceSpec {
    ServiceSpec {
        pop: 4,
        generations: 3,
        rerun_jobs: 2,
        replay_genomes: 2,
    }
}

fn run_tiny(workload: Workload, trace: bool) -> perfbench::report::Report {
    let opts = RunOptions {
        out_dir: out_dir(&format!("{}-{trace}", workload.name())),
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
    };
    let report = run(&opts, Instant::now(), |_| Ok(Vec::new())).expect("run completes");
    assert!(
        report.correct,
        "output checks failed: {:?}",
        report.check_failures
    );
    assert!(report.attempted >= 1);
    let canonical = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = report.metrics.0.iter().map(|m| m.name).collect();
    let want: Vec<&str> = canonical.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    report
}

#[test]
fn tiny_adapt_dacapo_passes_every_check() {
    let r = run_tiny(Workload::Tune(tiny()), false);
    for name in ["setup_s", "tune_s", "evals_per_s", "peak_rss_mb"] {
        assert!(
            r.metrics.get(name).unwrap() > 0.0,
            "{name} must be positive"
        );
    }
    let t = run_tiny(Workload::Tune(tiny()), true);
    assert!(t.metrics.get("jit.baseline_compile_ms").unwrap() > 0.0);
    assert!(t.metrics.get("jit.genome_independent_share").unwrap() > 0.0);
    assert!(t.metrics.get("eval_ms_p50").unwrap() > 0.0);
}

#[test]
fn tiny_service_churn_passes_every_check_within_two_connections() {
    for trace in [false, true] {
        let r = run_tiny(Workload::Service(tiny_service()), trace);
        let held = r
            .meta
            .iter()
            .find(|(k, _)| *k == "max_connections")
            .and_then(|(_, v)| v.as_i64())
            .expect("max_connections recorded");
        assert!((1..=2).contains(&held), "clients held {held} connections");
        if trace {
            assert!(r.metrics.get("served.checkpoints_written").unwrap() > 0.0);
            assert!(r.metrics.get("evald.evals").unwrap() > 0.0);
            // The jobs are Opt: nothing compiles at the baseline level.
            assert_eq!(r.metrics.get("jit.baseline_compile_ms"), Some(0.0));
            assert!(r.metrics.get("inline.ms").unwrap() > 0.0);
        }
    }
}

#[test]
fn span_self_times_sum_to_their_parent_duration() {
    let spec = tiny();
    let setup = setup().expect("setup");
    let tracer = Tracer::new(true);
    let run = run_tune(&setup, &spec, tune_seed(5, 0), 0, &tracer);
    let (_, mismatches) = replay_sample(
        &setup.tuner,
        &setup.suite,
        &Default::default(),
        run.evals.iter(),
        5,
        1,
        &tracer,
    );
    assert!(mismatches.is_empty(), "{mismatches:?}");
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    for name in [
        "ga.step",
        "replay.fitness",
        "jit.opt_compile",
        "inline.method",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    for s in &spans {
        // Children run one after another and never overlap, so a span's
        // self time plus its children's durations is its duration.
        let children: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(s.id))
            .map(|c| c.duration_us())
            .sum();
        let gap = (selfs[&s.id] + children - s.duration_us()).abs();
        assert!(gap < 1e-6, "span {} ({}) off by {gap} us", s.id, s.name);
        assert!(selfs[&s.id] >= 0.0);
    }
    // Summed over a whole tree, self times give the root's duration.
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let mut total = 0.0;
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            total += selfs[&id];
            stack.extend(spans.iter().filter(|c| c.parent == Some(id)).map(|c| c.id));
        }
        assert!((total - root.duration_us()).abs() < 1e-6);
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let listed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), listed(END_TO_END));
    assert_eq!(names("per_layer"), listed(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for w in WORKLOADS {
        Workload::by_name(w).expect("listed workload runs");
    }
}
