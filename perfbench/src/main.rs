//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics untraced, per-layer metrics traced). The line before it holds
//! the run's metadata. Exits 1 when an output check fails, 2 on a usage
//! or set-up error.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use inlinetune::served::json::Json;
use perfbench::{probe_setup, run, run_meta, RunOptions, Workload, DEFAULT_SEED, OUT_DIR};

struct Args {
    opts: RunOptions,
    probe: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-probe" => probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        opts: RunOptions {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(OUT_DIR),
        },
        probe,
    })
}

/// Runs set-up in `n` fresh processes, one after another, and returns
/// each one's set-up time.
fn child_setups(opts: &RunOptions, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", opts.workload.name()])
                .args(["--seed", &opts.seed.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            if !out.status.success() {
                return Err(format!("setup probe exited {}", out.status));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("setup probe output: {e}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        return match probe_setup(&args.opts, started) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: setup probe: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = &args.opts;
    let mut report = match run(opts, started, |n| child_setups(opts, n)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut meta = run_meta(opts);
    meta.append(&mut report.meta);
    for failure in &report.check_failures {
        eprintln!("perfbench: output check failed: {failure}");
    }
    println!("{}", Json::obj(vec![("meta", Json::obj(meta))]).to_text());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
