//! The xarch benchmark: `curate`, `serve` and `churn` workloads, each run
//! end to end over the library's public API, with every answer checked
//! against an oracle built from the generated inputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload curate|serve|churn|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints each metric as `name value unit`, then the attempted and failed
//! operation counts, and last one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer metrics and the tracing
//! overhead, and writes the spans to `.perfbench/traces/`. `--workload
//! all` runs each workload in its own process, one after the other.
//! Scratch files live under `.perfbench/` in the working directory and
//! are removed at exit.

mod inputs;
mod oracle;
mod queries;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload curate|serve|churn|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(profile) = inputs::profile(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let base = PathBuf::from(".perfbench");
    let dir = base.join(format!("run-{}", std::process::id()));
    let trace_out = args.trace.then(|| {
        base.join("traces")
            .join(format!("{}-seed{}.jsonl", profile.name, args.seed))
    });
    if let Some(t) = trace_out.as_ref().and_then(|t| t.parent()) {
        if let Err(e) = std::fs::create_dir_all(t) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = run::run(profile, args.seed, args.seconds, trace_out.as_deref(), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", profile.name);
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.first_failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{} seed {}: {}", profile.name, args.seed, outcome.inputs);
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!("{:<40} {:>16} ops", "attempted", outcome.attempted);
    println!("{:<40} {:>16} ops", "failed", outcome.failed);
    if let Some(t) = &trace_out {
        println!("spans written to {}", t.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Runs every workload in a process of its own (so `peak_rss_mb` is each
/// workload's own), forwarding their reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for p in &inputs::PROFILES {
        println!("== {}", p.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", p.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
