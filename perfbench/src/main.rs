//! `benchmark` — the end-to-end benchmark of the pardec pipeline and serve
//! daemon, with per-layer attribution. See README.md.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark [--seed N] [--seconds S] [--smoke]   # every workload, both trace modes
//! benchmark --list                               # prints BENCHMARK.json
//! ```
//!
//! With `--workload`, the last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it records the run's context (seed, `nproc`, threads, sample counts and
//! quartiles). A human-readable table goes to stderr. The exit code is
//! non-zero when a correctness check fails.

mod inputs;
mod registry;
mod rng;
mod rss;
mod run;
mod stats;

use pardec_obs::json::{push_escaped, push_f64};
use registry::{Workload, WORKLOADS};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    list: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: None,
        smoke: false,
        list: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} expects a value"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&out.seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => out.smoke = true,
            "--list" => out.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.seconds.is_nan() {
        out.seconds = if out.smoke {
            0.0
        } else {
            registry::RUN_SECONDS as f64
        };
    }
    Ok(out)
}

/// Environment knobs that would change what is measured: the library's
/// `PARDEC_*` defaults (frontier, backend, tracing, ...) and the pool size.
fn environment_overrides() -> Vec<String> {
    std::env::vars()
        .filter(|(k, v)| (k.starts_with("PARDEC_") || k == "RAYON_NUM_THREADS") && !v.is_empty())
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Appends `"key":` to a JSON object under construction.
fn key(out: &mut String, k: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    push_escaped(out, k);
    out.push(':');
}

fn context_line(w: &Workload, args: &Args, trace: bool, o: &run::Outcome) -> String {
    let mut line = String::from("{");
    key(&mut line, "workload");
    push_escaped(&mut line, w.name);
    for (k, v) in [
        ("seed", args.seed),
        ("trace", trace as u64),
        ("smoke", args.smoke as u64),
        ("nproc", nproc() as u64),
        ("threads", run::THREADS as u64),
        ("nodes", o.nodes as u64),
        ("edges", o.edges as u64),
    ] {
        key(&mut line, k);
        let _ = write!(line, "{v}");
    }
    key(&mut line, "seconds");
    push_f64(&mut line, args.seconds);
    key(&mut line, "timings");
    line.push('{');
    for (name, s) in &o.timings {
        key(&mut line, name);
        let _ = write!(line, "{{\"n\":{}", s.n);
        for (k, v) in [("p25", s.p25), ("p50", s.p50), ("p75", s.p75)] {
            key(&mut line, k);
            push_f64(&mut line, v);
        }
        line.push('}');
    }
    line.push_str("}}");
    line
}

fn result_line(trace: bool, o: &run::Outcome) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.failures.is_empty(),
        o.attempted,
        o.failed
    );
    for m in registry::reported(trace) {
        let value = o
            .values
            .get(m.name)
            .ok_or(format!("metric {} was not computed", m.name))?;
        key(&mut line, m.name);
        line.push_str("{\"value\":");
        push_f64(&mut line, *value);
        line.push_str(",\"unit\":");
        push_escaped(&mut line, m.unit);
        line.push('}');
    }
    line.push_str("}}");
    Ok(line)
}

fn print_table(w: &Workload, trace: bool, o: &run::Outcome) {
    eprintln!(
        "== {} ({} nodes, {} edges, trace {}) ==",
        w.name, o.nodes, o.edges, trace as u8
    );
    for m in registry::reported(trace) {
        let v = o.values.get(m.name).copied().unwrap_or(f64::NAN);
        eprintln!("  {:<32} {:>16.6} {}", m.name, v, m.unit);
    }
    for f in &o.failures {
        eprintln!("  CHECK FAILED: {f}");
    }
}

/// Runs one workload in this process and prints its two JSON lines.
fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    let trace = args.trace.unwrap_or(false);
    let cfg = run::Config {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        smoke: args.smoke,
    };
    let outcome = run::run(w, &cfg)?;
    print_table(w, trace, &outcome);
    for line in [
        context_line(w, args, trace, &outcome),
        result_line(trace, &outcome)?,
    ] {
        pardec_obs::validate_object(&line).map_err(|e| format!("invalid output {line}: {e}"))?;
        println!("{line}");
    }
    Ok(outcome.failures.is_empty())
}

/// Runs every workload (both trace modes unless `--trace` is given), each
/// in a child process of its own so that allocator state and peak RSS never
/// carry over, and relays their stdout.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let traces = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut all_ok = true;
    for w in &WORKLOADS {
        for &trace in &traces {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", w.name))?;
            print!("{}", String::from_utf8_lossy(&out.stdout));
            all_ok &= out.status.success();
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", registry::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let overrides = environment_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "benchmark: refusing to run with {}: the benchmark measures the library defaults",
            overrides.join(" ")
        );
        return ExitCode::from(2);
    }
    let result = match &args.workload {
        None => run_all(&args),
        Some(name) => match registry::workload(name) {
            None => Err(format!("unknown workload {name:?}")),
            Some(w) => rayon::ThreadPoolBuilder::new()
                .num_threads(run::THREADS)
                .build_global()
                .map_err(|e| e.to_string())
                .and_then(|()| run_one(w, &args)),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_single_run_command_line() {
        let a = args(&[
            "--workload",
            "road",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("road"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// Every workload at about 1/100 size, both trace modes, in process:
    /// every check passes and every registry metric is reported.
    #[test]
    fn smoke_runs_every_workload() {
        let _peak = rss::PEAK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for w in &WORKLOADS {
            for trace in [false, true] {
                let cfg = run::Config {
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let o = run::run(w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert!(o.failures.is_empty(), "{}: {:?}", w.name, o.failures);
                assert_eq!(o.failed, 0, "{}", w.name);
                let line = result_line(trace, &o).unwrap();
                pardec_obs::validate_object(&line).unwrap();
                if trace {
                    assert!(o.values["layer.coverage"] > 0.5, "{}", w.name);
                }
            }
        }
    }
}
