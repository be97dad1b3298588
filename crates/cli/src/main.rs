//! `pardec` — command-line front end to the decomposition / clustering /
//! diameter toolkit.
//!
//! ```text
//! pardec generate --family mesh --rows 100 --cols 100 --out mesh.txt
//! pardec stats    --graph mesh.txt
//! pardec clust cluster2 --graph mesh.txt --tau 8 --labels out.tsv
//! pardec dist approx    --graph mesh.txt --tau 8 [--exact]
//! pardec kcenter  --graph mesh.txt --k 20 [--gonzalez]
//! pardec oracle   --graph mesh.txt --tau 2 --queries 0:57,3:99
//! pardec mr cluster --graph mesh.txt --tau 8 --partitions 16
//! pardec mr bfs     --graph mesh.txt --source 0
//! pardec mr hadi    --graph mesh.txt --trials 32
//! pardec snapshot save --graph mesh.txt --tau 8 --out mesh.pdec
//! pardec snapshot info --snapshot mesh.pdec
//! pardec serve    --snapshot mesh.pdec --addr 127.0.0.1:7411
//! pardec help
//! ```
//!
//! An option no command reads, such as a misspelled `--exactt`, is an error.
//!
//! The `mr` subcommands run on the MR(M_G, M_L) emulation and print its
//! communication ledger (pre-/post-combine pairs and bytes, peak `M_L`);
//! `--partitions` (or `PARDEC_PARTITIONS`) sets the shuffle grid without
//! affecting any result.
//!
//! Graphs are SNAP-style text edge lists (`pardec_graph::io`); `snapshot
//! save` converts one (plus its decomposition and oracle) into the binary
//! `PDEC2` form `serve` loads. All commands are seeded (`--seed`, default
//! 42) and reproducible: results are byte-identical regardless of
//! `--threads` / `RAYON_NUM_THREADS`.
//!
//! `--trace FILE` (or `PARDEC_TRACE=FILE`) writes a JSONL span/metric trace
//! at exit; the trace is a side channel and never perturbs results.

/// `println!` through the locked stdout, returning the write's
/// `io::Result` rather than panicking when stdout is closed early (a
/// `| head` that has read enough).
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        writeln!(std::io::stdout().lock(), $($arg)*)
    }};
}

mod args;
mod commands;
mod serve;

use args::Args;
use std::io::ErrorKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let parsed = Args::parse(std::env::args().skip(1));
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    // The pool must be sized before the first parallel call of any command.
    if let Err(e) = commands::init_thread_pool(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // Tracing is a pure side channel: stdout and all results stay
    // byte-identical whether it is on, off, or absent.
    let trace_path = args
        .trace()
        .map(str::to_string)
        .or_else(pardec_obs::trace_path_from_env);
    if trace_path.is_some() {
        pardec_obs::enable();
    }
    let outcome = commands::dispatch(&args);
    if let Some(path) = &trace_path {
        match pardec_obs::flush_to_path(path) {
            Ok(n) => eprintln!("trace: wrote {n} events to {path}"),
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closed stdout has all it wanted.
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
