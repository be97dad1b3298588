//! `pardec serve` — the resident decomposition-query daemon.
//!
//! Loads a `PDEC2` session snapshot (graph + clustering + optional oracle),
//! binds a TCP listener, and answers batched queries over the length-prefixed
//! protocol of [`pardec_core::wire`] until a `SHUTDOWN` request arrives.
//!
//! ```text
//! pardec snapshot save --graph mesh.txt --tau 8 --out mesh.pdec
//! pardec serve --snapshot mesh.pdec --addr 127.0.0.1:7411
//! ```
//!
//! Options:
//! * `--snapshot FILE` — the session snapshot (required).
//! * `--addr HOST:PORT` — bind address; `:0` picks an ephemeral port, and the
//!   daemon always prints the resolved address (default `127.0.0.1:7411`).
//! * `--accept-threads N` — accept-loop OS threads (default: one per core).
//! * `--threads N` — worker-pool size for wave execution (default:
//!   `RAYON_NUM_THREADS`, else all cores). Responses are byte-identical at
//!   any value.
//! * `--frontier S` — strategy for `NEAREST` waves (results identical).
//! * `--checked` — load the snapshot through the checked path (builder
//!   graph decode + full clustering validation) for files of unknown origin.
//!
//! Fault-tolerance knobs (defaults in [`wire::ServeConfig`]):
//! * `--read-timeout-ms N` — socket timeout while inside a frame; stalled
//!   peers are answered `ERR_TIMEOUT` and disconnected.
//! * `--idle-timeout-ms N` — reap connections idle between requests.
//! * `--deadline-ms N` — per-request budget from first byte through
//!   execute (`0` expires every request — testing only).
//! * `--max-batch N` — queries admitted per request frame.
//! * `--max-concurrent N` / `--max-inflight-mb N` — admission gate; excess
//!   load is shed with `ERR_OVERLOADED` + a retry hint.
//! * `--allow-reload` — honor wire `OP_RELOAD` requests (hot snapshot
//!   swap through the checked loader; corrupt files roll back).
//! * `--reload-signal PATH` — watch for `PATH` to appear; when it does,
//!   delete it and reload the serving snapshot in-process (implies the
//!   same checked-load + rollback semantics; does not require
//!   `--allow-reload`).

use crate::args::Args;
use crate::commands::{frontier, CmdResult};
use pardec_core::{wire, Session};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn serve_config(
    args: &Args,
    snapshot_path: &str,
) -> Result<wire::ServeConfig, Box<dyn std::error::Error>> {
    let d = wire::ServeConfig::default();
    let ms = |v: u64| Duration::from_millis(v);
    let read_ms: u64 = args.opt_parse(
        "read-timeout-ms",
        d.read_timeout.as_millis() as u64,
        "milliseconds",
    )?;
    let idle_ms: u64 = args.opt_parse(
        "idle-timeout-ms",
        d.idle_timeout.as_millis() as u64,
        "milliseconds",
    )?;
    let deadline_ms: u64 =
        args.opt_parse("deadline-ms", d.deadline.as_millis() as u64, "milliseconds")?;
    let max_batch: u32 = args.opt_parse("max-batch", d.max_batch, "a positive integer")?;
    if max_batch == 0 {
        return Err("--max-batch must be positive".into());
    }
    let max_concurrent: u32 =
        args.opt_parse("max-concurrent", d.max_concurrent, "a positive integer")?;
    let inflight_mb: u64 = args.opt_parse(
        "max-inflight-mb",
        d.max_inflight_bytes >> 20,
        "a size in MiB",
    )?;
    Ok(wire::ServeConfig {
        read_timeout: ms(read_ms),
        write_timeout: d.write_timeout,
        idle_timeout: ms(idle_ms),
        deadline: ms(deadline_ms),
        max_batch,
        max_concurrent,
        max_inflight_bytes: inflight_mb << 20,
        allow_reload: args.has_flag("allow-reload"),
        reload_default_path: Some(snapshot_path.to_string()),
        ..d
    })
}

/// Polls for the signal file; when it appears, deletes it and hot-reloads
/// the serving snapshot. Runs detached for the daemon's lifetime — the
/// thread dies with the process after a clean shutdown.
fn spawn_reload_watcher(reloader: wire::Reloader, signal_path: String) {
    std::thread::Builder::new()
        .name("pardec-reload-watch".into())
        .spawn(move || loop {
            if std::path::Path::new(&signal_path).exists() {
                let _ = std::fs::remove_file(&signal_path);
                match reloader.reload(None) {
                    // The reload took effect whether or not the line is
                    // read: a closed stdout does not stop the watcher.
                    Ok(epoch) => {
                        let _ = out!("pardec serve: reloaded snapshot, epoch {epoch}");
                    }
                    Err(e) => eprintln!("pardec serve: reload failed, {e}"),
                }
            }
            std::thread::sleep(Duration::from_millis(250));
        })
        .expect("spawning the reload watcher cannot fail");
}

pub(crate) fn cmd_serve(args: &Args) -> CmdResult {
    let path = args.req("snapshot")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let strategy = frontier(args)?;
    let session = if args.has_flag("checked") {
        Session::load_checked(&bytes, strategy)?
    } else {
        Session::load(&bytes, strategy)?
    };
    drop(bytes);
    let config = serve_config(args, path)?;

    let addr = args.opt("addr", "127.0.0.1:7411");
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;

    let default_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let accept_threads: usize =
        args.opt_parse("accept-threads", default_threads, "a positive integer")?;
    if accept_threads == 0 {
        return Err("--accept-threads must be positive".into());
    }
    let mut builder = rayon::ThreadPoolBuilder::new();
    if let Some(n) = args.threads()? {
        builder = builder.num_threads(n);
    }
    let pool = Arc::new(builder.build().map_err(|e| e.to_string())?);

    out!(
        "pardec serve: {} nodes / {} edges, {} clusters, oracle {}",
        session.graph().num_nodes(),
        session.graph().num_edges(),
        session.clustering().num_clusters(),
        if session.oracle().is_some() {
            "loaded"
        } else {
            "absent"
        }
    )?;
    if config.allow_reload {
        out!("pardec serve: wire reload enabled (OP_RELOAD)")?;
    }
    let reload_signal = args.opt("reload-signal", "").to_string();
    let handle = wire::serve_with(listener, Arc::new(session), pool, accept_threads, config)?;
    if !reload_signal.is_empty() {
        out!("pardec serve: watching reload signal {reload_signal}")?;
        spawn_reload_watcher(handle.reloader(), reload_signal);
    }
    // The smoke harness greps for this line to learn the resolved port, so
    // keep its shape stable.
    out!("pardec serve: listening on {}", handle.addr())?;
    handle.join();
    out!("pardec serve: shut down cleanly")?;
    Ok(())
}
