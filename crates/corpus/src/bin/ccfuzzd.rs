//! `ccfuzzd` — the distributed hunt daemon.
//!
//! ```text
//! ccfuzzd --root DIR [--bind ADDR]
//! ccfuzzd worker --connect ADDR --worker K     (internal)
//! ```
//!
//! The daemon serves a minimal HTTP/1.1 API (submit hunts, list/poll
//! status, stream telemetry JSONL, fetch findings) and executes queued
//! hunts one at a time, sharding each across `workers` worker processes —
//! respawned from this same binary via the hidden `worker` subcommand. The
//! actual listening address is published to `<root>/daemon.addr` so
//! clients can find a port-0 daemon.
//!
//! SIGTERM/SIGINT drain gracefully: the listener stops accepting, the
//! running hunt (if any) stops at its next generation boundary with a
//! final checkpoint, and the process exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

mod cli;
use cli::{check_args, flag_value, install_signal_handlers, usage_err, CliError, SHUTDOWN};

const USAGE: &str = "\
ccfuzzd — CC-Fuzz distributed hunt daemon

USAGE:
    ccfuzzd --root DIR [--bind ADDR]

OPTIONS:
    --root DIR      Daemon state directory: per-hunt checkpoints, telemetry
                    streams and corpora live under <root>/hunts/, completed
                    hunts merge into the shared corpus at <root>/corpus,
                    and the listening address is published to
                    <root>/daemon.addr (required)
    --bind ADDR     Listen address (default: 127.0.0.1:0 — an OS-assigned
                    port; read <root>/daemon.addr for the actual one)

HTTP API (drive it with `ccfuzz submit/status/fetch`):
    POST /hunts               Submit a hunt spec (JSON), returns {\"id\": ...}
    GET  /hunts               List every hunt's status
    GET  /hunts/ID            One hunt's status
    GET  /hunts/ID/stream     The hunt's per-generation telemetry JSONL
    GET  /hunts/ID/findings   A completed hunt's finding payload (the exact
                              bytes `ccfuzz hunt` would print)

SIGTERM/SIGINT drain gracefully: the running hunt stops at its next
generation boundary and the daemon exits 0.
";

fn main() -> ExitCode {
    cli::main(run)
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    if args.first().map(String::as_str) == Some("worker") {
        return run_worker(&args[1..]);
    }
    if matches!(
        args.first().map(String::as_str),
        Some("--help") | Some("-h") | Some("help")
    ) {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    check_args(args, "ccfuzzd", &[&["--root", "--bind"]], &[], false)?;
    let Some(root) = flag_value(args, "--root")? else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let bind = flag_value(args, "--bind")?.unwrap_or_else(|| "127.0.0.1:0".to_string());
    install_signal_handlers();
    ccfuzz_corpus::daemon::serve(&PathBuf::from(root), &bind, &SHUTDOWN)
        .map_err(CliError::Runtime)?;
    Ok(ExitCode::SUCCESS)
}

/// The hidden `worker` subcommand the coordinator spawns: connect back to
/// the coordinator socket and serve one island shard. Not for human use.
fn run_worker(args: &[String]) -> Result<ExitCode, CliError> {
    check_args(args, "worker", &[&["--connect", "--worker"]], &[], false)?;
    let addr = flag_value(args, "--connect")?
        .ok_or_else(|| usage_err("worker requires --connect ADDR"))?;
    let worker: usize = flag_value(args, "--worker")?
        .ok_or_else(|| usage_err("worker requires --worker K"))?
        .parse()
        .map_err(|_| usage_err("--worker: invalid value"))?;
    ccfuzz_corpus::worker::run_worker(&addr, worker).map_err(CliError::Runtime)?;
    Ok(ExitCode::SUCCESS)
}
