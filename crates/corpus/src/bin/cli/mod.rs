//! What `ccfuzz` and `ccfuzzd` share: the graceful-shutdown flag and its
//! signal handlers, and the exit-code split between usage and runtime
//! errors. Each binary includes it with `mod cli;`; it sits in a directory
//! without a `main.rs`, so Cargo does not build it as a binary of its own.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Raised by the SIGINT/SIGTERM handlers; campaigns poll it at generation
/// boundaries, and the daemon's accept loop and runner thread poll it too.
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the graceful-shutdown handlers. Lives with the binaries (the
/// library crates forbid unsafe code); uses libc's `signal` directly so no
/// new dependency is needed.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    // SAFETY: `signal` is libc's, declared with its C signature (the
    // handler pointer passed as an address-sized integer). The handler is
    // an `extern "C" fn` that only stores to an atomic, which is
    // async-signal-safe, and it lives for the whole process.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Command-line failures, split by exit code: usage errors (bad flags or
/// values, with the valid set named) exit 2; runtime errors exit 1.
pub enum CliError {
    Usage(String),
    Runtime(String),
}

/// Usage-error constructor used by the flag-parsing helpers.
pub fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Pulls `--flag VALUE` out of `args`, if present.
pub fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(usage_err(format!("{flag} requires a value"))),
        },
    }
}

/// Refuses every argument of `subcommand` that is not one of its `flags`
/// (given in groups, each flag followed by its value), one of its
/// `switches` or, when it takes one, its single `positional` argument. The
/// error names the flags, so a typo is a usage error instead of a silently
/// ignored setting.
pub fn check_args(
    args: &[String],
    subcommand: &str,
    flags: &[&[&str]],
    switches: &[&str],
    positional: bool,
) -> Result<(), CliError> {
    let mut positional_free = positional;
    let mut rest = args.iter();
    while let Some(arg) = rest.next().map(String::as_str) {
        if flags.iter().any(|group| group.contains(&arg)) {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                return Err(usage_err(format!("{arg} requires a value")));
            }
        } else if positional_free && !arg.starts_with("--") {
            positional_free = false;
        } else if !switches.contains(&arg) {
            let known: Vec<&str> = flags
                .concat()
                .into_iter()
                .chain(switches.iter().copied())
                .collect();
            return Err(usage_err(format!(
                "unexpected argument `{arg}` for {subcommand} (its flags: {})",
                known.join(" ")
            )));
        }
    }
    Ok(())
}

/// Runs a binary's `run` on the process arguments and maps its error to
/// the exit code.
pub fn main(run: fn(&[String]) -> Result<ExitCode, CliError>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
