//! `pmdbg` binary entry point; all logic lives in the library for testing.
//!
//! Exit-code contract: 0 clean run, 1 bugs (or chaos-sweep invariant
//! violations) found, 2 bad usage or parse/ingest failure,
//! 3 internal error (including a strict-mode shard failure), 4 a
//! supervised run that completed degraded — shards quarantined — without
//! finding bugs in the survivors (bugs dominate: 1 wins over 4).

use std::process::ExitCode;

use pm_cli::ExecError;

/// Signal handler for `pmdbg serve`: flips the library's stop flag (a
/// relaxed atomic store, async-signal-safe) so the serve loop drains
/// in-flight sessions and writes its final manifest before exiting.
extern "C" fn on_shutdown_signal(_signum: i32) {
    pm_cli::request_serve_stop();
}

/// Installs SIGINT/SIGTERM handlers via libc's `signal` (every Rust
/// binary on Linux links libc; no crate dependency needed). Only called
/// for `serve` — other commands keep the default die-on-ctrl-C behavior.
fn install_drain_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match pm_cli::parse(&args) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    if matches!(command, pm_cli::Command::Serve { .. }) {
        install_drain_handlers();
    }
    let mut out = String::new();
    match pm_cli::execute_outcome(command, &mut out) {
        Ok(outcome) => {
            print!("{out}");
            if outcome.bugs_found {
                ExitCode::from(1)
            } else if outcome.degraded {
                ExitCode::from(4)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(err) => {
            print!("{out}");
            eprintln!("error: {err}");
            match err {
                ExecError::Input(_) => ExitCode::from(2),
                ExecError::Internal(_) => ExitCode::from(3),
            }
        }
    }
}
