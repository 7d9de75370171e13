//! Child processes: timed `pmdbg replay` runs with their peak RSS, and a
//! `pmdbg serve` daemon that is always stopped and reaped.
//!
//! Peak RSS per child needs `wait4`, and a graceful daemon drain needs
//! `SIGTERM`; the standard library offers neither, so both are declared
//! here directly (Linux, 64-bit only).

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pm_serve::Listen;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("pmbench reads child rusage through the 64-bit Linux ABI");

/// `struct timeval` on 64-bit Linux (layout only, never read).
#[allow(dead_code)]
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only the first (`ru_maxrss`, KiB) is read.
#[allow(dead_code)]
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal killed it.
    pub code: Option<i32>,
    /// Peak resident set size in KiB (`ru_maxrss`).
    pub max_rss_kib: u64,
}

/// Reaps `child` with `wait4`, returning its exit code and peak RSS.
///
/// # Errors
///
/// The `wait4` error (other than `EINTR`, which is retried).
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` names our own unreaped child (std never waits on
        // a `Child` unless asked, and nothing else here does), and both
        // out-pointers refer to live, correctly laid out locals.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited = status & 0x7f == 0;
    Ok(Exit {
        code: exited.then_some((status >> 8) & 0xff),
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

fn signal(child: &Child, sig: i32) {
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: plain syscall on our own child's pid; failure (already
        // exited) is harmless and ignored.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// One finished `pmdbg replay`.
#[derive(Debug)]
pub struct Replay {
    /// Spawn to reap.
    pub wall: Duration,
    /// Exit code and peak RSS.
    pub exit: Exit,
    /// Everything the replay printed on stdout.
    pub stdout: String,
}

/// Runs `pmdbg replay` over `trace` and times it from spawn to reap.
///
/// # Errors
///
/// Spawn, read or wait failures.
pub fn replay(
    pmdbg: &Path,
    trace: &Path,
    model: &str,
    threads: usize,
    metrics: Option<&Path>,
) -> io::Result<Replay> {
    let mut cmd = Command::new(pmdbg);
    cmd.arg("replay").arg("--trace").arg(trace).args([
        "--model",
        model,
        "--threads",
        &threads.to_string(),
    ]);
    if let Some(path) = metrics {
        cmd.arg("--metrics").arg(path);
    }
    let start = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).stdin(Stdio::null()).spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let exit = reap(child)?;
    let wall = start.elapsed();
    read?;
    Ok(Replay { wall, exit, stdout })
}

/// A running `pmdbg serve`. Dropping it kills and reaps the process;
/// [`Daemon::stop`] drains it gracefully instead.
pub struct Daemon {
    child: Option<Child>,
    /// Where it listens.
    pub listen: Listen,
}

/// Longest a daemon may take to answer its first `STATS`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    /// Spawns `pmdbg serve` on the unix socket `socket` and waits until it
    /// answers `STATS`. Returns the daemon and its set-up time: spawn to
    /// bound socket, which the daemon creates only after journal recovery.
    /// (The first answer comes 0-10 ms later, at the accept loop's next
    /// poll; timing to it made the set-up median flip between two modes.)
    ///
    /// # Errors
    ///
    /// Spawn failure, or the daemon exiting or staying silent.
    pub fn start(
        pmdbg: &Path,
        socket: &Path,
        model: &str,
        journal: Option<&Path>,
        log: &Path,
    ) -> io::Result<(Daemon, Duration)> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(pmdbg);
        cmd.arg("serve")
            .arg("--listen")
            .arg(socket)
            .args(["--model", model]);
        match journal {
            Some(dir) => cmd.arg("--journal-dir").arg(dir),
            None => cmd.arg("--no-journal"),
        };
        let log = std::fs::File::create(log)?;
        let start = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            listen: Listen::Unix(PathBuf::from(socket)),
        };
        let mut bound = None;
        loop {
            if bound.is_none() && socket.exists() {
                bound = Some(start.elapsed());
            }
            if let Some(ready) = bound {
                if pm_serve::fetch_stats(&daemon.listen).is_ok_and(|s| s.starts_with('{')) {
                    return Ok((daemon, ready));
                }
            }
            let child = daemon.child.as_mut().expect("running daemon");
            if let Some(status) = child.try_wait()? {
                daemon.child = None;
                return Err(io::Error::other(format!(
                    "pmdbg serve exited early: {status}"
                )));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("pmdbg serve never answered STATS"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak RSS so far (`VmHWM` from `/proc/<pid>/status`), in KiB.
    ///
    /// # Errors
    ///
    /// When the status file cannot be read or has no `VmHWM` row.
    pub fn vm_hwm_kib(&self) -> io::Result<u64> {
        let pid = self.child.as_ref().expect("running daemon").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `SIGTERM` (graceful drain) and reaps the daemon.
    ///
    /// # Errors
    ///
    /// The `wait4` error.
    pub fn stop(mut self) -> io::Result<Exit> {
        let child = self.child.take().expect("running daemon");
        signal(&child, SIGTERM);
        reap(child)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            signal(&child, SIGKILL);
            let _ = reap(child);
        }
    }
}
