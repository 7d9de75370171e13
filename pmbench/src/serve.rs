//! Serve workloads, end to end: a `pmdbg serve` daemon and an in-process
//! load generator of at most two threads, each holding at most one
//! connection, tracing off.
//!
//! Phases, all on one daemon: 20 discarded warm-up sessions; the latency
//! phase, open loop at the workload's fixed nominal rate, each session
//! timed from when it was *due*; then two closed-loop capacity phases
//! with one and two connections pushing back to back, in whole passes
//! over the session pool. Finally the daemon is restarted on its journal
//! directory (warm-up and latency-phase sessions only, so the recovery
//! work is the same on every run) to time set-up.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pm_serve::{Listen, PushResponse, SessionStatus};

use crate::proc::Daemon;
use crate::report::{Metric, Tally};
use crate::stats::{median, quantile};
use crate::workload::{Mode, Reference, WARMUP_SESSIONS};
use crate::Ctx;

/// Daemon restarts whose median set-up time (spawn to bound socket) is
/// `setup_s`.
const RESTARTS: usize = 5;

/// Shares of `--seconds` given to each phase.
const LATENCY_SHARE: f64 = 0.4;
const CAPACITY1_SHARE: f64 = 0.3;
const CAPACITY2_SHARE: f64 = 0.3;

/// The session corpus plus where and how to push it.
struct Pool<'a> {
    traces: &'a [Vec<u8>],
    refs: &'a [Reference],
    listen: &'a Listen,
    keyed: bool,
}

/// One finished session.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// Session index within its phase (orders lateness over time).
    index: usize,
    /// Send time, from the start of the phase.
    sent: Duration,
    /// Verdict time, from the start of the phase.
    finished: Duration,
    /// Due (open loop) or send (closed loop) to verdict line.
    latency: Duration,
    /// Send time minus due time (zero in closed loop).
    late: Duration,
    /// Events the verdict covers (0 when the session failed).
    events: u64,
}

/// What a session's response says about its verdict.
enum Verdict {
    Ok,
    Failed(String),
    Mismatch(String),
}

impl Pool<'_> {
    /// Pushes session `index` of phase `phase` and checks its verdict.
    fn push(&self, phase: &str, index: usize) -> (Verdict, u64) {
        let i = index % self.traces.len();
        let want = &self.refs[i];
        let answer = if self.keyed {
            let key = format!("{phase}-{index}");
            pm_serve::push_bytes_keyed(self.listen, &key, &self.traces[i])
        } else {
            pm_serve::push_bytes(self.listen, &self.traces[i])
        };
        let verdict = match answer {
            Err(e) => Verdict::Failed(format!("{phase}-{index}: {e}")),
            Ok(r) => judge(&r, want, &format!("{phase}-{index}")),
        };
        let events = if matches!(verdict, Verdict::Ok) {
            want.events
        } else {
            0
        };
        (verdict, events)
    }
}

fn judge(r: &PushResponse, want: &Reference, label: &str) -> Verdict {
    if r.status != SessionStatus::Ok || r.replayed {
        return Verdict::Failed(format!(
            "{label}: status {} replayed={} error={:?}",
            r.status.name(),
            r.replayed,
            r.error
        ));
    }
    if r.report_hash != want.hash || r.events_committed != want.events {
        return Verdict::Mismatch(format!(
            "{label}: hash {} over {} events, reference {} over {}",
            r.report_hash, r.events_committed, want.hash, want.events
        ));
    }
    Verdict::Ok
}

/// When a load phase stops issuing sessions.
#[derive(Clone, Copy)]
enum Schedule {
    /// Closed loop: issue back to back; once this much time has passed,
    /// finish the current pass over the pool and stop.
    Passes(Duration),
    /// Closed loop: issue exactly this many sessions.
    Count(usize),
    /// Open loop: `count` sessions due `1/rate` seconds apart.
    Rate { rate: f64, count: usize },
}

/// Runs one load phase on `conns` (1 or 2) connections: the calling
/// thread is one worker, a scoped thread the other. Returns the finished
/// sessions in index order.
fn drive(
    pool: &Pool<'_>,
    phase: &str,
    conns: usize,
    schedule: Schedule,
    tally: &Mutex<&mut Tally>,
) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let worker = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if let Schedule::Passes(d) = schedule {
                if start.elapsed() >= d {
                    let boundary = index.next_multiple_of(pool.traces.len());
                    stop_at.fetch_min(boundary, Ordering::Relaxed);
                }
                if index >= stop_at.load(Ordering::Relaxed) {
                    break;
                }
            }
            let due = match schedule {
                Schedule::Count(n) if index >= n => break,
                Schedule::Rate { count, .. } if index >= count => break,
                Schedule::Rate { rate, .. } => {
                    let due = start + Duration::from_secs_f64(index as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    due
                }
                _ => Instant::now(),
            };
            let sent = Instant::now();
            let (verdict, events) = pool.push(phase, index);
            let finished = Instant::now();
            {
                let mut tally = tally.lock().expect("tally lock poisoned");
                match verdict {
                    Verdict::Ok => tally.ok(),
                    Verdict::Failed(why) => tally.failed(why),
                    Verdict::Mismatch(why) => tally.mismatch(why),
                }
            }
            done.push(Done {
                index,
                sent: sent - start,
                finished: finished - start,
                latency: finished - due,
                late: sent.saturating_duration_since(due),
                events,
            });
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let other = (conns > 1).then(|| scope.spawn(worker));
        let mut mine = worker();
        if let Some(handle) = other {
            mine.extend(handle.join().expect("load generator thread panicked"));
        }
        mine
    });
    done.sort_by_key(|d| d.index);
    done
}

fn secs(d: &[Done], f: impl Fn(&Done) -> Duration) -> Vec<f64> {
    d.iter().map(|x| f(x).as_secs_f64()).collect()
}

/// Events per second of each complete pass through the pool in a
/// closed-loop phase (first send to last verdict).
fn passes(done: &[Done], pool: usize) -> Vec<f64> {
    done.chunks_exact(pool)
        .map(|pass| {
            let first = pass.iter().map(|d| d.sent).min().unwrap_or_default();
            let last = pass.iter().map(|d| d.finished).max().unwrap_or_default();
            pass.iter().map(|d| d.events).sum::<u64>() as f64 / (last - first).as_secs_f64()
        })
        .collect()
}

/// Runs the serve measurement and returns the end-to-end metrics.
///
/// # Errors
///
/// File or process errors, or a latency phase that missed its limit.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> io::Result<Vec<Metric>> {
    let Mode::Serve {
        journal,
        nominal_rate,
        latency_limit,
    } = ctx.workload.mode()
    else {
        unreachable!("serve::run on a batch workload");
    };
    let corpus = ctx.dir.join("corpus");
    std::fs::create_dir_all(&corpus)?;
    let (traces, refs) = ctx.workload.corpus(ctx.seed, ctx.scale);
    for (i, bytes) in traces.iter().enumerate() {
        std::fs::write(corpus.join(format!("{i:03}.pmt2")), bytes)?;
    }

    let journal_dir = journal.then(|| ctx.dir.join("journal"));
    let socket = ctx.dir.join("serve.sock");
    let log = ctx.dir.join("serve.log");
    let model = ctx.workload.model_flag();
    let (daemon, _) = Daemon::start(&ctx.pmdbg, &socket, model, journal_dir.as_deref(), &log)?;
    let pool = Pool {
        traces: &traces,
        refs: &refs,
        listen: &daemon.listen,
        keyed: journal,
    };
    let shared = Mutex::new(&mut *tally);
    let seconds = Duration::from_secs_f64(ctx.seconds);

    drive(&pool, "warm", 1, Schedule::Count(WARMUP_SESSIONS), &shared);
    let count = (nominal_rate * seconds.as_secs_f64() * LATENCY_SHARE).round() as usize;
    let latency = drive(
        &pool,
        "lat",
        2,
        Schedule::Rate {
            rate: nominal_rate,
            count: count.max(20),
        },
        &shared,
    );
    let hwm_kib = daemon.vm_hwm_kib()?;
    let cap1 = drive(
        &pool,
        "cap1",
        1,
        Schedule::Passes(seconds.mul_f64(CAPACITY1_SHARE)),
        &shared,
    );
    let cap2 = drive(
        &pool,
        "cap2",
        2,
        Schedule::Passes(seconds.mul_f64(CAPACITY2_SHARE)),
        &shared,
    );
    let exit = daemon.stop()?;
    if !matches!(exit.code, Some(0 | 1)) {
        tally.failed(format!("pmdbg serve exited {:?}", exit.code));
    }

    // Set-up: restart on the journal the warm-up and latency phases left
    // (capacity-phase journals vary with speed, so they go first).
    if let Some(dir) = &journal_dir {
        remove_matching(dir, "cap")?;
    }
    let mut setups = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let (daemon, ready) =
            Daemon::start(&ctx.pmdbg, &socket, model, journal_dir.as_deref(), &log)?;
        setups.push(ready.as_secs_f64());
        daemon.stop()?;
    }
    if let Some(dir) = &journal_dir {
        std::fs::remove_dir_all(dir)?;
    }

    let lat = secs(&latency, |d| d.latency);
    let late = secs(&latency, |d| d.late);
    let p50 = median(&lat);
    let p90 = quantile(&lat, 9, 10);
    let tail = latency.len().div_ceil(10).max(10).min(latency.len());
    let final_late = median(&late[late.len() - tail..]);
    let max_late = late.iter().copied().fold(0.0, f64::max);
    let (pass1, pass2) = (passes(&cap1, traces.len()), passes(&cap2, traces.len()));
    let mev = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.2}", x / 1e6))
            .collect::<Vec<_>>()
    };
    eprintln!(
        "pmbench: latency phase {} sessions at {nominal_rate}/s: p50 {:.2} ms, p90 {:.2} ms \
         (limit {} ms), p99 {:.2} ms; generator late by {:.2} ms at most, {:.2} ms at the end; \
         capacity {} + {} sessions ({} per pass; Mev/s per pass: {:?} on 1 connection, {:?} on 2)",
        latency.len(),
        p50 * 1e3,
        p90 * 1e3,
        latency_limit.as_millis(),
        quantile(&lat, 99, 100) * 1e3,
        max_late * 1e3,
        final_late * 1e3,
        cap1.len(),
        cap2.len(),
        traces.len(),
        mev(&pass1),
        mev(&pass2)
    );
    if p90 > latency_limit.as_secs_f64() || final_late > p50 {
        return Err(io::Error::other(format!(
            "latency phase missed its limit: p90 {:.2} ms (limit {} ms), final lateness {:.2} ms vs p50 {:.2} ms",
            p90 * 1e3,
            latency_limit.as_millis(),
            final_late * 1e3,
            p50 * 1e3
        )));
    }
    Ok(vec![
        Metric::new(
            "throughput_mev_s",
            "Mev/s",
            pass1.iter().copied().fold(0.0, f64::max) / 1e6,
        ),
        Metric::new(
            "parallel_mev_s",
            "Mev/s",
            pass2.iter().copied().fold(0.0, f64::max) / 1e6,
        ),
        Metric::new("latency_ms", "ms", p50 * 1e3),
        Metric::new("rss_mib", "MiB", hwm_kib as f64 / 1024.0),
        Metric::new("setup_s", "s", median(&setups)),
    ])
}

/// Removes the files in `dir` whose names start with `prefix`.
fn remove_matching(dir: &Path, prefix: &str) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(prefix) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}
