//! Child processes measured from outside: exec→exit wall time, user+sys
//! CPU and peak resident set, all from `wait4(2)`, with a wall-clock
//! limit after which the child is killed and counted as failed.
//!
//! Linux only (the `rusage` layout and `/proc/<pid>/stat` are Linux's).

use std::process::{Child, Command};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;

/// How a child ended and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Just before the spawn.
    pub started: Instant,
    /// Spawn to reaped.
    pub wall: Duration,
    /// User + system CPU of the child and the descendants it waited for.
    pub cpu: Duration,
    /// Peak resident set, KiB.
    pub max_rss_kib: u64,
    /// Exit code; `None` when a signal ended the child (the limit's
    /// SIGKILL included).
    pub code: Option<i32>,
    /// The wall-clock limit expired and the child was killed.
    pub timed_out: bool,
}

/// Spawns `cmd`, waits for it with a wall-clock `limit`, and reports its
/// cost. The clock starts just before `spawn`.
pub fn run(cmd: &mut Command, limit: Duration) -> std::io::Result<Exit> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    reap(child, start, limit)
}

/// Waits for an already-running `child` (started at `start`) for at most
/// `limit` from now, then kills it.
pub fn reap(child: Child, start: Instant, limit: Duration) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("pid fits i32");
    // The watchdog sleeps on the channel: a message (or the sender being
    // dropped) means the child was reaped in time.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let expired = done_rx.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout);
        if expired {
            // SAFETY: `kill` takes two integers and touches no memory. The
            // pid is still ours: it is reaped only by the `wait4` below, and
            // a pid freed microseconds ago cannot have been reassigned
            // (Linux hands out pids in increasing order up to `pid_max`).
            unsafe { kill(pid, SIGKILL) };
        }
        expired
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and of the layout
    // wait4(2) documents for 64-bit Linux; `pid` is our own unreaped child.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    let wait_error = std::io::Error::last_os_error();
    drop(done_tx);
    let timed_out = watchdog.join().expect("watchdog thread does not panic");
    // std must not wait for the pid a second time; dropping a `Child`
    // neither waits nor kills.
    drop(child);
    if reaped != pid {
        return Err(wait_error);
    }
    let cpu = |t: &Timeval| Duration::new(t.sec.max(0) as u64, (t.usec.max(0) as u32) * 1000);
    Ok(Exit {
        started: start,
        wall,
        cpu: cpu(&usage.utime) + cpu(&usage.stime),
        max_rss_kib: usage.maxrss.max(0) as u64,
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        timed_out,
    })
}

/// User + system CPU a running process (all threads) has used so far,
/// from `/proc/<pid>/stat`.
pub fn cpu_so_far(pid: u32) -> std::io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .and_then(|fields| fields.map(|f| f.parse::<u64>().ok()).sum())
        .ok_or_else(|| std::io::Error::other("unparsable /proc stat line"))?;
    // SAFETY: `sysconf` takes an integer and returns one.
    let per_sec = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_nanos(ticks * 1_000_000_000 / per_sec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_and_cost() {
        let exit = run(
            Command::new("sh").args(["-c", "exit 3"]),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(exit.code, Some(3));
        assert!(!exit.timed_out);
        assert!(exit.max_rss_kib > 0);
    }

    #[test]
    fn kills_a_child_that_outlives_its_limit() {
        let exit = run(Command::new("sleep").arg("30"), Duration::from_millis(100)).unwrap();
        assert!(exit.timed_out);
        assert_eq!(exit.code, None);
        assert!(exit.wall < Duration::from_secs(5));
    }

    #[test]
    fn reads_own_cpu_time() {
        assert!(cpu_so_far(std::process::id()).is_ok());
    }
}
