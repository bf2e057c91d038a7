//! Child-process plumbing for the end-to-end runs: spawn with a hard
//! timeout, kill a whole process tree, and sum peak resident memory over a
//! tree from `/proc`.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How often the memory sampler walks the process tree.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// Sends `sig` to process `pid`, or to the whole process group `-pid`.
fn send_signal(pid: i32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: `kill` takes two plain integers and has no memory-safety
    // preconditions; a stale pid only makes it return ESRCH.
    unsafe {
        kill(pid, sig);
    }
}

/// Kills the process group led by `child` (the child and every descendant
/// that did not leave the group) and reaps the child.
pub fn kill_tree(child: &mut Child) {
    send_signal(-(child.id() as i32), SIGKILL);
    let _ = child.kill();
    let _ = child.wait();
}

/// Asks `child` to drain (SIGTERM) and waits up to `timeout` for it to
/// exit; on expiry the whole tree is killed and `None` is returned.
pub fn terminate(child: &mut Child, timeout: Duration) -> Option<ExitStatus> {
    send_signal(child.id() as i32, SIGTERM);
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                kill_tree(child);
                return None;
            }
        }
    }
}

/// Spawns `cmd` as the leader of a fresh process group, so that
/// [`kill_tree`] reaches every descendant.
pub fn spawn_group(cmd: &mut Command) -> std::io::Result<Child> {
    cmd.stdin(Stdio::null()).process_group(0).spawn()
}

/// Every process of the tree rooted at `root` (root first), found through
/// `<proc>/<pid>/task/*/children`. Processes that exit mid-walk are skipped.
pub fn tree_pids(proc_root: &Path, root: u32) -> Vec<u32> {
    let mut out = vec![root];
    let mut next = 0;
    while next < out.len() {
        let pid = out[next];
        next += 1;
        let Ok(tasks) = std::fs::read_dir(proc_root.join(pid.to_string()).join("task")) else {
            continue;
        };
        for task in tasks.flatten() {
            let Ok(children) = std::fs::read_to_string(task.path().join("children")) else {
                continue;
            };
            out.extend(
                children
                    .split_whitespace()
                    .filter_map(|c| c.parse::<u32>().ok()),
            );
        }
    }
    out
}

/// `VmHWM` (peak resident set, kB) of one process, if it is still alive.
pub fn vm_hwm_kb(proc_root: &Path, pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(proc_root.join(pid.to_string()).join("status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Sum of `VmHWM` over the live tree rooted at `root`, in kB.
pub fn tree_hwm_kb(proc_root: &Path, root: u32) -> u64 {
    tree_pids(proc_root, root)
        .into_iter()
        .filter_map(|pid| vm_hwm_kb(proc_root, pid))
        .sum()
}

/// Samples [`tree_hwm_kb`] of `root` every 100 ms until the sender side of
/// `stop` is dropped (or sends) and returns the largest sum seen.
pub fn sample_peak_rss_kb(root: u32, stop: &Receiver<()>) -> u64 {
    let proc_root = Path::new("/proc");
    let mut peak = 0;
    loop {
        peak = peak.max(tree_hwm_kb(proc_root, root));
        if stop.recv_timeout(SAMPLE_EVERY) != Err(RecvTimeoutError::Timeout) {
            return peak;
        }
    }
}

/// What one finished (or killed) child left behind.
pub struct ChildRun {
    /// Exit status; `None` when the child was killed on timeout.
    pub status: Option<ExitStatus>,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Spawn to exit, with stdout fully read.
    pub wall: Duration,
    /// Largest summed `VmHWM` over the child's process tree, kB.
    pub peak_rss_kb: u64,
}

impl ChildRun {
    /// Exited on its own with code 0.
    pub fn ok(&self) -> bool {
        self.status.is_some_and(|s| s.success())
    }
}

/// Runs `cmd` to completion with stdout captured, sampling the memory of
/// its process tree, and kills the tree if it outlives `timeout`.
pub fn run_child(cmd: &mut Command, timeout: Duration) -> std::io::Result<ChildRun> {
    let started = Instant::now();
    let mut child = spawn_group(cmd.stdout(Stdio::piped()))?;
    let pid = child.id();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let (sampler_stop, sampler_rx) = channel::<()>();
    let (watchdog_stop, watchdog_rx) = channel::<()>();
    std::thread::scope(|scope| {
        let sampler = scope.spawn(move || sample_peak_rss_kb(pid, &sampler_rx));
        let watchdog = scope.spawn(move || {
            let expired = watchdog_rx.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout);
            if expired {
                // Killing the group closes the pipe, which unblocks the
                // reader below.
                send_signal(-(pid as i32), SIGKILL);
            }
            expired
        });
        let mut stdout = Vec::new();
        let _ = pipe.read_to_end(&mut stdout);
        let status = child.wait();
        let wall = started.elapsed();
        drop(sampler_stop);
        drop(watchdog_stop);
        let peak_rss_kb = sampler.join().expect("the sampler does not panic");
        let timed_out = watchdog.join().expect("the watchdog does not panic");
        Ok(ChildRun {
            status: (!timed_out).then_some(status?),
            stdout,
            wall,
            peak_rss_kb,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// Builds a fake `/proc` with the given `(pid, children, hwm_kb)` rows.
    fn fake_proc(tag: &str, rows: &[(u32, &str, Option<u64>)]) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "ccfuzz-benchmark-proc-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        for &(pid, children, hwm) in rows {
            let task = root
                .join(pid.to_string())
                .join("task")
                .join(pid.to_string());
            std::fs::create_dir_all(&task).unwrap();
            std::fs::write(task.join("children"), children).unwrap();
            let status = match hwm {
                Some(kb) => {
                    format!("Name:\tx\nVmPeak:\t 999999 kB\nVmHWM:\t{kb:>8} kB\nVmRSS:\t 1 kB\n")
                }
                None => "Name:\tkthread\n".to_string(),
            };
            std::fs::write(root.join(pid.to_string()).join("status"), status).unwrap();
        }
        root
    }

    #[test]
    fn tree_walk_follows_children_files_recursively() {
        let root = fake_proc(
            "walk",
            &[
                (10, "11 12 ", Some(100)),
                (11, "", Some(20)),
                (12, "13", Some(30)),
                (13, "", Some(4)),
                (99, "", Some(1_000_000)), // unrelated process
            ],
        );
        assert_eq!(tree_pids(&root, 10), vec![10, 11, 12, 13]);
        assert_eq!(tree_hwm_kb(&root, 10), 154);
        assert_eq!(tree_hwm_kb(&root, 12), 34);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn vanished_and_memoryless_processes_are_skipped() {
        // 21 is listed as a child but already gone; 22 has no VmHWM line.
        let root = fake_proc("gone", &[(20, "21 22", Some(50)), (22, "", None)]);
        assert_eq!(tree_pids(&root, 20), vec![20, 21, 22]);
        assert_eq!(vm_hwm_kb(&root, 21), None);
        assert_eq!(vm_hwm_kb(&root, 22), None);
        assert_eq!(tree_hwm_kb(&root, 20), 50);
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn run_child_captures_stdout_and_a_nonzero_peak() {
        let run = run_child(
            Command::new("sh").args(["-c", "echo payload; sleep 0.2"]),
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(run.ok());
        assert_eq!(run.stdout, b"payload\n");
        assert!(run.peak_rss_kb > 0);
        assert!(run.wall >= Duration::from_millis(200));
    }

    #[test]
    fn run_child_kills_the_whole_tree_on_timeout() {
        // The shell forks a grandchild that would outlive it by far.
        let started = Instant::now();
        let run = run_child(
            Command::new("sh").args(["-c", "sleep 30 & sleep 30"]),
            Duration::from_millis(300),
        )
        .unwrap();
        assert!(!run.ok());
        assert!(run.status.is_none());
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn terminate_reports_the_exit_status_of_a_drained_child() {
        let mut child = spawn_group(Command::new("sleep").arg("30")).unwrap();
        let status = terminate(&mut child, Duration::from_secs(5)).expect("sleep dies on TERM");
        assert!(!status.success());
    }
}
