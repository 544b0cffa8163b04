//! What the benchmark reads from the host: process CPU time, peak resident
//! set, and the fingerprint stamped into every results file.

use std::process::Command;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Identifies the machine state a results file was measured under. Numbers
/// from two files are comparable only when everything but `load1` agrees.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// `git rev-parse HEAD` plus `-dirty` when the tree has changes;
    /// `unknown` outside a git checkout.
    pub git_commit: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Logical CPUs available to this process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// 1-minute load average, 0 when `/proc/loadavg` is unreadable.
pub fn load1() -> f64 {
    read_trimmed("/proc/loadavg")
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// The warning printed before a run on a busy host, if it is busy: timings
/// taken while other work competes for the cores are not comparable.
pub fn load_warning(load1: f64, nproc: usize) -> Option<String> {
    (load1 > 0.5 * nproc as f64).then(|| {
        format!(
            "WARNING: 1-minute load average {load1:.2} exceeds half of {nproc} CPUs \
             — timings from this run are NOT comparable"
        )
    })
}

impl Fingerprint {
    /// Reads the fingerprint of the current host and checkout.
    pub fn read() -> Self {
        let unknown = || "unknown".to_string();
        let git_commit =
            command_line("git", &["rev-parse", "HEAD"]).map_or_else(
                unknown,
                |c| match command_line("git", &["status", "--porcelain"]) {
                    Some(s) if !s.is_empty() => format!("{c}-dirty"),
                    _ => c,
                },
            );
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Fingerprint {
            git_commit,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            nproc: nproc() as u64,
            cpu_model,
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
            load1: load1(),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; `None` when
/// `/proc/self/status` does not carry it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(user, system)` CPU time of this process, all threads, from
/// `/proc/self/stat`. The kernel reports clock ticks; `USER_HZ` is 100 on
/// every Linux ABI, so the resolution is 10 ms — enough for the user/system
/// split over a whole run, too coarse for a single repetition (see
/// [`process_cpu`]).
pub fn cpu_user_sys() -> Option<(Duration, Duration)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((Duration::from_millis(utime * 10), Duration::from_millis(stime * 10)))
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cputime {
    use std::time::Duration;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu() -> Option<Duration> {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` writes one `struct timespec` through the
        // pointer, which is valid and exclusively borrowed for the call; on
        // 64-bit Linux that struct is two 64-bit integers, as `Timespec`
        // declares. libc is always linked by `std` on this target.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }
}

/// CPU time consumed by this process so far, user plus system, over all of
/// its threads including ones that have exited, at nanosecond resolution.
/// Falls back to the 10 ms ticks of [`cpu_user_sys`] off 64-bit Linux.
pub fn process_cpu() -> Duration {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    if let Some(d) = cputime::process_cpu() {
        return d;
    }
    cpu_user_sys().map_or(Duration::ZERO, |(u, s)| u + s)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `cpusetsize` bytes through the
        // pointer, and `set` is exactly that many, exclusively borrowed for
        // the call. pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: the kernel reads `cpusetsize` bytes through the pointer,
        // and `set` is exactly that many, borrowed for the call.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
}

/// Keeps the calling thread — and every thread it spawns meanwhile — on one
/// CPU until dropped, then restores the affinity it found. Does nothing
/// where the affinity calls are unavailable or refused.
#[derive(Debug)]
pub struct OneCpu {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    restore: Option<affinity::CpuSet>,
}

impl OneCpu {
    /// Pins to the lowest-numbered CPU the thread may run on.
    pub fn pin() -> Self {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let restore = affinity::get().filter(|allowed| {
                let mut one: affinity::CpuSet = [0; 16];
                allowed.iter().position(|w| *w != 0).is_some_and(|i| {
                    one[i] = 1 << allowed[i].trailing_zeros();
                    affinity::set(&one)
                })
            });
            OneCpu { restore }
        }
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        OneCpu {}
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let Some(set) = &self.restore {
            affinity::set(set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_warning_fires_above_half_the_cores() {
        assert!(load_warning(1.01, 2).is_some());
        assert!(load_warning(1.0, 2).is_none());
        assert!(load_warning(0.2, 1).is_none());
        assert!(load_warning(3.0, 2).unwrap().starts_with("WARNING"));
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu();
        let mut x = 1u64;
        while process_cpu() - before < Duration::from_millis(20) {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        // The tick counters cover the whole process at 10 ms resolution, so
        // they have seen at least the 20 ms just burnt, give or take a tick.
        let (user, sys) = cpu_user_sys().expect("/proc/self/stat is readable on Linux");
        assert!(user + sys >= Duration::from_millis(10));
    }

    #[test]
    fn one_cpu_pins_and_restores() {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let cpus = |set: affinity::CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
            let before = affinity::get().expect("affinity is readable on Linux");
            {
                let _pin = OneCpu::pin();
                assert_eq!(cpus(affinity::get().unwrap()), 1);
            }
            assert_eq!(affinity::get().unwrap(), before);
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("VmHWM is present on Linux") > 0.0);
    }

    #[test]
    fn fingerprint_reads_without_panicking() {
        let f = Fingerprint::read();
        assert!(f.nproc >= 1);
        assert!(!f.kernel.is_empty());
    }
}
