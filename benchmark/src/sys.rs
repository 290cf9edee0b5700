//! What the benchmark reads from the operating system: per-thread CPU
//! time, `/proc/<pid>/stat` CPU ticks and `/proc/<pid>/status` peak RSS,
//! and an allocation counter for the bench's own threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // Declared here because the container bakes in no libc crate; both
    // symbols are in the C library every `std` binary links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;

/// CPU time the calling thread has consumed, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and CLOCK_THREAD_CPUTIME_ID is a clock Linux always has.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Pins the calling thread (and every thread or process it later starts)
/// to one core, `slot` modulo the cores there are. Async-signal-safe: one
/// syscall, so it may run between `fork` and `exec`.
///
/// Every live workload pins client `c` and daemon `c` to the same core.
/// On the two-core reference VM the alternative — the scheduler placing a
/// client and the daemon it talks to on different cores now and then —
/// makes each request wake a halted virtual CPU (~55 µs, seven times the
/// whole cached request), and `hot-read` then flips between 30 k and
/// 230 k requests a second from run to run. A failure to pin is ignored:
/// the numbers get noisier, not wrong.
pub fn pin_to_core(slot: usize, cores: usize) {
    let mask: u64 = 1 << (slot % cores.clamp(1, 64));
    // SAFETY: `mask` is a valid 8-byte CPU set for the duration of the
    // call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Cores this process may run on (2 on the reference machine).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Kernel clock ticks per second (the unit of `/proc/<pid>/stat` times).
pub fn clock_ticks_per_s() -> u64 {
    // SAFETY: sysconf takes no pointers.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(hz).ok().filter(|&h| h > 0).unwrap_or(100)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_status_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU milliseconds process `pid` has consumed (user + system).
pub fn process_cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 * 1000.0 / clock_ticks_per_s() as f64)
}

/// Peak resident set of process `pid`, in MB (10^6 bytes).
pub fn process_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_vm_hwm_kib(&status)? as f64 * 1024.0 / 1e6)
}

/// Resets this process's peak resident set to what it holds now, so a
/// workload that runs after others in one process reports its own peak.
/// Best effort: where the kernel refuses, the peak stays the process's.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

thread_local! {
    // Const-initialised and without a destructor, so touching it inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocations, so a
/// replay or the single-threaded simulator can report exact
/// allocations per call. Per-thread, so the load generator and hosted
/// daemons never contend on it.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter increment.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (including reallocations) the calling thread has made.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (moarad) S 1 4242 4242 0 -1 4194560 312 0 0 0 17 5 0 0 20 0 9 0 \
                    1234 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(22));
        let hostile = stat.replace("(moarad)", "(a) b (c d))");
        assert_eq!(parse_stat_cpu_ticks(&hostile), Some(22));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tmoarad\nVmPeak:\t  999 kB\nVmHWM:\t    7316 kB\nVmRSS:\t 7000 kB\n";
        assert_eq!(parse_status_vm_hwm_kib(status), Some(7316));
        assert_eq!(parse_status_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable_and_clocks_advance() {
        let pid = std::process::id();
        assert!(process_peak_rss_mb(pid).unwrap() > 0.5);
        assert!(process_cpu_ms(pid).is_some());
        let (c0, a0) = (thread_cpu_ns(), thread_allocs());
        let v: Vec<u64> = (0..200_000).collect();
        assert!(std::hint::black_box(v).len() == 200_000);
        assert!(thread_cpu_ns() > c0);
        // Only true once main.rs installs CountingAlloc, which the test
        // binary shares.
        assert!(thread_allocs() > a0);
    }
}
