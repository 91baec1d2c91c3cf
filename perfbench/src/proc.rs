//! What the operating system reports about this process and its files.

use std::path::Path;

/// User + system CPU time of the whole process — every thread, including
/// ones that already exited — in ns. `/proc/self/stat` carries the same sum
/// in 10 ms ticks, which is a whole pass of the short workloads; this is the
/// scheduler's own nanosecond count. 0 if the clock cannot be read.
pub fn process_cpu_ns() -> u64 {
    use std::ffi::{c_int, c_long};
    /// `struct timespec` of 64-bit Linux: `time_t` and `long` are both 64-bit.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const _: () = assert!(std::mem::size_of::<c_long>() == 8);
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout the
    // C library expects on this target (asserted above), and
    // `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of the process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
