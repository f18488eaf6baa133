//! Process and machine facts read from `/proc`: the RSS high-water mark,
//! CPU times, and the fingerprint every result records.

use std::fs;

extern "C" {
    /// glibc: returns free heap memory to the kernel; 1 if any was released.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Returns the heap's free memory to the kernel, so the RSS that follows
/// counts live data, not garbage earlier work left in the allocator.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes a plain integer, touches only the
    // allocator's own free lists under its locks, and is safe to call at
    // any time from any thread.
    unsafe { malloc_trim(0) };
}

/// Resets this process's RSS high-water mark (`VmHWM`) to its current RSS,
/// so a later [`peak_rss_mb`] covers only what happens after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the RSS high-water mark: {e}"))
}

/// A `kB` line of `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {key} line in /proc/self/status"))
}

/// This process's RSS high-water mark, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// This process's current RSS, MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// This process's `(user, system)` CPU seconds so far, all threads.
pub fn cpu_times_s() -> Result<(f64, f64), String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .map(|t| t / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)?, tick(12)?))
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Online CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_here() {
        trim_heap();
        reset_peak_rss().unwrap();
        let before = peak_rss_mb().unwrap();
        // touch 64 MiB so the high-water mark must rise
        let v = vec![1u8; 64 << 20];
        std::hint::black_box(&v);
        let after = peak_rss_mb().unwrap();
        assert!(after >= before + 32.0, "{before} -> {after}");
        let (u, s) = cpu_times_s().unwrap();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
