//! Process clocks and summary statistics.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!(
    "perfbench calls glibc and reads /proc/self: it supports 64-bit Linux with glibc only"
);

/// `struct timeval` of 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process, every thread included,
/// from `getrusage(RUSAGE_SELF)`.
pub fn process_cpu() -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux (checked by the `compile_error!`
    // above), so getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    let micros = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec) as u64);
    micros(&usage.utime) + micros(&usage.stime)
}

/// Hands the heap's free pages back to the kernel (glibc `malloc_trim(0)`),
/// so that a job's peak resident set excludes what earlier jobs freed.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free; it is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident set.  Returns `false` when the kernel refuses, in which case
/// [`peak_rss_kib`] reports the peak since the process started.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The median of `values` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples above it, with its value, or `None` below eleven samples.
pub fn tail_percentile(values: &[f64]) -> Option<(usize, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 11;
    Some((100 * (rank + 1) / n, sorted[rank]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_above() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let (pct, value) = tail_percentile(&values).expect("20 samples");
        assert_eq!(value, 10.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(pct, 50);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu();
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(acc);
        assert!(process_cpu() > before);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_kib().expect("VmHWM in /proc/self/status") > 0);
    }
}
