//! Peak-RSS probes for the rigs and the experiment harness.
//!
//! Linux keeps the high-water mark of a process's resident set in
//! `/proc/self/status` as `VmHWM`. The counter is monotone for the life
//! of the process, which is why E18 runs in a child process of its
//! own; `reset_peak` (writing `5` to `/proc/self/clear_refs`)
//! is the best-effort in-process fallback. Both probes degrade to `None`
//! / `false` off Linux so the harness stays portable.

/// Peak resident set size of the current process in kilobytes, or `None`
/// when the platform does not expose it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the peak-RSS counter so the next `peak_rss_kb` reading covers
/// only work done after this call. Best effort: returns `false` when the
/// kernel interface is unavailable (non-Linux, restricted /proc).
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123_456));
        assert_eq!(parse_vm_hwm("Name:\tbench\n"), None);
    }

    #[test]
    fn live_reading_is_plausible_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            // The test binary resident set is at least a megabyte and
            // comfortably under the 128 GB of the largest CI box.
            assert!(kb > 1_024, "peak {kb} kB implausibly small");
            assert!(kb < 128 * 1024 * 1024, "peak {kb} kB implausibly large");
        }
    }
}
