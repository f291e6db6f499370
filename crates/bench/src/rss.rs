//! The peak-RSS probe of the rigs.
//!
//! Linux keeps the high-water mark of a process's resident set in
//! `/proc/self/status` as `VmHWM`. The counter is monotone for the life
//! of the process, which is why `scale_rig` runs in a process of its own.
//! The probe degrades to `None` off Linux.

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
