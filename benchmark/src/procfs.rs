//! Process CPU time and peak resident set, read from `/proc/self`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; the 10 ms
/// granularity is 0.1% of the shortest timed region.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// Seconds of CPU time the hypervisor has given to someone else while
/// this machine wanted it (`steal`, the eighth number of the `cpu` line
/// of `/proc/stat`), summed over cores.
pub fn parse_steal_seconds(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_ascii_whitespace().nth(8)?.parse().ok()?;
    Some(steal as f64 / TICKS_PER_SEC)
}

/// Stolen CPU seconds since boot; 0 where the kernel reports none.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_seconds(&s))
        .unwrap_or(0.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// This process's peak resident set in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("/proc/self/status is readable on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a) b (c", utime = 1234, stime = 66.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_reported_in_mb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_number_of_the_cpu_line() {
        let stat =
            "cpu  592413 0 136833 1165806 2748 0 26931 47318 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_seconds(stat), Some(473.18));
        assert_eq!(parse_steal_seconds("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal_seconds("intr 1 2 3\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(steal_seconds() >= 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
