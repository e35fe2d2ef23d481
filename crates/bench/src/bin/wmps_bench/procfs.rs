//! What the kernel says about this process: peak memory and CPU time,
//! read from `/proc/self` so no libc binding is needed.

/// Kernel clock ticks per second for `utime`/`stime`. `USER_HZ` is 100 on
/// every Linux ABI; reading the true value would need `sysconf`.
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set, kB) from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `utime + stime` in clock ticks from the text of `/proc/self/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_whitespace();
    // After the command come state (3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// CPU seconds (user + system) this process has consumed so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / CLK_TCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status =
            "Name:\twmps_bench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime …
        let stat = "4242 (wmps) bench) x) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn this_process_has_memory_and_a_clock() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds().is_some());
    }
}
