//! Everything that reads Linux `/proc`. The parsers take the file text,
//! so they are tested without a `/proc`; on another OS the readers
//! return an error that names what is missing instead of a zero.

use std::fmt;

#[derive(Debug)]
pub struct ProcError(String);

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (the host metrics cpu_us_per_op, peak_rss_mib and proc.* need Linux /proc)",
            self.0
        )
    }
}

/// Kernel clock ticks per second of `utime`/`stime` in `/proc/*/stat`.
/// `USER_HZ` is 100 on every Linux ABI; reading it properly needs
/// `sysconf`, which would need a libc binding this package avoids.
const USER_HZ: f64 = 100.0;

/// CPU seconds `(user, system)` of the whole process, every thread.
pub fn parse_stat_cpu(stat: &str) -> Result<(f64, f64), ProcError> {
    // The command name (field 2) is in parentheses and may hold spaces
    // or parentheses itself: fields are counted after the LAST ')'.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| ProcError("/proc/self/stat: no ')' after the command name".into()))?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let tick = |n: usize| -> Result<f64, ProcError> {
        fields
            .get(n - 3)
            .and_then(|s| s.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| ProcError(format!("/proc/self/stat: field {n} is not a number")))
    };
    Ok((tick(14)?, tick(15)?))
}

/// One `Name:   value [kB]` line of `/proc/self/status`, as a number.
pub fn parse_status_field(status: &str, name: &str) -> Result<u64, ProcError> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .ok_or_else(|| ProcError(format!("/proc/self/status: no numeric {name} line")))
}

fn read(path: &str) -> Result<String, ProcError> {
    std::fs::read_to_string(path).map_err(|e| ProcError(format!("cannot read {path}: {e}")))
}

/// Process CPU seconds `(user, system)` so far.
pub fn cpu_seconds() -> Result<(f64, f64), ProcError> {
    parse_stat_cpu(&read("/proc/self/stat")?)
}

/// Peak resident set size of the process, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Result<u64, ProcError> {
    Ok(parse_status_field(&read("/proc/self/status")?, "VmHWM")? * 1024)
}

/// Current resident set size, bytes (`VmRSS`).
pub fn rss_bytes() -> Result<u64, ProcError> {
    Ok(parse_status_field(&read("/proc/self/status")?, "VmRSS")? * 1024)
}

/// Voluntary context switches of the main thread: each is a blocking
/// system call that slept (a socket read waiting for its reply), the
/// stand-in for a syscall count where no tracer is available.
pub fn voluntary_ctxt_switches() -> Result<u64, ProcError> {
    parse_status_field(&read("/proc/self/status")?, "voluntary_ctxt_switches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat =
            "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 1234 567 0 0 20 0 3 0 999 1 2";
        assert_eq!(parse_stat_cpu(stat).unwrap(), (12.34, 5.67));
        assert!(parse_stat_cpu("no parens here").is_err());
        assert!(parse_stat_cpu("1 (x) R 1 2").is_err());
    }

    #[test]
    fn status_fields_parse_with_units() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\nvoluntary_ctxt_switches:\t77\nnonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM").unwrap(), 2048);
        assert_eq!(parse_status_field(status, "VmRSS").unwrap(), 1024);
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches").unwrap(),
            77
        );
        let err = parse_status_field(status, "VmSwap")
            .unwrap_err()
            .to_string();
        assert!(err.contains("VmSwap") && err.contains("Linux /proc"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_proc_reads_are_sane() {
        let (u, s) = cpu_seconds().unwrap();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_bytes().unwrap() >= rss_bytes().unwrap() / 2);
    }
}
