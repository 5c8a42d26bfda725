//! Process accounting read from `/proc/self`.

use std::fs;

/// User and system CPU time of the whole process, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime`, field 14 of `/proc/<pid>/stat`.
    pub user: u64,
    /// `stime`, field 15 of `/proc/<pid>/stat`.
    pub sys: u64,
}

impl CpuTicks {
    /// Ticks elapsed since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }
}

impl std::ops::Add for CpuTicks {
    type Output = CpuTicks;

    fn add(self, other: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user + other.user,
            sys: self.sys + other.sys,
        }
    }
}

/// Parses `utime` and `stime` out of a `/proc/<pid>/stat` line. The command
/// name (field 2) is parenthesised and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    // After `)` come fields 3 (state), 4, … so utime (14) is the 12th.
    let mut fields = rest.split_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, sys })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// returning kibibytes.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// Finds the `AT_CLKTCK` entry (type 17) in a native-endian `/proc/self/auxv`
/// image of `(type, value)` word pairs.
pub fn parse_auxv_clk_tck(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: u64 = 17;
    let words: Vec<u64> = auxv
        .chunks_exact(8)
        .map(|c| u64::from_ne_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect();
    words
        .chunks_exact(2)
        .find(|pair| pair[0] == AT_CLKTCK)
        .map(|pair| pair[1])
        .filter(|&hz| hz > 0)
}

/// This process's CPU ticks so far.
pub fn cpu_ticks() -> CpuTicks {
    let line = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("parse /proc/self/stat")
}

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)`), read from the auxiliary
/// vector; 100 when it is unavailable.
pub fn ticks_per_second() -> u64 {
    fs::read("/proc/self/auxv")
        .ok()
        .and_then(|a| parse_auxv_clk_tck(&a))
        .unwrap_or(100)
}

/// Peak resident set size of this process so far, in mebibytes.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}
