//! Peak resident memory from `/proc/<pid>/status`.

use std::io;

/// The peak resident set size (`VmHWM`) of process `pid` — or of this
/// process for `None` — in KiB.
pub fn vm_hwm_kib(pid: Option<u32>) -> io::Result<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path)?;
    parse_vm_hwm(&status).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "no VmHWM line in the status file",
        )
    })
}

/// The `VmHWM:  <n> kB` value of a `/proc/<pid>/status` text.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
