//! What the numbers were measured on, and the process counters read
//! from `/proc`: CPU time and peak resident memory of this process.

use serde_json::{Map, Value};
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/self/stat`. It is 100 on every
/// Linux userspace ABI; reading it properly needs `sysconf`, which needs
/// `unsafe`, which this repository's linter forbids.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process has consumed, all threads.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name (field 2) may hold spaces; fields resume after ')'
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after ')'
    (field(11) + field(12)) / CLK_TCK
}

/// Bring glibc's malloc to the thresholds a long-lived process ends up
/// with, before anything is timed. Freeing a block that was served by
/// `mmap` raises the mmap threshold to that block's size (up to 32 MiB)
/// and the trim threshold to twice that, for the rest of the process's
/// life; below them, every large buffer is mapped, page-faulted in and
/// unmapped again. Which block a workload frees first — and so whether
/// its process spends its life faulting pages or reusing its heap — is
/// decided by two threads racing during set-up: `store_lifecycle` ran
/// with 200 k page faults or 630 k, latencies 6 % apart, and
/// `followup_churn` 4 % apart, on the same seed. Freeing one block just
/// under the cap is that ratchet's last step, taken at once. No page of
/// the block is touched.
pub fn settle_allocator() {
    const BLOCK: usize = (32 << 20) - (64 << 10);
    drop(std::hint::black_box(vec![0u8; BLOCK]));
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str], envs: &[(&str, &Path)]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// The file system type `dir` lives on, by longest mount-point prefix in
/// `/proc/mounts`.
fn fs_type_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The machine fingerprint stored in every result file. `scratch` is the
/// directory stores and journals are written to: when it is tmpfs the
/// fsync figures are the sandbox's, not a device's.
pub fn fingerprint(scratch: &Path, seed: u64, table_hash: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    // the ceiling keeps git inside the checkout when it is not a repository
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let scratch_fs = fs_type_of(scratch);
    let mut m = Map::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    m.insert("nproc".into(), Value::UInt(nproc as u64));
    m.insert("cpu_model".into(), Value::String(cpu_model));
    m.insert("kernel".into(), Value::String(kernel));
    m.insert(
        "rustc".into(),
        Value::String(command_line("rustc", &["-V"], &[])),
    );
    m.insert(
        "git_commit".into(),
        Value::String(command_line(
            "git",
            &["rev-parse", "HEAD"],
            &[("GIT_CEILING_DIRECTORIES", &ceiling)],
        )),
    );
    m.insert(
        "scratch_is_tmpfs".into(),
        Value::Bool(scratch_fs == "tmpfs"),
    );
    m.insert("scratch_fs".into(), Value::String(scratch_fs));
    m.insert("seed".into(), Value::UInt(seed));
    m.insert(
        "op_table_hash".into(),
        Value::String(format!("{table_hash:016x}")),
    );
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_read_something_plausible() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= before);
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn fingerprint_has_every_field() {
        let fp = fingerprint(Path::new("."), 7, 0xabc);
        let m = fp.as_object().unwrap();
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "git_commit",
            "scratch_is_tmpfs",
            "scratch_fs",
            "seed",
            "op_table_hash",
        ] {
            assert!(m.contains_key(key), "{key}");
        }
        assert_eq!(m["seed"], Value::UInt(7));
        assert_eq!(m["op_table_hash"], Value::String("0000000000000abc".into()));
    }
}
