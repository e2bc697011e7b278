//! What the operating system and the toolchain say about this process.

use std::process::Command;

/// Peak resident set size of this process so far (`VmHWM`), MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Processor time this process has used so far, user plus system, over all
/// its threads, seconds; 0 where `/proc` does not say.
pub fn cpu_seconds() -> f64 {
    // Linux reports the two fields in clock ticks, and fixes the tick of
    // this interface at 100 per second on every architecture.
    const TICKS_PER_SECOND: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name (field 2) may hold spaces; fields count from
            // the parenthesis that closes it.
            let rest = &stat[stat.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

/// Cores the scheduler gives this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(mut cmd: Command) -> String {
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    let mut cmd = Command::new("rustc");
    cmd.arg("--version");
    first_line_of(cmd)
}

/// `git describe --always --dirty` of the working directory, or
/// `"unknown"` outside a repository. The search for a repository stops at
/// the working directory: the benchmark reads nothing above it.
pub fn git_describe() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["describe", "--always", "--dirty"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line_of(cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() > 0.0);
        assert!(cores() >= 1);
    }
}
