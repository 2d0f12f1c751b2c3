//! Host-side process facts: `/proc` parsers, environment scrubbing and
//! the provenance recorded with every result.

use std::process::Command;

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`, ...).
pub fn status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The CPUs of `Cpus_allowed_list` in `/proc/<pid>/status`
/// (`"0-1,4"` → `[0, 1, 4]`).
pub fn cpus_allowed(status: &str) -> Vec<usize> {
    let Some(list) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// CPU time and thread count from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub threads: u64,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`: state is field 3, utime 14, stime 15, num_threads 20.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse().ok();
    Some(ProcStat {
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
        threads: field(20)?,
    })
}

fn read_self(file: &str) -> String {
    std::fs::read_to_string(format!("/proc/self/{file}")).unwrap_or_default()
}

/// Peak resident set of this process in MB (`VmHWM`); 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    status_kb(&read_self("status"), "VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn self_cpus_allowed() -> Vec<usize> {
    cpus_allowed(&read_self("status"))
}

/// User and system CPU seconds of this process (`USER_HZ` is 100 on
/// every Linux ABI).
pub fn cpu_seconds() -> (f64, f64) {
    parse_stat(&read_self("stat")).map_or((0.0, 0.0), |s| {
        (s.utime_ticks as f64 / 100.0, s.stime_ticks as f64 / 100.0)
    })
}

/// Removes every `STRANGE_*` variable and returns the names removed.
/// `Design::config_scaled` reads perf toggles from the environment and
/// the harness reads thread and shard counts, so a stray variable would
/// silently measure a different program. Call before any thread starts.
pub fn scrub_strange_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STRANGE_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout (the
/// acceptance driver's checkout is not a repository).
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tstrange-benchmark\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  112040 kB\nVmSize:\t  100000 kB\nVmHWM:\t   41224 kB\nVmRSS:\t   39000 kB\n\
        Threads:\t3\nCpus_allowed:\t13\nCpus_allowed_list:\t0-1,4\nMems_allowed_list:\t0\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(41224));
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(39000));
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        // A prefix of another field's name must not match it.
        assert_eq!(status_kb(STATUS, "Vm"), None);
        assert_eq!(status_kb("", "VmHWM"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(cpus_allowed(STATUS), vec![0, 1, 4]);
        assert_eq!(cpus_allowed("Cpus_allowed_list:\t3\n"), vec![3]);
        assert!(cpus_allowed("Name:\tx\n").is_empty());
    }

    #[test]
    fn stat_survives_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 500 0 0 0 731 19 0 0 20 0 3 0 \
                    100 1000 10 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(stat),
            Some(ProcStat {
                utime_ticks: 731,
                stime_ticks: 19,
                threads: 3
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
            assert!(!self_cpus_allowed().is_empty());
        }
    }

    #[test]
    fn scrubbing_removes_only_strange_variables() {
        // The only test in this binary that touches the environment.
        std::env::set_var("STRANGE_PROBE_CACHE", "0");
        std::env::set_var("STRANGE_THREADS", "7");
        std::env::set_var("NOT_STRANGE_AT_ALL", "kept");
        let mut removed = scrub_strange_env();
        removed.sort();
        assert_eq!(removed, ["STRANGE_PROBE_CACHE", "STRANGE_THREADS"]);
        assert!(std::env::var_os("STRANGE_PROBE_CACHE").is_none());
        assert!(std::env::var_os("STRANGE_THREADS").is_none());
        assert_eq!(std::env::var("NOT_STRANGE_AT_ALL").as_deref(), Ok("kept"));
        assert!(scrub_strange_env().is_empty());
    }
}
