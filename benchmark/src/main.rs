//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! strange-benchmark --workload W --seed N --seconds S --trace 0|1
//! strange-benchmark [--seed N] [--seconds S] [--traced] [--repeat K]
//! strange-benchmark compare A.json B.json
//! ```

mod bench;
mod json;
mod layers;
mod matrix;
mod proc;
mod report;
mod run;
mod server;
mod service;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::Command;

use bench::Handoff;

type Flags = BTreeMap<String, String>;

const DEFAULT_SEED: u64 = 2022;
/// Set on the re-executed, pinned process: the CPU it was pinned to.
const PINNED_ENV: &str = "BENCH_PINNED_CPU";
/// Numbers the unpinned parent hands to its pinned child, `k=v;k=v`.
const HANDOFF_ENV: &str = "BENCH_HANDOFF";

fn usage() -> i32 {
    eprintln!(
        "usage: run.sh --workload W --seed N --seconds S --trace 0|1   one workload\n       \
         run.sh [--seed N] [--seconds S] [--traced] [--repeat K]   all of them\n       \
         run.sh compare A.json B.json"
    );
    2
}

/// `--flag value` pairs plus bare `--traced`.
fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--")?;
        let value = if name == "traced" {
            "1".into()
        } else {
            it.next()?.clone()
        };
        flags.insert(name.to_string(), value);
    }
    Some(flags)
}

fn seed_flag(flags: &Flags) -> Option<u64> {
    flags
        .get("seed")
        .map_or(Some(DEFAULT_SEED), |s| s.parse().ok())
}

/// `--seconds`, defaulting to the contract's `run_seconds`.
fn seconds_flag(flags: &Flags) -> Option<f64> {
    match flags.get("seconds") {
        Some(s) => s.parse().ok().filter(|s: &f64| s.is_finite() && *s >= 0.0),
        None => Some(spec::Spec::embedded().run_seconds),
    }
}

/// `server_closed` and `fleet_churn` are measured pinned to one CPU:
/// unpinned, the same closed loop reads anywhere between one and five
/// times its pinned wall time (cross-core futex wake-ups).
fn wants_pinning(workload: &str) -> bool {
    matches!(workload, "server_closed" | "fleet_churn")
}

fn encode_handoff(handoff: &Handoff) -> String {
    handoff
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn decode_handoff(text: &str) -> Handoff {
    text.split(';')
        .filter_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Measures what must be measured unpinned, then re-executes this
/// process under `taskset -c <cpu>` and waits for it. Returns `None`
/// when pinning is unavailable, and the caller measures unpinned.
fn run_pinned(opts: &run::Options, args: &[String]) -> Option<i32> {
    let cpu = *proc::self_cpus_allowed().last()?;
    Command::new("taskset").arg("--version").output().ok()?;
    let mut handoff = Handoff::new();
    handoff.insert("host.nproc".into(), proc::nproc() as f64);
    if opts.trace {
        match opts.workload.as_str() {
            "server_closed" => {
                let wall = server::server_unpinned_wall_s(opts.seed, proc::nproc());
                handoff.insert("server.unpinned_wall_s".into(), wall);
            }
            _ => {
                handoff.insert(
                    "fleet.scaleout_ratio".into(),
                    server::fleet_scaleout_ratio(opts.seed),
                );
            }
        }
    }
    let status = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(std::env::current_exe().ok()?)
        .args(args)
        .env(PINNED_ENV, cpu.to_string())
        .env(HANDOFF_ENV, encode_handoff(&handoff))
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

fn single(flags: &Flags, args: &[String]) -> i32 {
    let parsed = (|| {
        Some(run::Options {
            workload: flags.get("workload")?.clone(),
            seed: seed_flag(flags)?,
            seconds: seconds_flag(flags)?,
            trace: match flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(_) => return None,
            },
        })
    })();
    let Some(opts) = parsed else {
        return usage();
    };
    let pinned_cpu = std::env::var(PINNED_ENV).ok().and_then(|c| c.parse().ok());
    if wants_pinning(&opts.workload) && pinned_cpu.is_none() {
        if let Some(code) = run_pinned(&opts, args) {
            return code;
        }
        eprintln!(
            "taskset is unavailable: measuring {} unpinned",
            opts.workload
        );
    }
    let handoff =
        std::env::var(HANDOFF_ENV).map_or_else(|_| Handoff::new(), |t| decode_handoff(&t));
    run::run(&opts, &handoff, pinned_cpu)
}

fn all(flags: &Flags) -> i32 {
    let parsed = (|| {
        let opts = report::SetOptions {
            seed: seed_flag(flags)?,
            seconds: seconds_flag(flags)?,
            traced: flags.contains_key("traced"),
        };
        let repeat: usize = flags.get("repeat").map_or(Some(1), |r| r.parse().ok())?;
        (flags
            .keys()
            .all(|k| ["seed", "seconds", "traced", "repeat"].contains(&k.as_str()))
            && repeat >= 1)
            .then_some((opts, repeat))
    })();
    let Some((opts, repeat)) = parsed else {
        return usage();
    };
    let mut sets = Vec::new();
    for k in 1..=repeat {
        let suffix = if repeat == 1 {
            String::new()
        } else {
            format!("-{k}")
        };
        match report::run_set(&opts, &suffix) {
            Ok(path) => sets.push(path),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    // Each later set against the first: the benchmark's own bounds,
    // applied to two runs of one program.
    let mut ok = true;
    for later in sets.iter().skip(1) {
        match report::compare(&sets[0].to_string_lossy(), &later.to_string_lossy()) {
            Ok(within) => ok &= within,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    i32::from(!ok)
}

fn main() {
    // Before anything reads the environment or starts a thread.
    let scrubbed = proc::scrub_strange_env();
    if !scrubbed.is_empty() {
        eprintln!("ignoring {}", scrubbed.join(", "));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().is_some_and(|a| a == "compare") {
        match &args[1..] {
            [a, b] => match report::compare(a, b) {
                Ok(within) => i32::from(!within),
                Err(e) => {
                    eprintln!("{e}");
                    2
                }
            },
            _ => usage(),
        }
    } else {
        match parse_flags(&args) {
            Some(flags) if flags.contains_key("workload") => single(&flags, &args),
            Some(flags) => all(&flags),
            None => usage(),
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_round_trips() {
        let mut h = Handoff::new();
        h.insert("host.nproc".into(), 2.0);
        h.insert("server.unpinned_wall_s".into(), 3.437_211_9);
        assert_eq!(decode_handoff(&encode_handoff(&h)), h);
        assert!(decode_handoff("").is_empty());
    }

    #[test]
    fn flags_parse_pairs_and_the_bare_switch() {
        let args: Vec<String> = ["--workload", "fig_pairs", "--traced", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags["workload"], "fig_pairs");
        assert_eq!(flags["traced"], "1");
        assert_eq!(flags["seed"], "7");
        assert!(parse_flags(&["--seed".to_string()]).is_none());
        assert!(parse_flags(&["seed".to_string(), "7".to_string()]).is_none());
    }
}
