//! One workload, one process: set-up repetitions, the accounting round,
//! timed rounds for `--seconds`, output checks, and (traced) the
//! per-layer numbers. Prints every metric, writes the record, and ends
//! with the one-line result the acceptance driver reads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::bench::{Handoff, Round, Values, Workload};
use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::trace::{by_name, NameStats, Tracer};
use crate::{layers, matrix, proc, server, service, stats};

pub const OUT_DIR: &str = "benchmark/out";

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up is repeated this often before the first round and after every
/// timed round, and the median of all repetitions is reported: spread
/// over the run, a short host hiccup cannot move it.
const SETUP_REPS_FIRST: usize = 15;
const SETUP_REPS_PER_ROUND: usize = 5;
const MIN_ROUNDS: usize = 3;
/// A traced run spends its time on the per-layer numbers; two untraced
/// rounds give the overhead ratio its base.
const TRACED_ROUNDS: usize = 2;

pub fn workload(name: &str, seed: u64, nproc: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fig_pairs" => Box::new(matrix::fig_pairs(seed)),
        "multicore8" => Box::new(matrix::multicore8(seed)),
        "svc_saturated" => Box::new(service::svc_saturated(seed)),
        "svc_buffered" => Box::new(service::svc_buffered(seed)),
        "server_closed" => Box::new(server::server_closed(seed, nproc)),
        "fleet_churn" => Box::new(server::fleet_churn(seed)),
        _ => return None,
    })
}

pub fn record_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{workload}{}.json",
        if trace { ".traced" } else { "" }
    ))
}

enum SpanStat {
    /// Summed self time, seconds.
    SelfS,
    P50Us,
    P99Us,
}

/// Per-layer times read off the traced round's spans.
const SPAN_METRICS: &[(&str, &str, SpanStat)] = &[
    ("workloads.gen_s", "workloads.gen", SpanStat::SelfS),
    ("system.new_s", "system.new", SpanStat::SelfS),
    ("system.run_s", "system.run", SpanStat::SelfS),
    (
        "metrics.percentile_s",
        "metrics.percentile",
        SpanStat::SelfS,
    ),
    ("server.start_s", "server.start", SpanStat::SelfS),
    (
        "server.open_session_us_p50",
        "server.open_session",
        SpanStat::P50Us,
    ),
    (
        "server.getrandom_us_p50",
        "server.getrandom",
        SpanStat::P50Us,
    ),
    (
        "server.getrandom_us_p99",
        "server.getrandom",
        SpanStat::P99Us,
    ),
    ("server.shutdown_s", "server.shutdown", SpanStat::SelfS),
    (
        "fleet.open_session_us_p50",
        "fleet.open_session",
        SpanStat::P50Us,
    ),
    ("fleet.close_us_p50", "fleet.close", SpanStat::P50Us),
    ("fleet.aggregate_s", "fleet.aggregate", SpanStat::SelfS),
    ("fleet.shutdown_s", "fleet.shutdown", SpanStat::SelfS),
];

fn span_metrics(tracer: &Tracer, out: &mut Values) {
    let names = by_name(tracer.spans());
    for (metric, span, stat) in SPAN_METRICS {
        let Some(NameStats {
            durations_ns,
            self_ns,
        }) = names.get(span)
        else {
            continue;
        };
        let value = match stat {
            SpanStat::SelfS => *self_ns as f64 / 1e9,
            SpanStat::P50Us => stats::percentile_us(durations_ns, 0.50),
            SpanStat::P99Us => stats::percentile_us(durations_ns, 0.99),
        };
        out.insert(metric, value);
    }
    // Whether a session costs more to open the more sessions the fleet
    // has ever seen: the last thousand opens against the first.
    if let Some(opens) = names.get("fleet.open_session").map(|s| &s.durations_ns) {
        if opens.len() >= 2_000 {
            let first = stats::percentile_us(&opens[..1_000], 0.50);
            let last = stats::percentile_us(&opens[opens.len() - 1_000..], 0.50);
            out.insert("fleet.open_growth_ratio", last / first);
        }
    }
}

/// A host-side rate over the timed rounds: `(median, q1, q3)` of
/// `count / wall`, scaled.
fn rate(rounds: &[Round], count: impl Fn(&Round) -> u64, scale: f64) -> (f64, f64, f64) {
    let samples: Vec<f64> = rounds
        .iter()
        .map(|r| count(r) as f64 / r.wall_s / scale)
        .collect();
    let (q1, med, q3) = stats::quartiles(&samples);
    (med, q1, q3)
}

fn metric_json(spec: &MetricSpec, value: f64, quartiles: Option<(f64, f64)>, n: usize) -> Json {
    let mut fields = vec![("value", Json::Num(value)), ("unit", Json::str(&spec.unit))];
    if let Some((q1, q3)) = quartiles {
        fields.push(("q1", Json::Num(q1)));
        fields.push(("q3", Json::Num(q3)));
        fields.push(("n", Json::from(n as u64)));
    }
    Json::obj(fields)
}

/// Runs the workload and returns the process exit code.
pub fn run(opts: &Options, handoff: &Handoff, pinned_cpu: Option<usize>) -> i32 {
    let spec = Spec::embedded();
    let nproc = handoff
        .get("host.nproc")
        .map_or_else(proc::nproc, |&n| n as usize);
    let Some(mut w) = workload(&opts.workload, opts.seed, nproc) else {
        eprintln!(
            "unknown workload {:?}; known: {}",
            opts.workload,
            spec.workloads.join(", ")
        );
        return 2;
    };
    let started = Instant::now();

    let mut setups: Vec<f64> = (0..SETUP_REPS_FIRST).map(|_| w.setup()).collect();

    let mut tracer = Tracer::new(opts.trace);
    let account = w.account(&mut tracer);
    let mut values = account.values;

    let (budget_s, min_rounds) = if opts.trace {
        (0.0, TRACED_ROUNDS)
    } else {
        (opts.seconds, MIN_ROUNDS)
    };
    let mut rounds: Vec<Round> = Vec::new();
    let timed_started = Instant::now();
    loop {
        rounds.push(w.timed());
        setups.extend((0..SETUP_REPS_PER_ROUND).map(|_| w.setup()));
        // Stop at the round count nearest the budget, not the first one
        // past it: a round is a few seconds long.
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
        let spent = timed_started.elapsed().as_secs_f64();
        if rounds.len() >= min_rounds && spent + stats::median(&walls) / 2.0 >= budget_s {
            break;
        }
    }
    let peak_rss_mb = proc::peak_rss_mb();
    let checks = w.checks();

    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let round_s = stats::median(&walls);
    if opts.trace {
        span_metrics(&tracer, &mut values);
        values.insert("trace.overhead_ratio", account.round.wall_s / round_s);
        layers::measure(opts.seed, account.round.instr > 0, &mut values);
        w.extras(round_s, handoff, &mut values);
    }

    // Failures: operations that failed in any round, rounds whose
    // simulated output differs from the accounting round's, failed checks.
    let all_rounds = || std::iter::once(&account.round).chain(&rounds);
    let drifted = rounds
        .iter()
        .filter(|r| r.fingerprint != account.round.fingerprint)
        .count() as u64;
    let failed_checks = checks.iter().filter(|c| !c.ok).count() as u64;
    let attempted = all_rounds().map(|r| r.attempted).sum::<u64>() + checks.len() as u64;
    let failed = all_rounds().map(|r| r.failed).sum::<u64>() + drifted + failed_checks;

    let mut spreads: Vec<(&str, (f64, f64, f64))> = Vec::new();
    let (q1, med, q3) = stats::quartiles(&setups);
    spreads.push(("setup_s", (med, q1, q3)));
    spreads.push(("host_kreq_per_s", rate(&rounds, |r| r.reqs, 1e3)));
    spreads.push(("sim_mcycles_per_s", rate(&rounds, |r| r.sim_cycles, 1e6)));
    if account.round.instr > 0 {
        spreads.push(("host_kinstr_per_s", rate(&rounds, |r| r.instr, 1e3)));
    }
    for (name, (med, _, _)) in &spreads {
        values.insert(name, *med);
    }
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("fail_rate", failed as f64 / attempted as f64);
    // The low 48 bits survive the trip through a JSON number exactly.
    values.insert(
        "sim_fingerprint48",
        (account.round.fingerprint & ((1 << 48) - 1)) as f64,
    );

    for name in values.keys() {
        if spec.find(name).is_none() {
            eprintln!("metric {name:?} is not declared in BENCHMARK.json");
            return 2;
        }
    }

    // Every metric by name, with its unit.
    let quartiles_of = |name: &str| {
        spreads
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, (_, q1, q3))| (*q1, *q3))
    };
    let mut metrics_json = Vec::new();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        let Some(&value) = values.get(m.name.as_str()) else {
            continue;
        };
        let n = if m.name == "setup_s" {
            setups.len()
        } else {
            rounds.len()
        };
        match quartiles_of(&m.name) {
            Some((q1, q3)) => println!(
                "{:14} {:32} {:>16.6} {:10} q1 {:.6} q3 {:.6} n {}",
                opts.workload, m.name, value, m.unit, q1, q3, n
            ),
            None => println!(
                "{:14} {:32} {:>16.6} {}",
                opts.workload, m.name, value, m.unit
            ),
        }
        metrics_json.push((
            m.name.clone(),
            metric_json(m, value, quartiles_of(&m.name), n),
        ));
    }
    for check in checks.iter().filter(|c| !c.ok) {
        println!(
            "{:14} CHECK FAILED {}: {}",
            opts.workload, check.name, check.detail
        );
    }

    let (user_s, sys_s) = proc::cpu_seconds();
    let record = Json::obj([
        ("workload", Json::str(&opts.workload)),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("git_rev", Json::str(proc::git_rev())),
        ("rustc", Json::str(proc::rustc_version())),
        ("nproc", Json::from(nproc as u64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::from(c as u64)),
        ),
        ("constants", w.constants()),
        (
            "fingerprint",
            Json::str(format!("{:016x}", account.round.fingerprint)),
        ),
        ("rounds", Json::from(rounds.len() as u64)),
        (
            "round_wall_s",
            Json::Arr(walls.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("accounting_round_wall_s", Json::Num(account.round.wall_s)),
        ("process_wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("process_cpu_user_s", Json::Num(user_s)),
        ("process_cpu_sys_s", Json::Num(sys_s)),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "checks",
            Json::Arr(
                checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(metrics_json)),
    ]);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            record_path(&opts.workload, opts.trace),
            format!("{record}\n"),
        )
    }) {
        eprintln!("cannot write the record under {OUT_DIR}: {e}");
        return 2;
    }
    if opts.trace {
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", opts.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
    }

    // The contract's result: with tracing off every end-to-end metric,
    // with tracing on every per-layer one. A per-layer metric this
    // workload does not exercise reads 0.
    let listed = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut result = Vec::new();
    for m in listed {
        let value = match values.get(m.name.as_str()) {
            Some(&v) => v,
            None if opts.trace => 0.0,
            None => {
                eprintln!("end-to-end metric {:?} was not measured", m.name);
                return 2;
            }
        };
        result.push((m.name.clone(), metric_json(m, value, None, 0)));
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(result)),
        ])
    );
    0
}
