//! The full run (every workload, each in a fresh process, one results
//! file) and `compare`, the check that two results files agree within the
//! benchmark's bounds.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::proc;
use crate::run::{record_path, OUT_DIR};
use crate::spec::Spec;

pub struct SetOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// One process per workload and mode: memory peaks, allocator state and
/// lazily initialised globals of one workload never reach the next.
fn run_child(workload: &str, opts: &SetOptions, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    let path = record_path(workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// Runs every workload and writes `results<suffix>.json`.
pub fn run_set(opts: &SetOptions, suffix: &str) -> Result<PathBuf, String> {
    let spec = Spec::embedded();
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        let mut record = run_child(workload, opts, false)?;
        if opts.traced {
            let traced = run_child(workload, opts, true)?;
            if let Json::Obj(fields) = &mut record {
                fields.push(("traced_run".into(), traced));
            }
        }
        workloads.push((workload.clone(), record));
    }
    let results = Json::obj([
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("git_rev", Json::str(proc::git_rev())),
        ("rustc", Json::str(proc::rustc_version())),
        ("nproc", Json::from(proc::nproc() as u64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = Path::new(OUT_DIR).join(format!("results{suffix}.json"));
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(path)
}

struct Sample {
    value: f64,
    /// Interquartile range over the median, where the metric has rounds.
    spread: Option<f64>,
}

fn sample(record: &Json, metric: &str) -> Option<Sample> {
    let find = |record: &Json| {
        let m = record.get("metrics")?.get(metric)?;
        let value = m.get("value")?.as_f64()?;
        let spread = match (
            m.get("q1").and_then(Json::as_f64),
            m.get("q3").and_then(Json::as_f64),
        ) {
            (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1) / value.abs()),
            _ => None,
        };
        Some(Sample { value, spread })
    };
    // End-to-end numbers come from the untraced run; the traced run adds
    // what only it measures.
    find(record).or_else(|| find(record.get("traced_run")?))
}

/// Loads two results files, prints their comparison and returns whether
/// the second holds every bound against the first.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
    };
    let (ok, lines) = compare_results(&load(a_path)?, &load(b_path)?, &Spec::embedded());
    for line in lines {
        println!("{line}");
    }
    println!(
        "{}",
        if ok {
            "compare: within bounds"
        } else {
            "compare: FAILED"
        }
    );
    Ok(ok)
}

/// The per-(workload, metric) comparison of two results, one line each,
/// and whether `b` holds every bound against `a`.
///
/// * A bounded metric regresses when `b` is worse than `a` by more than
///   its bound. Where either side's own spread exceeds the bound the
///   pair is reported as unresolved instead: the runs cannot tell.
/// * With equal seeds the simulated output must be bit-identical, so a
///   differing fingerprint, `sim_*` value or fail rate fails the
///   comparison too.
fn compare_results(a: &Json, b: &Json, spec: &Spec) -> (bool, Vec<String>) {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let mut ok = true;
    let mut lines = vec![format!(
        "{:14} {:32} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse%", "bound%"
    )];
    for (workload, ra) in a.get("workloads").map(Json::fields).unwrap_or_default() {
        let Some(rb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            lines.push(format!("{workload:14} missing from the second file"));
            ok = false;
            continue;
        };
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (Some(sa), Some(sb)) = (sample(ra, &m.name), sample(rb, &m.name)) else {
                continue;
            };
            let worse = match (sa.value == 0.0, m.higher_is_better) {
                (true, _) => 0.0,
                (false, true) => (sa.value - sb.value) / sa.value.abs(),
                (false, false) => (sb.value - sa.value) / sa.value.abs(),
            };
            // `sim_mcycles_per_s` is simulated cycles per *host* second.
            let simulated = m.name.starts_with("sim_") && m.name != "sim_mcycles_per_s";
            let exact = same_seed && (simulated || m.name == "fail_rate");
            let verdict = if exact {
                if sa.value == sb.value {
                    "identical"
                } else {
                    ok = false;
                    "DIFFERS (simulated output must repeat exactly)"
                }
            } else if let Some(bound) = m.bound {
                let noisy = [&sa, &sb]
                    .iter()
                    .any(|s| s.spread.is_some_and(|sp| sp > bound));
                if noisy {
                    "unresolved (spread exceeds the bound)"
                } else if worse > bound {
                    ok = false;
                    "REGRESSION"
                } else {
                    "ok"
                }
            } else {
                ""
            };
            lines.push(format!(
                "{:14} {:32} {:>14.6} {:>14.6} {:>+8.2} {:>6}  {}",
                workload,
                m.name,
                sa.value,
                sb.value,
                worse * 100.0,
                m.bound
                    .map_or(String::new(), |b| format!("{:.0}", b * 100.0)),
                verdict
            ));
        }
        let print = |r: &Json| {
            r.get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        if same_seed && print(ra) != print(rb) {
            lines.push(format!(
                "{workload:14} fingerprint {} vs {}: DIFFERS",
                print(ra),
                print(rb)
            ));
            ok = false;
        }
    }
    (ok, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"run_seconds": 5, "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [
            {"name": "host_kreq_per_s", "unit": "kreq/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "sim_buffer_hit_rate", "unit": "ratio", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "dram.acts", "unit": "count", "better": "lower"}]}"#;

    /// A results file with one workload `w`.
    fn results(seed: u64, fingerprint: &str, rate: (f64, f64, f64), setup: f64, hit: f64) -> Json {
        let plain = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        let metrics = Json::obj([
            (
                "host_kreq_per_s",
                Json::obj([
                    ("value", Json::Num(rate.1)),
                    ("q1", Json::Num(rate.0)),
                    ("q3", Json::Num(rate.2)),
                    ("n", Json::Num(5.0)),
                ]),
            ),
            ("setup_s", plain(setup)),
            ("sim_buffer_hit_rate", plain(hit)),
            ("dram.acts", plain(1000.0)),
        ]);
        let record = Json::obj([
            ("fingerprint", Json::str(fingerprint)),
            ("metrics", metrics),
        ]);
        Json::obj([
            ("seed", Json::from(seed)),
            ("workloads", Json::obj([("w", record)])),
        ])
    }

    fn verdict(a: &Json, b: &Json) -> (bool, String) {
        let (ok, lines) = compare_results(a, b, &Spec::parse(SPEC).unwrap());
        (ok, lines.join("\n"))
    }

    #[test]
    fn equal_results_pass_and_small_moves_stay_within_bounds() {
        let a = results(1, "aa", (99.0, 100.0, 101.0), 0.010, 0.97);
        assert!(verdict(&a, &a).0);
        // 8 % slower against a 10 % bound, set-up 20 % worse against 25 %.
        let b = results(1, "aa", (91.0, 92.0, 93.0), 0.012, 0.97);
        let (ok, text) = verdict(&a, &b);
        assert!(ok, "{text}");
        assert!(text.contains("identical"), "{text}");
    }

    #[test]
    fn a_regression_beyond_the_bound_fails_in_the_metrics_own_direction() {
        let a = results(1, "aa", (99.0, 100.0, 101.0), 0.010, 0.97);
        let slower = results(1, "aa", (84.0, 85.0, 86.0), 0.010, 0.97);
        let (ok, text) = verdict(&a, &slower);
        assert!(!ok && text.contains("REGRESSION"), "{text}");
        // Faster is never a regression, however large the change.
        assert!(verdict(&slower, &a).0);
        // Lower is better for set-up: 30 % more fails, 30 % less passes.
        assert!(!verdict(&a, &results(1, "aa", (99.0, 100.0, 101.0), 0.013, 0.97)).0);
        assert!(verdict(&a, &results(1, "aa", (99.0, 100.0, 101.0), 0.007, 0.97)).0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_a_verdict() {
        let a = results(1, "aa", (99.0, 100.0, 101.0), 0.010, 0.97);
        let noisy = results(1, "aa", (70.0, 80.0, 95.0), 0.010, 0.97);
        let (ok, text) = verdict(&a, &noisy);
        assert!(ok && text.contains("unresolved"), "{text}");
    }

    #[test]
    fn simulated_output_must_repeat_exactly_for_one_seed() {
        let a = results(1, "aa", (99.0, 100.0, 101.0), 0.010, 0.97);
        let (ok, text) = verdict(&a, &results(1, "aa", (99.0, 100.0, 101.0), 0.010, 0.9701));
        assert!(!ok && text.contains("DIFFERS"), "{text}");
        let (ok, text) = verdict(&a, &results(1, "bb", (99.0, 100.0, 101.0), 0.010, 0.97));
        assert!(!ok && text.contains("fingerprint"), "{text}");
        // Another seed makes other inputs: only the bounds apply.
        assert!(verdict(&a, &results(2, "bb", (99.0, 100.0, 101.0), 0.010, 0.9701)).0);
        assert!(!verdict(&a, &results(2, "bb", (99.0, 100.0, 101.0), 0.010, 0.80)).0);
    }
}
