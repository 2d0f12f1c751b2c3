//! Busy-tick benchmark: wall-clock cost of *live* ticks under the
//! sublinear-tick features — dirty-tracked readiness and one-event RNG
//! bursts — on the two regimes where ticking dominates:
//!
//! * `busy_pair`: a memory-intensive eval pair at the paper's highest
//!   RNG intensity (the `busy_guard` regime from the fastforward bench) —
//!   requests are in flight on most cycles, so fast-forward wall time is
//!   bound by the cycles on which a core or a channel does something;
//! * `saturated_service`: the contended mixed-QoS closed-loop service
//!   mix with no trace cores — the RNG queue stays full and tenants are
//!   back-pressured, but a blocked cycle is not an event, so fast-forward
//!   ticks only episode boundaries, completions and arrivals.
//!
//! Each cell runs the per-cycle reference plus fast-forward under every
//! combination of `dirty_readiness` x `burst_events`, asserts that every
//! run is bit-identical (the features are pure memoizations), asserts
//! the busy-pair fast-forward speedup over the reference stays >= 2x
//! and that the saturated cell skips >= 90% of its cycles and runs >= 5x
//! faster than the reference, and reports the feature on/off wall-time
//! deltas.
//!
//! Emits `BENCH_busytick.json` (working directory, or at
//! `$BENCH_BUSYTICK_OUT`). Scale comes from the shared [`ScaleConfig`]
//! (`STRANGE_INSTR`) for the trace cell and `STRANGE_BUSYTICK_REQUESTS`
//! for the service cell.

use std::time::Instant;

use strange_bench::ScaleConfig;
use strange_core::{RunResult, SimMode, System, SystemConfig};
use strange_trng::DRange;
use strange_workloads::{contended_qos_service, eval_pairs, Workload};

/// (dirty_readiness, burst_events), all-on first (the shipped default).
const COMBOS: [(bool, bool); 4] = [(true, true), (false, true), (true, false), (false, false)];

fn service_requests() -> u64 {
    std::env::var("STRANGE_BUSYTICK_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

struct Cell {
    name: &'static str,
    cfg: SystemConfig,
    workload: Option<Workload>,
}

fn run_once(cell: &Cell, mode: SimMode, dirty: bool, burst: bool) -> (f64, u64, RunResult) {
    let cfg = cell
        .cfg
        .clone()
        .with_sim_mode(mode)
        .with_dirty_readiness(dirty)
        .with_burst_events(burst);
    let traces = cell.workload.as_ref().map(|w| w.traces()).unwrap_or_default();
    let mut sys =
        System::new(cfg, traces, Box::new(DRange::new(1))).expect("valid configuration");
    let start = Instant::now();
    let res = sys.run();
    (start.elapsed().as_secs_f64() * 1e3, sys.skipped_cycles(), res)
}

/// Timed configurations per cell: reference with features on and off,
/// then fast-forward under every combo.
fn configs() -> Vec<(SimMode, bool, bool)> {
    let mut v = vec![
        (SimMode::Reference, true, true),
        (SimMode::Reference, false, false),
    ];
    v.extend(COMBOS.iter().map(|&(d, b)| (SimMode::FastForward, d, b)));
    v
}

/// One warm-up pass per configuration, then `rounds` interleaved timing
/// rounds (config A, B, ... then A, B, ... again), keeping the per-config
/// minimum. Interleaving makes the mins comparable under slow load drift
/// on shared runners; the run results are identical across repeats
/// (full-stack determinism), so any repeat's result serves as the
/// fingerprint.
fn time_all(cell: &Cell, rounds: usize) -> (Vec<(f64, RunResult)>, u64) {
    let configs = configs();
    let mut best: Vec<(f64, Option<RunResult>)> = configs.iter().map(|_| (f64::INFINITY, None)).collect();
    let mut skipped = 0;
    for &(mode, dirty, burst) in &configs {
        run_once(cell, mode, dirty, burst);
    }
    for _ in 0..rounds {
        for (slot, &(mode, dirty, burst)) in best.iter_mut().zip(&configs) {
            let (ms, sk, res) = run_once(cell, mode, dirty, burst);
            if ms < slot.0 {
                slot.0 = ms;
            }
            if mode == SimMode::FastForward {
                skipped = sk;
            }
            slot.1 = Some(res);
        }
    }
    let timed = best
        .into_iter()
        .map(|(ms, res)| (ms, res.expect("rounds ran")))
        .collect();
    (timed, skipped)
}

/// The features must be invisible in every observable output.
fn assert_identical(cell: &str, label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cpu_cycles, b.cpu_cycles, "{cell}/{label}: cpu cycles");
    assert_eq!(a.mem_cycles, b.mem_cycles, "{cell}/{label}: mem cycles");
    assert_eq!(a.stats, b.stats, "{cell}/{label}: engine stats");
    assert_eq!(a.channels, b.channels, "{cell}/{label}: channel stats");
    assert_eq!(a.service, b.service, "{cell}/{label}: service stats");
    for (i, (ca, cb)) in a.cores.iter().zip(&b.cores).enumerate() {
        assert_eq!(
            ca.finish.map(|f| f.at_cycle),
            cb.finish.map(|f| f.at_cycle),
            "{cell}/{label}: core {i} finish"
        );
        assert_eq!(ca.end_stats, cb.end_stats, "{cell}/{label}: core {i} stats");
    }
}

struct ComboRow {
    dirty: bool,
    burst: bool,
    ff_ms: f64,
    speedup_vs_reference: f64,
}

struct CellRow {
    name: &'static str,
    cycles: u64,
    /// Fraction of CPU cycles the fast-forward runs skipped — the upper
    /// bound on mode speedup is `1 / (1 - skipped_fraction)`.
    skipped_fraction: f64,
    reference_on_ms: f64,
    reference_off_ms: f64,
    combos: Vec<ComboRow>,
    /// All-off fast-forward wall time over all-on: the busy-tick win.
    feature_speedup: f64,
}

fn measure(cell: &Cell, rounds: usize) -> CellRow {
    // Reference with features on and off (the reference loop ticks every
    // cycle, so it benefits from sublinear ticks too — reporting both
    // keeps the speedup attribution honest).
    let (timed, skipped) = time_all(cell, rounds);
    let (ref_on_ms, ref_fp) = (timed[0].0, &timed[0].1);
    let (ref_off_ms, ref_off_fp) = (timed[1].0, &timed[1].1);
    assert_identical(cell.name, "reference on-vs-off", ref_fp, ref_off_fp);

    let mut combos = Vec::new();
    for (i, &(dirty, burst)) in COMBOS.iter().enumerate() {
        let (ff_ms, fp) = (timed[2 + i].0, &timed[2 + i].1);
        assert_identical(
            cell.name,
            &format!("ff dirty={dirty} burst={burst} vs reference"),
            fp,
            ref_fp,
        );
        combos.push(ComboRow {
            dirty,
            burst,
            ff_ms,
            speedup_vs_reference: ref_on_ms / ff_ms,
        });
    }
    let feature_speedup = combos[3].ff_ms / combos[0].ff_ms;
    CellRow {
        name: cell.name,
        cycles: ref_fp.cpu_cycles,
        skipped_fraction: skipped as f64 / ref_fp.cpu_cycles as f64,
        reference_on_ms: ref_on_ms,
        reference_off_ms: ref_off_ms,
        combos,
        feature_speedup,
    }
}

fn main() {
    let target = ScaleConfig::from_env().instr;
    let requests = service_requests();
    let pairs = eval_pairs(5120);
    let cells = vec![
        Cell {
            name: "busy_pair",
            cfg: SystemConfig::dr_strange(2).with_instruction_target(target),
            workload: Some(pairs[0].clone()),
        },
        Cell {
            name: "saturated_service",
            cfg: SystemConfig::dr_strange(0).with_service(contended_qos_service(64, requests)),
            workload: None,
        },
    ];

    println!(
        "busy-tick features: dirty readiness x burst events \
         ({target} instructions/core, {requests} service requests)\n"
    );
    let rounds = std::env::var("STRANGE_BUSYTICK_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut rows = Vec::new();
    for cell in &cells {
        let row = measure(cell, rounds);
        println!(
            "{:18} {:>10} cycles ({:.0}% skipped)  reference on {:8.1} ms / off {:8.1} ms",
            row.name,
            row.cycles,
            row.skipped_fraction * 100.0,
            row.reference_on_ms,
            row.reference_off_ms
        );
        for c in &row.combos {
            println!(
                "    dirty={:5} burst={:5}  ff {:8.1} ms  {:5.2}x vs reference",
                c.dirty, c.burst, c.ff_ms, c.speedup_vs_reference
            );
        }
        println!("    feature speedup (ff all-off / all-on): {:.2}x\n", row.feature_speedup);
        rows.push(row);
    }

    // Acceptance bound: on the busy pair, fast-forward with the features
    // on must beat the per-cycle reference by a comfortable margin even
    // on noisy CI runners. A core is ticked only on the cycles it calls
    // into memory, which leaves 3 % of this cell's cycles live (15 % while
    // a load in flight pinned its core): measured 3.7-4.0x, 2.6-2.8x
    // before (see EXPERIMENTS.md).
    let busy = &rows[0];
    let busy_speedup = busy.combos[0].speedup_vs_reference;
    assert!(
        busy_speedup >= 2.0,
        "busy-pair fast-forward speedup {busy_speedup:.2}x fell below the 2x bound"
    );
    // Back-pressure must not pin live ticks: the saturated cell's live
    // ticks scale with its events, so nearly every cycle is skipped and
    // the mode speedup is large (measured 25-30x; 5x survives CI noise).
    let saturated = &rows[1];
    assert!(
        saturated.skipped_fraction >= 0.9,
        "saturated-service skipped fraction {:.3} fell below 0.9",
        saturated.skipped_fraction
    );
    let saturated_speedup = saturated.combos[0].speedup_vs_reference;
    assert!(
        saturated_speedup >= 5.0,
        "saturated-service fast-forward speedup {saturated_speedup:.2}x fell below the 5x bound"
    );
    for row in &rows {
        if row.feature_speedup < 1.0 {
            println!(
                "WARNING: {} feature speedup {:.2}x — features slower than full rescan",
                row.name, row.feature_speedup
            );
        }
    }

    let json = format!(
        "{{\n  \"instr_target\": {},\n  \"service_requests\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        target,
        requests,
        rows.iter()
            .map(|r| {
                let combos = r
                    .combos
                    .iter()
                    .map(|c| {
                        format!(
                            "        {{\"dirty\": {}, \"burst\": {}, \"fastforward_ms\": {:.3}, \
                             \"speedup_vs_reference\": {:.3}}}",
                            c.dirty, c.burst, c.ff_ms, c.speedup_vs_reference
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!(
                    "    {{\"name\": \"{}\", \"cycles\": {}, \"skipped_fraction\": {:.4}, \
                     \"reference_on_ms\": {:.3}, \"reference_off_ms\": {:.3}, \
                     \"feature_speedup\": {:.3}, \"ff\": [\n{}\n    ]}}",
                    r.name, r.cycles, r.skipped_fraction, r.reference_on_ms,
                    r.reference_off_ms, r.feature_speedup, combos
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let out = std::env::var("BENCH_BUSYTICK_OUT")
        .unwrap_or_else(|_| "BENCH_busytick.json".to_string());
    std::fs::write(&out, json).expect("write benchmark json");
    println!("wrote {out}");
}
