//! Busy-tick benchmark: wall-clock cost of *live* ticks on the two
//! regimes where ticking dominates:
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
//! Each cell runs the per-cycle reference and fast-forward, asserts that
//! the two are bit-identical, asserts the busy-pair fast-forward speedup
//! over the reference stays >= 2x and that the saturated cell skips
//! >= 90% of its cycles and runs >= 5x faster than the reference.
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

/// Timed modes, reference first.
const MODES: [SimMode; 2] = [SimMode::Reference, SimMode::FastForward];

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

fn run_once(cell: &Cell, mode: SimMode) -> (f64, u64, RunResult) {
    let cfg = cell.cfg.clone().with_sim_mode(mode);
    let traces = cell.workload.as_ref().map(|w| w.traces()).unwrap_or_default();
    let mut sys =
        System::new(cfg, traces, Box::new(DRange::new(1))).expect("valid configuration");
    let start = Instant::now();
    let res = sys.run();
    (start.elapsed().as_secs_f64() * 1e3, sys.skipped_cycles(), res)
}

/// One warm-up pass per mode, then `rounds` interleaved timing rounds
/// (reference, fast-forward, reference, ...), keeping the per-mode
/// minimum. Interleaving makes the mins comparable under slow load drift
/// on shared runners; the run results are identical across repeats
/// (full-stack determinism), so any repeat's result serves as the
/// fingerprint.
fn time_all(cell: &Cell, rounds: usize) -> (Vec<(f64, RunResult)>, u64) {
    let mut best: Vec<(f64, Option<RunResult>)> = MODES.iter().map(|_| (f64::INFINITY, None)).collect();
    let mut skipped = 0;
    for mode in MODES {
        run_once(cell, mode);
    }
    for _ in 0..rounds {
        for (slot, &mode) in best.iter_mut().zip(&MODES) {
            let (ms, sk, res) = run_once(cell, mode);
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

/// Fast-forward must be invisible in every observable output.
fn assert_identical(cell: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cpu_cycles, b.cpu_cycles, "{cell}: cpu cycles");
    assert_eq!(a.mem_cycles, b.mem_cycles, "{cell}: mem cycles");
    assert_eq!(a.stats, b.stats, "{cell}: engine stats");
    assert_eq!(a.channels, b.channels, "{cell}: channel stats");
    assert_eq!(a.service, b.service, "{cell}: service stats");
    for (i, (ca, cb)) in a.cores.iter().zip(&b.cores).enumerate() {
        assert_eq!(
            ca.finish.map(|f| f.at_cycle),
            cb.finish.map(|f| f.at_cycle),
            "{cell}: core {i} finish"
        );
        assert_eq!(ca.end_stats, cb.end_stats, "{cell}: core {i} stats");
    }
}

struct CellRow {
    name: &'static str,
    cycles: u64,
    /// Fraction of CPU cycles the fast-forward runs skipped — the upper
    /// bound on mode speedup is `1 / (1 - skipped_fraction)`.
    skipped_fraction: f64,
    reference_ms: f64,
    ff_ms: f64,
    speedup_vs_reference: f64,
}

fn measure(cell: &Cell, rounds: usize) -> CellRow {
    let (timed, skipped) = time_all(cell, rounds);
    let (reference_ms, reference) = (timed[0].0, &timed[0].1);
    let (ff_ms, fast) = (timed[1].0, &timed[1].1);
    assert_identical(cell.name, fast, reference);
    CellRow {
        name: cell.name,
        cycles: reference.cpu_cycles,
        skipped_fraction: skipped as f64 / reference.cpu_cycles as f64,
        reference_ms,
        ff_ms,
        speedup_vs_reference: reference_ms / ff_ms,
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
        "busy ticks: reference vs fast-forward \
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
            "{:18} {:>10} cycles ({:.0}% skipped)  reference {:8.1} ms  ff {:8.1} ms  {:5.2}x",
            row.name,
            row.cycles,
            row.skipped_fraction * 100.0,
            row.reference_ms,
            row.ff_ms,
            row.speedup_vs_reference
        );
        rows.push(row);
    }

    // Acceptance bound: on the busy pair, fast-forward must beat the
    // per-cycle reference by a comfortable margin even on noisy CI
    // runners. A core is ticked only on the cycles it calls into memory,
    // which leaves 3 % of this cell's cycles live (15 % while a load in
    // flight pinned its core): measured 3.7-4.0x, 2.6-2.8x before (see
    // EXPERIMENTS.md).
    let busy = &rows[0];
    assert!(
        busy.speedup_vs_reference >= 2.0,
        "busy-pair fast-forward speedup {:.2}x fell below the 2x bound",
        busy.speedup_vs_reference
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
    assert!(
        saturated.speedup_vs_reference >= 5.0,
        "saturated-service fast-forward speedup {:.2}x fell below the 5x bound",
        saturated.speedup_vs_reference
    );

    let json = format!(
        "{{\n  \"instr_target\": {},\n  \"service_requests\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        target,
        requests,
        rows.iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"cycles\": {}, \"skipped_fraction\": {:.4}, \
                     \"reference_ms\": {:.3}, \"fastforward_ms\": {:.3}, \
                     \"speedup_vs_reference\": {:.3}}}",
                    r.name, r.cycles, r.skipped_fraction, r.reference_ms, r.ff_ms,
                    r.speedup_vs_reference
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
