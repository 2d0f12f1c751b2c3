//! Batched-runner benchmark: wall-clock speedup of the parallel
//! (design × workload) matrix evaluation over the sequential reference.
//!
//! Emits `BENCH_batchrun.json` (in the working directory, or at
//! `$BENCH_BATCHRUN_OUT`) with sequential vs parallel wall time for a
//! figure-style matrix (3 designs × `STRANGE_BATCH_WORKLOADS` dual-core
//! workloads, default 12) and the resulting speedup — bit-identity
//! between the two paths is asserted, not assumed.
//!
//! The parallel speedup scales with the host core count (`STRANGE_THREADS`
//! caps it); on a single-core host it is ~1x by construction.

use std::time::Instant;

use strange_bench::{
    eval_pair_matrix_with_threads, runner, Design, Harness, Mech, ScaleConfig,
};
use strange_workloads::{eval_pairs, Workload};

fn batch_workloads() -> usize {
    std::env::var("STRANGE_BATCH_WORKLOADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(12)
}

fn main() {
    let scale = ScaleConfig::from_env();
    let threads = runner::worker_threads();
    let designs = [Design::Oblivious, Design::Greedy, Design::DrStrange];
    let workloads: Vec<Workload> = eval_pairs(5120)
        .into_iter()
        .take(batch_workloads())
        .collect();
    println!(
        "batched runner: {} designs x {} workloads, {} instructions/core, {} threads\n",
        designs.len(),
        workloads.len(),
        scale.instr,
        threads
    );

    // Sequential reference (one worker, fresh harness/alone cache).
    let seq_harness = Harness::with_scale(scale);
    let t0 = Instant::now();
    let seq = eval_pair_matrix_with_threads(&seq_harness, &designs, &workloads, Mech::DRange, 1);
    let sequential_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Parallel run (fresh harness so the alone runs are recomputed too).
    let par_harness = Harness::with_scale(scale);
    let t0 = Instant::now();
    let par =
        eval_pair_matrix_with_threads(&par_harness, &designs, &workloads, Mech::DRange, threads);
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(seq, par, "parallel matrix must be bit-identical");
    let parallel_speedup = sequential_ms / parallel_ms;
    println!(
        "matrix: sequential {sequential_ms:8.1} ms | parallel {parallel_ms:8.1} ms | speedup {parallel_speedup:5.2}x"
    );

    let json = format!(
        "{{\n  \"instr_target\": {},\n  \"threads\": {},\n  \"designs\": {},\n  \"workloads\": {},\n  \
         \"sequential_ms\": {:.3},\n  \"parallel_ms\": {:.3},\n  \"parallel_speedup\": {:.3}\n}}\n",
        scale.instr,
        threads,
        designs.len(),
        workloads.len(),
        sequential_ms,
        parallel_ms,
        parallel_speedup,
    );
    let out = std::env::var("BENCH_BATCHRUN_OUT")
        .unwrap_or_else(|_| "BENCH_batchrun.json".to_string());
    std::fs::write(&out, json).expect("write benchmark json");
    println!("\nwrote {out}");

    if threads > 1 && parallel_speedup < 1.5 {
        println!(
            "WARNING: parallel speedup {parallel_speedup:.2}x below expectation for {threads} threads"
        );
    }
}
