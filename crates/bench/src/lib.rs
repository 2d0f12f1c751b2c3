//! Shared experiment harness for the DR-STRaNGe reproduction.
//!
//! Every figure and table of the paper's evaluation has a `harness = false`
//! bench target in `benches/` (see DESIGN.md §4 for the index); this
//! library provides the common machinery:
//!
//! * [`Design`] — every system design point the paper compares (baseline,
//!   Greedy Idle, DR-STRaNGe and its ablations), mapped to a
//!   [`SystemConfig`].
//! * [`Mech`] — the TRNG mechanism under test (D-RaNGe, QUAC-TRNG, or the
//!   throughput-parameterized mechanism of Figure 2).
//! * [`Harness`] — runs workloads, caches the expensive "alone" baseline
//!   runs that slowdown/MCPI normalization needs, and computes the paper's
//!   per-workload metrics ([`PairEval`], [`MultiEval`]).
//!
//! # Batched, multi-threaded execution
//!
//! A figure is a (design × workload) matrix of independent, deterministic
//! simulations, so the harness runs them on a scoped worker pool (see
//! [`runner`]):
//!
//! * [`Harness::run_many`] executes a batch of [`RunJob`]s in parallel and
//!   returns the results in job order.
//! * [`eval_pair_matrix_par`] / [`eval_multi_matrix_par`] evaluate a whole
//!   figure matrix in parallel, after pre-warming the alone-run cache so
//!   workers never duplicate a baseline.
//!
//! The worker count comes from `STRANGE_THREADS` (default: the host's
//! available parallelism). Parallel results are **bit-identical** to the
//! sequential path: every job is self-contained, the alone cache
//! deduplicates in-flight computations through per-key `OnceLock`s (each
//! baseline is computed exactly once, no matter how many workers want it),
//! and outputs are collected in index order. `tests/parallel_determinism.rs`
//! asserts this equivalence.
//!
//! # Scale configuration
//!
//! Scale is a [`ScaleConfig`] value injected into the harness, not an
//! ambient global: [`Harness::with_scale`] pins it explicitly (tests use
//! this instead of mutating the process environment), while
//! [`Harness::new`] / [`ScaleConfig::from_env`] read the conventional
//! environment variables **once per process** (memoized):
//!
//! * `STRANGE_INSTR` — instructions per core (default 200 000; the paper
//!   simulates 200 M-instruction SimPoints, so absolute numbers differ but
//!   the comparisons are at equal work).
//! * `STRANGE_PER_GROUP` — multi-programmed workloads per group for the
//!   multicore figures (default 3; the paper uses 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use strange_core::{
    FillMode, PredictorKind, RngRouting, RunResult, SchedulerKind, System, SystemConfig,
};
use strange_metrics::{geometric_mean, unfairness_index, MemSlowdown};
use strange_trng::{DRange, QuacTrng, ThroughputTrng, TrngMechanism};
use strange_workloads::{AppRef, Workload};

static INSTR_TARGET: OnceLock<u64> = OnceLock::new();
static PER_GROUP: OnceLock<usize> = OnceLock::new();

/// Instructions each core must retire (env `STRANGE_INSTR`, default
/// 200 000 — large enough that the boot-time buffer pre-fill covers well
/// under a fifth of each run's RNG demand). Read once per process; tests
/// inject scale through [`Harness::with_scale`] instead of mutating the
/// environment.
pub fn instr_target() -> u64 {
    *INSTR_TARGET.get_or_init(|| {
        std::env::var("STRANGE_INSTR")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200_000)
    })
}

/// Workloads per multicore group (env `STRANGE_PER_GROUP`, default 3; the
/// paper uses 10). Read once per process.
pub fn per_group() -> usize {
    *PER_GROUP.get_or_init(|| {
        std::env::var("STRANGE_PER_GROUP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3)
    })
}

/// Experiment scale, plumbed explicitly through the harness instead of
/// re-read from the environment per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Instructions each core must retire.
    pub instr: u64,
    /// Workloads per multicore group.
    pub per_group: usize,
}

impl ScaleConfig {
    /// The process-wide scale from `STRANGE_INSTR` / `STRANGE_PER_GROUP`
    /// (memoized environment reads).
    pub fn from_env() -> Self {
        ScaleConfig {
            instr: instr_target(),
            per_group: per_group(),
        }
    }
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig::from_env()
    }
}

/// Seed for the randomized workload-group sampling (fixed so every bench
/// target sees the same mixes).
pub const MIX_SEED: u64 = 2022;

/// Seed for the TRNG entropy substrate (timing is seed-independent).
pub const TRNG_SEED: u64 = 1;

/// The TRNG mechanism under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mech {
    /// D-RaNGe (the default mechanism for all main results).
    DRange,
    /// D-RaNGe with an overridden demand-mode switch cost (ablation).
    DRangeSwitch(u64),
    /// QUAC-TRNG (Section 8.7).
    Quac,
    /// Throughput-parameterized mechanism (Figure 2), aggregate Mb/s.
    Throughput(u32),
}

impl Mech {
    /// Builds a mechanism with its own sampler state over the die that
    /// [`TRNG_SEED`] selects; the profiled die itself is shared by every
    /// instance in the process.
    pub fn build(self) -> Box<dyn TrngMechanism> {
        match self {
            Mech::DRange => Box::new(DRange::new(TRNG_SEED)),
            Mech::DRangeSwitch(cycles) => {
                Box::new(DRange::new(TRNG_SEED).with_demand_switch_cycles(cycles))
            }
            Mech::Quac => Box::new(QuacTrng::new(TRNG_SEED)),
            Mech::Throughput(mbps) => Box::new(ThroughputTrng::new(mbps, 4, TRNG_SEED)),
        }
    }

    /// Cache key for alone-run reuse.
    fn key(self) -> String {
        format!("{self:?}")
    }
}

/// A system design point of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// RNG-oblivious baseline: FR-FCFS+Cap(16), RNG requests in the read
    /// queues, no buffer.
    Oblivious,
    /// RNG-oblivious baseline with the BLISS scheduler (Figure 11).
    ObliviousBliss,
    /// The Greedy Idle comparison design (oracle filling).
    Greedy,
    /// Full DR-STRaNGe (simple predictor, low-utilization threshold 4,
    /// 16-entry buffer).
    DrStrange,
    /// DR-STRaNGe with the Q-learning predictor (Figure 13).
    DrStrangeRl,
    /// DR-STRaNGe without an idleness predictor (Figure 13's "No Pred.").
    DrStrangeNoPred,
    /// DR-STRaNGe with the low-utilization path disabled (Figure 15's
    /// "Threshold = 0").
    DrStrangeNoLowUtil,
    /// RNG-aware scheduling only — no buffer (Figures 11 and the paper's
    /// scheduler-isolation studies).
    RngAwareNoBuffer,
    /// Simple buffering (no predictor) with a given buffer size, for the
    /// Figure 10 sweep. `0` degrades to [`Design::RngAwareNoBuffer`].
    Buffered(usize),
    /// DR-STRaNGe with OS priorities: `true` = the RNG application has the
    /// high priority, `false` = the non-RNG applications do (Figure 12).
    Priority(bool),
    /// DR-STRaNGe with a non-default PeriodThreshold (ablation).
    PeriodThreshold(u64),
}

impl Design {
    /// Short label used in result tables.
    pub fn label(&self) -> String {
        match self {
            Design::Oblivious => "RNG-Oblivious".into(),
            Design::ObliviousBliss => "BLISS".into(),
            Design::Greedy => "Greedy".into(),
            Design::DrStrange => "DR-STRANGE".into(),
            Design::DrStrangeRl => "DR-STRANGE+RL".into(),
            Design::DrStrangeNoPred => "DR-STRANGE(NoPred)".into(),
            Design::DrStrangeNoLowUtil => "DR-STRANGE(Thr=0)".into(),
            Design::RngAwareNoBuffer => "RNG-Aware".into(),
            Design::Buffered(n) => format!("{n}-Entry"),
            Design::Priority(true) => "DR-STRANGE(RNG)".into(),
            Design::Priority(false) => "DR-STRANGE(NonRNG)".into(),
            Design::PeriodThreshold(t) => format!("Thr={t}"),
        }
    }

    /// System configuration for this design on `workload` at the
    /// process-default scale ([`instr_target`]).
    pub fn config(&self, workload: &Workload) -> SystemConfig {
        self.config_scaled(workload, instr_target())
    }

    /// System configuration for this design on `workload` with an
    /// explicit per-core instruction target.
    pub fn config_scaled(&self, workload: &Workload, instr: u64) -> SystemConfig {
        let cores = workload.cores();
        let cfg = match self {
            Design::Oblivious => SystemConfig::rng_oblivious(cores),
            Design::ObliviousBliss => {
                SystemConfig::rng_oblivious(cores).with_scheduler(SchedulerKind::Bliss)
            }
            Design::Greedy => SystemConfig::greedy_idle(cores),
            Design::DrStrange => SystemConfig::dr_strange(cores),
            Design::DrStrangeRl => SystemConfig::dr_strange_rl(cores),
            Design::DrStrangeNoPred => SystemConfig::dr_strange_no_predictor(cores),
            Design::DrStrangeNoLowUtil => {
                SystemConfig::dr_strange(cores).with_low_util_threshold(0)
            }
            Design::RngAwareNoBuffer => {
                let mut cfg = SystemConfig::dr_strange(cores);
                cfg.routing = RngRouting::Aware;
                cfg.fill = FillMode::None;
                cfg.buffer_entries = 0;
                cfg
            }
            Design::Buffered(0) => return Design::RngAwareNoBuffer.config_scaled(workload, instr),
            Design::Buffered(entries) => SystemConfig {
                predictor: PredictorKind::AlwaysLong,
                low_util_threshold: 0,
                ..SystemConfig::dr_strange(cores).with_buffer_entries(*entries)
            },
            Design::Priority(rng_high) => {
                let rng_core = workload.rng_core().unwrap_or(cores - 1);
                let prios = (0..cores)
                    .map(|i| {
                        if (i == rng_core) == *rng_high {
                            2
                        } else {
                            1
                        }
                    })
                    .collect();
                SystemConfig::dr_strange(cores).with_priorities(prios)
            }
            Design::PeriodThreshold(t) => {
                let mut cfg = SystemConfig::dr_strange(cores);
                cfg.period_threshold = *t;
                cfg
            }
        };
        cfg.with_instruction_target(instr)
    }
}

/// Cached outcome of an application running alone on the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AloneRun {
    /// Execution cycles for the instruction target.
    pub exec_cycles: u64,
    /// MCPI at the instruction target.
    pub mcpi: f64,
    /// IPC at the instruction target.
    pub ipc: f64,
}

/// Per-workload metrics for a dual-core (app + RNG benchmark) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEval {
    /// Non-RNG application slowdown over running alone.
    pub nonrng_slowdown: f64,
    /// RNG application slowdown over running alone.
    pub rng_slowdown: f64,
    /// Unfairness index (max/min memory slowdown).
    pub unfairness: f64,
    /// Buffer serve rate.
    pub serve_rate: f64,
    /// Idleness-predictor accuracy.
    pub accuracy: f64,
    /// Total DRAM cycles of the run.
    pub mem_cycles: u64,
}

/// Per-workload metrics for a multicore run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiEval {
    /// Weighted speedup over the non-RNG applications.
    pub weighted_speedup: f64,
    /// RNG application slowdown over running alone (1.0 when the workload
    /// has no RNG benchmark).
    pub rng_slowdown: f64,
    /// Unfairness index over all applications.
    pub unfairness: f64,
    /// Idleness-predictor accuracy.
    pub accuracy: f64,
}

/// One batched simulation: a design point applied to a workload with a
/// TRNG mechanism.
#[derive(Debug, Clone)]
pub struct RunJob {
    /// The design point to simulate.
    pub design: Design,
    /// The workload to run.
    pub workload: Workload,
    /// The TRNG mechanism under test.
    pub mech: Mech,
}

impl RunJob {
    /// Creates a job.
    pub fn new(design: Design, workload: Workload, mech: Mech) -> Self {
        RunJob {
            design,
            workload,
            mech,
        }
    }
}

type AloneKey = (String, String);

/// The experiment runner with a thread-safe alone-run cache.
///
/// All evaluation methods take `&self`, so one harness can be shared by
/// every worker of a batched run. The alone cache holds one `OnceLock`
/// per key: concurrent requests for the same baseline block on the first
/// computation instead of duplicating it.
pub struct Harness {
    scale: ScaleConfig,
    alone_cache: Mutex<HashMap<AloneKey, Arc<OnceLock<AloneRun>>>>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// Creates a harness at the process-default scale
    /// ([`ScaleConfig::from_env`]).
    pub fn new() -> Self {
        Harness::with_scale(ScaleConfig::from_env())
    }

    /// Creates a harness with an explicitly injected scale (tests and
    /// callers that must not depend on ambient environment variables).
    pub fn with_scale(scale: ScaleConfig) -> Self {
        Harness {
            scale,
            alone_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The scale this harness runs at.
    pub fn scale(&self) -> ScaleConfig {
        self.scale
    }

    /// Number of distinct alone baselines cached so far.
    pub fn alone_cache_len(&self) -> usize {
        self.alone_cache.lock().expect("alone cache poisoned").len()
    }

    /// Runs `workload` under `design` with `mech`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (internal error) — bench
    /// targets are expected to abort loudly.
    pub fn run(&self, design: Design, workload: &Workload, mech: Mech) -> RunResult {
        let config = design.config_scaled(workload, self.scale.instr);
        System::new(config, workload.traces(), mech.build())
            .expect("valid configuration")
            .run()
    }

    /// Runs a batch of jobs on the worker pool ([`runner::worker_threads`]
    /// workers) and returns the results in job order. Dispatch is
    /// longest-first (cost estimate: `cores × instructions`), so a heavy
    /// multicore job drawn last cannot serialize the barrier tail.
    pub fn run_many(&self, jobs: &[RunJob]) -> Vec<RunResult> {
        let instr = self.scale.instr;
        runner::run_indexed_weighted(
            jobs.len(),
            runner::worker_threads(),
            |i| jobs[i].workload.cores() as u64 * instr,
            |i| {
                let job = &jobs[i];
                self.run(job.design, &job.workload, job.mech)
            },
        )
    }

    /// The alone-run baseline for `app` (cached; computed exactly once per
    /// `(app, mechanism)` even under concurrent callers).
    pub fn alone(&self, app: &AppRef, mech: Mech) -> AloneRun {
        let key = (app.label(), mech.key());
        let cell = {
            let mut cache = self.alone_cache.lock().expect("alone cache poisoned");
            Arc::clone(cache.entry(key).or_default())
        };
        // The map lock is released before the (expensive) computation;
        // `get_or_init` blocks racing workers on this key only.
        *cell.get_or_init(|| {
            let wl = Workload {
                name: format!("{}-alone", app.label()),
                apps: vec![app.clone()],
            };
            let res = self.run(Design::Oblivious, &wl, mech);
            AloneRun {
                exec_cycles: res.exec_cycles(0),
                mcpi: res.cores[0].mcpi(),
                ipc: res.cores[0].ipc(),
            }
        })
    }

    /// Pre-computes the alone baselines every app in `workloads` needs, in
    /// parallel over distinct apps. Matrix evaluation calls this first so
    /// workers start from a warm cache instead of serializing on the most
    /// popular baseline (every pair workload shares its RNG benchmark).
    pub fn warm_alone_cache(&self, workloads: &[Workload], mech: Mech, threads: usize) {
        let mut seen = HashMap::new();
        for wl in workloads {
            for app in &wl.apps {
                seen.entry(app.label()).or_insert_with(|| app.clone());
            }
        }
        let apps: Vec<AppRef> = seen.into_values().collect();
        runner::run_indexed(apps.len(), threads, |i| self.alone(&apps[i], mech));
    }

    /// Evaluates a dual-core pair workload under `design`.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not a two-core app+RNG pair.
    pub fn eval_pair(&self, design: Design, workload: &Workload, mech: Mech) -> PairEval {
        assert_eq!(workload.cores(), 2, "pair workloads have two cores");
        let rng_core = workload.rng_core().expect("pair has an RNG benchmark");
        let app_core = 1 - rng_core;
        let alone_app = self.alone(&workload.apps[app_core], mech);
        let alone_rng = self.alone(&workload.apps[rng_core], mech);
        let res = self.run(design, workload, mech);
        let unfairness = unfairness_index(&[
            MemSlowdown::from_mcpi(res.cores[app_core].mcpi(), alone_app.mcpi),
            MemSlowdown::from_mcpi(res.cores[rng_core].mcpi(), alone_rng.mcpi),
        ])
        .expect("two applications");
        PairEval {
            nonrng_slowdown: res.exec_cycles(app_core) as f64 / alone_app.exec_cycles as f64,
            rng_slowdown: res.exec_cycles(rng_core) as f64 / alone_rng.exec_cycles as f64,
            unfairness,
            serve_rate: res.stats.buffer_serve_rate(),
            accuracy: res.stats.predictor_accuracy(),
            mem_cycles: res.mem_cycles,
        }
    }

    /// Evaluates a multicore workload under `design`.
    pub fn eval_multi(&self, design: Design, workload: &Workload, mech: Mech) -> MultiEval {
        let res = self.run(design, workload, mech);
        let rng_core = workload.rng_core();
        let mut ipc_pairs = Vec::new();
        let mut slowdowns = Vec::new();
        let mut rng_slowdown = 1.0;
        for core in 0..workload.cores() {
            let alone = self.alone(&workload.apps[core], mech);
            slowdowns.push(MemSlowdown::from_mcpi(res.cores[core].mcpi(), alone.mcpi));
            if Some(core) == rng_core {
                rng_slowdown = res.exec_cycles(core) as f64 / alone.exec_cycles as f64;
            } else {
                ipc_pairs.push((res.cores[core].ipc(), alone.ipc));
            }
        }
        let weighted_speedup =
            strange_metrics::weighted_speedup(&ipc_pairs).expect("non-RNG apps present");
        MultiEval {
            weighted_speedup,
            rng_slowdown,
            unfairness: unfairness_index(&slowdowns).expect("apps present"),
            accuracy: res.stats.predictor_accuracy(),
        }
    }
}

/// Evaluates every workload under every design sequentially:
/// `matrix[d][w]`. The reference path the parallel variant must match.
pub fn eval_pair_matrix(
    harness: &Harness,
    designs: &[Design],
    workloads: &[Workload],
    mech: Mech,
) -> Vec<Vec<PairEval>> {
    eval_pair_matrix_with_threads(harness, designs, workloads, mech, 1)
}

/// [`eval_pair_matrix`] on the shared worker pool
/// ([`runner::worker_threads`] workers). Bit-identical to the sequential
/// path.
pub fn eval_pair_matrix_par(
    harness: &Harness,
    designs: &[Design],
    workloads: &[Workload],
    mech: Mech,
) -> Vec<Vec<PairEval>> {
    eval_pair_matrix_with_threads(harness, designs, workloads, mech, runner::worker_threads())
}

/// [`eval_pair_matrix`] with an explicit worker count (determinism tests
/// compare thread counts against each other).
pub fn eval_pair_matrix_with_threads(
    harness: &Harness,
    designs: &[Design],
    workloads: &[Workload],
    mech: Mech,
    threads: usize,
) -> Vec<Vec<PairEval>> {
    if workloads.is_empty() {
        return vec![Vec::new(); designs.len()];
    }
    if threads > 1 {
        harness.warm_alone_cache(workloads, mech, threads);
    }
    let w = workloads.len();
    // Pair workloads all have two cores, so the weight degenerates to a
    // constant and dispatch stays in matrix order; the weighted call keeps
    // the two matrix paths symmetric.
    let instr = harness.scale().instr;
    let flat = runner::run_indexed_weighted(
        designs.len() * w,
        threads,
        |i| workloads[i % w].cores() as u64 * instr,
        |i| harness.eval_pair(designs[i / w], &workloads[i % w], mech),
    );
    flat.chunks(w).map(<[PairEval]>::to_vec).collect()
}

/// Evaluates every workload under every design sequentially (multicore
/// metrics): `matrix[d][w]`.
pub fn eval_multi_matrix(
    harness: &Harness,
    designs: &[Design],
    workloads: &[Workload],
    mech: Mech,
) -> Vec<Vec<MultiEval>> {
    eval_multi_matrix_with_threads(harness, designs, workloads, mech, 1)
}

/// [`eval_multi_matrix`] on the shared worker pool. Bit-identical to the
/// sequential path.
pub fn eval_multi_matrix_par(
    harness: &Harness,
    designs: &[Design],
    workloads: &[Workload],
    mech: Mech,
) -> Vec<Vec<MultiEval>> {
    eval_multi_matrix_with_threads(harness, designs, workloads, mech, runner::worker_threads())
}

/// [`eval_multi_matrix`] with an explicit worker count.
pub fn eval_multi_matrix_with_threads(
    harness: &Harness,
    designs: &[Design],
    workloads: &[Workload],
    mech: Mech,
    threads: usize,
) -> Vec<Vec<MultiEval>> {
    if workloads.is_empty() {
        return vec![Vec::new(); designs.len()];
    }
    if threads > 1 {
        harness.warm_alone_cache(workloads, mech, threads);
    }
    let w = workloads.len();
    // Multicore groups mix 4/8/16-core workloads: longest-first dispatch
    // keeps the 16-core jobs from landing on an otherwise-drained pool.
    let instr = harness.scale().instr;
    let flat = runner::run_indexed_weighted(
        designs.len() * w,
        threads,
        |i| workloads[i % w].cores() as u64 * instr,
        |i| harness.eval_multi(designs[i / w], &workloads[i % w], mech),
    );
    flat.chunks(w).map(<[MultiEval]>::to_vec).collect()
}

/// Prints one panel of a dual-core figure: rows are the paper's 23
/// figure applications (by pair index, assuming `eval_pairs` ordering),
/// columns the designs, final row the average over *all* workloads.
pub fn print_pair_metric(
    title: &str,
    designs: &[Design],
    workloads: &[Workload],
    matrix: &[Vec<PairEval>],
    metric: impl Fn(&PairEval) -> f64,
) {
    println!("--- {title} ---");
    let mut header = vec!["workload".to_string()];
    header.extend(designs.iter().map(Design::label));
    let mut table = strange_metrics::Table::new(
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let figure_rows = workloads.len().min(23);
    for w in 0..figure_rows {
        let mut row = vec![workloads[w].apps[0].label()];
        for design_row in matrix {
            row.push(format!("{:.2}", metric(&design_row[w])));
        }
        table.row(&row);
    }
    let mut avg_row = vec![format!("AVG({})", workloads.len())];
    for design_row in matrix {
        let vals: Vec<f64> = design_row.iter().map(&metric).collect();
        avg_row.push(format!("{:.3}", mean(&vals)));
    }
    table.row(&avg_row);
    println!("{}", table.render());
}

/// Prints the standard experiment banner with the paper's expectation.
pub fn banner(experiment: &str, paper: &str) {
    println!("\n=== {experiment} ===");
    println!("paper: {paper}");
    println!(
        "scale: {} instructions/core (STRANGE_INSTR), {} workloads/group \
         (STRANGE_PER_GROUP), {} worker threads (STRANGE_THREADS)\n",
        instr_target(),
        per_group(),
        runner::worker_threads()
    );
}

/// Arithmetic mean helper (bench targets should not unwrap inline).
pub fn mean(xs: &[f64]) -> f64 {
    strange_metrics::arithmetic_mean(xs).unwrap_or(0.0)
}

/// Geometric mean helper.
pub fn gmean(xs: &[f64]) -> f64 {
    geometric_mean(xs).unwrap_or(0.0)
}

/// Percent improvement of `new` over `old` where lower is better.
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (old - new) / old * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strange_workloads::app_by_name;

    fn tiny_scale() -> ScaleConfig {
        ScaleConfig {
            instr: 5_000,
            per_group: 2,
        }
    }

    #[test]
    fn designs_produce_valid_configs() {
        let wl = Workload::pair(&app_by_name("mcf").unwrap(), 5120);
        for d in [
            Design::Oblivious,
            Design::ObliviousBliss,
            Design::Greedy,
            Design::DrStrange,
            Design::DrStrangeRl,
            Design::DrStrangeNoPred,
            Design::DrStrangeNoLowUtil,
            Design::RngAwareNoBuffer,
            Design::Buffered(0),
            Design::Buffered(4),
            Design::Priority(true),
            Design::Priority(false),
            Design::PeriodThreshold(80),
        ] {
            d.config(&wl).validate().unwrap();
            assert_eq!(
                d.config_scaled(&wl, 1234).instruction_target,
                1234,
                "explicit scale must be honored"
            );
            assert!(!d.label().is_empty());
        }
    }

    #[test]
    fn priority_config_marks_the_right_core() {
        let wl = Workload::pair(&app_by_name("mcf").unwrap(), 5120);
        let rng_core = wl.rng_core().unwrap();
        let cfg = Design::Priority(true).config(&wl);
        assert_eq!(cfg.priority_of(rng_core), 2);
        assert_eq!(cfg.priority_of(1 - rng_core), 1);
        let cfg = Design::Priority(false).config(&wl);
        assert_eq!(cfg.priority_of(rng_core), 1);
        assert_eq!(cfg.priority_of(1 - rng_core), 2);
    }

    #[test]
    fn alone_cache_hits() {
        // Scale is injected explicitly — no process-environment mutation,
        // so this test is safe under the parallel test runner.
        let h = Harness::with_scale(tiny_scale());
        let app = AppRef::Named("povray");
        let a = h.alone(&app, Mech::DRange);
        let b = h.alone(&app, Mech::DRange);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(h.alone_cache_len(), 1);
    }

    #[test]
    fn alone_cache_dedups_across_worker_threads() {
        let h = Harness::with_scale(tiny_scale());
        let app = AppRef::Named("povray");
        let runs = runner::run_indexed(8, 4, |_| h.alone(&app, Mech::DRange));
        assert_eq!(h.alone_cache_len(), 1, "computed exactly once");
        assert!(runs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn run_many_preserves_job_order() {
        let h = Harness::with_scale(tiny_scale());
        let wl = Workload::pair(&app_by_name("povray").unwrap(), 640);
        let jobs = vec![
            RunJob::new(Design::Oblivious, wl.clone(), Mech::DRange),
            RunJob::new(Design::DrStrange, wl.clone(), Mech::DRange),
        ];
        let batch = h.run_many(&jobs);
        assert_eq!(batch.len(), 2);
        let seq_base = h.run(Design::Oblivious, &wl, Mech::DRange);
        let seq_ds = h.run(Design::DrStrange, &wl, Mech::DRange);
        assert_eq!(batch[0].cpu_cycles, seq_base.cpu_cycles);
        assert_eq!(batch[1].cpu_cycles, seq_ds.cpu_cycles);
    }

    #[test]
    fn improvement_pct_signs() {
        assert!(improvement_pct(2.0, 1.5) > 0.0);
        assert!(improvement_pct(1.5, 2.0) < 0.0);
        assert_eq!(improvement_pct(0.0, 1.0), 0.0);
    }
}
