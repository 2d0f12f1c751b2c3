//! Workload infrastructure for the DR-STRaNGe reproduction: the 43-app
//! benchmark catalog, synthetic trace generation, the synthetic RNG
//! benchmarks, every multi-programmed mix the paper evaluates, and
//! service-client populations (closed-loop / Poisson / bursty arrival
//! processes) for the cycle-accurate `getrandom()` service layer.
//!
//! The paper's applications come from SPEC CPU2006, TPC, STREAM,
//! MediaBench, and YCSB via 200 M-instruction SimPoint traces; those traces
//! are not redistributable, so this crate generates *synthetic stand-ins*
//! calibrated per application (MPKI, row locality, write mix, footprint —
//! see [`AppSpec`] and DESIGN.md §2). Workload construction follows the
//! paper's Tables 2–3 exactly: 172 motivation pairs, 43 evaluation pairs,
//! four-core LLLS/LLHS/LHHS/HHHS groups, and 8/16-core L/M/H groups.
//!
//! # Examples
//!
//! Build the paper's dual-core evaluation workloads and instantiate the
//! trace generators for the first one:
//!
//! ```
//! use strange_workloads::eval_pairs;
//!
//! let workloads = eval_pairs(5120);
//! assert_eq!(workloads.len(), 43);
//! let traces = workloads[0].traces();
//! assert_eq!(traces.len(), 2); // one app + one RNG benchmark
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod arrivals;
mod clients;
mod fleet;
mod mix;
mod rng_app;
mod synth;

pub use apps::{
    all_apps, app_by_name, apps_in_class, figure_apps, low_intensity_apps, AppSpec, IntensityClass,
};
pub use arrivals::{
    emit_arrival_trace, parse_arrival_trace, trace_replay_service, ArrivalTraceError,
};
pub use mix::{
    eval_pairs, four_core_groups, motivation_pairs, multicore_class_groups, nonrng_class_groups,
    AppRef, Workload,
};
pub use fleet::{fleet_flash_crowd, fleet_shard_seed, fleet_shard_service};
pub use clients::{
    aging_service, assign_qos, bursty_service, closed_loop_service, contended_qos_service,
    flash_crowd_service, flash_crowd_with_victim, gap_for_offered_mbps, poisson_service,
    slow_drain_service, wfq_service,
};
pub use rng_app::{
    rng_gap_for_throughput, RngBenchmark, RNG_BURST_REQUESTS, RNG_THROUGHPUTS_MBPS,
    RNG_THROUGHPUT_HIGH_MBPS,
};
pub use synth::{seed_for, SyntheticTrace};
