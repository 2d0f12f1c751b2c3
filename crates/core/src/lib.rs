//! DR-STRaNGe: the end-to-end system design for DRAM-based true random
//! number generators (Bostancı et al., HPCA 2022) — the paper's primary
//! contribution, implemented over the `strange-dram` / `strange-cpu` /
//! `strange-trng` substrates.
//!
//! The three components of the design (paper Section 5):
//!
//! 1. **Random number buffering** — [`RandomNumberBuffer`] plus the DRAM
//!    idleness predictors ([`SimplePredictor`], [`QlearningPredictor`],
//!    and the predictor-less [`AlwaysLongPredictor`]) hide the high TRNG
//!    latency by generating during predicted-long idle periods.
//! 2. **RNG-aware scheduling** — the engine's separate RNG request queue,
//!    OS-priority arbitration rules, and starvation prevention
//!    (see [`MemSubsystem`]); the [`sched`] module generalizes the
//!    Section 5.2 starvation counter into pluggable tenant fairness
//!    policies ([`FairnessPolicy`]: strict priority, aging, weighted
//!    fair queueing) and makes the burst-coalescing window a knob
//!    ([`CoalesceWindow`]).
//! 3. **Application interface** — the cycle-accurate `getrandom()` service
//!    layer ([`RngService`], [`ServiceConfig`], [`ArrivalProcess`]): N
//!    simulated clients issue requests from closed-loop, Poisson, or
//!    bursty arrival processes, served from the buffer (fast path) or by
//!    real on-demand generation episodes (slow path), with per-request
//!    completion cycles recorded ([`ServiceStats`]). [`RngDevice`] is the
//!    synchronous single-caller front-end on the same path, with the
//!    Section 6 security properties.
//!
//! [`System`] ties cores, memory, and service clients together and runs
//! multi-programmed workloads; [`SystemConfig`] selects the design point
//! (RNG-oblivious baseline, Greedy Idle, DR-STRaNGe, and ablations), with
//! presets matching every configuration the paper evaluates.
//!
//! # Event-driven fast-forward (the next-event contract)
//!
//! DR-STRaNGe's whole premise is that DRAM sits idle most of the time, so
//! the simulator's hot loop would otherwise spend the majority of its
//! iterations ticking components that provably do nothing. Under
//! [`SimMode::FastForward`] (the default), [`System::run`] jumps dead
//! spans in one step while staying bit-identical to
//! [`SimMode::Reference`] — `tests/determinism.rs` asserts equality of
//! every statistic, snapshot, and served random value across both modes.
//!
//! Each layer upholds a two-method contract:
//!
//! * **Next event** — a *read-only* bound on the earliest cycle at which
//!   a tick could do anything beyond linear bookkeeping. Layers must be
//!   conservative: returning "now" merely forfeits skipping, while
//!   returning a later cycle than the true next event would silently
//!   diverge from the reference. The bounds are:
//!   [`strange_dram::ChannelController::next_event_at`] (in-flight data,
//!   RNG blockade end, refresh deadline, earliest bank/rank/bus readiness
//!   over queued requests), [`strange_cpu::Core::next_ready_cycle`]
//!   (the core's next call into memory, whatever is in flight; none
//!   when the window fills behind a miss first),
//!   [`MemSubsystem::next_event_at`] (demand-episode boundaries, RNG
//!   completions, fill rounds, greedy threshold crossings, unprocessed
//!   idle-period edges, low-utilization pacing — plus every channel),
//!   and [`RngService::next_event_at`] (arrivals, untried queued words).
//! * **Skip** — a bulk replay of the per-cycle accounting for a span the
//!   caller proved dead: [`strange_dram::ChannelController::skip_to`],
//!   [`strange_cpu::Core::skip_cycles`], [`MemSubsystem::skip_to`], the
//!   service's blocked-cycle count, and
//!   [`strange_dram::SchedulerPolicy::on_cycles_skipped`] for policies
//!   with per-cycle state (BLISS's clearing interval). After a skip the
//!   component must be indistinguishable from having ticked every cycle.
//!
//! [`System::run`] composes these: the global dead span is the minimum of
//! every core's and the memory subsystem's next event (memory events are
//! converted through the 5:1 CPU/DRAM clock ratio), capped at the
//! finish-check boundary on which the run would end so both modes report
//! identical total cycle counts. On a live cycle only the cores whose
//! event it is, or that receive a completion, are ticked; the others keep
//! their own clocks and replay the gap when next touched. New engine
//! features must either prove
//! their state changes only at cycles already reported as events, or
//! extend `next_event_at` accordingly.
//!
//! # Examples
//!
//! Run a two-application workload (one RNG benchmark, one synthetic
//! streaming app) under full DR-STRaNGe:
//!
//! ```
//! use strange_core::{System, SystemConfig};
//! use strange_cpu::{LoopTrace, TraceOp};
//! use strange_trng::DRange;
//!
//! let traces: Vec<Box<dyn strange_cpu::TraceSource + Send>> = vec![
//!     Box::new(LoopTrace::new(vec![TraceOp::Load { gap: 49, addr: 0x1000 }])),
//!     Box::new(LoopTrace::new(vec![TraceOp::Rng { gap: 150 }])),
//! ];
//! let config = SystemConfig::dr_strange(2).with_instruction_target(10_000);
//! let mut system = System::new(config, traces, Box::new(DRange::new(1)))?;
//! let result = system.run();
//! assert!(result.stats.rng_requests > 0);
//! # Ok::<(), strange_dram::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod config;
mod engine;
mod faults;
mod health;
mod interface;
mod predictor;
pub mod sched;
mod service;
mod stats;
mod system;

pub use buffer::RandomNumberBuffer;
pub use config::{FillMode, PredictorKind, RngRouting, SchedulerKind, SimMode, SystemConfig};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use health::{HealthState, WatchdogConfig};
pub use engine::{AnyPolicy, Completion, MemSubsystem};
pub use interface::RngDevice;
pub use predictor::{
    AlwaysLongPredictor, IdlenessPredictor, Prediction, QlearningPredictor, SimplePredictor,
};
pub use sched::{CoalesceWindow, FairnessPolicy};
pub use service::{
    ArrivalProcess, ClientSpec, QosClass, RngService, ServeKind, ServedRequest, ServiceConfig,
    ServiceStats,
};
pub use stats::SystemStats;
pub use system::{CoreOutcome, RunResult, System};
