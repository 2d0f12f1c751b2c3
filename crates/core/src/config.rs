//! System configuration (paper Table 1) and the design points of the
//! evaluation.

use strange_cpu::CoreConfig;
use strange_dram::{ConfigError, Geometry, TimingParams};

use crate::faults::FaultPlan;
use crate::health::WatchdogConfig;
use crate::sched::{CoalesceWindow, FairnessPolicy};
use crate::service::{QosClass, ServiceConfig};

/// Which baseline per-channel scheduling policy the controller uses for
/// regular (non-RNG) requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// FR-FCFS with a column-access cap (the paper's baseline; cap 16).
    FrFcfsCap(u32),
    /// Pure FR-FCFS (no cap).
    FrFcfs,
    /// BLISS with the paper's parameters (threshold 4, interval 10 000).
    Bliss,
}

/// How RNG requests are routed and arbitrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RngRouting {
    /// RNG-oblivious: RNG requests share the per-channel read queues and
    /// compete under the baseline policy (Section 3's baseline).
    Oblivious,
    /// RNG-aware: a separate global RNG request queue plus the Section 5.2
    /// priority rules and starvation prevention.
    Aware,
}

/// How the random number buffer is filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillMode {
    /// No buffer filling (every request is generated on demand).
    None,
    /// The Greedy Idle Design (Section 7): an oracle that adds one batch of
    /// bits for every `PeriodThreshold` cycles a channel stays idle, with
    /// zero overhead (no channel occupancy, no commands).
    GreedyOracle,
    /// Real filling driven by an idleness predictor: generation rounds
    /// occupy the channel, mispredictions stall regular requests.
    Predictive,
}

/// How the simulation loop advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Tick every CPU cycle and every DRAM cycle unconditionally — the
    /// bit-exact reference the fast-forward path is validated against.
    Reference,
    /// Event-driven fast-forward: when every core is dormant and every
    /// channel quiescent, jump straight to the next event (completion,
    /// blockade end, refresh deadline, fill round, timing readiness) and
    /// bulk-apply the per-cycle accounting for the skipped span. Produces
    /// results bit-identical to [`SimMode::Reference`].
    FastForward,
}

/// Which DRAM idleness predictor gates predictive filling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Treat every idle period as long (the "simple buffering mechanism"
    /// of Section 5.1.1, evaluated as "DR-STRaNGe (No Pred.)" in Fig. 13).
    AlwaysLong,
    /// The 256-entry 2-bit-saturating-counter predictor (Section 5.1.2).
    Simple,
    /// The Q-learning predictor (Section 5.1.2, "DR-STRaNGe + RL").
    Qlearning,
}

/// Full system configuration.
///
/// Defaults reproduce paper Table 1 plus the DR-STRaNGe row: 4 GHz 3-wide
/// cores with 128-entry windows, DDR3-1600 with 4 channels × 1 rank × 8
/// banks, 32-entry queues, FR-FCFS+Cap(16), a 32-entry RNG queue, a
/// 256-entry predictor table per channel, and a 16-entry random number
/// buffer.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (1–16 in the paper's experiments).
    pub cores: usize,
    /// Instructions each core must retire for the run to count as finished.
    pub instruction_target: u64,
    /// DRAM geometry.
    pub geometry: Geometry,
    /// DRAM timing parameters.
    pub timing: TimingParams,
    /// Core microarchitecture parameters.
    pub core: CoreConfig,
    /// Per-channel scheduling policy for regular requests.
    pub scheduler: SchedulerKind,
    /// RNG request routing (oblivious vs. RNG-aware).
    pub routing: RngRouting,
    /// Buffer-fill strategy.
    pub fill: FillMode,
    /// Idleness predictor used by [`FillMode::Predictive`].
    pub predictor: PredictorKind,
    /// Random number buffer capacity in 64-bit entries (paper default 16;
    /// 0 disables the buffer entirely).
    pub buffer_entries: usize,
    /// Idle-period length (cycles) above which a period counts as long
    /// (paper: 40, the time to generate one 8-bit batch).
    pub period_threshold: u64,
    /// Low-utilization threshold: read-queue occupancy below which the
    /// predictor may trigger a fill despite pending requests (paper: 4;
    /// 0 disables low-utilization filling).
    pub low_util_threshold: usize,
    /// Starvation-prevention stall limit in cycles (paper: 100).
    pub stall_limit: u64,
    /// Global RNG request queue capacity (paper: 32).
    pub rng_queue_capacity: usize,
    /// Latency (memory cycles) to serve a random number from the buffer,
    /// covering the syscall path and the buffer read.
    pub buffer_serve_latency: u64,
    /// Per-core OS priority levels (higher = more important). Empty means
    /// all equal.
    pub priorities: Vec<u8>,
    /// Safety cap on simulated CPU cycles (0 = derive from the target).
    pub max_cpu_cycles: u64,
    /// How the simulation loop advances time (defaults to
    /// [`SimMode::FastForward`]; results are identical either way).
    pub sim_mode: SimMode,
    /// Whether the random number buffer starts full (default true: a
    /// booted machine reaches a full buffer long before any measurement
    /// window). Disable for cold-start studies and the interactive
    /// `RngDevice` front-end.
    pub prefill_buffer: bool,
    /// The `getrandom()` service layer: simulated clients issuing
    /// random-number requests from configurable arrival processes (empty
    /// disables the service — the default).
    pub service: ServiceConfig,
    /// How competing tenants are ordered at the buffer-serve and
    /// service-issue decision points (defaults to
    /// [`FairnessPolicy::Strict`], the pre-policy behavior, bit-identical
    /// to earlier versions).
    pub fairness: FairnessPolicy,
    /// The Section 5.2 burst-coalescing window: when a queued RNG burst
    /// commits to one generation episode (defaults to
    /// [`CoalesceWindow::Stability`], the paper-faithful one-cycle
    /// stability wait).
    pub coalesce: CoalesceWindow,
    /// Deterministic fault schedule (channel outages, stall storms,
    /// entropy derating, buffer corruption) applied by the engine at
    /// exact DRAM-bus cycles. Empty — no faults — by default.
    pub fault_plan: FaultPlan,
    /// Entropy-health watchdog (per-channel quality windows, quarantine,
    /// probationary re-admission). Disabled by default.
    pub watchdog: WatchdogConfig,
}

impl SystemConfig {
    /// Table 1 baseline system with `cores` cores: RNG-oblivious routing,
    /// no buffer, FR-FCFS+Cap(16).
    pub fn rng_oblivious(cores: usize) -> Self {
        SystemConfig {
            cores,
            instruction_target: 300_000,
            geometry: Geometry::paper_default(),
            timing: TimingParams::ddr3_1600(),
            core: CoreConfig::paper_default(),
            scheduler: SchedulerKind::FrFcfsCap(16),
            routing: RngRouting::Oblivious,
            fill: FillMode::None,
            predictor: PredictorKind::Simple,
            buffer_entries: 0,
            period_threshold: 40,
            low_util_threshold: 4,
            stall_limit: 100,
            rng_queue_capacity: 32,
            buffer_serve_latency: 10,
            priorities: Vec::new(),
            max_cpu_cycles: 0,
            sim_mode: SimMode::FastForward,
            prefill_buffer: true,
            service: ServiceConfig::default(),
            fairness: FairnessPolicy::Strict,
            coalesce: CoalesceWindow::Stability,
            fault_plan: FaultPlan::default(),
            watchdog: WatchdogConfig::off(),
        }
    }

    /// The Greedy Idle comparison design: RNG-aware routing, oracle filling
    /// into a 16-entry buffer.
    pub fn greedy_idle(cores: usize) -> Self {
        SystemConfig {
            routing: RngRouting::Aware,
            fill: FillMode::GreedyOracle,
            buffer_entries: 16,
            ..SystemConfig::rng_oblivious(cores)
        }
    }

    /// Full DR-STRaNGe: RNG-aware routing, predictive filling with the
    /// simple predictor (low-utilization threshold 4), 16-entry buffer.
    pub fn dr_strange(cores: usize) -> Self {
        SystemConfig {
            routing: RngRouting::Aware,
            fill: FillMode::Predictive,
            predictor: PredictorKind::Simple,
            buffer_entries: 16,
            ..SystemConfig::rng_oblivious(cores)
        }
    }

    /// DR-STRaNGe with the Q-learning predictor ("DR-STRaNGe + RL").
    pub fn dr_strange_rl(cores: usize) -> Self {
        SystemConfig {
            predictor: PredictorKind::Qlearning,
            ..SystemConfig::dr_strange(cores)
        }
    }

    /// DR-STRaNGe without an idleness predictor (Section 5.1.1's simple
    /// buffering; "DR-STRaNGe (No Pred.)" in Figure 13): every idle cycle
    /// triggers filling, no low-utilization mode.
    pub fn dr_strange_no_predictor(cores: usize) -> Self {
        SystemConfig {
            predictor: PredictorKind::AlwaysLong,
            low_util_threshold: 0,
            ..SystemConfig::dr_strange(cores)
        }
    }

    /// Sets the per-core instruction target.
    pub fn with_instruction_target(mut self, target: u64) -> Self {
        self.instruction_target = target;
        self
    }

    /// Sets the buffer capacity in 64-bit entries.
    pub fn with_buffer_entries(mut self, entries: usize) -> Self {
        self.buffer_entries = entries;
        self
    }

    /// Sets per-core priorities (higher value = higher priority).
    pub fn with_priorities(mut self, priorities: Vec<u8>) -> Self {
        self.priorities = priorities;
        self
    }

    /// Sets the baseline scheduling policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the low-utilization threshold (0 disables).
    pub fn with_low_util_threshold(mut self, threshold: usize) -> Self {
        self.low_util_threshold = threshold;
        self
    }

    /// Sets the simulation-loop mode (reference vs. fast-forward).
    pub fn with_sim_mode(mut self, sim_mode: SimMode) -> Self {
        self.sim_mode = sim_mode;
        self
    }

    /// Sets the `getrandom()` service configuration (clients + capture).
    pub fn with_service(mut self, service: ServiceConfig) -> Self {
        self.service = service;
        self
    }

    /// Enables or disables the boot-time buffer pre-fill.
    pub fn with_prefill_buffer(mut self, prefill: bool) -> Self {
        self.prefill_buffer = prefill;
        self
    }

    /// Sets the tenant fairness policy (strict priority, aging, or
    /// weighted fair queueing).
    pub fn with_fairness(mut self, fairness: FairnessPolicy) -> Self {
        self.fairness = fairness;
        self
    }

    /// Sets the RNG-burst coalescing window.
    pub fn with_coalesce_window(mut self, coalesce: CoalesceWindow) -> Self {
        self.coalesce = coalesce;
        self
    }

    /// Sets the deterministic fault schedule.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Sets the entropy-health watchdog configuration.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Priority level of `core` (1 when unset — all applications equal).
    pub fn priority_of(&self, core: usize) -> u8 {
        self.priorities.get(core).copied().unwrap_or(1)
    }

    /// Extends `priorities` to cover the service clients' virtual cores
    /// (index `cores + i` for client *i*) from their QoS classes, so the
    /// Section 5.2 arbitration sees tenant priorities. Explicit entries
    /// win; when every client is [`QosClass::Normal`] and no entry covers
    /// a virtual core, the vector is left as-is (Normal equals the
    /// unset-default priority 1). Called by `System::new` /
    /// `MemSubsystem::new`; idempotent.
    pub(crate) fn materialize_client_priorities(&mut self) {
        let clients = &self.service.clients;
        let full = self.cores + clients.len();
        if clients.is_empty() || self.priorities.len() >= full {
            return;
        }
        if self.priorities.len() <= self.cores
            && clients.iter().all(|c| c.qos == QosClass::Normal)
        {
            return;
        }
        while self.priorities.len() < self.cores {
            self.priorities.push(1);
        }
        while self.priorities.len() < full {
            let i = self.priorities.len() - self.cores;
            self.priorities.push(clients[i].qos.priority());
        }
    }

    /// Upper bound on CPU cycles for the run.
    pub fn cycle_limit(&self) -> u64 {
        if self.max_cpu_cycles > 0 {
            self.max_cpu_cycles
        } else {
            // Generous: a slowdown beyond ~300x would hit this.
            self.instruction_target.saturating_mul(300).max(1_000_000)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] when a field is out of
    /// range (zero cores, zero instruction target, geometry/timing issues,
    /// or a predictive configuration with a zero-entry buffer).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 && self.service.clients.is_empty() && !self.service.sessions {
            // A pure service-driven system (no trace cores) is a valid
            // configuration; a system with neither cores nor clients —
            // and no dynamic-session registration — is not.
            return Err(ConfigError::InvalidParameter {
                field: "cores",
                constraint: "be nonzero (or configure service clients/sessions)",
            });
        }
        for client in &self.service.clients {
            client.validate()?;
        }
        if self.priorities.len() > self.cores + self.service.clients.len() {
            // Entries beyond the last virtual client core could never be
            // consulted; rejecting them catches mis-sized QoS setups.
            return Err(ConfigError::InvalidParameter {
                field: "priorities",
                constraint: "cover at most the cores plus service clients",
            });
        }
        if self.instruction_target == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "instruction_target",
                constraint: "be nonzero",
            });
        }
        if self.rng_queue_capacity == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "rng_queue_capacity",
                constraint: "be nonzero",
            });
        }
        if self.fill != FillMode::None && self.buffer_entries == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "buffer_entries",
                constraint: "be nonzero when a fill mode is enabled",
            });
        }
        if matches!(self.fairness, FairnessPolicy::Aging { quantum: 0 }) {
            return Err(ConfigError::InvalidParameter {
                field: "fairness.quantum",
                constraint: "be nonzero (aging cycles per priority level)",
            });
        }
        if matches!(self.fairness, FairnessPolicy::WeightedFair { quantum: 0 }) {
            return Err(ConfigError::InvalidParameter {
                field: "fairness.quantum",
                constraint: "be nonzero (DRR words per unit weight)",
            });
        }
        if matches!(self.coalesce, CoalesceWindow::KOrTimeout { k: 0, .. }) {
            return Err(ConfigError::InvalidParameter {
                field: "coalesce.k",
                constraint: "be nonzero (k = 1 disables coalescing)",
            });
        }
        self.fault_plan.validate(self.geometry.channels)?;
        self.watchdog.validate()?;
        self.geometry.validate()?;
        self.timing.validate()?;
        Ok(())
    }

    /// Renders the configuration as paper-Table-1-style rows (used by the
    /// `table1_config` bench target).
    pub fn describe(&self) -> String {
        format!(
            "Processor     {} cores, 4GHz, {}-wide issue, {}-entry instruction window\n\
             DRAM          DDR3-1600, 800MHz bus, {} channels, {} rank/channel, {} banks/rank, {}K rows/bank\n\
             Memory Ctrl.  32-entry read/write queues, {:?}\n\
             DR-STRANGE    {}-entry RNG queue, routing {:?}, fill {:?}, predictor {:?}, {}-entry random number buffer",
            self.cores,
            self.core.issue_width,
            self.core.window_size,
            self.geometry.channels,
            self.geometry.ranks,
            self.geometry.banks,
            self.geometry.rows / 1024,
            self.scheduler,
            self.rng_queue_capacity,
            self.routing,
            self.fill,
            self.predictor,
            self.buffer_entries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            SystemConfig::rng_oblivious(2),
            SystemConfig::greedy_idle(2),
            SystemConfig::dr_strange(2),
            SystemConfig::dr_strange_rl(4),
            SystemConfig::dr_strange_no_predictor(2),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn paper_defaults_match_table1() {
        let cfg = SystemConfig::dr_strange(2);
        assert_eq!(cfg.geometry.channels, 4);
        assert_eq!(cfg.geometry.banks, 8);
        assert_eq!(cfg.core.issue_width, 3);
        assert_eq!(cfg.core.window_size, 128);
        assert_eq!(cfg.buffer_entries, 16);
        assert_eq!(cfg.period_threshold, 40);
        assert_eq!(cfg.low_util_threshold, 4);
        assert_eq!(cfg.stall_limit, 100);
        assert_eq!(cfg.rng_queue_capacity, 32);
        assert_eq!(cfg.scheduler, SchedulerKind::FrFcfsCap(16));
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(SystemConfig::rng_oblivious(0).validate().is_err());
    }

    #[test]
    fn predictive_fill_requires_buffer() {
        let cfg = SystemConfig::dr_strange(2).with_buffer_entries(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fairness_policy_parameters_are_validated() {
        for cfg in [
            SystemConfig::dr_strange(2).with_fairness(FairnessPolicy::aging()),
            SystemConfig::dr_strange(2).with_fairness(FairnessPolicy::weighted_fair()),
            SystemConfig::dr_strange(2)
                .with_coalesce_window(CoalesceWindow::KOrTimeout { k: 8, timeout: 400 }),
        ] {
            cfg.validate().unwrap();
        }
        let zero_aging =
            SystemConfig::dr_strange(2).with_fairness(FairnessPolicy::Aging { quantum: 0 });
        assert!(zero_aging.validate().is_err());
        let zero_wfq =
            SystemConfig::dr_strange(2).with_fairness(FairnessPolicy::WeightedFair { quantum: 0 });
        assert!(zero_wfq.validate().is_err());
        let zero_k = SystemConfig::dr_strange(2)
            .with_coalesce_window(CoalesceWindow::KOrTimeout { k: 0, timeout: 400 });
        assert!(zero_k.validate().is_err());
    }

    #[test]
    fn fault_plans_are_validated_against_the_geometry() {
        let ok = SystemConfig::dr_strange(2)
            .with_fault_plan(FaultPlan::new().outage(1_000, 3, 500).corruption(2_000, 8));
        ok.validate().unwrap();
        let bad_channel =
            SystemConfig::dr_strange(2).with_fault_plan(FaultPlan::new().outage(1_000, 4, 500));
        assert!(bad_channel.validate().is_err(), "channel 4 of 4 is out of range");
        let unsorted = SystemConfig::dr_strange(2)
            .with_fault_plan(FaultPlan::new().corruption(2_000, 8).outage(1_000, 0, 500));
        assert!(unsorted.validate().is_err());
    }

    #[test]
    fn watchdog_config_is_validated() {
        SystemConfig::dr_strange(2)
            .with_watchdog(WatchdogConfig::standard())
            .validate()
            .unwrap();
        let mut bad = WatchdogConfig::standard();
        bad.trip_failures = 0;
        assert!(SystemConfig::dr_strange(2).with_watchdog(bad).validate().is_err());
    }

    #[test]
    fn priorities_default_to_equal() {
        let cfg = SystemConfig::dr_strange(2);
        assert_eq!(cfg.priority_of(0), cfg.priority_of(1));
        let cfg = cfg.with_priorities(vec![2, 1]);
        assert!(cfg.priority_of(0) > cfg.priority_of(1));
    }

    #[test]
    fn describe_mentions_key_structures() {
        let s = SystemConfig::dr_strange(2).describe();
        assert!(s.contains("random number buffer"));
        assert!(s.contains("DDR3-1600"));
    }

    #[test]
    fn cycle_limit_scales_with_target() {
        let cfg = SystemConfig::dr_strange(2).with_instruction_target(10_000_000);
        assert!(cfg.cycle_limit() >= 10_000_000);
    }
}
