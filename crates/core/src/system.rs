//! The end-to-end simulated system: cores + DR-STRaNGe memory subsystem.
//!
//! [`System`] couples the trace-driven cores (4 GHz) to the memory
//! subsystem (800 MHz DRAM bus, 5 CPU cycles per DRAM cycle) and runs the
//! multi-programmed workload until every core retires its instruction
//! target. Cores that finish early keep executing — the standard
//! methodology for multi-programmed evaluation, which preserves memory
//! contention for the co-runners.

use strange_cpu::{Core, CoreStats, FinishSnapshot, TraceSource};
use strange_dram::{ChannelStats, ConfigError, CoreId, CPU_CYCLES_PER_MEM_CYCLE};
use strange_trng::TrngMechanism;

use crate::config::{SimMode, SystemConfig};
use crate::engine::{Completion, MemSubsystem};
use crate::service::{ClientSpec, QosClass, RngService, ServedRequest, ServiceStats};
use crate::stats::SystemStats;

/// How often the run loop re-checks whether every core has finished (in
/// CPU cycles). Both simulation modes quantize the finish check to the
/// same boundaries so they report identical total cycle counts.
const FINISH_CHECK_PERIOD: u64 = 64;

/// Outcome of one core's execution.
#[derive(Debug, Clone)]
pub struct CoreOutcome {
    /// Statistics frozen when the instruction target was reached (absent
    /// only if the run hit the safety cycle limit first).
    pub finish: Option<FinishSnapshot>,
    /// Statistics at the end of the whole run (includes post-target work).
    pub end_stats: CoreStats,
}

impl CoreOutcome {
    /// Execution time in CPU cycles for the instruction target; falls back
    /// to the full run length when the target was not reached.
    pub fn exec_cycles(&self, run_cycles: u64) -> u64 {
        self.finish.map_or(run_cycles, |f| f.at_cycle.max(1))
    }

    /// MCPI at the instruction target (memory + RNG stalls per
    /// instruction).
    pub fn mcpi(&self) -> f64 {
        self.finish.map_or(self.end_stats.mcpi(), |f| f.stats.mcpi())
    }

    /// IPC for the instruction-target window.
    pub fn ipc(&self) -> f64 {
        match self.finish {
            Some(f) => f.stats.retired as f64 / f.at_cycle.max(1) as f64,
            None => self.end_stats.ipc(),
        }
    }
}

/// Results of a completed simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-core outcomes, indexed by core id.
    pub cores: Vec<CoreOutcome>,
    /// Engine statistics (buffer, predictor, generation episodes).
    pub stats: SystemStats,
    /// Per-channel DRAM statistics (commands, idle periods, latencies).
    pub channels: Vec<ChannelStats>,
    /// `getrandom()` service-layer statistics (request latencies, offered
    /// vs served counts); `None` when no service clients were configured.
    pub service: Option<ServiceStats>,
    /// Total CPU cycles simulated.
    pub cpu_cycles: u64,
    /// Total DRAM bus cycles simulated.
    pub mem_cycles: u64,
    /// True when the safety cycle limit ended the run before every core
    /// finished (indicates a pathological configuration).
    pub hit_cycle_limit: bool,
}

impl RunResult {
    /// Execution time (CPU cycles) of `core` for its instruction target.
    pub fn exec_cycles(&self, core: CoreId) -> u64 {
        self.cores[core].exec_cycles(self.cpu_cycles)
    }

    /// Slowdown of `core` relative to a baseline run of the same
    /// application alone.
    ///
    /// # Panics
    ///
    /// Panics when `alone` has no core `core`: silently substituting a
    /// different core's baseline would produce a wrong-but-plausible
    /// slowdown, so a mismatched comparison is a caller bug.
    pub fn slowdown_vs(&self, core: CoreId, alone: &RunResult) -> f64 {
        assert!(
            core < alone.cores.len(),
            "slowdown_vs: core {core} has no counterpart in the alone run ({} cores)",
            alone.cores.len()
        );
        self.exec_cycles(core) as f64 / alone.exec_cycles(core) as f64
    }

    /// Aggregated DRAM statistics over all channels.
    pub fn total_channel_stats(&self) -> ChannelStats {
        let mut total = ChannelStats::new();
        for ch in &self.channels {
            total.merge(ch);
        }
        total
    }
}

/// A core and the cycle it has been simulated up to.
///
/// [`SimMode::Reference`] ticks every core on every cycle, so every clock
/// equals the system's. [`SimMode::FastForward`] touches a core only on
/// the cycle of its next memory call (`event`, cached when the core was
/// last ticked) or when a completion arrives for it; in between the core
/// lags, and whoever needs its state at a later cycle — a completion, its
/// own event, the finish check, the end of the run — replays the gap in
/// closed form, which is exact because a lagging core received nothing.
struct Lane {
    core: Core,
    /// The first cycle the core has not simulated yet.
    clock: u64,
    /// The cycle of the core's next memory call if no completion arrives
    /// first; `u64::MAX` when only a completion can bring one about.
    event: u64,
}

impl Lane {
    /// Replays the core's dead cycles up to (excluding) `now`.
    fn sync(&mut self, now: u64) {
        if self.clock < now {
            self.core.skip_cycles(self.clock, now - self.clock);
            self.clock = now;
        }
    }

    /// Runs cycle `now` live and caches the core's next event.
    fn tick(&mut self, now: u64, mem: &mut MemSubsystem) {
        self.sync(now);
        self.core.tick(now, mem);
        self.clock = now + 1;
        self.event = self.core.next_ready_cycle(now + 1).unwrap_or(u64::MAX);
    }

    /// The cycle by which the core counts as finished if it stays dead
    /// until `until`, `None` if it does not finish before then.
    fn finish_by(&self, until: u64) -> Option<u64> {
        self.core.finish_within(self.clock, until - self.clock)
    }
}

/// The full simulated system.
pub struct System {
    config: SystemConfig,
    cores: Vec<Lane>,
    mem: MemSubsystem,
    service: Option<RngService>,
    cpu_cycle: u64,
    skipped_cycles: u64,
    completions: Vec<Completion>,
}

impl System {
    /// Builds a system from a configuration, one trace per core, and a TRNG
    /// mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] when the configuration is
    /// invalid or the number of traces does not match `config.cores`.
    pub fn new(
        config: SystemConfig,
        traces: Vec<Box<dyn TraceSource + Send>>,
        mechanism: Box<dyn TrngMechanism>,
    ) -> Result<Self, ConfigError> {
        let mut config = config;
        config.validate()?;
        config.materialize_client_priorities();
        if traces.len() != config.cores {
            return Err(ConfigError::InvalidParameter {
                field: "traces",
                constraint: "match the configured core count",
            });
        }
        let cores: Vec<Lane> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Lane {
                core: Core::new(i, config.core, t, config.instruction_target),
                clock: 0,
                // Ticked on the first cycle, which derives the real event.
                event: 0,
            })
            .collect();
        let mem = MemSubsystem::new(config.clone(), mechanism);
        let service = (!config.service.clients.is_empty() || config.service.sessions)
            .then(|| RngService::new(&config.service, config.cores, config.fairness));
        Ok(System {
            config,
            cores,
            mem,
            service,
            cpu_cycle: 0,
            skipped_cycles: 0,
            completions: Vec::new(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The memory subsystem (buffer/queue inspection in tests).
    pub fn mem(&self) -> &MemSubsystem {
        &self.mem
    }

    /// Enables logging of served random values (see
    /// [`MemSubsystem::value_log`]).
    pub fn set_value_log(&mut self, enabled: bool) {
        self.mem.set_value_log(enabled);
    }

    /// CPU cycles simulated so far.
    pub fn cpu_cycles(&self) -> u64 {
        self.cpu_cycle
    }

    /// CPU cycles fast-forwarded (not individually ticked) so far. Zero
    /// under [`SimMode::Reference`]; tests use this to prove the fast
    /// path actually engages rather than degenerating to per-cycle
    /// stepping (which would make mode-equivalence checks vacuous).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// CPU cycles individually ticked so far: every cycle is either
    /// ticked or skipped. Under [`SimMode::FastForward`] this should
    /// scale with the number of simulated events, not cycles; tests gate
    /// on it so a per-cycle polling pin cannot silently come back.
    pub fn live_ticks(&self) -> u64 {
        self.cpu_cycle - self.skipped_cycles
    }

    /// Channel-controller ticks run so far. Under [`SimMode::Reference`]
    /// every memory tick ticks every channel; under
    /// [`SimMode::FastForward`] a channel is ticked only when its own
    /// event is due, so this counts channel events, not memory ticks.
    pub fn channel_ticks(&self) -> u64 {
        self.mem.channel_ticks()
    }

    /// Advances the system by `n` CPU cycles (test/diagnostic hook; `run`
    /// is the normal entry point).
    pub fn step_cpu_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step_one();
        }
        self.mem.sync_channels();
    }

    fn step_one(&mut self) {
        let now = self.cpu_cycle;
        let fast = self.config.sim_mode == SimMode::FastForward;
        if now.is_multiple_of(CPU_CYCLES_PER_MEM_CYCLE) {
            let mem_now = now / CPU_CYCLES_PER_MEM_CYCLE;
            self.mem.tick(mem_now, &mut self.completions);
            for done in self.completions.drain(..) {
                if let Some(lane) = self.cores.get_mut(done.core) {
                    // The core ran without this answer until now; with it,
                    // its next memory call may come sooner than cached, so
                    // it runs this cycle live and re-derives its event.
                    lane.sync(now);
                    lane.core.complete(done.id);
                    lane.event = now;
                } else {
                    let svc = self
                        .service
                        .as_mut()
                        .expect("virtual-core completion without a service");
                    debug_assert!(svc.owns_core(done.core), "completion core out of range");
                    let (value, from_buffer) =
                        done.rng.expect("service requests are RNG requests");
                    svc.complete(done.id, value, from_buffer, now);
                }
            }
        }
        // Core-id order in both modes: a core that is not ticked makes no
        // memory call, so request ids and queue order do not depend on
        // which cores were skipped.
        for lane in &mut self.cores {
            if !fast {
                lane.core.tick(now, &mut self.mem);
                lane.clock = now + 1;
            } else if lane.event <= now {
                lane.tick(now, &mut self.mem);
            }
        }
        if let Some(svc) = &mut self.service {
            svc.tick(now, &mut self.mem);
        }
        self.cpu_cycle += 1;
    }

    /// The end of the dead span starting at the current cycle: the
    /// earliest upcoming core or memory event, capped at `stop`. Equal to
    /// the current cycle when something happens right now.
    fn next_event(&self, stop: u64) -> u64 {
        let now = self.cpu_cycle;
        let mut end = stop;
        for lane in &self.cores {
            if lane.event <= now {
                return now;
            }
            end = end.min(lane.event);
        }
        // Service-client arrivals are CPU-cycle events, and so is the first
        // issue attempt of freshly queued words. A back-pressured client
        // does not pin the span: its retry can only succeed at a live
        // memory tick, bounded below.
        if let Some(svc) = &self.service {
            match svc.next_event_at(now) {
                Some(t) if t <= now => return now,
                Some(t) => end = end.min(t),
                None => {}
            }
        }
        // The next memory tick runs at the next multiple of the clock
        // ratio; events there bound the CPU-cycle span.
        let mem_next = self.cpu_cycle.div_ceil(CPU_CYCLES_PER_MEM_CYCLE);
        let mem_event = self.mem.next_event_at(mem_next);
        if mem_event != u64::MAX {
            end = end.min(mem_event.saturating_mul(CPU_CYCLES_PER_MEM_CYCLE));
        }
        end.max(now)
    }

    /// Whether every core has reached its instruction target by the
    /// current cycle.
    fn cores_finished(&self) -> bool {
        let now = self.cpu_cycle;
        self.cores.iter().all(|lane| lane.finish_by(now).is_some())
    }

    /// Caps a dead-span skip target at the finish-check boundary on which
    /// the run would end, so fast-forward stops on exactly the same cycle
    /// as the per-cycle reference. Within a dead span a core's finish
    /// state can only flip while ready instructions retire, which
    /// [`Core::finish_within`] predicts in closed form from wherever the
    /// core's own clock stands.
    fn capped_at_run_end(&self, target: u64) -> u64 {
        let now = self.cpu_cycle;
        if target <= now {
            return target;
        }
        // Service targets can only be met at a live tick (a completion
        // delivery), never inside a dead span, so an unmet service means
        // the run cannot end inside the span.
        if self.service.as_ref().is_some_and(|s| !s.targets_met()) {
            return target;
        }
        let mut last_finish = now;
        for lane in &self.cores {
            match lane.finish_by(target) {
                Some(at) => last_finish = last_finish.max(at),
                // Some core cannot finish in this span: the run cannot
                // end inside it, so the full skip is safe.
                None => return target,
            }
        }
        // Every core is finished by `last_finish`; the reference loop
        // breaks at the first finish-check boundary after it.
        let boundary = (last_finish / FINISH_CHECK_PERIOD + 1) * FINISH_CHECK_PERIOD;
        target.min(boundary)
    }

    /// Jumps the system to `target`, bulk-applying the skipped span's
    /// accounting across the memory subsystem and the service. Cores keep
    /// their own clocks and catch up when next touched.
    fn skip_to(&mut self, target: u64) {
        let now = self.cpu_cycle;
        debug_assert!(target > now);
        // A dead span must not contain any service event.
        debug_assert!(
            self.service
                .as_ref()
                .and_then(|s| s.next_event_at(now))
                .is_none_or(|t| t >= target),
            "skip_to past a service arrival"
        );
        // Memory ticks that fall inside the skipped CPU span.
        let mem_lo = now.div_ceil(CPU_CYCLES_PER_MEM_CYCLE);
        let mem_hi = target.div_ceil(CPU_CYCLES_PER_MEM_CYCLE);
        if mem_hi > mem_lo {
            self.mem.skip_to(mem_lo, mem_hi);
        }
        if let Some(svc) = &mut self.service {
            svc.skip_cycles(target - now);
        }
        self.skipped_cycles += target - now;
        self.cpu_cycle = target;
    }

    /// Runs the workload until every core reaches its instruction target
    /// (or the safety cycle limit trips) and returns the results.
    ///
    /// [`SimMode::Reference`] ticks every core on every cycle;
    /// [`SimMode::FastForward`] skips dead spans via the next-event
    /// machinery and ticks a core only on the cycles it touches memory.
    /// Both produce bit-identical results (asserted by
    /// `tests/determinism.rs`).
    pub fn run(&mut self) -> RunResult {
        let limit = self.config.cycle_limit();
        let fast = self.config.sim_mode == SimMode::FastForward;
        while self.cpu_cycle < limit {
            // Finish checks happen on fixed boundaries in both modes so
            // the reported cycle totals agree.
            if self.cpu_cycle.is_multiple_of(FINISH_CHECK_PERIOD)
                && self.cores_finished()
                && self.service.as_ref().is_none_or(RngService::targets_met)
            {
                break;
            }
            if fast {
                // Probe every live cycle: the cores' and channels' cached
                // events make the probe a min over cached words plus a
                // fresh channel probe only where a cached event is due,
                // so re-probing each cycle (which catches a skippable span
                // the moment it opens) is cheaper than stepping blindly in
                // blocks.
                let target = self.capped_at_run_end(self.next_event(limit));
                if target > self.cpu_cycle {
                    self.skip_to(target);
                } else {
                    self.step_one();
                }
            } else {
                let boundary =
                    ((self.cpu_cycle / FINISH_CHECK_PERIOD + 1) * FINISH_CHECK_PERIOD).min(limit);
                while self.cpu_cycle < boundary {
                    self.step_one();
                }
            }
        }
        self.mem.finish();
        let now = self.cpu_cycle;
        for lane in &mut self.cores {
            lane.sync(now);
        }
        let hit_cycle_limit =
            !self.cores_finished() || self.service.as_ref().is_some_and(|s| !s.targets_met());
        RunResult {
            cores: self
                .cores
                .iter()
                .map(|lane| CoreOutcome {
                    finish: lane.core.finish().copied(),
                    end_stats: *lane.core.stats(),
                })
                .collect(),
            stats: self.mem.stats().clone(),
            channels: self.mem.channels().iter().map(|c| c.stats().clone()).collect(),
            service: self.service.as_ref().map(|s| s.stats().clone()),
            cpu_cycles: self.cpu_cycle,
            mem_cycles: self.cpu_cycle / CPU_CYCLES_PER_MEM_CYCLE,
            hit_cycle_limit,
        }
    }

    /// The `getrandom()` service layer, when configured.
    pub fn service(&self) -> Option<&RngService> {
        self.service.as_ref()
    }

    /// Opens a new service session at the current simulated cycle and
    /// returns its session id (also its client index: the session is
    /// addressed as virtual core `config.cores + id`). Relative arrival
    /// processes (closed loop, Poisson, bursty) schedule from the open
    /// cycle; [`crate::ArrivalProcess::TraceReplay`] keeps its absolute
    /// schedule; manual sessions are driven through
    /// [`System::service_submit`]. The session's
    /// [`crate::ClientSpec::qos`] class is registered with the engine so
    /// the Section 5.2 arbitration sees the tenant's priority.
    ///
    /// The service layer is created on first use when the system was
    /// built without one (e.g. `service.sessions` unset but `cores > 0`).
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid ([`ClientSpec::validate`]) —
    /// dynamically opened sessions get the same checks as configured
    /// clients.
    pub fn open_session(&mut self, spec: ClientSpec) -> usize {
        if let Err(e) = spec.validate() {
            panic!("open_session: invalid session spec: {e}");
        }
        let now = self.cpu_cycle;
        let base = self.config.cores;
        let priority = spec.qos.priority();
        let fairness = self.config.fairness;
        let service = self
            .service
            .get_or_insert_with(|| RngService::new(&self.config.service, base, fairness));
        let id = service.open_session(spec.clone(), now);
        self.mem.register_client(base + id, priority);
        // Keep the System's own config view consistent with the live
        // session set (priorities + client list).
        let normal = spec.qos == QosClass::Normal;
        self.config.service.clients.push(spec);
        if normal && self.config.priorities.len() <= base {
            // Unset priorities and one more Normal tenant is the state
            // `materialize_client_priorities` leaves as it is — it has
            // run after every earlier open, so no earlier client can be
            // non-Normal — and re-proving that would rescan every
            // session ever opened on each open.
            debug_assert!(
                self.config
                    .service
                    .clients
                    .iter()
                    .all(|c| c.qos == QosClass::Normal),
                "unset priorities with a non-Normal tenant"
            );
            return id;
        }
        self.config.materialize_client_priorities();
        if self.config.priorities.len() > base + id {
            self.config.priorities[base + id] = priority;
        }
        id
    }

    /// Closes a session opened with [`System::open_session`] (or a
    /// configured client): it stops arriving and rejects further
    /// submissions; requests already in flight drain normally.
    ///
    /// # Panics
    ///
    /// Panics when no service is configured or `session` is out of
    /// range.
    pub fn close_session(&mut self, session: usize) {
        self.service
            .as_mut()
            .expect("no service configured")
            .close_session(session);
    }

    /// Completed manual service requests not yet drained via
    /// [`System::take_service_completion`].
    pub fn service_completions_pending(&self) -> usize {
        self.service.as_ref().map_or(0, RngService::completed_pending)
    }

    /// Drains the oldest undelivered manual completion in completion
    /// order: `(session, seq, result)`. The incremental counterpart of
    /// [`System::run_service_request`] for server front-ends that
    /// multiplex many sessions.
    pub fn take_service_completion(&mut self) -> Option<(usize, u64, ServedRequest)> {
        self.service.as_mut()?.pop_completed()
    }

    /// Submits a `getrandom(bytes)` request on a manual service client and
    /// returns its sequence number (see
    /// [`System::run_service_request`]).
    ///
    /// # Panics
    ///
    /// Panics when no service is configured, `client` is out of range or
    /// not a manual client, or `bytes` is zero.
    pub fn service_submit(&mut self, client: usize, bytes: usize) -> u64 {
        let now = self.cpu_cycle;
        self.service
            .as_mut()
            .expect("no service configured")
            .submit(client, bytes, now)
    }

    /// [`System::service_submit`] with an explicit arrival stamp
    /// `arrival <= now`: a pipelined open-loop session commits to its
    /// arrival schedule up front, so when the service falls behind, a
    /// request's intended arrival precedes the cycle it is injected on.
    /// Latency accounting and fairness aging measure from `arrival`,
    /// charging the client-side queueing delay exactly like the
    /// in-simulation open-loop arrival processes do.
    ///
    /// # Panics
    ///
    /// Panics like [`System::service_submit`], or when `arrival` is in
    /// the future.
    pub fn service_submit_at(&mut self, client: usize, bytes: usize, arrival: u64) -> u64 {
        let now = self.cpu_cycle;
        self.service
            .as_mut()
            .expect("no service configured")
            .submit_at(client, bytes, arrival, now)
    }

    /// Advances the system (honoring the configured [`SimMode`]) until
    /// `stop` returns true or `max_cycles` CPU cycles elapse; returns the
    /// cycles advanced. This is the incremental counterpart of
    /// [`System::run`] for interactive service front-ends.
    pub fn advance_until(&mut self, max_cycles: u64, mut stop: impl FnMut(&System) -> bool) -> u64 {
        let start = self.cpu_cycle;
        let limit = start.saturating_add(max_cycles);
        let fast = self.config.sim_mode == SimMode::FastForward;
        while self.cpu_cycle < limit && !stop(self) {
            if fast {
                let target = self.next_event(limit);
                if target > self.cpu_cycle {
                    self.skip_to(target);
                } else {
                    self.step_one();
                }
            } else {
                self.step_one();
            }
        }
        self.mem.sync_channels();
        self.cpu_cycle - start
    }

    /// Drives the simulation until the manual request `(client, seq)`
    /// completes, then returns its served words, timing class, and
    /// end-to-end latency.
    ///
    /// # Panics
    ///
    /// Panics when no service is configured or the request does not
    /// complete within `max_cycles` (a pathological configuration — e.g.
    /// a zero-channel system; the memory subsystem otherwise always makes
    /// progress on queued RNG requests).
    pub fn run_service_request(
        &mut self,
        client: usize,
        seq: u64,
        max_cycles: u64,
    ) -> ServedRequest {
        assert!(self.service.is_some(), "no service configured");
        self.advance_until(max_cycles, |s| {
            s.service
                .as_ref()
                .is_some_and(|svc| svc.is_completed(client, seq))
        });
        self.service
            .as_mut()
            .expect("checked above")
            .take_completed(client, seq)
            .expect("service request did not complete within the cycle cap")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FillMode, RngRouting, SchedulerKind};
    use strange_cpu::{LoopTrace, TraceOp};
    use strange_trng::DRange;

    fn load_trace(gap: u32, stride: u64) -> Box<dyn TraceSource + Send> {
        // A simple streaming trace: loads marching through memory.
        let ops: Vec<TraceOp> = (0..64)
            .map(|i| TraceOp::Load {
                gap,
                addr: i * stride,
            })
            .collect();
        Box::new(LoopTrace::new(ops))
    }

    fn rng_trace(gap: u32) -> Box<dyn TraceSource + Send> {
        // Like the paper's synthetic RNG benchmarks: mostly RNG requests
        // plus sparse reads spread over banks/channels (low intensity).
        let ops: Vec<TraceOp> = (0..16u64)
            .flat_map(|i| {
                [
                    TraceOp::Rng { gap },
                    TraceOp::Load {
                        gap: 100,
                        addr: i * 64 * 513 + i, // spread over channels/banks
                    },
                ]
            })
            .collect();
        Box::new(LoopTrace::new(ops))
    }

    fn quick(cfg: SystemConfig) -> SystemConfig {
        cfg.with_instruction_target(20_000)
    }

    #[test]
    fn single_core_compute_bound_finishes_fast() {
        let cfg = quick(SystemConfig::rng_oblivious(1));
        let mut sys = System::new(cfg, vec![load_trace(999, 64)], Box::new(DRange::new(1))).unwrap();
        let res = sys.run();
        assert!(!res.hit_cycle_limit);
        let ipc = res.cores[0].ipc();
        assert!(ipc > 2.0, "nearly compute bound, got IPC {ipc}");
    }

    #[test]
    fn memory_bound_core_is_slower() {
        let cfg = quick(SystemConfig::rng_oblivious(1));
        let fast = System::new(cfg.clone(), vec![load_trace(999, 64)], Box::new(DRange::new(1)))
            .unwrap()
            .run();
        let slow = System::new(cfg, vec![load_trace(9, 64 * 1024)], Box::new(DRange::new(1)))
            .unwrap()
            .run();
        assert!(slow.exec_cycles(0) > fast.exec_cycles(0));
        assert!(slow.cores[0].mcpi() > fast.cores[0].mcpi());
    }

    #[test]
    fn rng_app_on_oblivious_baseline_generates_on_demand() {
        let cfg = quick(SystemConfig::rng_oblivious(1));
        let mut sys = System::new(cfg, vec![rng_trace(150)], Box::new(DRange::new(1))).unwrap();
        let res = sys.run();
        assert!(!res.hit_cycle_limit);
        assert!(res.stats.rng_requests > 0);
        assert!(res.stats.demand_generations > 0);
        assert_eq!(res.stats.rng_served_from_buffer, 0, "no buffer on baseline");
        assert!(res.cores[0].end_stats.rng_stall_cycles > 0);
    }

    #[test]
    fn dr_strange_serves_rng_app_faster_than_baseline() {
        let mech = || Box::new(DRange::new(1));
        let base = System::new(
            quick(SystemConfig::rng_oblivious(1)),
            vec![rng_trace(150)],
            mech(),
        )
        .unwrap()
        .run();
        let ds = System::new(
            quick(SystemConfig::dr_strange(1)),
            vec![rng_trace(150)],
            mech(),
        )
        .unwrap()
        .run();
        assert!(ds.stats.rng_served_from_buffer > 0, "buffer must serve");
        assert!(
            ds.exec_cycles(0) < base.exec_cycles(0),
            "DR-STRaNGe {} vs baseline {}",
            ds.exec_cycles(0),
            base.exec_cycles(0)
        );
    }

    #[test]
    fn greedy_oracle_fills_buffer_without_commands() {
        let mech = || Box::new(DRange::new(1));
        let greedy = System::new(
            quick(SystemConfig::greedy_idle(1)),
            vec![rng_trace(2000)],
            mech(),
        )
        .unwrap()
        .run();
        assert!(greedy.stats.greedy_batches > 0);
        assert_eq!(greedy.stats.fill_batches, 0, "no predictive fills");
        // Greedy's fills are free: its only RNG commands come from demand
        // generations, so a predictive run of the same workload (real fill
        // rounds) must issue strictly more RNG activations.
        let predictive = System::new(
            quick(SystemConfig::dr_strange(1)),
            vec![rng_trace(2000)],
            mech(),
        )
        .unwrap()
        .run();
        assert!(
            predictive.total_channel_stats().rng_acts > greedy.total_channel_stats().rng_acts,
            "predictive {} vs greedy {}",
            predictive.total_channel_stats().rng_acts,
            greedy.total_channel_stats().rng_acts
        );
    }

    #[test]
    fn predictive_fill_issues_rng_commands() {
        let cfg = quick(SystemConfig::dr_strange(1));
        let mut sys = System::new(cfg, vec![rng_trace(1000)], Box::new(DRange::new(1))).unwrap();
        let res = sys.run();
        assert!(res.stats.fill_batches > 0);
        let total = res.total_channel_stats();
        assert!(total.rng_acts > 0, "fill rounds issue reduced-timing ACTs");
    }

    #[test]
    fn predictor_accuracy_is_recorded() {
        let cfg = quick(SystemConfig::dr_strange(2));
        let mut sys = System::new(
            cfg,
            vec![load_trace(99, 64 * 257), rng_trace(300)],
            Box::new(DRange::new(1)),
        )
        .unwrap();
        let res = sys.run();
        assert!(res.stats.predictor.total() > 0);
        let acc = res.stats.predictor_accuracy();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn two_core_interference_slows_both() {
        let mech = || Box::new(DRange::new(1));
        let cfg = quick(SystemConfig::rng_oblivious(2));
        let alone_a = System::new(
            quick(SystemConfig::rng_oblivious(1)),
            vec![load_trace(9, 64 * 1024)],
            mech(),
        )
        .unwrap()
        .run();
        let shared = System::new(
            cfg,
            vec![load_trace(9, 64 * 1024), rng_trace(150)],
            mech(),
        )
        .unwrap()
        .run();
        assert!(
            shared.exec_cycles(0) > alone_a.exec_cycles(0),
            "non-RNG app must slow down under RNG interference"
        );
    }

    #[test]
    fn aware_routing_keeps_rng_out_of_read_queues() {
        let cfg = quick(SystemConfig::dr_strange(1)).with_buffer_entries(1);
        let mut sys = System::new(cfg, vec![rng_trace(100)], Box::new(DRange::new(1))).unwrap();
        sys.step_cpu_cycles(50_000);
        // All reads queues hold only non-RNG requests under Aware routing.
        for ch in sys.mem().channels() {
            assert!(ch
                .read_queue()
                .iter()
                .all(|r| r.kind != strange_dram::RequestKind::Rng));
        }
    }

    #[test]
    fn bliss_scheduler_variant_runs() {
        let cfg = quick(SystemConfig::rng_oblivious(2)).with_scheduler(SchedulerKind::Bliss);
        let mut sys = System::new(
            cfg,
            vec![load_trace(9, 64 * 1024), rng_trace(150)],
            Box::new(DRange::new(1)),
        )
        .unwrap();
        let res = sys.run();
        assert!(!res.hit_cycle_limit);
    }

    #[test]
    fn priorities_affect_rng_wait() {
        // Non-RNG app prioritized: RNG requests wait (rng_wait_cycles > 0).
        let mech = || Box::new(DRange::new(1));
        let mk = |prios: Vec<u8>| {
            let cfg = quick(SystemConfig::dr_strange(2))
                .with_buffer_entries(1)
                .with_priorities(prios);
            System::new(
                cfg,
                vec![load_trace(4, 64 * 1024), rng_trace(150)],
                mech(),
            )
            .unwrap()
            .run()
        };
        let nonrng_prio = mk(vec![2, 1]);
        let rng_prio = mk(vec![1, 2]);
        assert!(
            nonrng_prio.stats.rng_wait_cycles > rng_prio.stats.rng_wait_cycles,
            "deprioritized RNG waits more: {} vs {}",
            nonrng_prio.stats.rng_wait_cycles,
            rng_prio.stats.rng_wait_cycles
        );
    }

    #[test]
    fn value_log_records_served_values() {
        let cfg = quick(SystemConfig::dr_strange(1));
        let mut sys = System::new(cfg, vec![rng_trace(500)], Box::new(DRange::new(1))).unwrap();
        sys.set_value_log(true);
        sys.run();
        assert!(!sys.mem().value_log().is_empty());
    }

    #[test]
    fn served_values_are_unique() {
        // Section 6: each random number is served to exactly one request.
        let cfg = quick(SystemConfig::dr_strange(1));
        let mut sys = System::new(cfg, vec![rng_trace(400)], Box::new(DRange::new(1))).unwrap();
        sys.set_value_log(true);
        sys.run();
        let log = sys.mem().value_log();
        assert!(log.len() > 8);
        let mut sorted: Vec<u64> = log.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // True 64-bit randoms collide with negligible probability.
        assert_eq!(sorted.len(), log.len(), "no value served twice");
    }

    #[test]
    fn trace_count_mismatch_rejected() {
        let cfg = quick(SystemConfig::rng_oblivious(2));
        let err = System::new(cfg, vec![rng_trace(100)], Box::new(DRange::new(1))).err();
        assert!(err.is_some());
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let cfg = quick(SystemConfig::dr_strange(2));
            System::new(
                cfg,
                vec![load_trace(9, 64 * 1024), rng_trace(150)],
                Box::new(DRange::new(7)),
            )
            .unwrap()
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
        assert_eq!(a.exec_cycles(0), b.exec_cycles(0));
        assert_eq!(a.stats.rng_requests, b.stats.rng_requests);
        assert_eq!(a.stats.fill_batches, b.stats.fill_batches);
    }

    /// `open_session` keeps `config().priorities` equal to what a
    /// from-scratch `materialize_client_priorities` over the same client
    /// list produces, including on the path that skips materializing.
    #[test]
    fn dynamic_opens_keep_priorities_equal_to_a_fresh_materialize() {
        use crate::service::ServiceConfig;
        use QosClass::{High, Low, Normal};
        let check = |cores: usize, configured: &[QosClass], opened: &[QosClass]| {
            let spec = |q: &QosClass| ClientSpec::manual(8).with_qos(*q);
            let cfg = SystemConfig::dr_strange(cores).with_service(ServiceConfig {
                clients: configured.iter().map(spec).collect(),
                sessions: true,
                ..ServiceConfig::default()
            });
            let traces = (0..cores).map(|_| rng_trace(150)).collect();
            let mut sys = System::new(cfg.clone(), traces, Box::new(DRange::new(1))).unwrap();
            let mut fresh = cfg;
            for q in opened {
                sys.open_session(spec(q));
                fresh.service.clients.push(spec(q));
            }
            fresh.materialize_client_priorities();
            assert_eq!(sys.config().priorities, fresh.priorities);
            sys.config().priorities.clone()
        };
        for cores in [0, 2] {
            // All Normal: stays unset.
            assert!(check(cores, &[], &[Normal; 40]).is_empty());
            // Many Normal, then the first High: every earlier slot is
            // back-filled with the default level.
            let mut late_high = vec![Normal; 40];
            late_high.push(High);
            late_high.extend([Normal, Low]);
            let p = check(cores, &[], &late_high);
            assert_eq!(p.len(), cores + 43);
            assert!(p[..cores + 40].iter().all(|&l| l == 1));
            assert_eq!(p[cores + 40], High.priority());
            assert_eq!(p[cores + 42], Low.priority());
            // Configured non-Normal clients, then dynamic Normal ones.
            let p = check(cores, &[High, Low], &[Normal; 5]);
            assert_eq!(p.len(), cores + 7);
            assert_eq!(p[cores], High.priority());
            assert!(p[cores + 2..].iter().all(|&l| l == 1));
            // Configured Normal clients (unset at construction).
            check(cores, &[Normal; 3], &[Normal, High]);
        }
    }

    #[test]
    fn fill_mode_none_never_fills() {
        let cfg = quick(SystemConfig::dr_strange(1));
        let cfg = SystemConfig {
            fill: FillMode::None,
            routing: RngRouting::Aware,
            buffer_entries: 0,
            ..cfg
        };
        let mut sys = System::new(cfg, vec![rng_trace(200)], Box::new(DRange::new(1))).unwrap();
        let res = sys.run();
        assert_eq!(res.stats.fill_batches, 0);
        assert_eq!(res.stats.rng_served_from_buffer, 0);
        assert!(res.stats.rng_served_on_demand > 0);
    }
}
