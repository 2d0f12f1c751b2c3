//! The DR-STRaNGe memory-side engine.
//!
//! [`MemSubsystem`] owns the channel controllers, the global RNG request
//! queue, the random number buffer, the per-channel idleness predictors,
//! and the TRNG mechanism, and implements the paper's Section 5 machinery:
//!
//! * **Modes** — channels run in Regular Execution Mode; on-demand
//!   generation switches *all* channels into RNG mode (bank drain +
//!   timing-parameter reconfiguration + generation rounds + restore),
//!   which is how the paper's baseline and DR-STRaNGe both generate when
//!   the buffer cannot serve.
//! * **RNG-aware arbitration** (Section 5.2) — the separate RNG queue, the
//!   OS-priority rules (RNG-prioritized / non-RNG-prioritized / equal), and
//!   the starvation-prevention stall counter.
//! * **Buffer filling** (Section 5.1) — greedy-oracle or predictor-gated
//!   generation rounds on idle channels, including the low-utilization
//!   path, with mispredictions mechanically stalling the requests that
//!   arrive while a round holds the channel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use strange_cpu::MemorySystem;
use strange_dram::{
    Bliss, ChannelController, CompletedAccess, CoreId, DramAddress, FrFcfs, Readiness, Request,
    RequestId, RequestKind, SchedulerPolicy, CPU_CYCLES_PER_MEM_CYCLE,
};
use strange_trng::TrngMechanism;

use crate::buffer::RandomNumberBuffer;
use crate::config::{FillMode, PredictorKind, RngRouting, SchedulerKind, SimMode, SystemConfig};
use crate::faults::FaultKind;
use crate::health::{HealthState, Watchdog};
use crate::sched::{effective_priority, strict_pick, CoalesceWindow, DrrState, FairnessPolicy};
use crate::predictor::{
    AlwaysLongPredictor, IdlenessPredictor, Prediction, QlearningPredictor, SimplePredictor,
};
use crate::stats::SystemStats;

/// Per-channel scheduling policy, monomorphized over the design space.
#[derive(Debug, Clone)]
pub enum AnyPolicy {
    /// FR-FCFS (optionally capped).
    FrFcfs(FrFcfs),
    /// BLISS.
    Bliss(Bliss),
}

impl SchedulerPolicy for AnyPolicy {
    fn select(&mut self, now: u64, queue: &[Request], readiness: &[Readiness]) -> Option<usize> {
        match self {
            AnyPolicy::FrFcfs(p) => p.select(now, queue, readiness),
            AnyPolicy::Bliss(p) => p.select(now, queue, readiness),
        }
    }

    fn on_serviced(&mut self, req: &Request, row_hit: bool) {
        match self {
            AnyPolicy::FrFcfs(p) => p.on_serviced(req, row_hit),
            AnyPolicy::Bliss(p) => p.on_serviced(req, row_hit),
        }
    }

    fn on_cycle(&mut self, now: u64) {
        match self {
            AnyPolicy::FrFcfs(p) => p.on_cycle(now),
            AnyPolicy::Bliss(p) => p.on_cycle(now),
        }
    }

    fn on_cycles_skipped(&mut self, from: u64, to: u64) {
        match self {
            AnyPolicy::FrFcfs(p) => p.on_cycles_skipped(from, to),
            AnyPolicy::Bliss(p) => p.on_cycles_skipped(from, to),
        }
    }
}

enum AnyPredictor {
    AlwaysLong(AlwaysLongPredictor),
    Simple(SimplePredictor),
    Qlearning(QlearningPredictor),
}

impl AnyPredictor {
    fn predict(&mut self, last_addr: u64) -> Prediction {
        match self {
            AnyPredictor::AlwaysLong(p) => p.predict(last_addr),
            AnyPredictor::Simple(p) => p.predict(last_addr),
            AnyPredictor::Qlearning(p) => p.predict(last_addr),
        }
    }

    fn update(&mut self, last_addr: u64, predicted: Prediction, was_long: bool) {
        match self {
            AnyPredictor::AlwaysLong(p) => p.update(last_addr, predicted, was_long),
            AnyPredictor::Simple(p) => p.update(last_addr, predicted, was_long),
            AnyPredictor::Qlearning(p) => p.update(last_addr, predicted, was_long),
        }
    }
}

/// One completed memory-side request, as delivered to the CPU/service
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The issuing core (a virtual core ≥ `SystemConfig::cores` addresses
    /// a service client).
    pub core: CoreId,
    /// The request id handed out at issue time.
    pub id: RequestId,
    /// For RNG requests, the served 64-bit word and whether it came from
    /// the random number buffer; `None` for loads.
    pub rng: Option<(u64, bool)>,
}

/// Served values [`MemSubsystem::value_log`] keeps.
const VALUE_LOG_CAP: usize = 4096;

/// One RNG completion within a burst: `(id, core, value, from_buffer)`.
type BurstEntry = (RequestId, CoreId, u64, bool);

/// A coalesced batch of RNG completions, all maturing at `due`: one heap
/// event carrying k entries instead of k per-request events, so an
/// 8-request burst no longer cuts a multi-thousand-cycle fast-forward
/// bubble into eight spans. Heap ordering is on `(due, seq)` alone —
/// `seq` is a unique monotone push counter, so the order is total and
/// the payload never tiebreaks. Delivery order to the completion drain
/// is re-normalized to per-entry `(due, id)` order (entries are
/// id-sorted at push; same-due multi-burst ticks re-sort the merged
/// run), so it does not depend on how completions were grouped.
#[derive(Debug, Clone)]
struct RngBurst {
    due: u64,
    seq: u64,
    entries: Vec<BurstEntry>,
}

impl PartialEq for RngBurst {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl Eq for RngBurst {}

impl Ord for RngBurst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for RngBurst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-channel fill/idle bookkeeping.
#[derive(Debug, Clone, Default)]
struct ChanFill {
    was_idle: bool,
    idle_len: u64,
    prediction: Option<Prediction>,
    predict_addr: u64,
    fill_end: Option<u64>,
    fill_is_low_util: bool,
    last_low_util_end: u64,
}

/// The channel controllers and, under [`SimMode::FastForward`], a clock
/// and a cached next event for each: `System`'s per-core `Lane` one layer
/// down. A channel is ticked only on the cycles its own event is due; in
/// between it lags, and an access catches it up through
/// [`ChannelController::skip_to`], which is exact because nothing reached
/// it in between. [`SimMode::Reference`] ticks every channel every cycle
/// and never lags.
///
/// Reads go through `Deref` to the controller slice: what a lagging
/// controller has not replayed yet (cycle and idle counters, the open
/// idle period, the scheduler's clearing clock) is never read by the
/// engine. Every `&mut` access goes through [`Lanes::at`].
struct Lanes {
    list: Vec<ChannelController<AnyPolicy>>,
    /// Per channel: the first cycle it has not simulated yet.
    clock: Vec<u64>,
    /// Per channel: `next_event_at(clock)`, derived after its last access.
    event: Vec<u64>,
    /// Whether channels lag ([`SimMode::FastForward`]).
    lag: bool,
    /// The cycle an access catches a channel up to: `now` inside
    /// `tick(now)` before the channel loop, `now + 1` from the end of that
    /// loop to the next tick or skip (where core enqueues land), and `to`
    /// after `skip_to(from, to)`.
    sync_to: u64,
    /// Controller ticks run (diagnostic, kept out of every stats struct).
    ticks: u64,
}

impl Lanes {
    fn new(list: Vec<ChannelController<AnyPolicy>>, lag: bool) -> Self {
        let n = list.len();
        let mut lanes = Lanes {
            list,
            clock: vec![0; n],
            event: vec![0; n],
            lag,
            sync_to: 0,
            ticks: 0,
        };
        for i in 0..n {
            lanes.rederive(i);
        }
        lanes
    }

    /// Replays channel `i`'s dead cycles up to (excluding) `to`.
    fn sync(&mut self, i: usize, to: u64) {
        if self.clock[i] < to {
            self.list[i].skip_to(self.clock[i], to);
            self.clock[i] = to;
        }
    }

    fn rederive(&mut self, i: usize) {
        self.event[i] = self.list[i].next_event_at(self.clock[i]).unwrap_or(u64::MAX);
    }

    /// `&mut` access to channel `i`, caught up to `sync_to`; dropping the
    /// guard re-derives the channel's event.
    fn at(&mut self, i: usize) -> ChanMut<'_> {
        if self.lag {
            self.sync(i, self.sync_to);
        }
        ChanMut { lanes: self, i }
    }

    /// Ticks cycle `now` on every channel whose event is due, in channel
    /// order; RNG requests the schedulers selected go to `demand`.
    fn tick(
        &mut self,
        now: u64,
        completed: &mut Vec<CompletedAccess>,
        demand: &mut Vec<Request>,
    ) {
        for i in 0..self.list.len() {
            if self.lag {
                if self.event[i] > now {
                    continue;
                }
                // A lagging channel's due event can be stale: a blockade
                // that ends with nothing queued leaves it idle. Such a
                // channel lags on from `now`, so no later catch-up spans
                // the edge. (One already at `now` has a fresh event.)
                if self.clock[i] < now {
                    self.sync(i, now);
                    self.rederive(i);
                    if self.event[i] > now {
                        continue;
                    }
                }
            }
            self.ticks += 1;
            if let Some(req) = self.list[i].tick(now, completed) {
                demand.push(req);
            }
            if self.lag {
                self.clock[i] = now + 1;
                self.rederive(i);
            }
        }
        self.sync_to = now + 1;
    }

    /// The earliest channel event at or after `now` (`now` itself when a
    /// channel must tick then). A due cached event is probed afresh at
    /// `now`, without a catch-up: a lagging controller probes exactly like
    /// a synced one.
    fn next_event_at(&self, now: u64) -> u64 {
        let mut event = u64::MAX;
        for (ch, &cached) in self.list.iter().zip(&self.event) {
            let e = if self.lag && cached > now {
                cached
            } else {
                ch.next_event_at(now).unwrap_or(u64::MAX)
            };
            if e <= now {
                return now;
            }
            event = event.min(e);
        }
        event
    }

    /// The channels' part of [`MemSubsystem::skip_to`]. Lagging channels
    /// are not replayed; one whose cached event is due at `from` is synced
    /// to `from` first, so its later catch-up cannot span the blockade
    /// edge that event stood for.
    fn skip_to(&mut self, from: u64, to: u64) {
        if self.lag {
            for i in 0..self.list.len() {
                if self.event[i] <= from {
                    self.sync(i, from);
                    self.rederive(i);
                }
            }
        } else {
            for ch in &mut self.list {
                ch.skip_to(from, to);
            }
        }
        self.sync_to = to;
    }

    /// Catches every channel up to `sync_to`. One already there is left
    /// alone: its event was derived after its last change.
    fn sync_all(&mut self) {
        for i in 0..self.list.len() {
            if self.clock[i] < self.sync_to {
                drop(self.at(i));
            }
        }
    }
}

impl std::ops::Deref for Lanes {
    type Target = [ChannelController<AnyPolicy>];

    fn deref(&self) -> &Self::Target {
        &self.list
    }
}

/// A channel borrowed through [`Lanes::at`].
struct ChanMut<'a> {
    lanes: &'a mut Lanes,
    i: usize,
}

impl std::ops::Deref for ChanMut<'_> {
    type Target = ChannelController<AnyPolicy>;

    fn deref(&self) -> &Self::Target {
        &self.lanes.list[self.i]
    }
}

impl std::ops::DerefMut for ChanMut<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.lanes.list[self.i]
    }
}

impl Drop for ChanMut<'_> {
    fn drop(&mut self) {
        if self.lanes.lag {
            self.lanes.rederive(self.i);
        }
    }
}

/// Priority entries that differ from the default level 1.
fn count_nondefault(priorities: &[u8]) -> usize {
    priorities.iter().filter(|&&p| p != 1).count()
}

/// The memory subsystem: everything below the cores.
pub struct MemSubsystem {
    config: SystemConfig,
    mapping: strange_dram::AddressMapping,
    channels: Lanes,
    mechanism: Box<dyn TrngMechanism>,
    buffer: RandomNumberBuffer,
    rng_queue: VecDeque<Request>,
    /// Deficit-round-robin state for [`FairnessPolicy::WeightedFair`]'s
    /// buffer-serve arbitration (tenant = issuing core id).
    drr: DrrState,
    predictors: Vec<AnyPredictor>,
    fill: Vec<ChanFill>,
    demand_finish: Option<u64>,
    rng_stall_counter: u64,
    rng_queue_len_last: usize,
    /// Next unapplied `config.fault_plan` event (events fire in order on
    /// their exact cycles; pending cycles bound `next_event_at`).
    fault_next: usize,
    /// Per-channel cycle (exclusive) until which a `ChannelOutage`
    /// excludes the channel from TRNG generation; 0 = healthy.
    chan_out_until: Vec<u64>,
    /// Per-channel cycle (exclusive) until which a
    /// [`FaultKind::ChannelDerate`] biases generated words; 0 = clean.
    bias_until: Vec<u64>,
    /// Per-channel stuck-at-one mask applied to generated words while the
    /// quality derate is active.
    bias_mask: Vec<u64>,
    /// Entropy-health watchdog: per-channel quality windows, the
    /// quarantine state machine, and probe scheduling.
    watchdog: Watchdog,
    /// Round-robin cursor attributing demand-episode words to the live
    /// channels that generated them (health sampling + bias).
    attribute_rr: usize,
    /// Cycle (exclusive) until which `EntropyDerate` reduces the usable
    /// bits per generation round to `derate_num / derate_den`.
    derate_until: u64,
    /// Active derate fraction, numerator.
    derate_num: u32,
    /// Active derate fraction, denominator.
    derate_den: u32,
    /// Running estimate (3/4-weighted EWMA) of one demand-generation
    /// episode's cost in DRAM cycles; 2× this, on the CPU clock, is the
    /// [`FairnessPolicy::AdaptiveAging`] quantum. Updated only at episode
    /// starts (live cycles), so it is fast-forward safe.
    demand_cost_est: u64,
    mem_now: u64,
    next_id: RequestId,
    next_rng_channel: u32,
    /// A [`MemorySystem::try_rng`] rejection observed since the last
    /// memory tick (or skip). Admission capacity only changes inside
    /// `tick`/`skip_to` — nothing between ticks frees a queue slot or
    /// refills the buffer — so once one caller is rejected, every later
    /// call before the next tick short-circuits to `None` without
    /// re-scanning channels. Saturated service runs hit this every cycle
    /// for every client.
    rng_rejecting: bool,
    rng_app: Vec<bool>,
    /// Entries of `config.priorities` that differ from the default level
    /// 1, maintained by `new` / `register_client` (the only writers) so
    /// the buffer-serve path does not rescan one byte per session ever
    /// opened.
    nondefault_priorities: usize,
    /// Due RNG completion bursts (see [`RngBurst`]).
    rng_done: BinaryHeap<Reverse<RngBurst>>,
    /// Monotone push counter: the burst heap's unique tiebreak.
    burst_seq: u64,
    /// Recycled burst entry vectors (drained bursts return theirs), so
    /// steady-state burst scheduling allocates nothing.
    burst_pool: Vec<Vec<BurstEntry>>,
    completed_scratch: Vec<CompletedAccess>,
    value_log: Option<Vec<u64>>,
    stats: SystemStats,
    /// Memory ticks run (diagnostic, kept out of every stats struct).
    live_ticks: u64,
}

impl MemSubsystem {
    /// Builds the memory subsystem for `config` with the given TRNG
    /// mechanism.
    pub fn new(mut config: SystemConfig, mechanism: Box<dyn TrngMechanism>) -> Self {
        config.materialize_client_priorities();
        let geometry = config.geometry;
        let timing = config.timing;
        let make_policy = || match config.scheduler {
            SchedulerKind::FrFcfsCap(cap) => AnyPolicy::FrFcfs(FrFcfs::with_cap(geometry, cap)),
            SchedulerKind::FrFcfs => AnyPolicy::FrFcfs(FrFcfs::new(geometry)),
            SchedulerKind::Bliss => AnyPolicy::Bliss(Bliss::paper_default()),
        };
        let channels = Lanes::new(
            (0..geometry.channels)
                .map(|i| ChannelController::new(i, geometry, timing, make_policy()))
                .collect(),
            config.sim_mode == SimMode::FastForward,
        );
        let predictors = (0..geometry.channels)
            .map(|_| match config.predictor {
                PredictorKind::AlwaysLong => AnyPredictor::AlwaysLong(AlwaysLongPredictor),
                PredictorKind::Simple => AnyPredictor::Simple(SimplePredictor::new()),
                PredictorKind::Qlearning => AnyPredictor::Qlearning(QlearningPredictor::new()),
            })
            .collect();
        let fill = vec![ChanFill::default(); geometry.channels as usize];
        // By default the buffer starts full: the system fills it once at
        // boot (the paper's mechanism fills whenever DRAM is idle, so a
        // freshly booted machine reaches a full buffer long before any
        // workload of interest runs). Starting empty would charge a
        // one-time warm-up fill against every measurement window;
        // cold-start studies disable `prefill_buffer`.
        let mut mechanism = mechanism;
        let mut buffer = RandomNumberBuffer::new(config.buffer_entries);
        while config.prefill_buffer && !buffer.is_full() {
            let word = mechanism.draw(64);
            if buffer.push_bits(word, 64) == 0 {
                break;
            }
        }
        // Seed the adaptive-aging estimate with the mechanism's closed-form
        // uncontended episode cost; observed episodes refine it.
        let demand_cost_est = mechanism.demand_latency_cycles(geometry.channels);
        MemSubsystem {
            mapping: strange_dram::AddressMapping::new(geometry).expect("validated geometry"),
            buffer,
            rng_queue: VecDeque::new(),
            drr: DrrState::new(),
            predictors,
            fill,
            demand_finish: None,
            rng_stall_counter: 0,
            rng_queue_len_last: 0,
            fault_next: 0,
            chan_out_until: vec![0; geometry.channels as usize],
            bias_until: vec![0; geometry.channels as usize],
            bias_mask: vec![0; geometry.channels as usize],
            watchdog: Watchdog::new(config.watchdog, geometry.channels as usize),
            attribute_rr: 0,
            derate_until: 0,
            derate_num: 1,
            derate_den: 1,
            demand_cost_est,
            mem_now: 0,
            next_id: 0,
            next_rng_channel: 0,
            rng_rejecting: false,
            // Virtual cores above the real ones address service clients.
            rng_app: vec![false; config.cores + config.service.clients.len()],
            nondefault_priorities: count_nondefault(&config.priorities),
            rng_done: BinaryHeap::new(),
            burst_seq: 0,
            burst_pool: Vec::new(),
            completed_scratch: Vec::new(),
            value_log: None,
            stats: SystemStats::new(),
            live_ticks: 0,
            channels,
            mechanism,
            config,
        }
    }

    /// Enables or disables logging of served random values (kept to the
    /// most recent 4096; used by interface-level examples and tests).
    pub fn set_value_log(&mut self, enabled: bool) {
        self.value_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// The most recent served random values, oldest first, at most 4096
    /// of them (empty when logging is off).
    pub fn value_log(&self) -> &[u64] {
        let log = self.value_log.as_deref().unwrap_or(&[]);
        &log[log.len().saturating_sub(VALUE_LOG_CAP)..]
    }

    /// Engine statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Channel controllers (stats access for results/energy). Under
    /// [`SimMode::FastForward`] a channel's counters lag between its own
    /// events; `System` catches every channel up before it returns.
    pub fn channels(&self) -> &[ChannelController<AnyPolicy>] {
        &self.channels
    }

    /// Catches every channel up to the current memory cycle (see
    /// [`MemSubsystem::channels`]).
    pub(crate) fn sync_channels(&mut self) {
        self.channels.sync_all();
    }

    /// Memory ticks run so far: every memory cycle under
    /// [`SimMode::Reference`], the live ones under
    /// [`SimMode::FastForward`].
    pub fn live_ticks(&self) -> u64 {
        self.live_ticks
    }

    /// Channel-controller ticks run so far: one per channel and memory
    /// tick under [`SimMode::Reference`], only the channels whose event is
    /// due under [`SimMode::FastForward`].
    pub fn channel_ticks(&self) -> u64 {
        self.channels.ticks
    }

    /// The random number buffer (tests and examples).
    pub fn buffer(&self) -> &RandomNumberBuffer {
        &self.buffer
    }

    /// Number of requests currently in the global RNG queue.
    pub fn rng_queue_len(&self) -> usize {
        self.rng_queue.len()
    }

    /// Registers a dynamically opened service client addressed as virtual
    /// core `core`, carrying OS priority `priority` into the Section 5.2
    /// arbitration.
    pub(crate) fn register_client(&mut self, core: usize, priority: u8) {
        if self.rng_app.len() <= core {
            self.rng_app.resize(core + 1, false);
        }
        if self.config.priorities.len() <= core {
            // Indices below the new client keep the unset-default level.
            self.config.priorities.resize(core + 1, 1);
        }
        let slot = &mut self.config.priorities[core];
        self.nondefault_priorities -= usize::from(*slot != 1);
        self.nondefault_priorities += usize::from(priority != 1);
        *slot = priority;
    }

    /// Whether any configured priority differs from the default level 1
    /// (gates the priority-ordered buffer-serve scan; with uniform
    /// priorities FIFO order is already priority order).
    fn priorities_differentiate(&self) -> bool {
        debug_assert_eq!(
            self.nondefault_priorities,
            count_nondefault(&self.config.priorities),
            "non-default priority count out of step with the vector"
        );
        self.nondefault_priorities > 0
    }

    /// Whether channel `i`'s TRNG cells are out at `now` (excluded from
    /// demand generation and fill rounds; regular traffic unaffected).
    fn chan_out(&self, i: usize, now: u64) -> bool {
        now < self.chan_out_until[i]
    }

    /// Whether channel `i` is unavailable for TRNG generation at `now`:
    /// either its cells are out ([`FaultKind::ChannelOutage`]) or the
    /// entropy-health watchdog has it quarantined / on probation. Both
    /// ride the same failover paths; the difference is that outages
    /// expire by time passage (bounded by `chan_out_until`) while health
    /// exclusion flips only at watchdog transitions.
    fn chan_unavailable(&self, i: usize, now: u64) -> bool {
        self.chan_out(i, now) || self.watchdog.excluded(i)
    }

    /// Channel `i`'s entropy-health state (watchdog observability).
    pub fn channel_health(&self, i: usize) -> HealthState {
        self.watchdog.state(i)
    }

    /// Number of channels the watchdog currently excludes from
    /// generation (quarantined or probationary). The server's admission
    /// ladder derates its watermarks by this fraction of capacity.
    pub fn quarantined_channels(&self) -> usize {
        self.watchdog.excluded_count()
    }

    /// Applies the active quality-derate bias to a word generated by
    /// channel `chan` (`take` = significant low bits of the draw).
    fn taint_word(&self, chan: usize, now: u64, word: u64, take: u32) -> u64 {
        if now >= self.bias_until[chan] {
            return word;
        }
        let keep = if take >= 64 { !0u64 } else { (1u64 << take) - 1 };
        word | (self.bias_mask[chan] & keep)
    }

    /// Samples the low `take` bits of one generated draw into channel
    /// `chan`'s health window (live path only; excluded channels are
    /// sampled via probe rounds). Sub-word fill chunks accumulate in the
    /// watchdog until a full word completes, so fill-only operation is
    /// sampled just like demand generation.
    fn observe_health(&mut self, chan: usize, word: u64, take: u32, now: u64) {
        if !self.watchdog.enabled() || self.watchdog.excluded(chan) {
            return;
        }
        self.watchdog.observe_bits(chan, word, take, now, &mut self.stats);
    }

    /// Runs due probe rounds on excluded channels: draw `probe_words`
    /// words (biased if the underlying fault is still active), test them
    /// through the channel's quality window, and discard them — tainted
    /// words are never buffered or served. The round occupies the
    /// channel like a fill round (blockade + command accounting), and
    /// pending `probe_due` cycles bound [`MemSubsystem::next_event_at`],
    /// so both simulation modes run each probe on its exact cycle.
    fn watchdog_probe_step(&mut self, now: u64) {
        if !self.watchdog.enabled() {
            return;
        }
        for i in 0..self.channels.len() {
            if !self.watchdog.probe_ready(i, now) {
                continue;
            }
            if self.chan_out(i, now) {
                // Outage on a quarantined channel: probing dead cells is
                // meaningless; retry at recovery.
                self.watchdog.defer_probe(i, self.chan_out_until[i]);
                continue;
            }
            if self.channels[i].is_blocked(now) {
                self.watchdog.defer_probe(i, self.channels[i].blocked_until());
                continue;
            }
            let n = self.config.watchdog.probe_words;
            let mut words = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let raw = self.mechanism.draw(64);
                words.push(self.taint_word(i, now, raw, 64));
            }
            // Occupy the channel like a chained fill burst: switch in,
            // generate, switch out.
            let rounds = (64 * n as u64).div_ceil(self.effective_batch_bits(now) as u64);
            let switch = self.mechanism.fill_switch_cycles();
            let end = now + 2 * switch + rounds * self.mechanism.batch_latency();
            let cmds = self.mechanism.batch_commands();
            let mut ch = self.channels.at(i);
            ch.block_until(end);
            ch.note_rng_commands(
                cmds.acts * rounds,
                cmds.reads * rounds,
                cmds.pres * rounds,
            );
            self.stats.probe_rounds += 1;
            self.stats.tainted_words_discarded += n as u64;
            self.watchdog.run_probe(i, &words, now, &mut self.stats);
        }
    }

    /// Usable true-random bits per generation round at `now`: the
    /// mechanism's nominal yield, reduced to the active derate fraction
    /// (minimum 1) while an [`FaultKind::EntropyDerate`] window is open.
    fn effective_batch_bits(&self, now: u64) -> u32 {
        let bits = self.mechanism.batch_bits();
        if now < self.derate_until {
            ((bits as u64 * self.derate_num as u64 / self.derate_den as u64) as u32).max(1)
        } else {
            bits
        }
    }

    /// The [`FairnessPolicy::AdaptiveAging`] quantum in **CPU cycles**:
    /// 2× the running demand-episode cost estimate, converted through the
    /// 5:1 clock ratio (engine-side consumers scale it back down).
    pub fn adaptive_aging_quantum(&self) -> u64 {
        (2 * self.demand_cost_est).max(1) * CPU_CYCLES_PER_MEM_CYCLE
    }

    /// Applies every fault-plan event due at or before `now`, in plan
    /// order. Pending event cycles bound [`MemSubsystem::next_event_at`],
    /// so both simulation modes land a live tick on each event's exact
    /// cycle and the mutations below never fall inside a skipped span.
    fn apply_due_faults(&mut self, now: u64) {
        while let Some(ev) = self.config.fault_plan.events.get(self.fault_next) {
            if ev.at > now {
                break;
            }
            let kind = ev.kind;
            self.fault_next += 1;
            self.stats.faults_injected += 1;
            match kind {
                FaultKind::ChannelOutage { channel, duration } => {
                    let i = channel as usize;
                    // The recovery edge bounds `fill_bound`.
                    self.chan_out_until[i] = self.chan_out_until[i].max(now + duration);
                }
                FaultKind::StallStorm { channel, duration } => {
                    // The blockade machinery already owns "no commands
                    // issue until cycle X": next-event handling of the
                    // recovery edge comes for free.
                    self.channels.at(channel as usize).block_until(now + duration);
                }
                FaultKind::EntropyDerate { num, den, duration } => {
                    self.derate_until = now + duration;
                    self.derate_num = num;
                    self.derate_den = den;
                }
                FaultKind::BufferCorruption { words } => {
                    let discarded = self.buffer.discard_words(words as usize);
                    self.stats.corrupted_words_discarded += discarded as u64;
                }
                FaultKind::ChannelDerate {
                    channel,
                    num,
                    den,
                    duration,
                } => {
                    let i = channel as usize;
                    self.bias_until[i] = now + duration;
                    // Stuck-at-one mask over the degraded bit fraction:
                    // only the low `64 * num / den` bits stay random.
                    // Bias changes word *values* at draw sites (always
                    // live ticks), never scheduling, so no next-event
                    // impact.
                    let usable = (64 * num as u64 / den as u64) as u32;
                    self.bias_mask[i] = (!0u64).checked_shl(usable).unwrap_or(0);
                }
            }
        }
    }

    /// Flushes end-of-run accounting (open idle periods).
    pub fn finish(&mut self) {
        for i in 0..self.channels.len() {
            self.channels.at(i).finish();
        }
    }

    /// The earliest memory cycle at or after `now` at which a tick of the
    /// subsystem could do anything beyond the linear per-cycle accounting
    /// that [`MemSubsystem::skip_to`] replays in bulk.
    ///
    /// Composes, over the engine state and every channel: the end of a
    /// demand-generation episode, due RNG completions, per-channel events
    /// ([`ChannelController::next_event_at`]), fill-round completions,
    /// idle-period edges the predictive path has not yet processed, greedy
    /// threshold crossings, and the low-utilization retry pacing window.
    /// `u64::MAX` means no memory-side event bounds the skip.
    ///
    /// A non-empty Aware RNG queue pins `now` only while a tick could act
    /// on it: with no episode in flight the Section 5.2 arbitration runs
    /// per-cycle (the `Stability` / `KOrTimeout` coalescing window, the
    /// starvation counter), and with buffered words the buffer serve
    /// drains them. During an episode with an empty buffer both are
    /// no-ops, so the queue waits for the bounds above.
    pub fn next_event_at(&self, now: u64) -> u64 {
        if self.config.routing == RngRouting::Aware
            && !self.rng_queue.is_empty()
            && (self.demand_finish.is_none() || self.buffer.available_words() > 0)
        {
            return now;
        }
        let mut event = u64::MAX;
        if let Some(f) = self.demand_finish {
            event = event.min(f);
        }
        if let Some(ev) = self.config.fault_plan.events.get(self.fault_next) {
            // The next scheduled fault mutates state on its exact cycle.
            event = event.min(ev.at);
        }
        if let Some(p) = self.watchdog.next_probe_at() {
            // A pending probe round mutates state on its due cycle (or
            // re-schedules itself to a strictly later one).
            event = event.min(p);
        }
        if let Some(Reverse(burst)) = self.rng_done.peek() {
            event = event.min(burst.due);
        }
        event = event.min(self.channels.next_event_at(now));
        if event <= now {
            return now;
        }
        event = event.min(self.fill_bound(now));
        event.max(now)
    }

    /// The fill-state portion of [`MemSubsystem::next_event_at`] (fill
    /// rounds, greedy threshold crossings, idle edges, low-utilization
    /// pacing, outage recoveries) as an absolute cycle: anything at or
    /// before `now` means "the next tick must run live".
    fn fill_bound(&self, now: u64) -> u64 {
        if self.config.fill == FillMode::None {
            return u64::MAX;
        }
        let mut event = u64::MAX;
        // An outage expiry re-enables this channel's fill predicates by
        // time passage alone; the recovery cycle must tick live.
        for &until in &self.chan_out_until {
            if until > now {
                event = event.min(until);
            }
        }
        match self.config.fill {
            FillMode::None => {}
            FillMode::GreedyOracle => {
                let threshold = self.config.period_threshold;
                for (i, ch) in self.channels.iter().enumerate() {
                    // One batch lands exactly when idle_len reaches the
                    // threshold; the tick that makes it so must run live.
                    if ch.queues_empty()
                        && !self.buffer.is_full()
                        && self.fill[i].idle_len < threshold
                    {
                        event = event.min(now + (threshold - 1 - self.fill[i].idle_len));
                    }
                }
            }
            FillMode::Predictive => {
                let demand_active = self.demand_finish.is_some();
                let low_util = self.config.low_util_threshold;
                let pace = 8 * self.mechanism.batch_latency();
                for (i, ch) in self.channels.iter().enumerate() {
                    let st = &self.fill[i];
                    if let Some(end) = st.fill_end {
                        event = event.min(end);
                    }
                    let idle_now = ch.queues_empty();
                    if idle_now != st.was_idle {
                        // An unprocessed idle-period edge: the next tick
                        // predicts or trains, so it must run live.
                        return now;
                    }
                    if idle_now {
                        if st.prediction == Some(Prediction::Long)
                            && st.fill_end.is_none()
                            && !self.buffer.is_full()
                            && !demand_active
                            && !ch.is_blocked(now)
                            && !self.chan_unavailable(i, now)
                        {
                            // A fill round would start this cycle. (An
                            // out channel waits for its recovery bound,
                            // emitted above; a quarantined channel waits
                            // for its probe cycles, which bound
                            // `next_event_at` directly.)
                            return now;
                        }
                    } else if low_util > 0
                        && st.fill_end.is_none()
                        && !demand_active
                        && !ch.is_blocked(now)
                        && !self.chan_unavailable(i, now)
                        && !self.buffer.is_full()
                        && ch.read_queue_len() < low_util
                    {
                        // The low-utilization path re-evaluates once the
                        // pacing window elapses (the predicate's time is
                        // deterministic even though its outcome calls the
                        // predictor, which only the live tick may do).
                        event = event.min((st.last_low_util_end + pace).max(now));
                    }
                }
            }
        }
        event
    }

    /// Bulk-applies the per-cycle accounting for the dead memory-cycle
    /// span `from..to`, leaving the subsystem in exactly the state that
    /// ticking it once per cycle would (the caller must guarantee
    /// `to <= next_event_at(from)` and that no request enters the
    /// subsystem during the span).
    pub fn skip_to(&mut self, from: u64, to: u64) {
        if to <= from {
            return;
        }
        debug_assert!(self.next_event_at(from) >= to, "skip_to past an engine event");
        let n = to - from;
        // `tick` refreshes these every cycle; replay the final values.
        self.mem_now = to - 1;
        self.rng_rejecting = false;
        self.rng_queue_len_last = self.rng_queue.len();
        self.channels.skip_to(from, to);
        match self.config.fill {
            FillMode::None => {}
            // Idle-length counters advance per-cycle in both fill modes;
            // edges cannot occur inside a dead span (queue contents only
            // change at events), so idleness is uniform across it.
            FillMode::GreedyOracle => {
                for i in 0..self.channels.len() {
                    if self.channels[i].queues_empty() {
                        self.fill[i].idle_len += n;
                        self.fill[i].was_idle = true;
                    } else {
                        self.fill[i].idle_len = 0;
                        self.fill[i].was_idle = false;
                    }
                }
            }
            FillMode::Predictive => {
                for i in 0..self.channels.len() {
                    let idle_now = self.channels[i].queues_empty();
                    debug_assert_eq!(idle_now, self.fill[i].was_idle, "edge inside dead span");
                    if idle_now {
                        self.fill[i].idle_len += n;
                    }
                }
            }
        }
    }

    /// Advances the memory side by one DRAM bus cycle; completed requests
    /// are appended to `completions`.
    pub fn tick(&mut self, now: u64, completions: &mut Vec<Completion>) {
        self.mem_now = now;
        self.rng_rejecting = false;
        self.live_ticks += 1;
        self.channels.sync_to = now;

        // Scheduled faults fire first: the rest of this tick already sees
        // the degraded world (outage exclusions, blockades, derated
        // yields, discarded buffer words). Probe rounds run next so the
        // fill and demand paths below see any re-admission immediately.
        self.apply_due_faults(now);
        self.watchdog_probe_step(now);

        // Demand-generation episode ends. Per the paper's flowchart
        // (Figure 4, track d): if a channel remains idle after random
        // number generation, keep filling the buffer — the timing
        // parameters are already configured, so rounds chain directly.
        if let Some(f) = self.demand_finish {
            if now >= f {
                self.demand_finish = None;
                if self.config.fill == FillMode::Predictive {
                    for i in 0..self.channels.len() {
                        if self.channels[i].queues_empty()
                            && !self.buffer.is_full()
                            && !self.channels[i].is_blocked(now)
                            && !self.chan_unavailable(i, now)
                        {
                            self.start_fill_round(i, now, 0, false);
                        }
                    }
                }
            }
        }

        // RNG-aware arbitration (Section 5.2).
        if self.config.routing == RngRouting::Aware {
            self.serve_rng_from_buffer(now);
            self.rng_arbitrate(now);
        }

        // Buffer filling (Section 5.1).
        match self.config.fill {
            FillMode::None => {}
            FillMode::GreedyOracle => self.greedy_fill_step(now),
            FillMode::Predictive => self.predictive_fill_step(now),
        }

        // Regular command scheduling; RNG-oblivious designs may select RNG
        // requests here, which triggers a global generation episode. The
        // oblivious baseline serves only what its per-channel schedulers
        // selected *this cycle* — it has no notion of batching a burst, so
        // a burst of requests costs one mode switch each (the frequent-
        // switching overhead Section 5.2 attributes to single-queue
        // designs). The RNG-aware path batches instead (rng_arbitrate).
        let mut demand_batch: Vec<Request> = Vec::new();
        self.channels.tick(now, &mut self.completed_scratch, &mut demand_batch);
        if !demand_batch.is_empty() {
            self.start_demand_generation(now, demand_batch);
        }

        for done in self.completed_scratch.drain(..) {
            completions.push(Completion {
                core: done.request.core,
                id: done.request.id,
                rng: None,
            });
        }

        // RNG completions due this cycle: bursts arrive as one event with
        // k id-sorted entries. When several bursts mature with the same
        // due, their merged run is re-sorted by id so delivery stays the
        // legacy per-entry `(due, id)` order regardless of burst shape —
        // bursts with distinct dues already pop in due order.
        let mut run_start = completions.len();
        let mut run_due = u64::MAX;
        let mut run_bursts = 0usize;
        while let Some(Reverse(head)) = self.rng_done.peek() {
            if head.due > now {
                break;
            }
            let Reverse(burst) = self.rng_done.pop().expect("peeked");
            if burst.due != run_due {
                if run_bursts > 1 {
                    completions[run_start..].sort_unstable_by_key(|c| c.id);
                }
                run_start = completions.len();
                run_due = burst.due;
                run_bursts = 0;
            }
            run_bursts += 1;
            for &(id, core, value, from_buffer) in &burst.entries {
                completions.push(Completion {
                    core,
                    id,
                    rng: Some((value, from_buffer)),
                });
            }
            self.recycle_burst_vec(burst.entries);
        }
        if run_bursts > 1 {
            completions[run_start..].sort_unstable_by_key(|c| c.id);
        }
    }

    fn alloc_id(&mut self) -> RequestId {
        self.next_id += 1;
        self.next_id
    }

    fn log_value(&mut self, value: u64) {
        if let Some(log) = &mut self.value_log {
            // Trimmed a whole window at a time: amortised O(1) a word.
            if log.len() == 2 * VALUE_LOG_CAP {
                log.drain(..VALUE_LOG_CAP);
            }
            log.push(value);
        }
    }

    /// Serves queued RNG requests from the buffer (requests that missed at
    /// issue time can still hit once filling catches up). Which request a
    /// contended buffer word goes to is the configured
    /// [`FairnessPolicy`]'s decision — this is the Section 5.2 rules
    /// applied to the buffer fast path, which is what separates QoS
    /// classes when buffer words are the contended resource:
    ///
    /// * `Strict` — highest OS priority, then oldest (with uniform
    ///   priorities this degenerates to the original FIFO pop: the queue
    ///   is arrival-ordered).
    /// * `Aging` — like `Strict`, but a request's priority rises one
    ///   level per aging quantum it has waited, so a backlogged Low
    ///   tenant eventually outranks fresh High traffic.
    /// * `WeightedFair` — deficit round robin over the queued tenants;
    ///   within the chosen tenant, oldest first.
    fn serve_rng_from_buffer(&mut self, now: u64) {
        if self.rng_queue.is_empty() || self.buffer.available_words() == 0 {
            return;
        }
        let by_priority = self.priorities_differentiate();
        // Every word served this cycle matures together: one burst event.
        let due = now + self.config.buffer_serve_latency;
        let mut burst = self.take_burst_vec();
        // DRR scratch, reused across the served words of this cycle so
        // the per-word policy evaluation allocates nothing (amortized).
        let mut wfq_active: Vec<usize> = Vec::new();
        let mut wfq_quanta: Vec<u64> = Vec::new();
        while !self.rng_queue.is_empty() && self.buffer.available_words() > 0 {
            let best = match self.config.fairness {
                FairnessPolicy::Strict => {
                    if by_priority {
                        strict_pick(
                            self.rng_queue
                                .iter()
                                .map(|r| (self.config.priority_of(r.core), r.arrival, r.id)),
                        )
                        .expect("non-empty queue")
                    } else {
                        0 // arrival-ordered queue: FIFO is priority order
                    }
                }
                FairnessPolicy::Aging { .. } | FairnessPolicy::AdaptiveAging => {
                    // The engine runs on the DRAM bus clock; scale the
                    // CPU-cycle quantum (static, or derived from the
                    // observed episode cost) through the 5:1 clock ratio.
                    let quantum = match self.config.fairness {
                        FairnessPolicy::Aging { quantum } => quantum,
                        _ => self.adaptive_aging_quantum(),
                    };
                    let qm = (quantum / CPU_CYCLES_PER_MEM_CYCLE).max(1);
                    self.rng_queue
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, r)| {
                            let base = self.config.priority_of(r.core);
                            let eff = effective_priority(base, now - r.arrival, qm);
                            (eff, Reverse((r.arrival, r.id)))
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty queue")
                }
                FairnessPolicy::WeightedFair { quantum } => {
                    wfq_active.clear();
                    wfq_active.extend(self.rng_queue.iter().map(|r| r.core));
                    wfq_active.sort_unstable();
                    wfq_active.dedup();
                    wfq_quanta.clear();
                    wfq_quanta.extend(wfq_active.iter().map(|&c| {
                        quantum as u64 * FairnessPolicy::weight_of(self.config.priority_of(c))
                    }));
                    let tenant = self.drr.pick(&wfq_active, &wfq_quanta, 1);
                    self.rng_queue
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.core == tenant)
                        .min_by_key(|(_, r)| (r.arrival, r.id))
                        .map(|(i, _)| i)
                        .expect("picked tenant has a queued request")
                }
            };
            let req = self.rng_queue.remove(best).expect("index in range");
            let word = self.buffer.pop_word().expect("word available");
            self.log_value(word);
            self.record_rng_completion(&req, due, true);
            burst.push((req.id, req.core, word, true));
        }
        self.push_burst(due, burst);
    }

    /// Schedule-time stats for one RNG completion (recorded when the
    /// completion is committed, as the per-request path always did).
    fn record_rng_completion(&mut self, req: &Request, due: u64, from_buffer: bool) {
        self.stats.buffer_serve.record(from_buffer);
        if from_buffer {
            self.stats.rng_served_from_buffer += 1;
        } else {
            self.stats.rng_served_on_demand += 1;
        }
        self.stats.rng_latency_sum += due.saturating_sub(req.arrival);
        self.stats.rng_completions += 1;
    }

    /// A recycled (or fresh) burst entry vector.
    fn take_burst_vec(&mut self) -> Vec<BurstEntry> {
        self.burst_pool.pop().unwrap_or_default()
    }

    /// Returns a drained entry vector to the recycle pool.
    fn recycle_burst_vec(&mut self, mut v: Vec<BurstEntry>) {
        if self.burst_pool.len() < 64 {
            v.clear();
            self.burst_pool.push(v);
        }
    }

    /// Commits `entries` to complete at `due` as one coalesced heap event.
    /// Entries are id-sorted so a lone burst drains in delivery order
    /// without a sort.
    fn push_burst(&mut self, due: u64, mut entries: Vec<BurstEntry>) {
        if entries.is_empty() {
            self.recycle_burst_vec(entries);
            return;
        }
        entries.sort_unstable_by_key(|e| e.0);
        self.burst_seq += 1;
        let seq = self.burst_seq;
        self.rng_done.push(Reverse(RngBurst { due, seq, entries }));
    }

    /// [`MemSubsystem::push_burst`] for a single completion.
    fn push_burst_one(&mut self, due: u64, entry: BurstEntry) {
        let mut entries = self.take_burst_vec();
        entries.push(entry);
        self.push_burst(due, entries);
    }

    /// The Section 5.2 decision: should the RNG queue be scheduled now?
    fn rng_arbitrate(&mut self, now: u64) {
        if self.demand_finish.is_some() || self.rng_queue.is_empty() {
            self.rng_queue_len_last = self.rng_queue.len();
            return;
        }
        // Burst coalescing: requests arrive back-to-back (the paper: "RNG
        // requests are received in bursts and served together"), so the
        // queue waits for the configured window before the whole burst
        // shares one mode switch.
        match self.config.coalesce {
            // One cycle of queue stability (the paper-faithful default).
            CoalesceWindow::Stability => {
                if self.rng_queue.len() != self.rng_queue_len_last {
                    self.rng_queue_len_last = self.rng_queue.len();
                    return;
                }
            }
            // Hold for a k-deep burst, bounded by how long the oldest
            // request may wait (both checks run on the DRAM bus clock;
            // a non-empty queue with no episode in flight pins the engine
            // to live ticks, so the timeout is observed on its exact
            // cycle).
            CoalesceWindow::KOrTimeout { k, timeout } => {
                self.rng_queue_len_last = self.rng_queue.len();
                let oldest = self.rng_queue.front().expect("non-empty queue").arrival;
                if self.rng_queue.len() < k && now.saturating_sub(oldest) < timeout {
                    return;
                }
            }
        }
        let max_rng_prio = self
            .rng_queue
            .iter()
            .map(|r| self.config.priority_of(r.core))
            .max()
            .expect("non-empty queue");

        let mut max_nonrng_reg: Option<u8> = None;
        let mut oldest_reg: Option<Request> = None;
        for ch in self.channels.iter() {
            for req in ch.read_queue() {
                // Queues are swap_remove-scrambled; age is (arrival, id),
                // never queue position.
                if oldest_reg.is_none_or(|o| (req.arrival, req.id) < (o.arrival, o.id)) {
                    oldest_reg = Some(*req);
                }
                if !self.rng_app[req.core] {
                    let p = self.config.priority_of(req.core);
                    max_nonrng_reg = Some(max_nonrng_reg.map_or(p, |m: u8| m.max(p)));
                }
            }
        }

        let go = match max_nonrng_reg {
            // No competing non-RNG read anywhere: generate.
            None => true,
            // RNG-prioritized and equal-priority cases both choose the RNG
            // queue (Section 5.2.1).
            Some(reg) if max_rng_prio >= reg => true,
            // Non-RNG prioritized: wait, unless the oldest regular read is
            // from an RNG application and younger than the oldest RNG
            // request, or the starvation limit is hit.
            Some(_) => {
                let oldest_rng = self.rng_queue.front().expect("non-empty").arrival;
                let exception = oldest_reg
                    .is_some_and(|r| self.rng_app[r.core] && r.arrival > oldest_rng);
                if exception {
                    true
                } else {
                    self.rng_stall_counter += 1;
                    self.stats.rng_wait_cycles += 1;
                    if self.rng_stall_counter >= self.config.stall_limit {
                        self.stats.starvation_overrides += 1;
                        true
                    } else {
                        false
                    }
                }
            }
        };

        if go {
            self.rng_stall_counter = 0;
            let requests = self.take_episode_batch();
            self.start_demand_generation(now, requests);
        }
    }

    /// Commits queued RNG requests to one generation episode. Under
    /// [`FairnessPolicy::WeightedFair`] a tenant's share of the episode is
    /// capped at `quantum × weight` words — a queue-hogging tenant cannot
    /// claim more of a shared mode switch than its weight entitles it to;
    /// its excess requests stay queued for the next episode (whose end is
    /// a next-event bound, after which the non-empty queue pins live
    /// ticks again, so the deferral is fast-forward safe). Every other
    /// policy drains the whole queue (the paper's burst-sharing behavior).
    fn take_episode_batch(&mut self) -> Vec<Request> {
        let FairnessPolicy::WeightedFair { quantum } = self.config.fairness else {
            return self.rng_queue.drain(..).collect();
        };
        let queued: Vec<Request> = self.rng_queue.drain(..).collect();
        // Per-tenant words taken so far; the RNG queue holds at most
        // `rng_queue_capacity` (32) entries, so a linear scan suffices.
        let mut shares: Vec<(usize, u64)> = Vec::new();
        let mut taken = Vec::new();
        for req in queued {
            let cap =
                quantum as u64 * FairnessPolicy::weight_of(self.config.priority_of(req.core));
            let share = match shares.iter_mut().find(|(core, _)| *core == req.core) {
                Some((_, n)) => n,
                None => {
                    shares.push((req.core, 0));
                    &mut shares.last_mut().expect("just pushed").1
                }
            };
            if *share < cap {
                *share += 1;
                taken.push(req);
            } else {
                self.stats.demand_batch_deferrals += 1;
                self.rng_queue.push_back(req);
            }
        }
        // `cap >= 1` always admits each tenant's oldest request, so the
        // episode is never empty.
        taken
    }

    /// Switches the healthy channels into RNG mode and generates 64 bits
    /// for every request in `requests` (the all-channel, minimum-latency
    /// on-demand path described in Section 3 — degraded to the surviving
    /// channels when a [`FaultKind::ChannelOutage`] is active: fewer bits
    /// per round means more rounds, i.e. graceful degradation at reduced
    /// rate rather than failure).
    fn start_demand_generation(&mut self, now: u64, requests: Vec<Request>) {
        debug_assert!(!requests.is_empty());
        // Resolve any in-flight fill rounds first: their bits land, their
        // occupancy is folded into the episode start. (Rounds that started
        // before an outage still deliver — the cells sampled before the
        // fault are good.)
        let fill_bits = self.effective_batch_bits(now);
        for i in 0..self.fill.len() {
            if self.fill[i].fill_end.take().is_some() {
                self.deliver_batch_bits(i, fill_bits);
                self.stats.fill_batches += 1;
            }
        }

        // Failover: only channels whose TRNG cells are healthy at `now`
        // participate — outage channels and watchdog-excluded channels
        // alike. Exclusion is best-effort: if the watchdog would leave
        // nothing, the episode falls back to the non-out set (serving
        // possibly-degraded words beats deadlocking demand requests; the
        // episode is counted degraded either way). If every channel is
        // out, the episode waits for the earliest recovery (degraded to a
        // single just-recovered channel).
        let mut live: Vec<usize> = (0..self.channels.len())
            .filter(|&i| !self.chan_unavailable(i, now))
            .collect();
        if live.is_empty() {
            live = (0..self.channels.len())
                .filter(|&i| !self.chan_out(i, now))
                .collect();
        }
        let mut ready = now;
        if live.is_empty() {
            let (first, until) = self
                .chan_out_until
                .iter()
                .enumerate()
                .map(|(i, &u)| (i, u))
                .min_by_key(|&(i, u)| (u, i))
                .expect("at least one channel");
            ready = until;
            live.push(first);
        }
        let eff_bits = self.effective_batch_bits(now);
        if live.len() < self.channels.len() || eff_bits < self.mechanism.batch_bits() {
            self.stats.degraded_generations += 1;
        }
        for &i in &live {
            ready = ready.max(self.channels[i].blocked_until());
            ready = ready.max(self.channels.at(i).prepare_rng_mode(now));
        }
        let mech = &mut self.mechanism;
        let start = ready + mech.demand_switch_cycles();
        let bits_needed = 64 * requests.len() as u64;
        let per_round = eff_bits as u64 * live.len() as u64;
        let rounds = bits_needed.div_ceil(per_round);
        let data_ready = start + rounds * mech.batch_latency();
        let finish = data_ready + mech.demand_switch_cycles();
        let cmds = mech.batch_commands();
        for &i in &live {
            let mut ch = self.channels.at(i);
            ch.block_until(finish);
            ch.note_rng_commands(cmds.acts * rounds, cmds.reads * rounds, cmds.pres * rounds);
        }
        // Refine the adaptive-aging estimate from the observed cost (a
        // live-cycle-only mutation, so fast-forward safe).
        let cost = finish - now;
        self.demand_cost_est = (3 * self.demand_cost_est + cost) / 4;
        let mut burst = self.take_burst_vec();
        for req in &requests {
            // Attribute each word round-robin to a generating channel:
            // that channel's quality derate (if any) biases the word, and
            // the watchdog samples it into that channel's health window.
            let chan = live[self.attribute_rr % live.len()];
            self.attribute_rr = self.attribute_rr.wrapping_add(1);
            let raw = self.mechanism.draw(64);
            let value = self.taint_word(chan, now, raw, 64);
            self.observe_health(chan, value, 64, now);
            self.log_value(value);
            self.record_rng_completion(req, data_ready, false);
            burst.push((req.id, req.core, value, false));
        }
        self.push_burst(data_ready, burst);
        self.stats.demand_generations += 1;
        // Surplus bits beyond the demanded 64s go to the buffer.
        let mut surplus = rounds * per_round - bits_needed;
        while surplus > 0 && !self.buffer.is_full() {
            let take = surplus.min(64) as u32;
            let chan = live[self.attribute_rr % live.len()];
            self.attribute_rr = self.attribute_rr.wrapping_add(1);
            let raw = self.mechanism.draw(take);
            let word = self.taint_word(chan, now, raw, take);
            self.observe_health(chan, word, take, now);
            let accepted = self.buffer.push_bits(word, take);
            self.stats.bits_buffered += accepted as u64;
            if accepted < take {
                break;
            }
            surplus -= take as u64;
        }
        self.demand_finish = Some(finish);
    }

    /// Starts one generation round on channel `i`, blocking it for
    /// `extra_switch + batch_latency` cycles and accounting the commands.
    fn start_fill_round(&mut self, i: usize, now: u64, extra_switch: u64, low_util: bool) {
        let end = now + extra_switch + self.mechanism.batch_latency();
        self.fill[i].fill_end = Some(end);
        self.fill[i].fill_is_low_util = low_util;
        let cmds = self.mechanism.batch_commands();
        let mut ch = self.channels.at(i);
        ch.block_until(end);
        ch.note_rng_commands(cmds.acts, cmds.reads, cmds.pres);
    }

    /// Draws one fill batch's bits on channel `chan` into the buffer,
    /// applying that channel's quality-derate bias (if active) and
    /// sampling full words into its health window.
    fn deliver_batch_bits(&mut self, chan: usize, bits: u32) {
        let now = self.mem_now;
        let mut remaining = bits;
        while remaining > 0 {
            let take = remaining.min(64);
            let raw = self.mechanism.draw(take);
            let word = self.taint_word(chan, now, raw, take);
            self.observe_health(chan, word, take, now);
            let accepted = self.buffer.push_bits(word, take);
            self.stats.bits_buffered += accepted as u64;
            remaining -= take;
            if accepted < take {
                break;
            }
        }
    }

    /// Greedy Idle oracle (Section 7's comparison point): "if an idle
    /// period reaches the Period Threshold, we assume we fill the buffer
    /// with 8 random bits without any overhead" — one batch per qualifying
    /// idle period, zero occupancy, no commands. This is why the greedy
    /// design trails DR-STRaNGe: it cannot exploit the rest of a long idle
    /// period, nor low-utilization slack (Section 8.1).
    fn greedy_fill_step(&mut self, now: u64) {
        let threshold = self.config.period_threshold;
        let bits = self.effective_batch_bits(now);
        for i in 0..self.channels.len() {
            let idle_now = self.channels[i].queues_empty();
            if idle_now {
                self.fill[i].idle_len += 1;
                if self.fill[i].idle_len == threshold
                    && !self.buffer.is_full()
                    && !self.chan_unavailable(i, now)
                {
                    // An outage or quarantine swallows this period's
                    // oracle batch (the crossing still ticks live; only
                    // the delivery is suppressed).
                    self.deliver_batch_bits(i, bits);
                    self.stats.greedy_batches += 1;
                }
            } else {
                self.fill[i].idle_len = 0;
            }
            self.fill[i].was_idle = idle_now;
        }
    }

    /// Predictor-gated filling (Section 5.1): idle-start predictions, fill
    /// round chaining, the low-utilization path, and predictor training at
    /// period end.
    fn predictive_fill_step(&mut self, now: u64) {
        let threshold = self.config.period_threshold;
        let low_util = self.config.low_util_threshold;
        let batch_bits = self.effective_batch_bits(now);
        let batch_latency = self.mechanism.batch_latency();
        let fill_switch = self.mechanism.fill_switch_cycles();
        let demand_active = self.demand_finish.is_some();

        for i in 0..self.channels.len() {
            // 1. Complete a due fill round.
            if let Some(end) = self.fill[i].fill_end {
                if now >= end {
                    self.deliver_batch_bits(i, batch_bits);
                    let st = &mut self.fill[i];
                    st.fill_end = None;
                    let was_low_util = st.fill_is_low_util;
                    st.fill_is_low_util = false;
                    if was_low_util {
                        self.stats.low_util_batches += 1;
                        self.fill[i].last_low_util_end = now;
                        // Low-utilization rounds never chain: the stalled
                        // requests get the channel back.
                        self.channels.at(i).block_until(now + fill_switch);
                    } else {
                        self.stats.fill_batches += 1;
                        // Chain while the channel stays idle (and healthy)
                        // and the buffer has room; otherwise restore
                        // timing parameters.
                        if self.channels[i].queues_empty()
                            && !self.buffer.is_full()
                            && !demand_active
                            && !self.chan_unavailable(i, now)
                        {
                            self.start_fill_round(i, now, 0, false);
                        } else {
                            self.channels.at(i).block_until(now + fill_switch);
                        }
                    }
                }
            }

            // 2. Idle-period edge tracking and prediction.
            let idle_now = self.channels[i].queues_empty();
            let was_idle = self.fill[i].was_idle;
            if idle_now {
                self.fill[i].idle_len += 1;
                if !was_idle {
                    // Period starts: predict (unless the engine is mid
                    // generation or the channel is otherwise occupied).
                    let can_predict = !demand_active && !self.channels[i].is_blocked(now);
                    if can_predict {
                        let addr = self.channels[i].last_enqueued_line();
                        let pred = self.predictors[i].predict(addr);
                        self.fill[i].prediction = Some(pred);
                        self.fill[i].predict_addr = addr;
                    }
                }
                // Start (or resume) filling when predicted long and the
                // channel's TRNG cells are healthy.
                if self.fill[i].prediction == Some(Prediction::Long)
                    && self.fill[i].fill_end.is_none()
                    && !self.buffer.is_full()
                    && !demand_active
                    && !self.channels[i].is_blocked(now)
                    && !self.chan_unavailable(i, now)
                {
                    self.start_fill_round(i, now, fill_switch, false);
                }
            } else {
                if was_idle {
                    // Period ended: train the predictor.
                    let len = self.fill[i].idle_len;
                    if let Some(pred) = self.fill[i].prediction.take() {
                        let was_long = len >= threshold;
                        let addr = self.fill[i].predict_addr;
                        self.predictors[i].update(addr, pred, was_long);
                        self.stats.predictor.record(pred.is_long(), was_long);
                    }
                    self.fill[i].idle_len = 0;
                }

                // 3. Low-utilization path: nearly-empty read queue. Paced
                // to one round per 8 × batch_latency window per channel so
                // the predictor "stalls only a small number of requests"
                // (Section 5.1.2) even for workloads that hover below the
                // occupancy threshold.
                if low_util > 0
                    && self.fill[i].fill_end.is_none()
                    && !demand_active
                    && !self.channels[i].is_blocked(now)
                    && !self.chan_unavailable(i, now)
                    && !self.buffer.is_full()
                    && self.channels[i].read_queue_len() < low_util
                    && now >= self.fill[i].last_low_util_end + 8 * batch_latency
                {
                    let addr = self.channels[i].last_enqueued_line();
                    if self.predictors[i].predict(addr) == Prediction::Long {
                        self.start_fill_round(i, now, fill_switch, true);
                    } else {
                        self.fill[i].last_low_util_end = now;
                    }
                }
            }
            self.fill[i].was_idle = idle_now;
        }
    }
}

impl MemorySystem for MemSubsystem {
    fn try_load(&mut self, core: CoreId, line_addr: u64) -> Option<RequestId> {
        let addr = self.mapping.decode(line_addr);
        if !self.channels[addr.channel as usize].can_accept(RequestKind::Read) {
            return None;
        }
        let id = self.alloc_id();
        let req = Request {
            id,
            core,
            kind: RequestKind::Read,
            addr,
            arrival: self.mem_now,
        };
        self.channels
            .at(addr.channel as usize)
            .try_enqueue(req, self.mem_now)
            .expect("capacity checked");
        Some(id)
    }

    fn try_store(&mut self, core: CoreId, line_addr: u64) -> bool {
        let addr = self.mapping.decode(line_addr);
        if !self.channels[addr.channel as usize].can_accept(RequestKind::Write) {
            return false;
        }
        let id = self.alloc_id();
        let req = Request {
            id,
            core,
            kind: RequestKind::Write,
            addr,
            arrival: self.mem_now,
        };
        self.channels
            .at(addr.channel as usize)
            .try_enqueue(req, self.mem_now)
            .expect("capacity checked");
        true
    }

    fn try_rng(&mut self, core: CoreId) -> Option<RequestId> {
        if core < self.rng_app.len() {
            self.rng_app[core] = true;
        }
        if self.rng_rejecting {
            return None;
        }
        match self.config.routing {
            RngRouting::Oblivious => {
                // RNG requests share the read queues; round-robin over
                // channels for queue-slot pressure.
                let start = self.next_rng_channel;
                let n = self.channels.len() as u32;
                let mut chosen = None;
                for off in 0..n {
                    let c = ((start + off) % n) as usize;
                    if self.channels[c].can_accept(RequestKind::Rng) {
                        chosen = Some(c);
                        break;
                    }
                }
                let Some(c) = chosen else {
                    self.rng_rejecting = true;
                    return None;
                };
                self.next_rng_channel = (c as u32 + 1) % n;
                let id = self.alloc_id();
                let req = Request {
                    id,
                    core,
                    kind: RequestKind::Rng,
                    addr: DramAddress {
                        channel: c as u32,
                        rank: 0,
                        bank: 0,
                        row: 0,
                        col: 0,
                    },
                    arrival: self.mem_now,
                };
                self.stats.rng_requests += 1;
                self.channels
                    .at(c)
                    .try_enqueue(req, self.mem_now)
                    .expect("capacity checked");
                Some(id)
            }
            RngRouting::Aware => {
                // Admission is decided before an id is allocated, so a
                // rejected call leaves the allocator untouched.
                let buffered = self.buffer.available_words() > 0;
                if !buffered && self.rng_queue.len() >= self.config.rng_queue_capacity {
                    self.rng_rejecting = true;
                    return None;
                }
                let id = self.alloc_id();
                let req = Request {
                    id,
                    core,
                    kind: RequestKind::Rng,
                    addr: DramAddress {
                        channel: 0,
                        rank: 0,
                        bank: 0,
                        row: 0,
                        col: 0,
                    },
                    arrival: self.mem_now,
                };
                // Fast path: serve straight from the buffer (step 2a of the
                // paper's Figure 4 flowchart).
                if buffered {
                    let word = self.buffer.pop_word().expect("word available");
                    self.stats.rng_requests += 1;
                    self.log_value(word);
                    let due = self.mem_now + self.config.buffer_serve_latency;
                    self.record_rng_completion(&req, due, true);
                    self.push_burst_one(due, (req.id, req.core, word, true));
                    return Some(id);
                }
                // Slow path: the RNG queue (step 2b), subject to capacity.
                self.stats.rng_requests += 1;
                self.rng_queue.push_back(req);
                Some(id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use strange_trng::DRange;

    #[test]
    fn value_log_is_the_most_recent_window_across_trims() {
        let mut mem = MemSubsystem::new(SystemConfig::dr_strange(1), Box::new(DRange::new(1)));
        mem.log_value(7);
        assert!(mem.value_log().is_empty(), "logging is off by default");
        mem.set_value_log(true);
        // Past two trims, checked at every length.
        for n in 0..3 * VALUE_LOG_CAP as u64 + 10 {
            mem.log_value(n);
            let oldest = (n + 1).saturating_sub(VALUE_LOG_CAP as u64);
            assert!(
                mem.value_log().iter().copied().eq(oldest..=n),
                "after {} values the log holds {:?}..={:?}",
                n + 1,
                mem.value_log().first(),
                mem.value_log().last()
            );
        }
        let held = mem.value_log.as_ref().expect("logging on").len();
        assert!(held <= 2 * VALUE_LOG_CAP, "the log is trimmed: {held}");
    }

    proptest! {
        /// The maintained non-default-priority count equals a scan of the
        /// priority vector after every `register_client`, including
        /// re-registering an existing core at a different level and
        /// registering past the end (the gap is filled with level 1).
        #[test]
        fn nondefault_priority_count_matches_scan(
            configured in proptest::collection::vec(0u8..4, 0..4),
            registrations in proptest::collection::vec((0usize..24, 0u8..4), 0..48),
        ) {
            let config = SystemConfig::dr_strange(2).with_priorities(configured);
            let mut mem = MemSubsystem::new(config, Box::new(DRange::new(1)));
            let scan = |m: &MemSubsystem| count_nondefault(&m.config.priorities);
            prop_assert_eq!(mem.nondefault_priorities, scan(&mem));
            for (core, priority) in registrations {
                mem.register_client(core, priority);
                prop_assert_eq!(mem.config.priorities[core], priority);
                prop_assert_eq!(mem.nondefault_priorities, scan(&mem));
                prop_assert_eq!(mem.priorities_differentiate(), scan(&mem) > 0);
            }
        }
    }
}
