//! The per-channel memory controller: request queues, command issue,
//! write-drain, refresh, and the hooks the DR-STRaNGe engine uses to run
//! RNG generation on a channel.
//!
//! One [`ChannelController`] owns the banks/ranks/bus of a single channel
//! and is ticked once per DRAM bus cycle. Each tick it issues at most one
//! DRAM command (command-bus constraint), chosen by:
//!
//! 1. the refresh state machine (drain + REF when a refresh is due),
//! 2. the write-drain policy (hysteresis watermarks on the write queue),
//! 3. the configured [`SchedulerPolicy`] over the read queue.
//!
//! RNG requests (when routed through the read queue, as in the
//! RNG-oblivious baseline) are *selected* like ordinary requests but not
//! issued as DRAM commands; they are returned to the caller, which switches
//! the system into RNG mode (see `strange-core`).
//!
//! # Fast-forward support
//!
//! The controller participates in event-driven fast-forward simulation
//! through two methods that the engine layer composes into a global
//! next-event bound:
//!
//! * [`ChannelController::next_event_at`] computes the earliest cycle at
//!   which a tick could do anything beyond linear bookkeeping — the head
//!   of the in-flight data heap, the end of an RNG blockade, the next
//!   refresh deadline (or the ACT fence a drained, pending REF waits
//!   for), or the earliest bank/rank/bus readiness over the queued
//!   requests.
//! * [`ChannelController::skip_to`] bulk-applies the per-cycle accounting
//!   (cycle/idle/occupancy counters, idle-period tracking, scheduler
//!   catch-up) for a span the caller has proven dead, leaving the
//!   controller bit-identical to having ticked through it.
//!
//! # The O(1) probe cache
//!
//! The expensive part of a probe is the min over the serving queue of each
//! request's bank/rank/bus readiness. That minimum only changes when the
//! queue contents, the bank/rank/bus timing state, or the write-drain
//! decision change — all of which happen at a handful of well-defined
//! mutation points (enqueue, command issue, refresh activity, RNG mode
//! preparation, drain-flag flips). The controller therefore memoizes the
//! scan result in a [`Cell`] and invalidates it at exactly those points,
//! making repeated probes (and ticks on which nothing can issue) O(1)
//! instead of O(queue length). The memo has no off switch: debug builds
//! compare every hit against the fresh scan, and
//! [`ChannelController::next_event_at_uncached`] recomputes from scratch
//! as the oracle for the property tests.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::addr::{AddressMapping, Geometry};
use crate::bank::{Bank, BusTiming, RankTiming};
use crate::error::EnqueueError;
use crate::request::{CompletedAccess, Request, RequestId, RequestKind};
use crate::sched::{age_key, frfcfs_best, Readiness, SchedulerPolicy};
use crate::stats::ChannelStats;
use crate::timing::TimingParams;

/// Default request-queue capacity (paper Table 1: 32-entry queues).
pub const DEFAULT_QUEUE_CAPACITY: usize = 32;

/// Write-drain high watermark: start draining when the write queue reaches
/// this occupancy.
const WRITE_DRAIN_HI: usize = 24;
/// Write-drain low watermark: stop draining at or below this occupancy.
const WRITE_DRAIN_LO: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    at: u64,
    request: Request,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.request.id).cmp(&(other.at, other.request.id))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The next DRAM command a request needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NextCommand {
    Precharge,
    Activate,
    Column,
}

/// The command-timing state of one channel: banks, ranks, and the data
/// bus, plus the timing parameters that govern them.
///
/// Grouping these in one struct lets readiness computation borrow the
/// timing state immutably while the controller's scratch buffer is
/// borrowed mutably (no `mem::take` dance in the per-cycle hot path).
#[derive(Debug, Clone)]
struct CommandTiming {
    timing: TimingParams,
    geometry: Geometry,
    banks: Vec<Bank>,
    ranks: Vec<RankTiming>,
    bus: BusTiming,
}

impl CommandTiming {
    fn bank_index(&self, req: &Request) -> usize {
        (req.addr.rank * self.geometry.banks + req.addr.bank) as usize
    }

    fn next_command(&self, req: &Request) -> NextCommand {
        let bank = &self.banks[self.bank_index(req)];
        match bank.open_row() {
            Some(r) if r == req.addr.row => NextCommand::Column,
            Some(_) => NextCommand::Precharge,
            None => NextCommand::Activate,
        }
    }

    /// Earliest cycle the request's next required command could issue,
    /// considering bank, rank, and bus constraints (but not a pending
    /// refresh — callers handle refresh separately).
    fn ready_at(&self, req: &Request) -> u64 {
        if req.kind == RequestKind::Rng {
            // RNG requests are served by switching modes, not by a DRAM
            // command; they are always selectable.
            return 0;
        }
        self.ready_at_for(req, self.next_command(req))
    }

    /// [`CommandTiming::ready_at`] with the request's next command already
    /// resolved, so the per-cycle readiness path looks it up only once.
    fn ready_at_for(&self, req: &Request, next: NextCommand) -> u64 {
        let bank = &self.banks[self.bank_index(req)];
        match next {
            NextCommand::Column => match req.kind {
                RequestKind::Read => bank
                    .next_read_allowed()
                    .max(self.bus.next_read_allowed(&self.timing)),
                RequestKind::Write => bank
                    .next_write_allowed()
                    .max(self.bus.next_write_allowed(&self.timing)),
                RequestKind::Rng => unreachable!("RNG requests have no commands"),
            },
            NextCommand::Precharge => bank.next_pre_allowed(),
            NextCommand::Activate => {
                let rank = &self.ranks[req.addr.rank as usize];
                bank.next_act_allowed()
                    .max(rank.next_act_allowed(&self.timing))
            }
        }
    }

    fn readiness_of(&self, now: u64, req: &Request, refresh_pending: bool) -> Readiness {
        if req.kind == RequestKind::Rng {
            // Always selectable and never a row hit.
            return Readiness {
                ready_now: true,
                row_hit: false,
            };
        }
        let next = self.next_command(req);
        let t = self.ready_at_for(req, next);
        match next {
            // No new column or activate commands once a refresh is pending
            // (the controller drains toward the REF).
            NextCommand::Column => Readiness {
                ready_now: now >= t && !refresh_pending,
                row_hit: true,
            },
            NextCommand::Activate => Readiness {
                ready_now: now >= t && !refresh_pending,
                row_hit: false,
            },
            NextCommand::Precharge => Readiness {
                ready_now: now >= t,
                row_hit: false,
            },
        }
    }

    /// Recomputes readiness for every request in `queue` into `buf`.
    fn fill_readiness(
        &self,
        now: u64,
        queue: &[Request],
        refresh_pending: bool,
        buf: &mut Vec<Readiness>,
    ) {
        buf.clear();
        buf.extend(
            queue
                .iter()
                .map(|r| self.readiness_of(now, r, refresh_pending)),
        );
    }
}

/// A per-channel memory controller.
///
/// Generic over the read-queue [`SchedulerPolicy`] so that the different
/// designs (FR-FCFS+Cap, BLISS, DR-STRaNGe's RNG-aware policy) are
/// monomorphized rather than dynamically dispatched in the per-cycle path.
#[derive(Debug, Clone)]
pub struct ChannelController<P> {
    id: u32,
    ct: CommandTiming,
    mapping: AddressMapping,
    policy: P,
    read_q: Vec<Request>,
    write_q: Vec<Request>,
    queue_capacity: usize,
    in_write_drain: bool,
    next_refresh_due: u64,
    refresh_pending: bool,
    blocked_until: u64,
    open_banks: u32,
    act_owner: Vec<Option<RequestId>>,
    conflict_marked: Vec<RequestId>,
    pending: BinaryHeap<Reverse<Pending>>,
    cur_idle: u64,
    last_enqueued_line: u64,
    stats: ChannelStats,
    readiness_buf: Vec<Readiness>,
    /// Diagnostic rebuild counters (deliberately not in `ChannelStats`:
    /// rebuild counts legitimately differ between per-cycle and skipped
    /// execution, which the stats-equality tests would reject).
    read_rebuilds: u64,
    write_rebuilds: u64,
    readiness_scanned: u64,
    /// Memoized earliest-ready cycle over the queue the controller would
    /// serve (`u64::MAX` when that queue is empty); `None` when stale.
    queue_ready_cache: Cell<Option<u64>>,
}

impl<P: SchedulerPolicy> ChannelController<P> {
    /// Creates a controller for channel `id` with the given policy.
    pub fn new(id: u32, geometry: Geometry, timing: TimingParams, policy: P) -> Self {
        let nbanks = (geometry.ranks * geometry.banks) as usize;
        ChannelController {
            id,
            ct: CommandTiming {
                timing,
                geometry,
                banks: vec![Bank::new(); nbanks],
                ranks: vec![RankTiming::new(); geometry.ranks as usize],
                bus: BusTiming::new(),
            },
            mapping: AddressMapping::new(geometry).expect("valid geometry"),
            policy,
            read_q: Vec::with_capacity(DEFAULT_QUEUE_CAPACITY),
            write_q: Vec::with_capacity(DEFAULT_QUEUE_CAPACITY),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            in_write_drain: false,
            next_refresh_due: timing.trefi as u64,
            refresh_pending: false,
            blocked_until: 0,
            open_banks: 0,
            act_owner: vec![None; nbanks],
            conflict_marked: Vec::new(),
            pending: BinaryHeap::new(),
            cur_idle: 0,
            last_enqueued_line: 0,
            stats: ChannelStats::new(),
            readiness_buf: Vec::with_capacity(DEFAULT_QUEUE_CAPACITY),
            read_rebuilds: 0,
            write_rebuilds: 0,
            readiness_scanned: 0,
            queue_ready_cache: Cell::new(None),
        }
    }

    /// Diagnostic: times `tick` built the read-queue readiness buffer.
    pub fn read_readiness_rebuilds(&self) -> u64 {
        self.read_rebuilds
    }

    /// Diagnostic: times `tick` built the write-queue readiness buffer.
    /// Stays zero as long as write drain never becomes eligible — the
    /// write-gating regression tests assert exactly that.
    pub fn write_readiness_rebuilds(&self) -> u64 {
        self.write_rebuilds
    }

    /// Diagnostic: `(recomputed, visited)` entry totals across read
    /// readiness rebuilds. Every rebuild computes each entry afresh, so
    /// this is `(visited, visited)`; the pair is kept for the
    /// benchmark's `dram.readiness_recompute_ratio`.
    pub fn readiness_recompute_counts(&self) -> (u64, u64) {
        (self.readiness_scanned, self.readiness_scanned)
    }

    /// Marks the memoized earliest-ready scan stale. Must be called by
    /// every mutation that can change which request could issue when:
    /// queue content changes, command issue (bank/rank/bus state), refresh
    /// activity, RNG mode preparation, and write-drain flag flips.
    fn invalidate_probe(&self) {
        self.queue_ready_cache.set(None);
    }

    /// Applies the write-drain hysteresis update from the current queue
    /// lengths (the once-per-cycle rule that `tick` enforces and `skip_to`
    /// replays), invalidating the probe cache when the flag flips. The
    /// single mutation point for `in_write_drain`, so an update can never
    /// forget the invalidation.
    fn update_write_drain(&mut self) {
        let before = self.in_write_drain;
        if self.write_q.len() >= WRITE_DRAIN_HI {
            self.in_write_drain = true;
        } else if self.write_q.len() <= WRITE_DRAIN_LO {
            self.in_write_drain = false;
        }
        if self.in_write_drain != before {
            self.invalidate_probe();
        }
    }

    /// This channel's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &TimingParams {
        &self.ct.timing
    }

    /// Immutable view of the read queue (includes RNG requests in designs
    /// that route them through it). Not in arrival order — the controller
    /// removes serviced entries with `swap_remove` and orders by the
    /// requests' own `(arrival, id)` keys.
    pub fn read_queue(&self) -> &[Request] {
        &self.read_q
    }

    /// Immutable view of the write queue (not in arrival order).
    pub fn write_queue(&self) -> &[Request] {
        &self.write_q
    }

    /// Queue capacity per queue (reads and writes are separate queues).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Overrides the queue capacity (both queues).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_queue_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "queue capacity must be nonzero");
        self.queue_capacity = capacity;
    }

    /// Whether a request of `kind` can currently be accepted.
    pub fn can_accept(&self, kind: RequestKind) -> bool {
        match kind {
            RequestKind::Write => self.write_q.len() < self.queue_capacity,
            RequestKind::Read | RequestKind::Rng => self.read_q.len() < self.queue_capacity,
        }
    }

    /// Enqueues a request at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`EnqueueError::QueueFull`] when the target queue is full;
    /// the caller (core model) must retry later, which is how queue
    /// back-pressure stalls cores.
    pub fn try_enqueue(&mut self, mut req: Request, now: u64) -> Result<(), EnqueueError> {
        if !self.can_accept(req.kind) {
            return Err(EnqueueError::QueueFull);
        }
        req.arrival = now;
        self.last_enqueued_line = self.mapping.encode(&req.addr);
        match req.kind {
            RequestKind::Write => self.write_q.push(req),
            RequestKind::Read | RequestKind::Rng => self.read_q.push(req),
        }
        self.invalidate_probe();
        Ok(())
    }

    /// Both request queues are empty (the paper's per-cycle idleness test).
    pub fn queues_empty(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    /// Number of queued read-queue requests (used by the low-utilization
    /// predictor threshold).
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Flat cache-line address of the most recently enqueued request (the
    /// simple predictor's table index source).
    pub fn last_enqueued_line(&self) -> u64 {
        self.last_enqueued_line
    }

    /// Arrival cycle and core of the oldest queued read, if any.
    pub fn oldest_read(&self) -> Option<&Request> {
        self.read_q.iter().min_by_key(|r| age_key(r))
    }

    /// Blocks the channel for RNG generation until `cycle` (exclusive).
    /// While blocked, no regular commands issue; in-flight read data still
    /// returns.
    pub fn block_until(&mut self, cycle: u64) {
        self.blocked_until = self.blocked_until.max(cycle);
    }

    /// The cycle until which the channel is blocked for RNG generation.
    pub fn blocked_until(&self) -> u64 {
        self.blocked_until
    }

    /// Whether the channel is currently blocked for RNG use.
    pub fn is_blocked(&self, now: u64) -> bool {
        now < self.blocked_until
    }

    /// Drains all RNG-kind requests out of the read queue (the baseline
    /// serves queued RNG requests together once one is selected).
    pub fn drain_rng_requests(&mut self) -> Vec<Request> {
        let mut out = Vec::new();
        self.read_q.retain(|r| {
            if r.kind == RequestKind::Rng {
                out.push(*r);
                false
            } else {
                true
            }
        });
        self.invalidate_probe();
        out
    }

    /// Prepares the channel for RNG mode at `now`: schedules precharges for
    /// every open bank and returns the cycle at which all banks are
    /// precharged and activations are permitted again — i.e. when reduced-
    /// timing RNG accesses may start. This is the mechanistic part of the
    /// mode-switch cost: expensive under load, nearly free when idle.
    pub fn prepare_rng_mode(&mut self, now: u64) -> u64 {
        let mut ready = now;
        let timing = self.ct.timing;
        for bank in &mut self.ct.banks {
            if !bank.is_precharged() {
                let t = now.max(bank.next_pre_allowed());
                bank.precharge(t, &timing);
                self.stats.pres += 1;
                self.stats.rng_pres += 1;
            }
            ready = ready.max(bank.next_act_allowed());
        }
        self.open_banks = 0;
        self.act_owner.iter_mut().for_each(|o| *o = None);
        self.invalidate_probe();
        ready
    }

    /// Accounts DRAM commands issued on this channel while in RNG mode
    /// (reduced-timing ACT/RD/PRE rounds driven by the TRNG mechanism).
    pub fn note_rng_commands(&mut self, acts: u64, reads: u64, pres: u64) {
        self.stats.rng_acts += acts;
        self.stats.rng_reads += reads;
        self.stats.rng_pres += pres;
    }

    /// Mutable access to the scheduling policy (e.g. to update BLISS
    /// parameters or inspect blacklists in tests).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Shared access to the scheduling policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Whether every bank is precharged (used by tests and the engine).
    pub fn all_banks_precharged(&self) -> bool {
        self.open_banks == 0
    }

    /// The earliest cycle at or after `now` at which a tick of this
    /// controller could do anything beyond the linear per-cycle accounting
    /// that [`ChannelController::skip_to`] replays in bulk.
    ///
    /// The bound considers: the head of the in-flight data heap, the end
    /// of an RNG blockade, a due (or pending) refresh, and the earliest
    /// bank/rank/bus readiness over whichever queue the controller would
    /// serve. A return value of `now` means the controller must be ticked
    /// cycle by cycle; every cycle in `now..next_event_at(now)` is
    /// guaranteed dead.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        self.next_event_with(now, self.queue_ready_at())
    }

    /// [`ChannelController::next_event_at`] recomputed from scratch,
    /// bypassing the probe cache. Identical to the cached path whenever
    /// invalidation is correct; the probe-cache property tests use it as
    /// the reference oracle.
    pub fn next_event_at_uncached(&self, now: u64) -> Option<u64> {
        self.next_event_with(now, self.queue_ready_scan())
    }

    fn next_event_with(&self, now: u64, queue_ready: u64) -> Option<u64> {
        let mut event = u64::MAX;
        if let Some(&Reverse(p)) = self.pending.peek() {
            event = event.min(p.at);
        }
        if now < self.blocked_until {
            // While blocked only data return happens; everything else
            // resumes when the blockade lifts.
            return Some(event.min(self.blocked_until).max(now));
        }
        if self.refresh_pending {
            if self.open_banks > 0 {
                // The drain precharges a bank a cycle for a handful of
                // cycles; run them per-cycle rather than modelling it.
                return Some(now);
            }
            // Drained: REF issues once the last ACT fence has passed (tRP
            // after the drain; tRFC after the previous REF when refreshes
            // a blockade postponed are caught up back to back). Until
            // then a tick returns data and counts the cycle.
            return Some(event.min(self.refresh_ready_at()).max(now));
        }
        event = event.min(self.next_refresh_due);
        event = event.min(queue_ready);
        Some(event.max(now))
    }

    /// Which queue a tick would serve. Mirrors the tick-time write-drain
    /// hysteresis update, which is a pure function of the queue lengths
    /// and the current drain flag.
    fn would_serve_writes(&self) -> bool {
        let drain = if self.write_q.len() >= WRITE_DRAIN_HI {
            true
        } else if self.write_q.len() <= WRITE_DRAIN_LO {
            false
        } else {
            self.in_write_drain
        };
        drain || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    /// Earliest cycle at which any request in the serving queue could have
    /// its next command issued, memoized (`u64::MAX` when the queue is
    /// empty). Debug builds check every hit against the fresh scan.
    fn queue_ready_at(&self) -> u64 {
        if let Some(v) = self.queue_ready_cache.get() {
            debug_assert_eq!(v, self.queue_ready_scan(), "stale probe cache");
            return v;
        }
        let v = self.queue_ready_scan();
        self.queue_ready_cache.set(Some(v));
        v
    }

    fn queue_ready_scan(&self) -> u64 {
        let queue = if self.would_serve_writes() {
            &self.write_q
        } else {
            &self.read_q
        };
        queue
            .iter()
            .map(|r| self.ct.ready_at(r))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Bulk-applies the per-cycle accounting for the dead span
    /// `from..to`, leaving the controller in exactly the state that
    /// ticking it once per cycle would (the caller must guarantee
    /// `to <= next_event_at(from)`).
    pub fn skip_to(&mut self, from: u64, to: u64) {
        if to <= from {
            return;
        }
        debug_assert!(
            self.next_event_at(from).is_none_or(|e| e >= to),
            "skip_to past a channel event"
        );
        let n = to - from;
        self.policy.on_cycles_skipped(from, to);
        self.stats.cycles += n;
        self.stats.read_queue_occupancy_sum += self.read_q.len() as u64 * n;
        if self.open_banks == 0 {
            self.stats.all_precharged_cycles += n;
        }
        let blocked = from < self.blocked_until;
        if blocked {
            debug_assert!(to <= self.blocked_until, "skip across a blockade edge");
            self.stats.rng_blocked_cycles += n;
        } else if !self.refresh_pending {
            // Unblocked ticks update the write-drain hysteresis from the
            // (span-stable) queue lengths every cycle; replay it once so
            // `in_write_drain` does not go stale across the span. (A tick
            // waiting to issue REF stops before that update.)
            self.update_write_drain();
        }
        if self.queues_empty() && !blocked {
            self.cur_idle += n;
            self.stats.idle_cycles += n;
        } else if self.cur_idle > 0 {
            self.stats.record_idle_period(self.cur_idle);
            self.cur_idle = 0;
        }
    }

    /// Advances the controller by one DRAM bus cycle.
    ///
    /// Completed reads (and RNG requests served earlier) are appended to
    /// `completed`. If the scheduling policy selected an RNG request this
    /// cycle, it is removed from the queue and returned so the caller can
    /// switch the system into RNG mode.
    pub fn tick(&mut self, now: u64, completed: &mut Vec<CompletedAccess>) -> Option<Request> {
        self.stats.cycles += 1;
        self.stats.read_queue_occupancy_sum += self.read_q.len() as u64;
        if self.open_banks == 0 {
            self.stats.all_precharged_cycles += 1;
        }
        self.policy.on_cycle(now);

        // 1. Return data that has arrived.
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.at > now {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            self.stats
                .record_read_latency(p.request.core, p.at.saturating_sub(p.request.arrival));
            completed.push(CompletedAccess {
                request: p.request,
                completed_at: p.at,
            });
        }

        // 2. Idle accounting (queue emptiness, as the paper defines it).
        let blocked = now < self.blocked_until;
        if blocked {
            self.stats.rng_blocked_cycles += 1;
        }
        if self.queues_empty() && !blocked {
            self.cur_idle += 1;
            self.stats.idle_cycles += 1;
        } else if self.cur_idle > 0 {
            self.stats.record_idle_period(self.cur_idle);
            self.cur_idle = 0;
        }

        if blocked {
            return None;
        }

        // 3. Refresh state machine: once a refresh is due, drain and REF.
        if self.refresh_step(now) {
            return None;
        }

        // 4. Choose the active queue: write drain with hysteresis, plus
        //    opportunistic writes when there is no read work.
        self.update_write_drain();
        let serve_writes =
            self.in_write_drain || (self.read_q.is_empty() && !self.write_q.is_empty());

        // Fast path: when the earliest-ready bound says no queued
        // request's next command can issue yet, the scheduler scan below
        // cannot select anything (`select` implementations are pure when
        // nothing is ready), so skip the O(queue) readiness fill entirely.
        // `queue_ready_at` memoizes, so a timing-gated stretch costs one
        // min-scan at its first tick and O(1) per tick thereafter. It also
        // keeps the write-queue rebuild below from running on serve
        // attempts where no write could issue anyway.
        if self.queue_ready_at() > now {
            return None;
        }

        if serve_writes {
            self.write_rebuilds += 1;
            self.ct
                .fill_readiness(now, &self.write_q, self.refresh_pending, &mut self.readiness_buf);
            let pick = frfcfs_best(&self.write_q, &self.readiness_buf, |_, r| r.row_hit);
            if let Some(i) = pick {
                self.issue_for(now, i, true);
            }
            return None;
        }

        if self.read_q.is_empty() {
            return None;
        }

        // 5. Policy-driven read scheduling.
        self.read_rebuilds += 1;
        self.readiness_scanned += self.read_q.len() as u64;
        self.ct
            .fill_readiness(now, &self.read_q, self.refresh_pending, &mut self.readiness_buf);
        let pick = self.policy.select(now, &self.read_q, &self.readiness_buf);
        let mut rng_selected = None;
        if let Some(i) = pick {
            debug_assert!(
                self.readiness_buf[i].ready_now,
                "policy selected a non-ready request"
            );
            if self.read_q[i].kind == RequestKind::Rng {
                rng_selected = Some(self.read_q.swap_remove(i));
                self.invalidate_probe();
            } else {
                self.issue_for(now, i, false);
            }
        }
        rng_selected
    }

    /// Flushes idle-period accounting (call at end of simulation so a final
    /// open idle period is recorded).
    pub fn finish(&mut self) {
        if self.cur_idle > 0 {
            self.stats.record_idle_period(self.cur_idle);
            self.cur_idle = 0;
        }
    }

    fn issue_for(&mut self, now: u64, idx: usize, writes: bool) {
        // Every branch mutates bank/rank/bus timing state or a queue.
        self.invalidate_probe();
        let req = if writes { self.write_q[idx] } else { self.read_q[idx] };
        let bidx = self.ct.bank_index(&req);
        let timing = self.ct.timing;
        match self.ct.next_command(&req) {
            NextCommand::Precharge => {
                self.ct.banks[bidx].precharge(now, &timing);
                self.stats.pres += 1;
                self.open_banks -= 1;
                if !self.conflict_marked.contains(&req.id) {
                    self.conflict_marked.push(req.id);
                }
            }
            NextCommand::Activate => {
                self.ct.banks[bidx].activate(now, req.addr.row, &timing);
                self.ct.ranks[req.addr.rank as usize].record_act(now, &timing);
                self.stats.acts += 1;
                self.open_banks += 1;
                self.act_owner[bidx] = Some(req.id);
            }
            NextCommand::Column => {
                let row_hit = self.act_owner[bidx] != Some(req.id);
                if row_hit {
                    self.stats.row_hits += 1;
                } else if let Some(pos) =
                    self.conflict_marked.iter().position(|&id| id == req.id)
                {
                    self.conflict_marked.swap_remove(pos);
                    self.stats.row_conflicts += 1;
                } else {
                    self.stats.row_misses += 1;
                }
                match req.kind {
                    RequestKind::Read => {
                        let done = self.ct.banks[bidx].read(now, &timing);
                        self.ct.bus.record_read(now);
                        self.stats.reads += 1;
                        self.policy.on_serviced(&req, row_hit);
                        self.read_q.swap_remove(idx);
                        self.pending.push(Reverse(Pending { at: done, request: req }));
                    }
                    RequestKind::Write => {
                        self.ct.banks[bidx].write(now, &timing);
                        self.ct.bus.record_write(now);
                        self.stats.writes += 1;
                        self.policy.on_serviced(&req, row_hit);
                        self.write_q.swap_remove(idx);
                    }
                    RequestKind::Rng => unreachable!("RNG requests never issue commands"),
                }
            }
        }
    }

    /// The cycle from which REF may issue on a drained channel: the last
    /// bank's ACT fence.
    fn refresh_ready_at(&self) -> u64 {
        self.ct
            .banks
            .iter()
            .map(Bank::next_act_allowed)
            .max()
            .unwrap_or(0)
    }

    /// Refresh drain + REF issue. Returns true when the refresh machinery
    /// consumed this cycle's command slot (or is draining).
    fn refresh_step(&mut self, now: u64) -> bool {
        if !self.refresh_pending {
            if now >= self.next_refresh_due {
                self.refresh_pending = true;
            } else {
                return false;
            }
        }
        if self.open_banks == 0 {
            if now >= self.refresh_ready_at() {
                let until = now + self.ct.timing.trfc as u64;
                for bank in &mut self.ct.banks {
                    bank.lock_until(until);
                }
                self.stats.refreshes += self.ct.geometry.ranks as u64;
                self.next_refresh_due += self.ct.timing.trefi as u64;
                self.refresh_pending = false;
                self.invalidate_probe();
            }
            return true;
        }
        // Precharge one open bank whose timing allows it.
        let timing = self.ct.timing;
        for (i, bank) in self.ct.banks.iter_mut().enumerate() {
            if !bank.is_precharged() && now >= bank.next_pre_allowed() {
                bank.precharge(now, &timing);
                self.stats.pres += 1;
                self.open_banks -= 1;
                self.act_owner[i] = None;
                self.invalidate_probe();
                return true;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddress;
    use crate::sched::FrFcfs;

    fn controller() -> ChannelController<FrFcfs> {
        let g = Geometry::paper_default();
        ChannelController::new(0, g, TimingParams::ddr3_1600(), FrFcfs::with_cap(g, 16))
    }

    fn read_at(id: u64, bank: u32, row: u32, col: u32) -> Request {
        Request {
            id,
            core: 0,
            kind: RequestKind::Read,
            addr: DramAddress {
                channel: 0,
                rank: 0,
                bank,
                row,
                col,
            },
            arrival: 0,
        }
    }

    fn run_until_complete(
        ctrl: &mut ChannelController<FrFcfs>,
        start: u64,
        limit: u64,
    ) -> Vec<CompletedAccess> {
        let mut done = Vec::new();
        for now in start..start + limit {
            ctrl.tick(now, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        done
    }

    #[test]
    fn cold_read_latency_is_act_plus_rcd_plus_cl_plus_burst() {
        let mut c = controller();
        let t = *c.timing();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let done = run_until_complete(&mut c, 0, 200);
        assert_eq!(done.len(), 1);
        // ACT at cycle 0, RD at tRCD, data at tRCD+CL+tBL.
        assert_eq!(done[0].completed_at, (t.trcd + t.cl + t.tbl) as u64);
    }

    #[test]
    fn row_hit_read_is_faster_than_cold_read() {
        let mut c = controller();
        let t = *c.timing();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let first = run_until_complete(&mut c, 0, 200)[0].completed_at;
        let start = first + 1;
        c.try_enqueue(read_at(2, 0, 5, 1), start).unwrap();
        let second = run_until_complete(&mut c, start, 200)[0].completed_at;
        let hit_latency = second - start;
        assert!(hit_latency < first, "hit {hit_latency} vs cold {first}");
        assert_eq!(hit_latency, (t.cl + t.tbl) as u64);
        assert_eq!(c.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_precharges_first() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let first = run_until_complete(&mut c, 0, 200)[0].completed_at;
        let start = first + 1;
        c.try_enqueue(read_at(2, 0, 9, 0), start).unwrap();
        run_until_complete(&mut c, start, 300);
        assert_eq!(c.stats().row_conflicts, 1);
        assert!(c.stats().pres >= 1);
    }

    #[test]
    fn queue_full_backpressure() {
        let mut c = controller();
        for i in 0..DEFAULT_QUEUE_CAPACITY as u64 {
            c.try_enqueue(read_at(i, 0, 1, i as u32), 0).unwrap();
        }
        assert_eq!(
            c.try_enqueue(read_at(99, 0, 1, 0), 0),
            Err(EnqueueError::QueueFull)
        );
        assert!(!c.can_accept(RequestKind::Read));
        assert!(c.can_accept(RequestKind::Write));
    }

    #[test]
    fn writes_drain_opportunistically_when_no_reads() {
        let mut c = controller();
        let mut w = read_at(1, 0, 3, 0);
        w.kind = RequestKind::Write;
        c.try_enqueue(w, 0).unwrap();
        let mut done = Vec::new();
        for now in 0..100 {
            c.tick(now, &mut done);
        }
        assert_eq!(c.stats().writes, 1);
        assert!(c.write_queue().is_empty());
    }

    #[test]
    fn refresh_fires_near_trefi() {
        let mut c = controller();
        let t = *c.timing();
        let mut done = Vec::new();
        for now in 0..(t.trefi as u64 + t.trfc as u64 + 10) {
            c.tick(now, &mut done);
        }
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn refresh_blocks_reads_during_trfc() {
        let mut c = controller();
        let t = *c.timing();
        let mut done = Vec::new();
        // Run past the refresh point, then enqueue a read during tRFC.
        for now in 0..t.trefi as u64 + 2 {
            c.tick(now, &mut done);
        }
        let start = t.trefi as u64 + 2;
        c.try_enqueue(read_at(1, 0, 5, 0), start).unwrap();
        for now in start..start + 400 {
            c.tick(now, &mut done);
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        // The read cannot complete before the refresh lock expires.
        let cold = (t.trcd + t.cl + t.tbl) as u64;
        assert!(done[0].completed_at > start + cold);
    }

    #[test]
    fn rng_request_is_returned_not_issued() {
        let mut c = controller();
        let mut r = read_at(7, 0, 0, 0);
        r.kind = RequestKind::Rng;
        c.try_enqueue(r, 0).unwrap();
        let mut done = Vec::new();
        let got = c.tick(0, &mut done);
        assert_eq!(got.map(|r| r.id), Some(7));
        assert!(c.read_queue().is_empty());
        assert_eq!(c.stats().reads, 0);
    }

    #[test]
    fn rng_request_waits_behind_ready_row_hits() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let first = run_until_complete(&mut c, 0, 200)[0].completed_at;
        let start = first + 1;
        // Row hit and an RNG request: hit is scheduled first.
        c.try_enqueue(read_at(2, 0, 5, 1), start).unwrap();
        let mut rng = read_at(3, 0, 0, 0);
        rng.kind = RequestKind::Rng;
        c.try_enqueue(rng, start).unwrap();
        let mut done = Vec::new();
        let sel = c.tick(start, &mut done);
        assert!(sel.is_none(), "row hit should be scheduled before RNG");
        assert_eq!(c.stats().reads, 2);
        // Next cycle, the RNG request is selected.
        let sel = c.tick(start + 1, &mut done);
        assert_eq!(sel.map(|r| r.id), Some(3));
    }

    #[test]
    fn drain_rng_requests_removes_only_rng() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let mut rng = read_at(2, 0, 0, 0);
        rng.kind = RequestKind::Rng;
        c.try_enqueue(rng, 0).unwrap();
        let drained = c.drain_rng_requests();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, 2);
        assert_eq!(c.read_queue().len(), 1);
    }

    #[test]
    fn idle_periods_recorded_between_requests() {
        let mut c = controller();
        let mut done = Vec::new();
        // 50 idle cycles, then a request, then idle again.
        for now in 0..50 {
            c.tick(now, &mut done);
        }
        c.try_enqueue(read_at(1, 0, 5, 0), 50).unwrap();
        for now in 50..200 {
            c.tick(now, &mut done);
        }
        c.finish();
        assert!(!c.stats().idle_periods.is_empty());
        assert_eq!(c.stats().idle_periods[0], 50);
    }

    #[test]
    fn block_until_freezes_regular_service() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        c.block_until(100);
        let mut done = Vec::new();
        for now in 0..100 {
            c.tick(now, &mut done);
        }
        assert!(done.is_empty(), "no service while blocked");
        assert_eq!(c.stats().rng_blocked_cycles, 100);
        for now in 100..300 {
            c.tick(now, &mut done);
        }
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn prepare_rng_mode_precharges_open_banks() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let mut done = Vec::new();
        for now in 0..30 {
            c.tick(now, &mut done);
        }
        assert!(!c.all_banks_precharged());
        let ready = c.prepare_rng_mode(30);
        assert!(c.all_banks_precharged());
        assert!(ready > 30, "precharge + tRP must take time");
        // Idle channel: preparation is (nearly) free.
        let mut idle = controller();
        let ready_idle = idle.prepare_rng_mode(30);
        assert_eq!(ready_idle, 30);
    }

    #[test]
    fn read_latency_stats_match_completions() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let done = run_until_complete(&mut c, 0, 200);
        let lat = done[0].completed_at;
        assert_eq!(c.stats().per_core[0].latency_sum, lat);
        assert_eq!(c.stats().per_core[0].reads, 1);
    }

    #[test]
    fn write_drain_hysteresis_engages_at_high_watermark() {
        let mut c = controller();
        // Fill write queue past the high watermark while a read stream runs.
        for i in 0..WRITE_DRAIN_HI as u64 {
            let mut w = read_at(100 + i, (i % 8) as u32, 1, i as u32);
            w.kind = RequestKind::Write;
            c.try_enqueue(w, 0).unwrap();
        }
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let mut done = Vec::new();
        for now in 0..2000 {
            c.tick(now, &mut done);
            if c.write_queue().len() <= WRITE_DRAIN_LO {
                break;
            }
        }
        assert!(c.write_queue().len() <= WRITE_DRAIN_LO);
        // The read is served only after the drain drops below the low mark.
        assert!(c.stats().writes >= (WRITE_DRAIN_HI - WRITE_DRAIN_LO) as u64);
    }

    /// Drives a reference clone per-cycle and a fast-forward clone with
    /// skip_to over the same dead span, asserting identical state — both
    /// right after the span and after 500 further live ticks, so latent
    /// divergence (e.g. stale hysteresis) surfaces too.
    fn assert_skip_matches_ticks(c: &ChannelController<FrFcfs>, from: u64) {
        let event = c.next_event_at(from).unwrap_or(u64::MAX);
        assert!(event > from, "span must be dead to compare");
        let to = event.min(from + 5000);
        let mut reference = c.clone();
        let mut scratch = Vec::new();
        for now in from..to {
            let sel = reference.tick(now, &mut scratch);
            assert!(sel.is_none(), "dead span must not select requests");
        }
        // Completions in the dead span would have been lost.
        assert!(scratch.is_empty(), "dead span must not complete requests");
        let mut fast = c.clone();
        fast.skip_to(from, to);
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.cur_idle, reference.cur_idle);
        assert_eq!(fast.in_write_drain, reference.in_write_drain);
        // Continue both live and require them to stay in lockstep.
        let mut ref_done = Vec::new();
        let mut fast_done = Vec::new();
        for now in to..to + 500 {
            reference.tick(now, &mut ref_done);
            fast.tick(now, &mut fast_done);
        }
        assert_eq!(fast.stats(), reference.stats(), "post-span divergence");
        assert_eq!(fast_done.len(), ref_done.len());
    }

    #[test]
    fn next_event_on_quiet_channel_is_refresh_deadline() {
        let c = controller();
        let t = *c.timing();
        assert_eq!(c.next_event_at(0), Some(t.trefi as u64));
        assert_skip_matches_ticks(&c, 0);
    }

    #[test]
    fn next_event_during_blockade_is_blockade_end() {
        let mut c = controller();
        c.block_until(500);
        assert_eq!(c.next_event_at(0), Some(500));
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        // Still 500: queued work cannot start while blocked.
        assert_eq!(c.next_event_at(10), Some(500));
        assert_skip_matches_ticks(&c, 10);
    }

    #[test]
    fn next_event_sees_pending_data_return() {
        let mut c = controller();
        let t = *c.timing();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let mut done = Vec::new();
        // Tick through ACT and RD; data is then in flight.
        for now in 0..=(t.trcd as u64) {
            c.tick(now, &mut done);
        }
        let due = (t.trcd + t.cl + t.tbl) as u64;
        assert_eq!(c.next_event_at(t.trcd as u64 + 1), Some(due));
        assert_skip_matches_ticks(&c, t.trcd as u64 + 1);
    }

    #[test]
    fn next_event_sees_bank_timing_readiness() {
        let mut c = controller();
        let t = *c.timing();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let mut done = Vec::new();
        c.tick(0, &mut done); // ACT at cycle 0
        // The RD cannot issue before tRCD: the next event is exactly that.
        assert_eq!(c.next_event_at(1), Some(t.trcd as u64));
        assert_skip_matches_ticks(&c, 1);
    }

    #[test]
    fn next_event_is_now_when_request_ready() {
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        assert_eq!(c.next_event_at(0), Some(0), "ACT can issue immediately");
    }

    #[test]
    fn skip_preserves_open_idle_period() {
        let mut c = controller();
        let mut done = Vec::new();
        for now in 0..50 {
            c.tick(now, &mut done);
        }
        let event = c.next_event_at(50).unwrap();
        c.skip_to(50, event.min(1000));
        let mut reference = controller();
        for now in 0..event.min(1000) {
            reference.tick(now, &mut done);
        }
        assert_eq!(c.cur_idle, reference.cur_idle);
        assert_eq!(c.stats().idle_cycles, reference.stats().idle_cycles);
    }

    #[test]
    fn skip_replays_write_drain_hysteresis() {
        // Engage the write drain, let it drop into the hysteresis band,
        // then compare skip vs per-cycle across the next dead span (and
        // beyond): the skipped clone must not keep a stale drain flag.
        let mut c = controller();
        for i in 0..WRITE_DRAIN_HI as u64 {
            let mut w = read_at(100 + i, (i % 8) as u32, 1, i as u32);
            w.kind = RequestKind::Write;
            c.try_enqueue(w, 0).unwrap();
        }
        c.try_enqueue(read_at(1, 0, 5, 0), 0).unwrap();
        let mut done = Vec::new();
        let mut now = 0;
        // Drain until the flag would clear on the next update.
        while c.write_queue().len() > WRITE_DRAIN_LO {
            c.tick(now, &mut done);
            now += 1;
        }
        assert!(c.in_write_drain, "flag still set at the issuing tick");
        // Find the next dead span and compare the two paths through it.
        loop {
            let event = c.next_event_at(now).unwrap();
            if event > now {
                assert_skip_matches_ticks(&c, now);
                break;
            }
            c.tick(now, &mut done);
            now += 1;
            assert!(now < 10_000, "a dead span must appear");
        }
    }

    #[test]
    fn postponed_refreshes_are_caught_up_without_a_per_cycle_pin() {
        // A blockade three refresh intervals long leaves three refreshes
        // owed. They issue back to back, tRFC apart, and the wait for each
        // ACT fence is a dead span, not tRFC live ticks.
        let mut c = controller();
        let t = *c.timing();
        let (trefi, trfc) = (t.trefi as u64, t.trfc as u64);
        let unblocked = 3 * trefi + 100;
        c.block_until(unblocked);
        c.skip_to(0, unblocked);
        let mut done = Vec::new();
        let mut now = unblocked;
        let mut live = 0;
        while c.stats().refreshes < 3 * c.ct.geometry.ranks as u64 {
            let event = c.next_event_at(now).unwrap();
            if event > now {
                assert!(c.refresh_pending, "only the REF wait is dead here");
                assert_eq!(event, c.refresh_ready_at());
                // The stale drain flag a write issue can leave behind: a
                // tick waiting for REF does not refresh it, nor may a skip.
                c.in_write_drain = true;
                assert_skip_matches_ticks(&c, now);
                c.in_write_drain = false;
                c.skip_to(now, event);
                now = event;
            } else {
                c.tick(now, &mut done);
                now += 1;
                live += 1;
            }
        }
        assert!(now - unblocked >= 2 * trfc, "REFs keep their tRFC spacing");
        assert!(live <= 9, "{live} live ticks for three refreshes");
        // Debt paid: the next event is the regular deadline again.
        assert_eq!(c.next_event_at(now), Some(4 * trefi));
    }

    #[test]
    fn swap_remove_keeps_age_order_semantics() {
        // Three same-bank reads to distinct rows: they are serviced oldest
        // first despite swap_remove scrambling queue positions.
        let mut c = controller();
        c.try_enqueue(read_at(1, 0, 1, 0), 0).unwrap();
        c.try_enqueue(read_at(2, 0, 2, 0), 1).unwrap();
        c.try_enqueue(read_at(3, 0, 3, 0), 2).unwrap();
        let mut done = Vec::new();
        for now in 0..1000 {
            c.tick(now, &mut done);
            if done.len() == 3 {
                break;
            }
        }
        let order: Vec<u64> = done.iter().map(|d| d.request.id).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }
}
