//! The trace-driven core model.
//!
//! Models the paper's CPU (Table 1): 4 GHz, 3-wide issue, 128-entry
//! instruction window, following Ramulator's simplistic OoO semantics:
//!
//! * up to `issue_width` instructions enter the window per cycle;
//! * non-memory instructions and stores are ready immediately; demand loads
//!   and RNG requests become ready when the memory system answers;
//! * up to `issue_width` ready instructions retire in order per cycle; a
//!   not-ready head stalls the core (counted as a memory or RNG stall);
//! * a full target queue in the memory controller blocks issue
//!   (back-pressure).

use strange_dram::{CoreId, RequestId};

use crate::stats::{CoreStats, FinishSnapshot};
use crate::trace::{TraceOp, TraceSource};
use crate::window::{InstructionWindow, PendingKind};

/// The memory system as seen by a core.
///
/// Implemented by the DR-STRaNGe `System` (and by mock memories in tests).
/// All three methods may refuse a request when the relevant queue is full,
/// which stalls instruction issue.
pub trait MemorySystem {
    /// Issues a demand load of `line_addr`; returns the request id used for
    /// the completion callback, or `None` if the read queue is full.
    fn try_load(&mut self, core: CoreId, line_addr: u64) -> Option<RequestId>;

    /// Issues a writeback of `line_addr`; returns false if the write queue
    /// is full.
    fn try_store(&mut self, core: CoreId, line_addr: u64) -> bool;

    /// Issues a 64-bit random-number request; returns the request id, or
    /// `None` if the RNG path cannot accept the request now.
    fn try_rng(&mut self, core: CoreId) -> Option<RequestId>;
}

/// Configuration for one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued/retired per cycle (paper: 3).
    pub issue_width: usize,
    /// Instruction window capacity (paper: 128).
    pub window_size: usize,
}

impl CoreConfig {
    /// The paper's Table 1 core: 3-wide, 128-entry window.
    pub fn paper_default() -> Self {
        CoreConfig {
            issue_width: 3,
            window_size: 128,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper_default()
    }
}

/// One linear stretch of a core's evolution between memory calls: for
/// `cycles` consecutive cycles, `retire` instructions retire and `issue`
/// bubbles enter the window.
#[derive(Debug, Clone, Copy, Default)]
struct Phase {
    cycles: u64,
    retire: u64,
    issue: u64,
}

/// What a dead span adds up to (see [`Core::replay`]).
#[derive(Debug, Default)]
struct Replay {
    retired: u64,
    issued: u64,
    /// Cycles on which nothing retired: stalls when a request is in flight.
    idle: u64,
    /// When the instruction target is crossed inside the span: the 1-based
    /// cycle of the span it happens on and the span's retirements through
    /// the end of that cycle.
    cross: Option<(u64, u64)>,
}

/// A trace-driven out-of-order core.
pub struct Core {
    id: CoreId,
    config: CoreConfig,
    window: InstructionWindow,
    trace: Box<dyn TraceSource + Send>,
    current_op: TraceOp,
    bubbles_left: u32,
    target: u64,
    finish: Option<FinishSnapshot>,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("config", &self.config)
            .field("retired", &self.stats.retired)
            .field("target", &self.target)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core that executes `trace` until `target` instructions have
    /// retired (and keeps running afterwards to preserve contention).
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn new(
        id: CoreId,
        config: CoreConfig,
        mut trace: Box<dyn TraceSource + Send>,
        target: u64,
    ) -> Self {
        assert!(target > 0, "instruction target must be nonzero");
        let first = trace.next_op();
        Core {
            id,
            config,
            window: InstructionWindow::new(config.window_size),
            trace,
            current_op: first,
            bubbles_left: first.gap(),
            target,
            finish: None,
            stats: CoreStats::default(),
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Instruction target for the finish snapshot.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// Running statistics (including post-finish execution).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Statistics frozen at the instruction target, if reached.
    pub fn finish(&self) -> Option<&FinishSnapshot> {
        self.finish.as_ref()
    }

    /// Whether the instruction target has been reached.
    pub fn is_finished(&self) -> bool {
        self.finish.is_some()
    }

    /// Delivers a completed memory request to the window.
    pub fn complete(&mut self, id: RequestId) -> bool {
        self.window.complete(id)
    }

    /// The core's evolution from its current state while no completion
    /// arrives and the issue stage inserts only bubbles: up to four linear
    /// phases, after which nothing retires or issues (the window is full
    /// behind a not-ready head).
    ///
    /// With nothing outstanding every entry is ready, so after the first
    /// cycle the core retires and issues `min(issue_width, window_size)`
    /// per cycle indefinitely. With requests in flight, the ready run at
    /// the head retires at full width while the window length stays
    /// constant, one cycle retires the remainder of the run, and from then
    /// on the head is stalled while the window fills at full width, ending
    /// with one cycle that issues what still fits.
    fn phases(&self) -> [Phase; 4] {
        let width = self.config.issue_width as u64;
        let capacity = self.config.window_size as u64;
        let len = self.window.len() as u64;
        let none = Phase::default();
        if self.window.outstanding() == 0 {
            let steady = width.min(capacity);
            let first = Phase {
                cycles: 1,
                retire: width.min(len),
                issue: steady,
            };
            let rest = Phase {
                cycles: u64::MAX,
                retire: steady,
                issue: steady,
            };
            return [first, rest, none, none];
        }
        let leading = self.window.leading_ready() as u64;
        let run = Phase {
            cycles: leading / width,
            retire: width,
            issue: width,
        };
        // One cycle retires what is left of the run (possibly nothing).
        let tail = leading % width;
        let partial = Phase {
            cycles: 1,
            retire: tail,
            issue: width.min(capacity - (len - tail)),
        };
        let space = capacity - (len - tail + partial.issue);
        let fill = Phase {
            cycles: space / width,
            retire: 0,
            issue: width,
        };
        let last = Phase {
            cycles: 1,
            retire: 0,
            issue: space % width,
        };
        [run, partial, fill, last]
    }

    /// The earliest CPU cycle at or after `now` whose issue stage reaches
    /// the trace's memory operation — the core's next call into
    /// [`MemorySystem`] — assuming no completion is delivered in the
    /// meantime. Every cycle before it only retires ready instructions
    /// and issues bubbles, so [`Core::skip_cycles`] can replay it; that
    /// cycle itself must run through [`Core::tick`] (also when the
    /// operation is an RNG request past the instruction target, which
    /// `tick` consumes without calling memory).
    ///
    /// * `Some(now)` — the core reaches its memory operation this cycle
    ///   (a core whose request the memory system refuses stays here: it
    ///   retries every cycle).
    /// * `Some(t)` with `t > now` — the bubbles ahead of the operation
    ///   last until `t`, whatever is in flight.
    /// * `None` — the window fills behind a not-ready head before the
    ///   operation is reached: only a completion can bring it closer.
    pub fn next_ready_cycle(&self, now: u64) -> Option<u64> {
        let mut bubbles = self.bubbles_left as u64;
        let mut at = now;
        for p in self.phases() {
            // A cycle issuing `p.issue` instructions reaches the operation
            // once fewer than that many bubbles are left.
            if p.issue > 0 && bubbles / p.issue < p.cycles {
                return Some(at + bubbles / p.issue);
            }
            at += p.cycles;
            bubbles -= p.issue * p.cycles;
        }
        None
    }

    /// Totals over the next `n` cycles, which the caller guarantees end at
    /// or before [`Core::next_ready_cycle`].
    fn replay(&self, n: u64) -> Replay {
        let need = match self.finish {
            None => self.target - self.stats.retired,
            Some(_) => u64::MAX,
        };
        let mut out = Replay::default();
        let mut elapsed = 0;
        for p in self.phases() {
            let take = p.cycles.min(n - elapsed);
            let retired = p.retire * take;
            if out.cross.is_none() && out.retired + retired >= need {
                let cycle = (need - out.retired).div_ceil(p.retire);
                out.cross = Some((elapsed + cycle, out.retired + p.retire * cycle));
            }
            if p.retire == 0 {
                out.idle += take;
            }
            out.retired += retired;
            out.issued += p.issue * take;
            elapsed += take;
        }
        out.idle += n - elapsed;
        out
    }

    /// The cycle at which this core first counts as finished if the next
    /// `n` cycles are dead (no memory interaction): `Some(now)` when the
    /// target is already reached, the exact crossing cycle when
    /// retirement — of a pure-compute stretch, or of a ready run ahead of
    /// a request still in flight — reaches it within the span, `None`
    /// otherwise. Lets the fast-forward loop read the finish state of a
    /// core whose clock lags, and stop runs on the same finish-check
    /// boundaries as the per-cycle reference.
    pub fn finish_within(&self, now: u64, n: u64) -> Option<u64> {
        if self.finish.is_some() {
            return Some(now);
        }
        let (cycle, _) = self.replay(n).cross?;
        Some(now + cycle - 1)
    }

    /// Replays `n` dead cycles in bulk, leaving the core in exactly the
    /// state `n` calls to [`Core::tick`] would (the caller must guarantee
    /// `now + n <= next_ready_cycle(now)`, i.e. the span is dead).
    pub fn skip_cycles(&mut self, now: u64, n: u64) {
        debug_assert!(
            self.next_ready_cycle(now).is_none_or(|t| now + n <= t),
            "skip across a memory operation"
        );
        let span = self.replay(n);
        if let Some((cycle, retired)) = span.cross {
            // The instruction target is crossed mid-span: reconstruct the
            // snapshot the per-cycle path would have taken, with the exact
            // crossing cycle and the stats as of the end of that cycle's
            // retire stage. Stalled cycles all come after the retiring
            // ones, so the stall counters have not moved yet.
            self.finish = Some(FinishSnapshot {
                at_cycle: now + cycle - 1,
                stats: CoreStats {
                    cycles: self.stats.cycles + cycle,
                    retired: self.stats.retired + retired,
                    ..self.stats
                },
            });
        }
        self.stats.cycles += n;
        self.stats.retired += span.retired;
        match self.window.first_pending() {
            Some(PendingKind::Load) => self.stats.mem_stall_cycles += span.idle,
            Some(PendingKind::Rng) => self.stats.rng_stall_cycles += span.idle,
            None => {}
        }
        self.window
            .skip_ready(span.retired as usize, span.issued as usize);
        self.bubbles_left -= span.issued as u32;
    }

    /// Advances the core by one CPU cycle against `mem`.
    pub fn tick<M: MemorySystem>(&mut self, now: u64, mem: &mut M) {
        self.stats.cycles += 1;

        // Retire stage.
        let retired = self.window.retire(self.config.issue_width);
        self.stats.retired += retired as u64;
        if retired == 0 {
            match self.window.head_pending() {
                Some(PendingKind::Load) => self.stats.mem_stall_cycles += 1,
                Some(PendingKind::Rng) => self.stats.rng_stall_cycles += 1,
                None => {}
            }
        }
        if self.finish.is_none() && self.stats.retired >= self.target {
            self.finish = Some(FinishSnapshot {
                at_cycle: now,
                stats: self.stats,
            });
        }

        // Issue stage.
        let mut issued = 0;
        let mut blocked = false;
        while issued < self.config.issue_width && self.window.has_space() {
            if self.bubbles_left > 0 {
                self.window.insert_ready();
                self.bubbles_left -= 1;
                issued += 1;
                continue;
            }
            match self.current_op {
                TraceOp::Load { addr, .. } => match mem.try_load(self.id, addr) {
                    Some(rid) => {
                        self.window.insert_pending(rid, PendingKind::Load);
                        self.stats.loads += 1;
                        issued += 1;
                        self.advance_trace();
                    }
                    None => {
                        blocked = true;
                        break;
                    }
                },
                TraceOp::Store { addr, .. } => {
                    if mem.try_store(self.id, addr) {
                        self.window.insert_ready();
                        self.stats.stores += 1;
                        issued += 1;
                        self.advance_trace();
                    } else {
                        blocked = true;
                        break;
                    }
                }
                TraceOp::Rng { .. } => {
                    // Past the instruction target the core keeps running to
                    // preserve memory contention for co-runners, but stops
                    // consuming random numbers: post-target RNG traffic
                    // would make equal-work comparisons (energy, command
                    // counts) depend on how fast the finished RNG app
                    // happens to free-run under each design.
                    if self.finish.is_some() {
                        self.window.insert_ready();
                        issued += 1;
                        self.advance_trace();
                        continue;
                    }
                    match mem.try_rng(self.id) {
                        Some(rid) => {
                            self.window.insert_pending(rid, PendingKind::Rng);
                            self.stats.rng_requests += 1;
                            issued += 1;
                            self.advance_trace();
                        }
                        None => {
                            blocked = true;
                            break;
                        }
                    }
                }
            }
        }
        if blocked && issued == 0 {
            self.stats.issue_blocked_cycles += 1;
        }
    }

    fn advance_trace(&mut self) {
        self.current_op = self.trace.next_op();
        self.bubbles_left = self.current_op.gap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::LoopTrace;

    /// A memory that answers loads after a fixed latency, managed manually.
    struct MockMem {
        next_id: RequestId,
        inflight: Vec<(RequestId, u64)>,
        latency: u64,
        accept_loads: bool,
        accept_rng: bool,
    }

    impl MockMem {
        fn new(latency: u64) -> Self {
            MockMem {
                next_id: 0,
                inflight: Vec::new(),
                latency,
                accept_loads: true,
                accept_rng: true,
            }
        }

        fn ready_at(&mut self, now: u64) -> Vec<RequestId> {
            let mut out = Vec::new();
            self.inflight.retain(|&(id, due)| {
                if due <= now {
                    out.push(id);
                    false
                } else {
                    true
                }
            });
            out
        }
    }

    impl MemorySystem for MockMem {
        fn try_load(&mut self, _core: CoreId, _addr: u64) -> Option<RequestId> {
            if !self.accept_loads {
                return None;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.inflight.push((id, self.latency));
            Some(id)
        }

        fn try_store(&mut self, _core: CoreId, _addr: u64) -> bool {
            true
        }

        fn try_rng(&mut self, _core: CoreId) -> Option<RequestId> {
            if !self.accept_rng {
                return None;
            }
            let id = self.next_id;
            self.next_id += 1;
            self.inflight.push((id, self.latency));
            Some(id)
        }
    }

    fn run(core: &mut Core, mem: &mut MockMem, cycles: u64) {
        let mut base = 0;
        for now in 0..cycles {
            // Reset completion clocks relative to issue: deliver anything due.
            for id in mem.ready_at(now.saturating_sub(base)) {
                core.complete(id);
            }
            core.tick(now, mem);
            base = 0;
        }
    }

    #[test]
    fn compute_bound_trace_runs_at_issue_width() {
        // gap 299 + 1 load per 300 instructions, loads answered instantly.
        let trace = LoopTrace::new(vec![TraceOp::Load { gap: 299, addr: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 3000);
        let mut mem = MockMem::new(0);
        for now in 0..5000 {
            for id in mem.ready_at(now) {
                core.complete(id);
            }
            core.tick(now, &mut mem);
            if core.is_finished() {
                break;
            }
        }
        let f = core.finish().expect("must finish");
        let ipc = core.target() as f64 / f.at_cycle as f64;
        assert!(ipc > 2.5, "near-3 IPC expected, got {ipc}");
    }

    #[test]
    fn memory_stalls_accumulate_with_slow_memory() {
        // One load every 10 instructions, 200-cycle latency: window fills.
        let trace = LoopTrace::new(vec![TraceOp::Load { gap: 9, addr: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 1000);
        let mut mem = MockMem::new(u64::MAX); // never answers
        run(&mut core, &mut mem, 500);
        assert!(!core.is_finished());
        assert!(core.stats().mem_stall_cycles > 300);
    }

    #[test]
    fn rng_stalls_counted_separately() {
        let trace = LoopTrace::new(vec![TraceOp::Rng { gap: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 100);
        let mut mem = MockMem::new(u64::MAX);
        run(&mut core, &mut mem, 300);
        assert!(core.stats().rng_stall_cycles > 100);
        assert_eq!(core.stats().mem_stall_cycles, 0);
    }

    #[test]
    fn issue_blocked_when_memory_refuses() {
        let trace = LoopTrace::new(vec![TraceOp::Load { gap: 0, addr: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 100);
        let mut mem = MockMem::new(0);
        mem.accept_loads = false;
        run(&mut core, &mut mem, 100);
        assert!(core.stats().issue_blocked_cycles > 50);
        assert_eq!(core.stats().loads, 0);
    }

    #[test]
    fn finish_snapshot_freezes_at_target() {
        let trace = LoopTrace::new(vec![TraceOp::Store { gap: 9, addr: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 300);
        let mut mem = MockMem::new(0);
        run(&mut core, &mut mem, 1000);
        let f = core.finish().expect("finished");
        assert!(f.stats.retired >= 300);
        // Core kept running after the target.
        assert!(core.stats().retired > f.stats.retired);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let trace = LoopTrace::new(vec![TraceOp::Store { gap: 0, addr: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 300);
        let mut mem = MockMem::new(u64::MAX); // irrelevant for stores
        run(&mut core, &mut mem, 300);
        assert!(core.is_finished());
        assert_eq!(core.stats().mem_stall_cycles, 0);
    }

    /// A memory that answers after a fixed latency relative to issue time.
    struct LatencyMem {
        next_id: RequestId,
        now: u64,
        latency: u64,
        inflight: Vec<(RequestId, u64)>,
    }

    impl LatencyMem {
        fn new(latency: u64) -> Self {
            LatencyMem {
                next_id: 0,
                now: 0,
                latency,
                inflight: Vec::new(),
            }
        }

        fn deliver_due(&mut self, now: u64) -> Vec<RequestId> {
            let mut out = Vec::new();
            self.inflight.retain(|&(id, due)| {
                if due <= now {
                    out.push(id);
                    false
                } else {
                    true
                }
            });
            out
        }

        fn next_due(&self) -> Option<u64> {
            self.inflight.iter().map(|&(_, due)| due).min()
        }
    }

    impl MemorySystem for LatencyMem {
        fn try_load(&mut self, _core: CoreId, _addr: u64) -> Option<RequestId> {
            self.next_id += 1;
            self.inflight.push((self.next_id, self.now + self.latency));
            Some(self.next_id)
        }

        fn try_store(&mut self, _core: CoreId, _addr: u64) -> bool {
            true
        }

        fn try_rng(&mut self, _core: CoreId) -> Option<RequestId> {
            self.next_id += 1;
            self.inflight.push((self.next_id, self.now + self.latency));
            Some(self.next_id)
        }
    }

    fn drive_reference(core: &mut Core, mem: &mut LatencyMem, cycles: u64) {
        for now in 0..cycles {
            mem.now = now;
            for id in mem.deliver_due(now) {
                core.complete(id);
            }
            core.tick(now, mem);
        }
    }

    fn drive_fast_forward(core: &mut Core, mem: &mut LatencyMem, cycles: u64) -> u64 {
        let mut skipped = 0;
        let mut now = 0;
        while now < cycles {
            mem.now = now;
            for id in mem.deliver_due(now) {
                core.complete(id);
            }
            let span_end = match core.next_ready_cycle(now) {
                None => mem.next_due().expect("stalled core has a request").min(cycles),
                Some(t) => t.min(cycles),
            };
            if span_end > now {
                core.skip_cycles(now, span_end - now);
                skipped += span_end - now;
                now = span_end;
            } else {
                core.tick(now, mem);
                now += 1;
            }
        }
        skipped
    }

    fn equivalence_trace(ops: Vec<TraceOp>, latency: u64, target: u64, cycles: u64) {
        let mk = |ops: &[TraceOp]| {
            Core::new(
                0,
                CoreConfig::paper_default(),
                Box::new(LoopTrace::new(ops.to_vec())),
                target,
            )
        };
        let mut reference = mk(&ops);
        let mut fast = mk(&ops);
        drive_reference(&mut reference, &mut LatencyMem::new(latency), cycles);
        let skipped = drive_fast_forward(&mut fast, &mut LatencyMem::new(latency), cycles);
        assert!(skipped > cycles / 2, "test must exercise skipping: {skipped}");
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(
            fast.finish().map(|f| (f.at_cycle, f.stats)),
            reference.finish().map(|f| (f.at_cycle, f.stats))
        );
    }

    #[test]
    fn skip_matches_per_cycle_for_compute_bound_trace() {
        equivalence_trace(vec![TraceOp::Load { gap: 2999, addr: 0 }], 0, 3000, 5000);
    }

    #[test]
    fn skip_matches_per_cycle_for_memory_stalled_trace() {
        equivalence_trace(vec![TraceOp::Load { gap: 9, addr: 0 }], 400, 2000, 20_000);
    }

    #[test]
    fn skip_matches_per_cycle_for_rng_stalled_trace() {
        equivalence_trace(vec![TraceOp::Rng { gap: 600 }], 900, 2000, 30_000);
    }

    #[test]
    fn skip_matches_per_cycle_across_finish_boundary() {
        // Target crossed mid pure-compute span: the snapshot cycle and
        // stats must match the per-cycle path exactly.
        equivalence_trace(vec![TraceOp::Load { gap: 4999, addr: 0 }], 10, 1234, 4000);
    }

    #[test]
    fn finish_crossing_with_a_load_outstanding_matches_per_cycle() {
        // An old load holds the head until the window is full of bubbles,
        // then answers: 128 ready entries retire while a younger load
        // issues behind them. The target falls inside that ready run, with
        // the younger load still in flight.
        let ops = vec![
            TraceOp::Load { gap: 0, addr: 0 },
            TraceOp::Load { gap: 300, addr: 64 },
            TraceOp::Load { gap: 400, addr: 128 },
        ];
        let mk = || {
            Core::new(
                0,
                CoreConfig::paper_default(),
                Box::new(LoopTrace::new(ops.clone())),
                250,
            )
        };
        let (mut reference, mut fast) = (mk(), mk());
        // Never answers by itself: the old load is completed by hand.
        let (mut ref_mem, mut fast_mem) = (MockMem::new(u64::MAX), MockMem::new(u64::MAX));
        let mut now = 0;
        while reference.stats().loads < 2 {
            for (core, mem) in [(&mut reference, &mut ref_mem), (&mut fast, &mut fast_mem)] {
                if now == 60 {
                    assert!(core.complete(0));
                }
                core.tick(now, mem);
            }
            now += 1;
        }
        assert!(!fast.is_finished() && fast.window.outstanding() > 0);
        assert!(fast.window.leading_ready() > 100);
        assert_eq!(fast.next_ready_cycle(now), None, "the window fills first");

        for t in now..now + 100 {
            reference.tick(t, &mut ref_mem);
        }
        let crossed = reference.finish().expect("target crossed").at_cycle;
        assert!(now < crossed && crossed < now + 99);
        assert_eq!(fast.finish_within(now, 100), Some(crossed));
        assert_eq!(fast.finish_within(now, crossed - now), None);
        assert_eq!(fast.finish_within(now, crossed - now + 1), Some(crossed));
        fast.skip_cycles(now, 100);
        assert_eq!(fast.finish(), reference.finish());
        assert_eq!(fast.stats(), reference.stats());
        assert!(fast.stats().mem_stall_cycles > 0, "span ran into the stall");
    }

    #[test]
    fn next_ready_cycle_reports_dormancy() {
        let trace = LoopTrace::new(vec![TraceOp::Rng { gap: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 100);
        let mut mem = LatencyMem::new(u64::MAX / 2);
        let mut now = 0;
        // Run until the window fills with the head stalled on the RNG op.
        while core.next_ready_cycle(now).is_some() {
            core.tick(now, &mut mem);
            now += 1;
            assert!(now < 1000, "core must reach the fully stalled state");
        }
        assert!(core.next_ready_cycle(now).is_none());
        let before = *core.stats();
        core.skip_cycles(now, 500);
        assert_eq!(core.stats().cycles, before.cycles + 500);
        assert_eq!(
            core.stats().rng_stall_cycles,
            before.rng_stall_cycles + 500
        );
    }

    #[test]
    fn mpki_matches_trace_shape() {
        // 1 load per 100 instructions → MPKI 10.
        let trace = LoopTrace::new(vec![TraceOp::Load { gap: 99, addr: 0 }]);
        let mut core = Core::new(0, CoreConfig::paper_default(), Box::new(trace), 10_000);
        let mut mem = MockMem::new(0);
        for now in 0..20_000 {
            for id in mem.ready_at(now) {
                core.complete(id);
            }
            core.tick(now, &mut mem);
            if core.is_finished() {
                break;
            }
        }
        let f = core.finish().expect("finished");
        let mpki = f.stats.mpki();
        assert!((mpki - 10.0).abs() < 1.0, "mpki = {mpki}");
    }
}
