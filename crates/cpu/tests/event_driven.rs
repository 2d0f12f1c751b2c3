//! The event-driven drive of a core — touch it only on the cycle of its
//! next memory call or when a completion arrives, replaying everything in
//! between with `skip_cycles` — must be indistinguishable from ticking it
//! every cycle: same statistics, same finish snapshot, and the same
//! memory calls on the same cycles in the same order.

use proptest::prelude::*;
use strange_cpu::{Core, CoreConfig, LoopTrace, MemorySystem, TraceOp};
use strange_dram::{CoreId, RequestId};

/// One call into the memory system: `(cycle, operation, id if accepted)`.
type Call = (u64, char, Option<RequestId>);

/// A memory that answers each accepted request after a latency drawn at
/// issue time, and refuses everything during seeded stretches of cycles.
struct ScriptedMemory {
    rng: TestRng,
    max_latency: u64,
    refuse: Vec<bool>,
    now: u64,
    next_id: RequestId,
    inflight: Vec<(u64, RequestId)>,
    calls: Vec<Call>,
}

impl ScriptedMemory {
    fn new(seed: u64, max_latency: u64, refuse_per_mille: u64, cycles: u64) -> Self {
        let mut rng = TestRng::for_test(&format!("memory-{seed}"));
        let mut refuse = Vec::with_capacity(cycles as usize);
        while refuse.len() < cycles as usize {
            let refusing = rng.next_u64() % 1000 < refuse_per_mille;
            let stretch = 1 + rng.next_u64() % if refusing { 40 } else { 25 };
            refuse.extend(std::iter::repeat_n(refusing, stretch as usize));
        }
        ScriptedMemory {
            rng,
            max_latency,
            refuse,
            now: 0,
            next_id: 0,
            inflight: Vec::new(),
            calls: Vec::new(),
        }
    }

    fn request(&mut self, op: char, answered: bool) -> Option<RequestId> {
        let id = (!self.refuse[self.now as usize]).then(|| {
            self.next_id += 1;
            self.next_id
        });
        self.calls.push((self.now, op, id));
        if let (Some(id), true) = (id, answered) {
            let latency = 1 + self.rng.next_u64() % self.max_latency;
            self.inflight.push((self.now + latency, id));
        }
        id
    }

    /// Requests answered at `now`, in issue order.
    fn due(&mut self, now: u64) -> Vec<RequestId> {
        self.now = now;
        let mut out = Vec::new();
        self.inflight.retain(|&(due, id)| {
            if due <= now {
                out.push(id);
            }
            due > now
        });
        out
    }
}

impl MemorySystem for ScriptedMemory {
    fn try_load(&mut self, _core: CoreId, _line_addr: u64) -> Option<RequestId> {
        self.request('L', true)
    }

    fn try_store(&mut self, _core: CoreId, _line_addr: u64) -> bool {
        self.request('S', false).is_some()
    }

    fn try_rng(&mut self, _core: CoreId) -> Option<RequestId> {
        self.request('R', true)
    }
}

/// A looping op stream mixing back-to-back memory operations (gap 0
/// chains), short gaps and pure-compute stretches.
fn ops(seed: u64) -> Vec<TraceOp> {
    let mut rng = TestRng::for_test(&format!("ops-{seed}"));
    let long = 20 + rng.next_u64() % 400;
    (0..1 + rng.next_u64() % 12)
        .map(|_| {
            let gap = match rng.next_u64() % 4 {
                0 => 0,
                1 => rng.next_u64() % 6,
                2 => rng.next_u64() % 40,
                _ => rng.next_u64() % long,
            } as u32;
            match rng.next_u64() % 5 {
                0 => TraceOp::Store { gap, addr: 64 },
                1 | 2 => TraceOp::Rng { gap },
                _ => TraceOp::Load { gap, addr: 0 },
            }
        })
        .collect()
}

/// `(issue_width, window_size)`: the paper's core, windows narrower than
/// the issue width, and sizes that are not a multiple of it.
const GEOMETRIES: [(usize, usize); 8] = [
    (3, 128),
    (3, 2),
    (4, 3),
    (3, 7),
    (2, 5),
    (1, 1),
    (5, 16),
    (4, 64),
];

/// Drives one core per-cycle and one event-driven over the same inputs
/// and compares them; returns the cycles on which the event-driven core
/// was ticked.
fn check(seed: u64, geometry: usize, max_latency: u64, refuse_per_mille: u64, target: u64) -> u64 {
    const CYCLES: u64 = 2_500;
    let (issue_width, window_size) = GEOMETRIES[geometry];
    let config = CoreConfig {
        issue_width,
        window_size,
    };
    let core = || Core::new(0, config, Box::new(LoopTrace::new(ops(seed))), target);
    let memory = || ScriptedMemory::new(seed, max_latency, refuse_per_mille, CYCLES);
    let (mut reference, mut ref_mem) = (core(), memory());
    let (mut fast, mut fast_mem) = (core(), memory());

    // The event-driven core's own clock and cached next memory call.
    let mut clock = 0;
    let mut event = fast.next_ready_cycle(0);
    let mut ticks = 0;
    for now in 0..CYCLES {
        // What a finish check at `now` reads off the lagging core.
        assert_eq!(
            fast.finish_within(clock, now - clock).is_some(),
            reference.is_finished(),
            "finished by cycle {now}"
        );

        for id in ref_mem.due(now) {
            assert!(reference.complete(id));
        }
        reference.tick(now, &mut ref_mem);

        let due = fast_mem.due(now);
        if !due.is_empty() || event == Some(now) {
            fast.skip_cycles(clock, now - clock);
            for id in due {
                assert!(fast.complete(id));
            }
            fast.tick(now, &mut fast_mem);
            ticks += 1;
            clock = now + 1;
            event = fast.next_ready_cycle(clock);
        }
    }
    fast.skip_cycles(clock, CYCLES - clock);

    assert_eq!(fast.stats(), reference.stats());
    assert_eq!(fast.finish(), reference.finish());
    assert_eq!(fast_mem.calls, ref_mem.calls);
    ticks
}

proptest! {
    #[test]
    fn event_driven_drive_matches_per_cycle_ticks(
        seed in any::<u64>(),
        geometry in 0usize..GEOMETRIES.len(),
        shape in (1u64..300, 0u64..400, 1u64..6000),
    ) {
        let (max_latency, refuse_per_mille, target) = shape;
        check(seed, geometry, max_latency, refuse_per_mille, target);
    }
}

/// The comparison is vacuous if the event-driven side ticks every cycle.
#[test]
fn event_driven_drive_skips_most_cycles_of_a_paper_core() {
    let ticks: u64 = (0..16).map(|seed| check(seed, 0, 200, 100, 3_000)).sum();
    assert!(ticks < 16 * 2_500 / 2, "ticked {ticks} of 40000 cycles");
}
