//! Standalone drivers for the layers buried inside `System::run`: each
//! feeds one layer's public API with inputs drawn from the workload
//! generators and the run's seed, and times it. Traced runs only.
//!
//! A probe's cost is measured in place: the same deterministic tick loop
//! runs with and without the probe after every tick, and the difference
//! is the probe. Every loop is repeated and the fastest repetition kept,
//! so a host hiccup in one of two subtracted loops does not show up as a
//! negative cost.

use std::collections::VecDeque;
use std::hint::black_box;

use strange_core::{MemSubsystem, SystemConfig};
use strange_cpu::{Core, CoreConfig, MemorySystem, TraceOp, TraceSource};
use strange_dram::{
    AddressMapping, ChannelController, CoreId, FrFcfs, Geometry, Request, RequestId, RequestKind,
    TimingParams,
};
use strange_metrics::Histogram;
use strange_trng::{DRange, QuacTrng, QualityWindow, TrngMechanism};
use strange_workloads::{app_by_name, SyntheticTrace};

use crate::bench::{timed, Values};

const REPS: usize = 3;
/// The H-class catalog application whose trace feeds the drivers.
const APP: &str = "mcf";

fn fastest(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn trace(seed: u64) -> SyntheticTrace {
    SyntheticTrace::new(app_by_name(APP).expect("catalog app"), seed)
}

fn ns_per(seconds: f64, n: u64) -> f64 {
    seconds.max(0.0) * 1e9 / n as f64
}

// ---------------------------------------------------------------------
// cpu

/// A memory that answers every request after a fixed latency.
struct FixedLatencyMemory {
    now: u64,
    next_id: RequestId,
    due: VecDeque<(u64, RequestId)>,
}

const STUB_LATENCY: u64 = 200;

impl FixedLatencyMemory {
    fn new() -> Self {
        FixedLatencyMemory {
            now: 0,
            next_id: 0,
            due: VecDeque::new(),
        }
    }

    fn issue(&mut self) -> Option<RequestId> {
        self.next_id += 1;
        self.due.push_back((self.now + STUB_LATENCY, self.next_id));
        Some(self.next_id)
    }

    fn deliver(&mut self, now: u64, core: &mut Core) {
        self.now = now;
        while self.due.front().is_some_and(|&(due, _)| due <= now) {
            let (_, id) = self.due.pop_front().expect("checked");
            core.complete(id);
        }
    }
}

impl MemorySystem for FixedLatencyMemory {
    fn try_load(&mut self, _core: CoreId, _line_addr: u64) -> Option<RequestId> {
        self.issue()
    }

    fn try_store(&mut self, _core: CoreId, _line_addr: u64) -> bool {
        true
    }

    fn try_rng(&mut self, _core: CoreId) -> Option<RequestId> {
        self.issue()
    }
}

fn new_core(seed: u64) -> Core {
    Core::new(
        0,
        CoreConfig::paper_default(),
        Box::new(trace(seed)),
        u64::MAX / 2,
    )
}

fn cpu(seed: u64, out: &mut Values) {
    const CYCLES: u64 = 1_000_000;
    let per_cycle = |probe: bool| {
        fastest(|| {
            let (mut core, mut mem) = (new_core(seed), FixedLatencyMemory::new());
            timed(|| {
                for now in 0..CYCLES {
                    mem.deliver(now, &mut core);
                    core.tick(now, &mut mem);
                    if probe {
                        black_box(core.next_ready_cycle(now + 1));
                    }
                }
            })
            .0
        })
    };
    let tick_s = per_cycle(false);
    let probe_s = per_cycle(true) - tick_s;

    // The fast-forward loop: probe, then skip the dead span or tick.
    let (mut live, mut skips) = (0u64, 0u64);
    let fast_s = fastest(|| {
        let (mut core, mut mem) = (new_core(seed), FixedLatencyMemory::new());
        (live, skips) = (0, 0);
        timed(|| {
            let mut now = 0;
            while now < CYCLES {
                mem.deliver(now, &mut core);
                let end = match core.next_ready_cycle(now) {
                    Some(t) => t,
                    None => mem.due.front().map_or(CYCLES, |&(due, _)| due),
                }
                .min(CYCLES);
                if end > now {
                    core.skip_cycles(now, end - now);
                    skips += 1;
                    now = end;
                } else {
                    core.tick(now, &mut mem);
                    live += 1;
                    now += 1;
                }
            }
        })
        .0
    });
    let tick_ns = ns_per(tick_s, CYCLES);
    let probe_ns = ns_per(probe_s, CYCLES);
    let skip_ns = (fast_s * 1e9 - live as f64 * tick_ns - (live + skips) as f64 * probe_ns)
        .max(0.0)
        / skips.max(1) as f64;
    out.insert("cpu.tick_ns", tick_ns);
    out.insert("cpu.probe_ns", probe_ns);
    out.insert("cpu.skip_ns", skip_ns);
}

// ---------------------------------------------------------------------
// dram

type Channel = ChannelController<FrFcfs>;

fn new_channel() -> Channel {
    let geometry = Geometry::paper_default();
    ChannelController::new(
        0,
        geometry,
        TimingParams::ddr3_1600(),
        FrFcfs::with_cap(geometry, 16),
    )
}

/// Demand reads of the application's trace, all steered to one channel.
struct ReadFeed {
    trace: SyntheticTrace,
    mapping: AddressMapping,
    next_id: RequestId,
}

impl ReadFeed {
    fn new(seed: u64) -> Self {
        ReadFeed {
            trace: trace(seed),
            mapping: AddressMapping::new(Geometry::paper_default()).expect("valid geometry"),
            next_id: 0,
        }
    }

    fn next_line(&mut self) -> u64 {
        loop {
            if let TraceOp::Load { addr, .. } = self.trace.next_op() {
                return addr;
            }
        }
    }

    fn next_read(&mut self) -> Request {
        let line = self.next_line();
        let mut addr = self.mapping.decode(line);
        addr.channel = 0;
        self.next_id += 1;
        Request {
            id: self.next_id,
            core: 0,
            kind: RequestKind::Read,
            addr,
            arrival: 0,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Probe {
    None,
    Cached,
    Uncached,
}

/// Seconds to tick a channel `TICKS` times with its read queue topped up
/// to `depth`, probing after every tick as asked.
fn channel_ticks(seed: u64, depth: usize, probe: Probe) -> f64 {
    fastest(|| {
        let (mut ch, mut feed, mut done) = (new_channel(), ReadFeed::new(seed), Vec::new());
        timed(|| {
            for now in 0..DRAM_TICKS {
                while ch.read_queue_len() < depth {
                    ch.try_enqueue(feed.next_read(), now)
                        .expect("below capacity");
                }
                ch.tick(now, &mut done);
                done.clear();
                match probe {
                    Probe::None => {}
                    Probe::Cached => {
                        black_box(ch.next_event_at(now + 1));
                    }
                    Probe::Uncached => {
                        black_box(ch.next_event_at_uncached(now + 1));
                    }
                }
            }
        })
        .0
    })
}

const DRAM_TICKS: u64 = 200_000;

fn dram(seed: u64, out: &mut Values) {
    let q4 = channel_ticks(seed, 4, Probe::None);
    out.insert("dram.tick_ns_q4", ns_per(q4, DRAM_TICKS));
    out.insert(
        "dram.tick_ns_q24",
        ns_per(channel_ticks(seed, 24, Probe::None), DRAM_TICKS),
    );
    out.insert(
        "dram.probe_ns",
        ns_per(channel_ticks(seed, 4, Probe::Cached) - q4, DRAM_TICKS),
    );
    out.insert(
        "dram.probe_uncached_ns",
        ns_per(channel_ticks(seed, 4, Probe::Uncached) - q4, DRAM_TICKS),
    );

    // An idle channel: every turn probes and skips to the next event (a
    // refresh deadline), ticking only when the event is due.
    const SPAN: u64 = 200;
    let mut skips = 0u64;
    let idle_s = fastest(|| {
        let (mut ch, mut done) = (new_channel(), Vec::new());
        skips = 0;
        timed(|| {
            let mut now = 0;
            while skips < DRAM_TICKS {
                let end = ch.next_event_at(now).unwrap_or(u64::MAX).min(now + SPAN);
                if end > now {
                    ch.skip_to(now, end);
                    skips += 1;
                    now = end;
                } else {
                    ch.tick(now, &mut done);
                    done.clear();
                    now += 1;
                }
            }
        })
        .0
    });
    out.insert("dram.skip_ns", ns_per(idle_s, skips));
}

// ---------------------------------------------------------------------
// trng

fn trng(seed: u64, out: &mut Values) {
    const WORDS: u64 = 250_000;
    const WINDOW: usize = 32;
    let draw = |mut mechanism: Box<dyn TrngMechanism>| {
        fastest(|| {
            timed(|| {
                for _ in 0..WORDS {
                    black_box(mechanism.draw(64));
                }
            })
            .0
        })
    };
    out.insert(
        "trng.drange_ns_per_word",
        ns_per(draw(Box::new(DRange::new(seed))), WORDS),
    );
    out.insert(
        "trng.quac_ns_per_word",
        ns_per(draw(Box::new(QuacTrng::new(seed))), WORDS),
    );

    // What the entropy watchdog adds per sampled word: the incremental
    // window update plus one report per full window.
    let mut source = DRange::new(seed);
    let words: Vec<u64> = (0..WORDS).map(|_| source.draw(64)).collect();
    let quality_s = fastest(|| {
        let mut window = QualityWindow::new(WINDOW);
        timed(|| {
            for &word in &words {
                window.push(word);
                if window.is_full() {
                    black_box(window.report());
                    window.clear();
                }
            }
        })
        .0
    });
    out.insert("trng.quality_ns_per_word", ns_per(quality_s, WORDS));
}

// ---------------------------------------------------------------------
// engine

fn engine(seed: u64, out: &mut Values) {
    const TICKS: u64 = 400_000;
    let new_engine = || MemSubsystem::new(SystemConfig::dr_strange(2), Box::new(DRange::new(seed)));
    // Idle: a full buffer and empty queues, so a tick finds nothing to do.
    let idle = |probe: bool| {
        fastest(|| {
            let (mut mem, mut done) = (new_engine(), Vec::new());
            timed(|| {
                for now in 0..TICKS {
                    mem.tick(now, &mut done);
                    done.clear();
                    if probe {
                        black_box(mem.next_event_at(now + 1));
                    }
                }
            })
            .0
        })
    };
    let idle_s = idle(false);
    out.insert("engine.tick_idle_ns", ns_per(idle_s, TICKS));
    out.insert("engine.probe_ns", ns_per(idle(true) - idle_s, TICKS));

    // Busy: core 0 streams the application's loads (a refused load is
    // retried on the next tick) while core 1 asks for a random word every
    // 25 ticks, faster than D-RaNGe fills, so demand episodes recur.
    let busy_s = fastest(|| {
        let (mut mem, mut feed, mut done) = (new_engine(), ReadFeed::new(seed), Vec::new());
        let mut line = feed.next_line();
        timed(|| {
            for now in 0..TICKS {
                if mem.try_load(0, line).is_some() {
                    line = feed.next_line();
                }
                if now % 25 == 0 {
                    black_box(mem.try_rng(1));
                }
                mem.tick(now, &mut done);
                done.clear();
            }
        })
        .0
    });
    out.insert("engine.tick_busy_ns", ns_per(busy_s, TICKS));
}

// ---------------------------------------------------------------------
// metrics

fn metrics(seed: u64, out: &mut Values) {
    const SAMPLES: u64 = 2_000_000;
    let record_s = fastest(|| {
        let mut hist = Histogram::new();
        let mut x = seed | 1;
        timed(|| {
            for _ in 0..SAMPLES {
                // Latency-like values spread over many buckets.
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                hist.record(x >> (40 + (x & 15)));
            }
            black_box(hist.count());
        })
        .0
    });
    out.insert("metrics.hist_record_ns", ns_per(record_s, SAMPLES));
}

/// Runs every driver whose layer the workload exercises; the four
/// coreless workloads have no cpu layer.
pub fn measure(seed: u64, has_cores: bool, out: &mut Values) {
    if has_cores {
        cpu(seed, out);
    }
    dram(seed, out);
    trng(seed, out);
    engine(seed, out);
    metrics(seed, out);
}
