//! What every workload provides, and the pieces they share.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use strange_core::{RunResult, SystemStats};
use strange_dram::ChannelStats;

use crate::json::Json;
use crate::trace::Tracer;

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// The paper's CPU clock: simulated cycles per simulated second.
const CPU_HZ: f64 = 4e9;

/// One round of a workload's fixed work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub wall_s: f64,
    /// Random-number requests completed: `getrandom` calls on the service
    /// workloads, the RNG applications' 64-bit requests on the trace ones.
    pub reqs: u64,
    /// Instruction targets completed over every run of the round (design
    /// and alone); 0 on the coreless workloads.
    pub instr: u64,
    pub sim_cycles: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the round's simulated output. Identical every round and,
    /// for a fixed seed, across commits that only change host speed.
    pub fingerprint: u64,
}

/// The warm-up round, run through the public calls one by one so counts
/// can be read from the public stats (and spans recorded when tracing).
pub struct Account {
    pub round: Round,
    /// Simulated metrics and per-layer counts; exact for a fixed seed.
    pub values: Values,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            ok,
            detail: detail.into(),
        }
    }

    /// Passes when both sides hash equal.
    pub fn same(name: &'static str, a: &impl fmt::Debug, b: &impl fmt::Debug) -> Check {
        let (a, b) = (fingerprint(a), fingerprint(b));
        Check::new(name, a == b, format!("{a:016x} vs {b:016x}"))
    }
}

/// Numbers only a traced run of some workloads needs from outside the
/// measuring process (see `pin`): unpinned measurements made before the
/// process was pinned to one CPU.
pub type Handoff = BTreeMap<String, f64>;

pub trait Workload {
    /// Every frozen size of the workload, recorded with its results.
    fn constants(&self) -> Json;
    /// Input generation plus construction up to the first call, once;
    /// returns its seconds. Tear-down is not timed.
    fn setup(&mut self) -> f64;
    fn account(&mut self, tr: &mut Tracer) -> Account;
    /// One untraced round through the entry point a user calls.
    fn timed(&mut self) -> Round;
    /// Output checks at reduced scale (mode, facade and aggregate
    /// equivalences); each feeds `failed`.
    fn checks(&mut self) -> Vec<Check>;
    /// Per-layer numbers that need runs of their own; traced runs only.
    /// `round_s` is the median untraced round.
    fn extras(&mut self, round_s: f64, handoff: &Handoff, out: &mut Values);
}

struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a over the value's `Debug` rendering, streamed (a 1.2 M-entry
/// latency log is never materialised as a string). `RunResult` and
/// `ServiceStats` print every statistic they hold, so equal hashes mean
/// equal simulated output.
pub fn fingerprint(value: &impl fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

/// Engine, DRAM and loop counts summed over the systems of one round.
#[derive(Default)]
pub struct Counts {
    pub sim_cycles: u64,
    pub skipped_cycles: u64,
    pub rng_completions: u64,
    pub hit_cycle_limit: u64,
    pub channels: ChannelStats,
    pub readiness: (u64, u64),
    pub demand_generations: u64,
    pub fill_batches: u64,
    pub low_util_batches: u64,
    pub predictor: strange_metrics::ConfusionCounts,
    pub rng_wait_cycles: u64,
    pub rng_latency_sum: u64,
    pub windows_tested: u64,
    pub quarantines: u64,
}

impl Counts {
    pub fn add_engine(&mut self, stats: &SystemStats) {
        self.rng_completions += stats.rng_completions;
        self.demand_generations += stats.demand_generations;
        self.fill_batches += stats.fill_batches;
        self.low_util_batches += stats.low_util_batches;
        self.predictor.merge(stats.predictor);
        self.rng_wait_cycles += stats.rng_wait_cycles;
        self.rng_latency_sum += stats.rng_latency_sum;
        self.windows_tested += stats.windows_tested;
        self.quarantines += stats.quarantines;
    }

    /// Adds a finished `System::run`. `skipped` and `readiness` come from
    /// the system itself (`skipped_cycles`, the channels'
    /// `readiness_recompute_counts`); a server keeps its system, so its
    /// workloads leave those and the DRAM counts at zero.
    pub fn add_run(&mut self, res: &RunResult, skipped: u64, readiness: (u64, u64)) {
        self.sim_cycles += res.cpu_cycles;
        self.skipped_cycles += skipped;
        self.hit_cycle_limit += u64::from(res.hit_cycle_limit);
        self.readiness.0 += readiness.0;
        self.readiness.1 += readiness.1;
        for ch in &res.channels {
            self.channels.merge(ch);
        }
        self.add_engine(&res.stats);
    }

    /// The engine and health counts, all a server facade lets through:
    /// it keeps its `System`, so the skipped share and the DRAM counts
    /// stay out of reach.
    pub fn write_engine(&self, out: &mut Values) {
        out.insert("system.sim_cycles", self.sim_cycles as f64);
        out.insert("engine.demand_generations", self.demand_generations as f64);
        out.insert("engine.fill_batches", self.fill_batches as f64);
        out.insert("engine.low_util_batches", self.low_util_batches as f64);
        out.insert(
            "engine.predictor_accuracy",
            strange_metrics::accuracy(&self.predictor),
        );
        out.insert("engine.rng_wait_cycles", self.rng_wait_cycles as f64);
        out.insert(
            "engine.avg_rng_latency",
            ratio(self.rng_latency_sum, self.rng_completions),
        );
        out.insert("health.windows_tested", self.windows_tested as f64);
        out.insert("health.quarantines", self.quarantines as f64);
    }

    /// Every count, for workloads that own their systems.
    pub fn write(&self, out: &mut Values) {
        self.write_engine(out);
        let ch = &self.channels;
        out.insert(
            "system.skipped_frac",
            ratio(self.skipped_cycles, self.sim_cycles),
        );
        out.insert(
            "system.live_ticks",
            (self.sim_cycles - self.skipped_cycles) as f64,
        );
        out.insert(
            "dram.readiness_recompute_ratio",
            ratio(self.readiness.0, self.readiness.1),
        );
        out.insert("dram.row_hit_rate", ch.row_hit_rate());
        out.insert("dram.acts", ch.acts as f64);
        out.insert("dram.reads", ch.reads as f64);
        out.insert("dram.idle_frac", ch.idle_fraction());
        out.insert(
            "dram.rng_blocked_frac",
            ratio(ch.rng_blocked_cycles, ch.cycles),
        );
        out.insert(
            "dram.read_queue_occupancy_avg",
            ch.avg_read_queue_occupancy(),
        );
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Megabits per simulated second.
pub fn served_mbps(bytes: u64, cycles: u64) -> f64 {
    bytes as f64 * 8.0 / (cycles.max(1) as f64 / CPU_HZ) / 1e6
}

/// `(recomputed, visited)` readiness-cache entries over a system's
/// channels.
pub fn readiness_counts(sys: &strange_core::System) -> (u64, u64) {
    sys.mem().channels().iter().fold((0, 0), |acc, ch| {
        let (recomputed, visited) = ch.readiness_recompute_counts();
        (acc.0 + recomputed, acc.1 + visited)
    })
}

/// Seconds of `f`, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = std::time::Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_values_and_repeats() {
        let a = fingerprint(&vec![1u64, 2, 3]);
        assert_eq!(a, fingerprint(&vec![1u64, 2, 3]));
        assert_ne!(a, fingerprint(&vec![1u64, 2, 4]));
        assert!(Check::same("x", &(1, "a"), &(1, "a")).ok);
        assert!(!Check::same("x", &(1, "a"), &(2, "a")).ok);
    }
}
