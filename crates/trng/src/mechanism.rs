//! The TRNG mechanism abstraction.
//!
//! DR-STRaNGe is "independent of the DRAM-based TRNG mechanism used in the
//! system" (Section 5); the engine only needs to know, for a given
//! mechanism:
//!
//! * how many random bits one *generation round* on one channel yields and
//!   how long that round occupies the channel,
//! * the timing-parameter reconfiguration cost for entering/leaving RNG
//!   mode (large when regular traffic is in flight, small on an idle
//!   channel whose parameters can be staged ahead),
//! * which DRAM commands a round issues (for the energy model), and
//! * the actual random bits (from the entropy substrate).
//!
//! Implementations: [`crate::DRange`], [`crate::QuacTrng`],
//! [`crate::ThroughputTrng`].

use strange_dram::TCK_NS;

/// DRAM commands issued by one generation round (for energy accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchCommands {
    /// Activations (reduced-timing ACTs).
    pub acts: u64,
    /// Column reads.
    pub reads: u64,
    /// Precharges.
    pub pres: u64,
}

/// A DRAM-based TRNG mechanism model.
///
/// The object is stateful: `draw` consumes entropy from the mechanism's
/// simulated DRAM cells.
pub trait TrngMechanism: Send {
    /// Human-readable mechanism name (e.g. `"D-RaNGe"`).
    fn name(&self) -> &'static str;

    /// Random bits produced by one generation round on one channel.
    fn batch_bits(&self) -> u32;

    /// DRAM-bus cycles one round occupies a channel.
    fn batch_latency(&self) -> u64;

    /// Timing-reconfiguration cost (cycles, each way) when switching a
    /// loaded channel to RNG mode for an on-demand request.
    fn demand_switch_cycles(&self) -> u64;

    /// Timing-reconfiguration cost (cycles, each way) when an *idle*
    /// channel starts a buffer-fill round (parameters staged in advance).
    fn fill_switch_cycles(&self) -> u64;

    /// Commands issued per round (for the energy model).
    fn batch_commands(&self) -> BatchCommands;

    /// Draws `count` (1..=64) true-random bits from the entropy substrate,
    /// packed into the low bits of the result.
    ///
    /// # Panics
    ///
    /// The shipped mechanisms panic if `count` is 0 or greater than 64
    /// ([`crate::RngCellSource::draw`] asserts it).
    fn draw(&mut self, count: u32) -> u64;

    /// Sustained buffer-fill throughput in Gb/s when `channels` channels
    /// generate continuously (documentation/calibration helper).
    fn sustained_throughput_gbps(&self, channels: u32) -> f64 {
        let cycles = (self.batch_latency() + self.fill_switch_cycles()) as f64;
        let bits_per_ns = self.batch_bits() as f64 / (cycles * TCK_NS);
        bits_per_ns * channels as f64
    }

    /// End-to-end on-demand latency in DRAM cycles to produce one 64-bit
    /// value using `channels` channels in parallel, excluding the
    /// (load-dependent) bank-drain time.
    fn demand_latency_cycles(&self, channels: u32) -> u64 {
        let per_round = self.batch_bits() as u64 * channels as u64;
        let rounds = 64_u64.div_ceil(per_round);
        2 * self.demand_switch_cycles() + rounds * self.batch_latency()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A deterministic mechanism for engine tests.
    #[derive(Debug)]
    pub struct FixedMechanism {
        pub bits: u32,
        pub latency: u64,
        pub switch_demand: u64,
        pub switch_fill: u64,
        counter: u64,
    }

    impl FixedMechanism {
        pub fn new(bits: u32, latency: u64) -> Self {
            FixedMechanism {
                bits,
                latency,
                switch_demand: 10,
                switch_fill: 1,
                counter: 0,
            }
        }
    }

    impl TrngMechanism for FixedMechanism {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn batch_bits(&self) -> u32 {
            self.bits
        }
        fn batch_latency(&self) -> u64 {
            self.latency
        }
        fn demand_switch_cycles(&self) -> u64 {
            self.switch_demand
        }
        fn fill_switch_cycles(&self) -> u64 {
            self.switch_fill
        }
        fn batch_commands(&self) -> BatchCommands {
            BatchCommands {
                acts: 1,
                reads: 1,
                pres: 1,
            }
        }
        fn draw(&mut self, count: u32) -> u64 {
            self.counter = self.counter.wrapping_add(0x9e37_79b9_7f4a_7c15);
            if count == 64 {
                self.counter
            } else {
                self.counter & ((1u64 << count) - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::FixedMechanism;
    use super::*;

    #[test]
    fn demand_latency_rounds_up() {
        let m = FixedMechanism::new(8, 40);
        // 4 channels × 8 bits = 32/round → 2 rounds + 2×10 switch.
        assert_eq!(m.demand_latency_cycles(4), 2 * 10 + 2 * 40);
        // 1 channel × 8 bits → 8 rounds.
        assert_eq!(m.demand_latency_cycles(1), 2 * 10 + 8 * 40);
    }

    #[test]
    fn sustained_throughput_scales_with_channels() {
        let m = FixedMechanism::new(8, 40);
        let one = m.sustained_throughput_gbps(1);
        let four = m.sustained_throughput_gbps(4);
        assert!((four / one - 4.0).abs() < 1e-9);
        // 8 bits per 41 cycles × 1.25 ns ≈ 0.156 Gb/s per channel.
        assert!((one - 8.0 / (41.0 * 1.25)).abs() < 1e-9);
    }
}
