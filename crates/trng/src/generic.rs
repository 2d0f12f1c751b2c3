//! Throughput-parameterized TRNG for the Figure 2 sweep.
//!
//! Section 3 (Figure 2) studies how the *provided TRNG throughput* — from
//! 200 Mb/s to 6.4 Gb/s — affects baseline slowdown and fairness, with all
//! designs assuming D-RaNGe-like latency characteristics (footnote 1).
//! [`ThroughputTrng`] synthesizes a mechanism whose sustained throughput
//! matches a requested target by searching for a (bits-per-round,
//! round-latency) pair, keeping the D-RaNGe switch costs.

use crate::entropy::RngCellSource;
use crate::mechanism::{BatchCommands, TrngMechanism};
use strange_dram::TCK_NS;

const FILL_SWITCH: u64 = 2;
const DEMAND_SWITCH: u64 = 40;

/// A synthetic TRNG mechanism calibrated to a target aggregate throughput.
///
/// # Examples
///
/// ```
/// use strange_trng::{ThroughputTrng, TrngMechanism};
///
/// let t = ThroughputTrng::new(1600, 4, 1); // 1.6 Gb/s over 4 channels
/// let got = t.sustained_throughput_gbps(4);
/// assert!((got - 1.6).abs() / 1.6 < 0.05, "within 5%: {got}");
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputTrng {
    source: RngCellSource,
    target_mbps: u32,
    batch_bits: u32,
    batch_latency: u64,
}

impl ThroughputTrng {
    /// Creates a mechanism targeting `target_mbps` megabits/second of
    /// sustained throughput aggregated over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `target_mbps` or `channels` is zero.
    pub fn new(target_mbps: u32, channels: u32, seed: u64) -> Self {
        assert!(target_mbps > 0, "target throughput must be nonzero");
        assert!(channels > 0, "channel count must be nonzero");
        let per_channel_bps = target_mbps as f64 * 1e6 / channels as f64;

        // Search for the (bits, latency) pair whose sustained rate is
        // closest to the target, preferring short rounds (D-RaNGe-like
        // latency per the paper's footnote).
        let mut best = (8u32, 40u64, f64::INFINITY);
        for latency in 4..=512u64 {
            let cycles_ns = (latency + FILL_SWITCH) as f64 * TCK_NS;
            let bits_exact = per_channel_bps * cycles_ns * 1e-9;
            for bits in [bits_exact.floor(), bits_exact.ceil()] {
                let bits = bits.clamp(1.0, 1024.0) as u32;
                let rate = bits as f64 / (cycles_ns * 1e-9);
                let err = (rate - per_channel_bps).abs() / per_channel_bps;
                // Tie-break toward shorter rounds for lower latency.
                if err + latency as f64 * 1e-9 < best.2 {
                    best = (bits, latency, err + latency as f64 * 1e-9);
                }
            }
        }
        ThroughputTrng {
            source: RngCellSource::standard_die(seed),
            target_mbps,
            batch_bits: best.0,
            batch_latency: best.1,
        }
    }

    /// The requested aggregate throughput in Mb/s.
    pub fn target_mbps(&self) -> u32 {
        self.target_mbps
    }
}

impl TrngMechanism for ThroughputTrng {
    fn name(&self) -> &'static str {
        "Throughput-TRNG"
    }

    fn batch_bits(&self) -> u32 {
        self.batch_bits
    }

    fn batch_latency(&self) -> u64 {
        self.batch_latency
    }

    fn demand_switch_cycles(&self) -> u64 {
        DEMAND_SWITCH
    }

    fn fill_switch_cycles(&self) -> u64 {
        FILL_SWITCH
    }

    fn batch_commands(&self) -> BatchCommands {
        // D-RaNGe-like rounds: ~4 random bits per reduced-tRCD access.
        BatchCommands {
            acts: (self.batch_bits / 4).max(1) as u64,
            reads: (self.batch_bits / 4).max(1) as u64,
            pres: (self.batch_bits / 4).max(1) as u64,
        }
    }

    fn draw(&mut self, count: u32) -> u64 {
        self.source.draw(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_sweep_points_within_five_percent() {
        for mbps in [200u32, 400, 800, 1600, 3200, 6400] {
            let t = ThroughputTrng::new(mbps, 4, 1);
            let got = t.sustained_throughput_gbps(4) * 1000.0;
            let err = (got - mbps as f64).abs() / mbps as f64;
            assert!(err < 0.05, "{mbps} Mb/s target, got {got:.1} Mb/s");
        }
    }

    #[test]
    fn low_throughput_uses_long_or_thin_rounds() {
        let t = ThroughputTrng::new(200, 4, 1);
        let bits_per_cycle = t.batch_bits() as f64 / (t.batch_latency() + FILL_SWITCH) as f64;
        // 50 Mb/s per channel = 0.0625 bits per 1.25 ns cycle.
        assert!((bits_per_cycle - 0.0625).abs() < 0.01);
    }

    #[test]
    fn target_accessor_roundtrips() {
        assert_eq!(ThroughputTrng::new(800, 4, 2).target_mbps(), 800);
    }

    #[test]
    #[should_panic(expected = "count must be 1..=64")]
    fn draw_rejects_more_than_a_word() {
        ThroughputTrng::new(800, 4, 2).draw(65);
    }

    #[test]
    #[should_panic(expected = "throughput must be nonzero")]
    fn zero_target_rejected() {
        ThroughputTrng::new(0, 4, 1);
    }
}
