//! QUAC-TRNG (Olgun et al., ISCA 2021): quadruple-row-activation DRAM TRNG.
//!
//! QUAC-TRNG issues a carefully timed ACT-PRE-ACT command sequence that
//! activates four rows nearly simultaneously; the resulting charge sharing
//! makes a large fraction of sense amplifiers settle to random values. The
//! mechanism reads out a whole row segment and condenses it with SHA-256
//! post-processing. Compared to D-RaNGe it produces far more bits per
//! operation (higher throughput) but each operation — quadruple activation,
//! multi-column readout, and the hash pipeline — takes longer, so the
//! latency to the *first* 64 bits is higher (the trade-off Section 8.7
//! evaluates).
//!
//! Calibration (DESIGN.md §3): 256 post-processed bits per 236-cycle round
//! per channel ⇒ ≈ 3.44 Gb/s sustained on 4 channels (the paper's QUAC
//! number), with an on-demand 64-bit latency of ≈ 316 cycles (vs ≈ 160+ for
//! D-RaNGe).

use crate::entropy::RngCellSource;
use crate::mechanism::{BatchCommands, TrngMechanism};

/// The QUAC-TRNG mechanism model.
///
/// # Examples
///
/// ```
/// use strange_trng::{QuacTrng, TrngMechanism};
///
/// let q = QuacTrng::new(7);
/// let gbps = q.sustained_throughput_gbps(4);
/// assert!((3.2..3.7).contains(&gbps), "≈3.44 Gb/s: {gbps}");
/// // Higher 64-bit latency than D-RaNGe's ≈160 fixed cycles.
/// assert!(q.demand_latency_cycles(4) > 300);
/// ```
#[derive(Debug, Clone)]
pub struct QuacTrng {
    source: RngCellSource,
    mix_state: u64,
}

impl QuacTrng {
    /// Creates a QUAC-TRNG instance sampling the simulated die whose
    /// process variation `seed` selects.
    pub fn new(seed: u64) -> Self {
        QuacTrng {
            source: RngCellSource::standard_die(seed),
            mix_state: seed ^ 0x6a09_e667_f3bc_c908, // SHA-256 H0 constant
        }
    }
}

impl TrngMechanism for QuacTrng {
    fn name(&self) -> &'static str {
        "QUAC-TRNG"
    }

    fn batch_bits(&self) -> u32 {
        256
    }

    fn batch_latency(&self) -> u64 {
        236
    }

    fn demand_switch_cycles(&self) -> u64 {
        40
    }

    fn fill_switch_cycles(&self) -> u64 {
        2
    }

    fn batch_commands(&self) -> BatchCommands {
        // ACT-PRE-ACT sequence (2 ACTs, 1 PRE) + 16-column segment readout.
        BatchCommands {
            acts: 2,
            reads: 16,
            pres: 1,
        }
    }

    fn draw(&mut self, count: u32) -> u64 {
        // Raw sense-amp entropy, condensed by a hash-like mix standing in
        // for QUAC's SHA-256 post-processing stage.
        let raw = self.source.draw(count);
        self.mix_state = self
            .mix_state
            .rotate_left(13)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ raw;
        let mixed = self.mix_state ^ (self.mix_state >> 31);
        if count == 64 {
            mixed
        } else {
            mixed & ((1u64 << count) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DRange;

    #[test]
    fn quac_has_higher_throughput_than_drange() {
        let q = QuacTrng::new(1);
        let d = DRange::new(1);
        assert!(q.sustained_throughput_gbps(4) > 4.0 * d.sustained_throughput_gbps(4));
    }

    #[test]
    fn quac_has_higher_demand_latency_than_drange() {
        let q = QuacTrng::new(1);
        let d = DRange::new(1);
        assert!(q.demand_latency_cycles(4) > d.demand_latency_cycles(4));
    }

    #[test]
    fn calibrated_to_paper_throughput() {
        let q = QuacTrng::new(1);
        let gbps = q.sustained_throughput_gbps(4);
        assert!((gbps - 3.44).abs() < 0.25, "got {gbps}");
    }

    #[test]
    fn draw_masks_to_count() {
        let mut q = QuacTrng::new(3);
        for count in [1u32, 8, 33, 63] {
            let w = q.draw(count);
            assert_eq!(w >> count, 0);
        }
    }

    #[test]
    #[should_panic(expected = "count must be 1..=64")]
    fn draw_rejects_more_than_a_word() {
        QuacTrng::new(3).draw(65);
    }

    #[test]
    fn mixed_output_is_balanced() {
        let mut q = QuacTrng::new(11);
        let mut ones = 0u64;
        let n = 2000;
        for _ in 0..n {
            ones += q.draw(64).count_ones() as u64;
        }
        let ratio = ones as f64 / (n as f64 * 64.0);
        assert!((0.47..0.53).contains(&ratio), "ratio {ratio}");
    }
}
