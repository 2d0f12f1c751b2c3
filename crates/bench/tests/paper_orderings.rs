//! The paper's headline orderings as asserted inequalities, at the
//! smallest scale where each holds.
//!
//! Figure 6 (dual-core, 43 workloads at 5120 Mb/s): DR-STRaNGe improves
//! both the non-RNG and the RNG application's mean slowdown over the
//! RNG-oblivious baseline by more than Greedy Idle does, and Greedy Idle
//! still improves on the baseline. Every run is deterministic (fixed mix
//! and TRNG seeds), so these are exact checks, not statistical ones.

use strange_bench::{
    eval_pair_matrix_par, improvement_pct, mean, Design, Harness, Mech, PairEval, ScaleConfig,
};
use strange_workloads::eval_pairs;

/// The smallest scale at which the order holds: below ~150k instructions
/// per core the non-RNG order inverts (Greedy Idle improves it by 26.3 %
/// at 50k against DR-STRaNGe's 20.5 %; 16.2 % against 17.9 % at 200k).
/// A short run's RNG demand is small enough that Greedy Idle's
/// zero-overhead oracle fill serves it from the buffer (serve rate 1.00
/// at 20k, 0.86 at 50k, 0.46 at 200k), while DR-STRaNGe's fill rounds
/// occupy the channel at every scale. 200k is the harness default.
const SCALE: ScaleConfig = ScaleConfig {
    instr: 200_000,
    per_group: 1,
};

#[test]
fn fig06_dr_strange_beats_greedy_idle_beats_the_baseline() {
    let designs = [Design::Oblivious, Design::Greedy, Design::DrStrange];
    let h = Harness::with_scale(SCALE);
    let matrix = eval_pair_matrix_par(&h, &designs, &eval_pairs(5120), Mech::DRange);
    let panel = |metric: fn(&PairEval) -> f64| {
        let avg = |d: usize| mean(&matrix[d].iter().map(metric).collect::<Vec<_>>());
        (
            improvement_pct(avg(0), avg(1)),
            improvement_pct(avg(0), avg(2)),
        )
    };
    for (panel, (greedy, dr_strange)) in [
        ("non-RNG", panel(|e| e.nonrng_slowdown)),
        ("RNG", panel(|e| e.rng_slowdown)),
    ] {
        assert!(
            dr_strange > greedy,
            "{panel}: DR-STRaNGe must improve on the baseline more than Greedy Idle \
             ({dr_strange:.1} % vs {greedy:.1} %)"
        );
        assert!(
            greedy > 0.0,
            "{panel}: Greedy Idle must improve on the baseline ({greedy:.1} %)"
        );
    }
}
