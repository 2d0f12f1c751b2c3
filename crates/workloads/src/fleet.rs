//! Fleet-scale session populations and per-shard seed derivation.
//!
//! The sharded server (`strange_server::fleet`) partitions one big
//! session population across N independent `System` shards; these
//! helpers build that population at 10⁴–10⁵ sessions and derive each
//! shard's RNG seed deterministically from `(fleet seed, shard index)`
//! — so a fleet run is a pure function of the fleet seed, invariant to
//! shard startup order and host scheduling.

use strange_core::{ClientSpec, ServiceConfig};

use crate::synth::seed_for;

/// Derives shard `shard`'s TRNG seed from the fleet seed via the
/// seeded-stream helper: two independent [`seed_for`] streams (one over
/// the fleet seed, one over the shard index) are combined, so distinct
/// shards draw uncorrelated entropy streams and the derivation depends
/// only on `(fleet_seed, shard)` — never on construction order.
///
/// # Examples
///
/// ```
/// use strange_workloads::fleet_shard_seed;
///
/// let seeds: Vec<u64> = (0..4).map(|s| fleet_shard_seed(2022, s)).collect();
/// // Distinct per shard, stable across calls.
/// assert_eq!(seeds[0], fleet_shard_seed(2022, 0));
/// assert!(seeds.windows(2).all(|w| w[0] != w[1]));
/// ```
pub fn fleet_shard_seed(fleet_seed: u64, shard: usize) -> u64 {
    seed_for("fleet-shard", fleet_seed)
        .wrapping_add(seed_for("fleet-shard-index", shard as u64))
}

/// A **fleet flash crowd**: `sessions` one-shot tenants, each issuing a
/// single `bytes`-byte request, arriving in a deterministic ramp —
/// session *i* fires at cycle `i × stagger`. This is the 10⁴–10⁵
/// session population the fleet benches partition across shards (each
/// session is one `ClientSpec`, so `strange_server::fleet`'s
/// `partition_sessions` can split the population and every shard
/// replays its induced subset bit-identically).
///
/// # Panics
///
/// Panics when `sessions` or `bytes` is zero.
pub fn fleet_flash_crowd(sessions: usize, bytes: usize, stagger: u64) -> Vec<ClientSpec> {
    assert!(sessions > 0, "empty fleet population");
    assert!(bytes > 0, "zero-byte requests");
    (0..sessions)
        .map(|i| ClientSpec::trace_replay(bytes, vec![i as u64 * stagger]))
        .collect()
}

/// Wraps a per-shard session subset into a batch-mode [`ServiceConfig`]
/// with arrival recording on — the shape the fleet determinism contract
/// runs: partition → per-shard configs → `run_shards` → record→replay.
pub fn fleet_shard_service(shard_sessions: Vec<ClientSpec>) -> ServiceConfig {
    ServiceConfig {
        clients: shard_sessions,
        record_arrivals: true,
        ..ServiceConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_distinct_and_stable() {
        let a: Vec<u64> = (0..8).map(|s| fleet_shard_seed(7, s)).collect();
        let b: Vec<u64> = (0..8).map(|s| fleet_shard_seed(7, s)).collect();
        assert_eq!(a, b);
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i], a[j], "shards {i} and {j} share a seed");
            }
        }
        assert_ne!(fleet_shard_seed(7, 0), fleet_shard_seed(8, 0));
    }

    #[test]
    fn flash_crowd_ramp_is_deterministic() {
        let pop = fleet_flash_crowd(100, 8, 50);
        assert_eq!(pop.len(), 100);
        assert_eq!(pop, fleet_flash_crowd(100, 8, 50));
    }
}
