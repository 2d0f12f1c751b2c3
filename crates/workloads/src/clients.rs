//! Service-client populations for the `getrandom()` service layer.
//!
//! The paper's RNG *benchmarks* ([`crate::RngBenchmark`]) model
//! random-hungry applications as instruction traces; these generators
//! model the complementary view — the kernel-side request stream that N
//! concurrent clients offer to the DR-STRaNGe service layer
//! (`strange_core::RngService`). Each preset builds a deterministic
//! client population at a named offered load, ready to drop into
//! `SystemConfig::service`.
//!
//! Offered-load arithmetic assumes the paper's 4 GHz CPU clock: a client
//! issuing `bytes`-byte requests every `gap` cycles offers
//! `bytes × 8 × 4e9 / gap` bits/s.

use strange_core::{ClientSpec, FairnessPolicy, QosClass, ServiceConfig};

use crate::synth::seed_for;

/// Assigns QoS classes to a client population, client *i* getting
/// `qos[i]` (clients beyond the slice keep their current class). Used to
/// turn a uniform population into a mixed-tenant one for fairness/QoS
/// studies.
///
/// # Panics
///
/// Panics when `qos` names more clients than the population has.
pub fn assign_qos(mut config: ServiceConfig, qos: &[QosClass]) -> ServiceConfig {
    assert!(
        qos.len() <= config.clients.len(),
        "{} QoS classes for {} clients",
        qos.len(),
        config.clients.len()
    );
    for (client, &q) in config.clients.iter_mut().zip(qos) {
        client.qos = q;
    }
    config
}

/// CPU clock in cycles per microsecond (4 GHz, paper Table 1).
const CPU_CYCLES_PER_US: u64 = 4_000;

/// Mean inter-arrival gap (CPU cycles per client) for a population of
/// `clients` clients to offer `mbps` Mb/s of `bytes`-byte requests in
/// aggregate.
///
/// # Examples
///
/// ```
/// use strange_workloads::gap_for_offered_mbps;
///
/// // 4 clients × 32-byte requests at 1024 Mb/s aggregate:
/// // each client offers 256 Mb/s = one 256-bit request per microsecond.
/// assert_eq!(gap_for_offered_mbps(4, 32, 1024), 4_000);
/// ```
///
/// # Panics
///
/// Panics when any argument is zero.
pub fn gap_for_offered_mbps(clients: usize, bytes: usize, mbps: u32) -> u64 {
    assert!(clients > 0 && bytes > 0 && mbps > 0, "arguments must be nonzero");
    let bits_per_request = bytes as u64 * 8;
    // gap = clients × bits/request × cycles-per-second / offered bits/sec.
    let gap = clients as u64 * bits_per_request * CPU_CYCLES_PER_US * 1_000_000
        / (mbps as u64 * 1_000_000);
    gap.max(1)
}

/// A Poisson open-loop population: `clients` independent clients whose
/// aggregate offered load is `mbps` Mb/s of `bytes`-byte requests, each
/// issuing `requests` requests. Seeds derive from `instance`, so equal
/// arguments give bit-identical arrival streams.
pub fn poisson_service(
    clients: usize,
    bytes: usize,
    mbps: u32,
    requests: u64,
    instance: u64,
) -> ServiceConfig {
    let gap = gap_for_offered_mbps(clients, bytes, mbps);
    ServiceConfig {
        clients: (0..clients)
            .map(|i| {
                // Hash instance and client index independently and
                // combine: a plain `instance ^ i` collides for adjacent
                // instances (instance 6 client 0 == instance 7 client 1),
                // silently correlating populations meant to be
                // independent.
                let seed = seed_for("service-poisson", instance)
                    .wrapping_add(seed_for("service-client", i as u64));
                ClientSpec::poisson(bytes, gap, requests, seed)
            })
            .collect(),
        ..ServiceConfig::default()
    }
}

/// A closed-loop population: `clients` clients, each with one request in
/// flight and `think` cycles between completion and the next call.
pub fn closed_loop_service(
    clients: usize,
    bytes: usize,
    think: u64,
    requests: u64,
) -> ServiceConfig {
    ServiceConfig {
        clients: (0..clients)
            .map(|_| ClientSpec::closed_loop(bytes, think, requests))
            .collect(),
        ..ServiceConfig::default()
    }
}

/// A bursty open-loop population: each client issues `burst` back-to-back
/// requests every `gap` cycles (the paper's `getrandom()`-for-key-material
/// shape). Client *i* uses `gap + i`, so the population's bursts drift
/// apart instead of phase-locking on the same cycles.
pub fn bursty_service(
    clients: usize,
    bytes: usize,
    burst: u32,
    gap: u64,
    requests: u64,
) -> ServiceConfig {
    ServiceConfig {
        clients: (0..clients)
            .map(|i| ClientSpec::bursty(bytes, burst, gap + i as u64, requests))
            .collect(),
        ..ServiceConfig::default()
    }
}

/// The contended mixed-QoS tenant scenario the fairness studies share
/// (`examples/concurrent_server.rs`, `tests/fairness.rs`, and the
/// benchmark's `svc_saturated`): clients 0–1 are **saturating High-priority
/// aggressors** — closed loops of 256-byte requests (32 words each,
/// exactly the RNG queue's capacity) with a 200-cycle think time, enough
/// sustained demand to keep D-RaNGe's four channels past their ~620 Mb/s
/// rate — and clients 2–3 are a Normal and a Low closed-loop tenant
/// issuing `requests` calls of `bytes` each. The aggressors are
/// self-throttled (one request in flight each), so the backlog stays
/// finite but the queue slots and buffer words are contended on every
/// cycle: under [`FairnessPolicy::Strict`] the Low tenant starves
/// outright, while `Aging` and `WeightedFair` bound its tail latency.
/// Fully deterministic — no seeds involved.
pub fn contended_qos_service(bytes: usize, requests: u64) -> ServiceConfig {
    let think = 2_000;
    ServiceConfig {
        clients: vec![
            ClientSpec::closed_loop(256, 200, 4 * requests).with_qos(QosClass::High),
            ClientSpec::closed_loop(256, 200, 4 * requests).with_qos(QosClass::High),
            ClientSpec::closed_loop(bytes, think, requests).with_qos(QosClass::Normal),
            ClientSpec::closed_loop(bytes, think, requests).with_qos(QosClass::Low),
        ],
        ..ServiceConfig::default()
    }
}

/// The contended scenario paired with the default [`FairnessPolicy::Aging`]
/// policy — drop the pair straight into
/// `SystemConfig::with_service(..).with_fairness(..)`.
pub fn aging_service(bytes: usize, requests: u64) -> (ServiceConfig, FairnessPolicy) {
    (contended_qos_service(bytes, requests), FairnessPolicy::aging())
}

/// The contended scenario paired with the default
/// [`FairnessPolicy::WeightedFair`] policy (deficit round robin over the
/// tenants' QoS weights).
pub fn wfq_service(bytes: usize, requests: u64) -> (ServiceConfig, FairnessPolicy) {
    (
        contended_qos_service(bytes, requests),
        FairnessPolicy::weighted_fair(),
    )
}

/// A **flash crowd**: `clients` tenants each releasing one burst of
/// `burst` back-to-back `bytes`-byte requests — the overload-protection
/// stress shape (5–10× the TRNG's sustained rate arriving at once).
/// Client *i*'s burst fires after `i × stagger` cycles, so the fronts
/// pile onto the queue in a deterministic ramp instead of one
/// simultaneous spike. Pair with one background [`QosClass::Low`]
/// closed-loop tenant (the victim whose tail the admission layer must
/// protect) via [`flash_crowd_with_victim`].
pub fn flash_crowd_service(clients: usize, bytes: usize, burst: u32, stagger: u64) -> ServiceConfig {
    ServiceConfig {
        clients: (0..clients)
            .map(|i| {
                // One burst per client as an explicit trace: `burst`
                // arrivals all at cycle `i × stagger`. (A Bursty client
                // fires its first burst at the open cycle regardless of
                // gap, which would collapse the ramp into one spike.)
                ClientSpec::trace_replay(bytes, vec![i as u64 * stagger; burst as usize])
            })
            .collect(),
        ..ServiceConfig::default()
    }
}

/// [`flash_crowd_service`] plus a Low-QoS closed-loop victim tenant
/// (client index `clients`, issuing `victim_requests` `bytes`-byte calls
/// with a `think`-cycle loop) whose p99 the overload studies track.
pub fn flash_crowd_with_victim(
    clients: usize,
    bytes: usize,
    burst: u32,
    stagger: u64,
    victim_requests: u64,
    think: u64,
) -> ServiceConfig {
    let mut cfg = flash_crowd_service(clients, bytes, burst, stagger);
    for c in cfg.clients.iter_mut() {
        c.qos = QosClass::High;
    }
    cfg.clients
        .push(ClientSpec::closed_loop(bytes, think, victim_requests).with_qos(QosClass::Low));
    cfg
}

/// A **slow-drain** tenant population: each client's requests are huge
/// (`words_per_request` 64-bit words — think key-material refills), so a
/// single arrival occupies the generation pipeline for many episodes
/// while the think time keeps the tenant permanently resident. The
/// shape that exposes episode-level unfairness: without per-episode
/// batch caps one slow-drain tenant monopolizes every demand episode.
pub fn slow_drain_service(
    clients: usize,
    words_per_request: usize,
    think: u64,
    requests: u64,
) -> ServiceConfig {
    assert!(words_per_request > 0, "empty requests");
    ServiceConfig {
        clients: (0..clients)
            .map(|_| ClientSpec::closed_loop(words_per_request * 8, think, requests))
            .collect(),
        ..ServiceConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_arithmetic_matches_offered_load() {
        // One client, 8-byte requests, 256 Mb/s: 64 bits per request,
        // 4e9 cycles/s → one request per 1000 cycles.
        assert_eq!(gap_for_offered_mbps(1, 8, 256), 1_000);
        // Doubling the clients doubles each client's gap.
        assert_eq!(gap_for_offered_mbps(2, 8, 256), 2_000);
        // Doubling the load halves the gap.
        assert_eq!(gap_for_offered_mbps(1, 8, 512), 500);
    }

    #[test]
    fn poisson_population_is_deterministic() {
        let a = poisson_service(4, 32, 1024, 100, 7);
        let b = poisson_service(4, 32, 1024, 100, 7);
        assert_eq!(a, b);
        assert_eq!(a.clients.len(), 4);
        // Distinct clients get distinct seeds.
        let c = poisson_service(4, 32, 1024, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn adjacent_instances_share_no_client_seeds() {
        // The natural sweep `instance = 0..N` must produce fully
        // independent populations: no (instance, client) seed may repeat.
        let mut seeds = std::collections::HashSet::new();
        for instance in 0..8u64 {
            for c in &poisson_service(4, 32, 1024, 10, instance).clients {
                if let strange_core::ArrivalProcess::Poisson { seed, .. } = c.arrival {
                    assert!(seeds.insert(seed), "seed collision at instance {instance}");
                } else {
                    panic!("poisson expected");
                }
            }
        }
    }

    #[test]
    fn closed_loop_population_shape() {
        let cfg = closed_loop_service(3, 16, 500, 50);
        assert_eq!(cfg.clients.len(), 3);
        for c in &cfg.clients {
            assert_eq!(c.bytes, 16);
            assert_eq!(c.requests, 50);
        }
    }

    #[test]
    fn bursty_population_staggers_gaps() {
        let cfg = bursty_service(3, 8, 8, 10_000, 64);
        let gaps: Vec<u64> = cfg
            .clients
            .iter()
            .map(|c| match c.arrival {
                strange_core::ArrivalProcess::Bursty { gap, .. } => gap,
                _ => panic!("bursty expected"),
            })
            .collect();
        assert_eq!(gaps, vec![10_000, 10_001, 10_002]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_load_rejected() {
        gap_for_offered_mbps(1, 8, 0);
    }

    #[test]
    fn contended_scenario_shape() {
        let cfg = contended_qos_service(64, 100);
        assert_eq!(cfg.clients.len(), 4);
        assert_eq!(cfg.clients[0].qos, QosClass::High, "saturating aggressor");
        assert_eq!(cfg.clients[1].qos, QosClass::High);
        assert_eq!(cfg.clients[2].qos, QosClass::Normal);
        assert_eq!(cfg.clients[3].qos, QosClass::Low);
        // The aggressors outlast the measured tenants.
        assert_eq!(cfg.clients[0].requests, 400);
        assert_eq!(cfg.clients[3].requests, 100);
        assert_eq!(contended_qos_service(64, 100), cfg, "deterministic");
        let (a_cfg, a_pol) = aging_service(64, 100);
        assert_eq!(a_cfg, cfg);
        assert!(matches!(a_pol, FairnessPolicy::Aging { .. }));
        let (w_cfg, w_pol) = wfq_service(64, 100);
        assert_eq!(w_cfg, cfg);
        assert!(matches!(w_pol, FairnessPolicy::WeightedFair { .. }));
    }

    #[test]
    fn flash_crowd_ramps_deterministically() {
        let cfg = flash_crowd_service(3, 32, 10, 5_000);
        assert_eq!(cfg.clients.len(), 3);
        for (i, c) in cfg.clients.iter().enumerate() {
            assert_eq!(c.requests, 10, "one burst per client");
            match &c.arrival {
                strange_core::ArrivalProcess::TraceReplay { schedule } => {
                    assert_eq!(schedule.len(), 10);
                    assert!(schedule.iter().all(|&at| at == i as u64 * 5_000));
                }
                _ => panic!("trace replay expected"),
            }
        }
        assert_eq!(flash_crowd_service(3, 32, 10, 5_000), cfg, "deterministic");
    }

    #[test]
    fn flash_crowd_victim_rides_behind_the_crowd() {
        let cfg = flash_crowd_with_victim(3, 32, 10, 5_000, 40, 2_000);
        assert_eq!(cfg.clients.len(), 4);
        for c in &cfg.clients[..3] {
            assert_eq!(c.qos, QosClass::High, "the crowd outranks the victim");
        }
        let victim = &cfg.clients[3];
        assert_eq!(victim.qos, QosClass::Low);
        assert_eq!(victim.requests, 40);
        assert_eq!(victim.bytes, 32);
    }

    #[test]
    fn slow_drain_requests_are_word_sized() {
        let cfg = slow_drain_service(2, 64, 1_000, 20);
        assert_eq!(cfg.clients.len(), 2);
        for c in &cfg.clients {
            assert_eq!(c.bytes, 64 * 8, "words_per_request × 8 bytes");
            assert_eq!(c.requests, 20);
        }
    }

    #[test]
    #[should_panic(expected = "empty requests")]
    fn slow_drain_rejects_empty_requests() {
        slow_drain_service(1, 0, 1_000, 20);
    }
}
