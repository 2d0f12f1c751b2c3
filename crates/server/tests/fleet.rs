//! Fleet determinism contract: routing is a pure function of routing
//! history, shards share no simulated state, so (1) an N-shard run is
//! bit-identical to N separate single-shard runs of the induced session
//! sets, (2) parallel shard drivers ≡ sequential, (3) shard results are
//! invariant to startup order, (4) per-shard Reference ≡ FastForward,
//! and (5) a 10⁴-session flash-crowd fleet records and replays
//! reproducibly end-to-end, with its aggregate equal to the union of the
//! shard-local stats.

use std::thread;

use strange_core::{ClientSpec, ServiceStats, SimMode, System, SystemConfig};
use strange_server::fleet::{
    partition_sessions, run_shards, run_shards_sequential, FleetServer, FleetSnapshot, FleetStats,
    RoutePolicy, ShardRouter,
};
use strange_server::Pacing;
use strange_trng::DRange;
use strange_workloads::{fleet_flash_crowd, fleet_shard_seed, fleet_shard_service};

const FLEET_SEED: u64 = 2022;
/// Population and width of the flash-crowd record → replay scenario.
const CROWD_SESSIONS: usize = 10_000;
const CROWD_SHARDS: usize = 4;

fn shard_system(specs: Vec<ClientSpec>, seed: u64, mode: SimMode) -> System {
    let mut svc = fleet_shard_service(specs);
    svc.capture_values = true;
    let cfg = SystemConfig::dr_strange(0)
        .with_sim_mode(mode)
        .with_service(svc);
    System::new(cfg, Vec::new(), Box::new(DRange::new(seed))).expect("valid configuration")
}

/// A small mixed population: a flash-crowd ramp with varied request
/// sizes so shards see different work.
fn population(sessions: usize) -> Vec<ClientSpec> {
    fleet_flash_crowd(sessions, 8, 700)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            spec.bytes = [8, 16, 32][i % 3];
            spec
        })
        .collect()
}

fn shard_systems(shards: usize, specs: &[ClientSpec], mode: SimMode) -> (Vec<System>, Vec<usize>) {
    let mut router = ShardRouter::new(RoutePolicy::SessionHash { salt: FLEET_SEED }, shards);
    let (per_shard, assignment) = partition_sessions(&mut router, specs);
    let systems = per_shard
        .into_iter()
        .enumerate()
        .map(|(s, subset)| shard_system(subset, fleet_shard_seed(FLEET_SEED, s), mode))
        .collect();
    (systems, assignment)
}

#[test]
fn nshard_run_is_bitidentical_to_single_shard_runs() {
    let specs = population(48);
    let (systems, assignment) = shard_systems(4, &specs, SimMode::FastForward);
    assert!(
        (0..4).all(|s| assignment.contains(&s)),
        "hash partition left a shard empty; pick a different salt"
    );
    let fleet = run_shards(systems);
    // Re-run each induced per-shard session set as its own single-shard
    // run, sequentially and independently.
    let (solo_systems, _) = shard_systems(4, &specs, SimMode::FastForward);
    for (s, ((fleet_res, fleet_sys), mut solo)) in
        fleet.into_iter().zip(solo_systems).enumerate()
    {
        let solo_res = solo.run();
        assert_eq!(
            fleet_res.service, solo_res.service,
            "shard {s}: fleet-run stats differ from the single-shard run"
        );
        assert_eq!(
            fleet_sys.service().expect("service").captured_words(),
            solo.service().expect("service").captured_words(),
            "shard {s}: served words differ"
        );
        assert_eq!(fleet_res.cpu_cycles, solo_res.cpu_cycles);
    }
}

#[test]
fn parallel_shard_drivers_equal_sequential() {
    let specs = population(32);
    let (par_systems, _) = shard_systems(3, &specs, SimMode::FastForward);
    let (seq_systems, _) = shard_systems(3, &specs, SimMode::FastForward);
    let par = run_shards(par_systems);
    let seq = run_shards_sequential(seq_systems);
    for (s, ((pr, ps), (sr, ss))) in par.into_iter().zip(seq).enumerate() {
        assert_eq!(pr.service, sr.service, "shard {s} stats diverge");
        assert_eq!(
            ps.service().expect("service").captured_words(),
            ss.service().expect("service").captured_words(),
            "shard {s} words diverge"
        );
    }
}

/// Satellite: per-shard seeds derive from (fleet seed, shard index), so
/// building and running the shards in any order yields the same
/// per-shard results.
#[test]
fn shard_results_invariant_to_startup_order() {
    let specs = population(32);
    let mut router = ShardRouter::new(RoutePolicy::SessionHash { salt: FLEET_SEED }, 4);
    let (per_shard, _) = partition_sessions(&mut router, &specs);

    let build = |s: usize, subset: &[ClientSpec]| {
        shard_system(
            subset.to_vec(),
            fleet_shard_seed(FLEET_SEED, s),
            SimMode::FastForward,
        )
    };
    // Forward startup order.
    let forward: Vec<ServiceStats> =
        run_shards((0..4).map(|s| build(s, &per_shard[s])).collect())
            .into_iter()
            .map(|(r, _)| r.service.expect("service stats"))
            .collect();
    // Scrambled startup order, results mapped back to shard index.
    let order = [2usize, 0, 3, 1];
    let scrambled = run_shards(order.iter().map(|&s| build(s, &per_shard[s])).collect());
    for (&s, (res, _)) in order.iter().zip(scrambled) {
        assert_eq!(
            forward[s],
            res.service.expect("service stats"),
            "shard {s} depends on startup order"
        );
    }
}

#[test]
fn per_shard_reference_equals_fastforward() {
    let specs = population(24);
    let (ref_systems, _) = shard_systems(2, &specs, SimMode::Reference);
    let (ff_systems, _) = shard_systems(2, &specs, SimMode::FastForward);
    let reference = run_shards(ref_systems);
    let fast = run_shards(ff_systems);
    for (s, ((rr, rs), (fr, fs))) in reference.into_iter().zip(fast).enumerate() {
        assert_eq!(
            rr.service, fr.service,
            "shard {s}: FastForward diverges from Reference"
        );
        assert_eq!(
            rs.service().expect("service").captured_words(),
            fs.service().expect("service").captured_words(),
            "shard {s}: served words diverge across sim modes"
        );
    }
}

/// Acceptance: a 10⁴-session flash-crowd fleet scenario end to end —
/// partition, parallel run, fleet aggregate ≡ union of the shards, then
/// record→replay bit-identity from the recorded arrival logs.
#[test]
fn flash_crowd_fleet_records_and_replays() {
    let specs = fleet_flash_crowd(CROWD_SESSIONS, 8, 100);
    let mut router = ShardRouter::new(RoutePolicy::SessionHash { salt: FLEET_SEED }, CROWD_SHARDS);
    let (per_shard, _) = partition_sessions(&mut router, &specs);
    let systems: Vec<System> = per_shard
        .iter()
        .enumerate()
        .map(|(s, subset)| {
            shard_system(subset.clone(), fleet_shard_seed(FLEET_SEED, s), SimMode::FastForward)
        })
        .collect();
    let first = run_shards(systems);
    let stats: Vec<ServiceStats> = first
        .iter()
        .map(|(r, _)| r.service.clone().expect("service stats"))
        .collect();
    let agg = FleetStats::aggregate(&stats);
    assert_eq!(
        agg.requests_completed, CROWD_SESSIONS as u64,
        "every session must be served"
    );
    // The union oracle: every aggregate recomputed from the shards.
    assert_eq!(
        agg.bytes_served,
        stats.iter().map(|s| s.bytes_served).sum::<u64>()
    );
    let mut union_log: Vec<u64> = stats.iter().flat_map(|s| s.latency_log.clone()).collect();
    union_log.sort_unstable();
    assert_eq!(agg.latency_log, union_log, "aggregate latency log != union");
    let shard_bytes: Vec<u64> = stats.iter().map(|s| s.bytes_served).collect();
    assert_eq!(agg.shard_bytes, shard_bytes);

    // Record → replay: rebuild each shard from its recorded arrival
    // logs and re-run; the replay must reproduce the run bit for bit.
    let mut replay_systems = Vec::with_capacity(first.len());
    for (s, (_, sys)) in first.iter().enumerate() {
        let svc = sys.service().expect("service");
        let replay_specs: Vec<ClientSpec> = (0..svc.clients())
            .map(|c| ClientSpec::trace_replay(per_shard[s][c].bytes, svc.arrival_log(c).to_vec()))
            .collect();
        replay_systems.push(shard_system(
            replay_specs,
            fleet_shard_seed(FLEET_SEED, s),
            SimMode::FastForward,
        ));
    }
    let replay = run_shards(replay_systems);
    for (s, ((ar, asys), (br, bsys))) in first.into_iter().zip(replay).enumerate() {
        assert_eq!(ar.service, br.service, "shard {s}: replay diverges");
        assert_eq!(
            asys.service().expect("service").captured_words(),
            bsys.service().expect("service").captured_words(),
            "shard {s}: replayed words diverge"
        );
    }
}

/// Live fleet front-end: sessions route across shards, the report
/// aggregates shard-locally-exact stats, and the final [`FleetSnapshot`]
/// agrees with the report. Runs twice to assert reproducibility.
#[test]
fn live_fleet_server_routes_and_aggregates() {
    let live_system = |s: usize| {
        let cfg = SystemConfig::dr_strange(0).with_service(strange_core::ServiceConfig {
            sessions: true,
            ..strange_core::ServiceConfig::default()
        });
        System::new(
            cfg,
            Vec::new(),
            Box::new(DRange::new(fleet_shard_seed(FLEET_SEED, s))),
        )
        .expect("valid configuration")
    };
    let run = || {
        let systems: Vec<System> = (0..2).map(live_system).collect();
        let (fleet, snapshots) = FleetServer::start_observed(
            systems,
            RoutePolicy::RoundRobin,
            Pacing::Virtual,
            std::time::Duration::from_millis(5),
        );
        assert_eq!(fleet.shards(), 2);
        let handles: Vec<_> = (0..4)
            .map(|_| fleet.open_session(ClientSpec::manual(16)))
            .collect();
        // Round-robin: global session i lands on shard i % 2.
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.shard, i % 2);
            assert_eq!(h.global, i);
        }
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                thread::spawn(move || {
                    let mut buf = [0u8; 16];
                    for _ in 0..12 {
                        h.getrandom(&mut buf, 2_000);
                    }
                    h.close();
                })
            })
            .collect();
        for w in workers {
            w.join().expect("session thread panicked");
        }
        let report = fleet.shutdown();
        let snaps: Vec<FleetSnapshot> = snapshots.try_iter().collect();
        let stats = report.fleet_stats();
        assert_eq!(stats.requests_completed, 4 * 12);
        assert_eq!(stats.bytes_served, 4 * 12 * 16);
        assert_eq!(report.sessions.len(), 4);
        assert_eq!(report.shards.len(), 2);
        // Fleet aggregate ≡ union of the shard-local views.
        let by_shard: u64 = report
            .shards
            .iter()
            .map(|r| r.stats.requests_completed)
            .sum();
        assert_eq!(stats.requests_completed, by_shard);
        assert_eq!(
            stats.latency_log.len() as u64,
            by_shard,
            "merged latency log must carry every completion"
        );
        let jain = stats.jain().expect("both shards served bytes");
        assert!(jain > 0.99, "balanced round-robin fleet, jain={jain}");
        // The final fleet snapshot agrees with the final report, and
        // per-tenant fleet percentiles are the exact shard-local ones.
        let last: &FleetSnapshot = snaps.last().expect("parting fleet snapshot");
        assert_eq!(last.requests_completed, stats.requests_completed);
        assert_eq!(last.bytes_served, stats.bytes_served);
        assert_eq!(last.tenant_p50.len(), 4);
        for (g, &(s, c)) in report.sessions.iter().enumerate() {
            assert_eq!(last.tenant_p50[g], last.shards[s].tenant_p50[c]);
            assert_eq!(last.tenant_p99[g], last.shards[s].tenant_p99[c]);
        }
        report
    };
    let a = run();
    let b = run();
    for (s, (ra, rb)) in a.shards.iter().zip(&b.shards).enumerate() {
        assert_eq!(ra.stats, rb.stats, "shard {s} not reproducible");
    }
}

#[test]
fn router_policies_are_deterministic_and_mechanism_aware() {
    // LeastLoaded follows the open-session accounting.
    let mut ll = ShardRouter::new(RoutePolicy::LeastLoaded, 3);
    assert_eq!(ll.route_session(0, None), 0);
    assert_eq!(ll.route_session(1, None), 1);
    assert_eq!(ll.route_session(2, None), 2);
    assert_eq!(ll.route_session(3, None), 0);
    ll.release(1);
    assert_eq!(ll.route_session(4, None), 1, "released shard is least loaded");

    // SessionHash is sticky per key and independent of call order.
    let mut h1 = ShardRouter::new(RoutePolicy::SessionHash { salt: 7 }, 4);
    let mut h2 = ShardRouter::new(RoutePolicy::SessionHash { salt: 7 }, 4);
    let keys = [3u64, 11, 3, 42, 3];
    let a: Vec<usize> = keys.iter().map(|&k| h1.route_session(k, None)).collect();
    let b: Vec<usize> = keys.iter().rev().map(|&k| h2.route_session(k, None)).collect();
    assert_eq!(a[0], a[2]);
    assert_eq!(a[0], a[4]);
    assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());

    // The mechanism-aware hook narrows candidates when a label matches
    // and falls back to the whole fleet when none does.
    let mut labeled = ShardRouter::with_labels(
        RoutePolicy::RoundRobin,
        vec!["D-RaNGe".into(), "QUAC-TRNG".into(), "QUAC-TRNG".into()],
    );
    for _ in 0..4 {
        let s = labeled.route_session(0, Some("QUAC-TRNG"));
        assert!(s == 1 || s == 2, "preference must stick to QUAC shards");
    }
    // An unknown label falls back to the whole fleet (round-robin
    // cursor is at 4 after four routes → candidate index 4 % 3 = 1).
    assert_eq!(labeled.route_session(0, Some("no-such-mechanism")), 1);
    assert_eq!(labeled.routed(), 5);
}
