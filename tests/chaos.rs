//! Chaos soak: seeded random [`FaultPlan`]s driven through
//! watchdog-enabled systems, with the recovery invariants asserted on
//! every scenario:
//!
//! * the run drains (graceful degradation — no fault combination wedges
//!   generation);
//! * the stuck channel every plan carries is detected and quarantined;
//! * probe words are tested-and-discarded, never buffered or served
//!   (`tainted_words_discarded == probe_rounds * probe_words`);
//! * `Reference` ≡ `FastForward` bit-identity, including the served
//!   random values.
//!
//! The tier-1 run covers a handful of seeds so `cargo test` stays fast;
//! set `STRANGE_CHAOS_SEEDS=<n>` to soak more (CI's tier-1 job soaks 8
//! after the test suite; local overnight runs soak more).

use dr_strange::core::{
    FaultPlan, RunResult, SimMode, System, SystemConfig, WatchdogConfig,
};
use dr_strange::trng::DRange;
use dr_strange::workloads::{contended_qos_service, fleet_shard_seed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeds soaked by default; `STRANGE_CHAOS_SEEDS` raises it.
const DEFAULT_SEEDS: u64 = 4;

fn seed_count() -> u64 {
    std::env::var("STRANGE_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEEDS)
}

/// A watchdog tuned so detect → quarantine → probe cycles fit inside a
/// test-sized service run.
fn watchdog() -> WatchdogConfig {
    WatchdogConfig {
        probe_period: 4_000,
        ..WatchdogConfig::standard()
    }
}

/// Builds a random-but-valid fault plan: one long stuck-at-one quality
/// derate on a random victim channel (the detection anchor every
/// scenario must catch), plus random outages, stall storms, a global
/// entropy derate, and buffer corruption. Each kind places at most one
/// window per resource, so the plan respects the overlap rules by
/// construction ([`FaultPlan::validate`] still checks it).
fn chaos_plan(rng: &mut SmallRng, channels: u32) -> FaultPlan {
    let victim = rng.gen_range(0..channels);
    let mut plan = FaultPlan::new().channel_derate(
        rng.gen_range(200..2_000u64),
        victim,
        0,
        1,
        rng.gen_range(30_000..80_000u64),
    );
    for ch in 0..channels {
        if rng.gen_bool(0.4) {
            plan = plan.outage(
                rng.gen_range(1_000..40_000u64),
                ch,
                rng.gen_range(2_000..10_000u64),
            );
        }
        if rng.gen_bool(0.4) {
            plan = plan.stall_storm(
                rng.gen_range(1_000..40_000u64),
                ch,
                rng.gen_range(2_000..10_000u64),
            );
        }
    }
    if rng.gen_bool(0.5) {
        plan = plan.derate(
            rng.gen_range(1_000..30_000u64),
            1,
            2,
            rng.gen_range(5_000..20_000u64),
        );
    }
    for _ in 0..rng.gen_range(0..3usize) {
        plan = plan.corruption(rng.gen_range(1_000..60_000u64), rng.gen_range(1..8u32));
    }
    // The builder appends in generation order; validate requires the
    // schedule sorted by cycle.
    plan.events.sort_by_key(|e| e.at);
    plan
}

fn run_mode(cfg: &SystemConfig, mode: SimMode) -> (RunResult, Vec<u64>, u64) {
    let mut sys = System::new(
        cfg.clone().with_sim_mode(mode),
        Vec::new(),
        Box::new(DRange::new(9)),
    )
    .expect("chaos plans are valid by construction");
    sys.set_value_log(true);
    let res = sys.run();
    let values = sys.mem().value_log().to_vec();
    let skipped = sys.skipped_cycles();
    (res, values, skipped)
}

/// Runs one seeded scenario in both modes and asserts every invariant.
fn soak_one(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plan = chaos_plan(&mut rng, 4);
    let events = plan.events.len();
    let cfg = SystemConfig::dr_strange(0)
        .with_watchdog(watchdog())
        .with_fault_plan(plan)
        .with_service(contended_qos_service(64, 30));
    let (reference, ref_values, ref_skipped) = run_mode(&cfg, SimMode::Reference);
    let (fast, fast_values, fast_skipped) = run_mode(&cfg, SimMode::FastForward);

    // Bit-identity across simulation modes.
    assert_eq!(ref_skipped, 0, "seed {seed}: reference must not skip");
    assert!(fast_skipped > 0, "seed {seed}: fast-forward must skip");
    assert_eq!(fast.cpu_cycles, reference.cpu_cycles, "seed {seed}: cycles");
    assert_eq!(fast.stats, reference.stats, "seed {seed}: engine stats");
    assert_eq!(fast.channels, reference.channels, "seed {seed}: channels");
    assert_eq!(fast.service, reference.service, "seed {seed}: service");
    assert_eq!(fast_values, ref_values, "seed {seed}: served values");

    // Graceful degradation: the run drains despite the plan.
    assert!(
        !fast.hit_cycle_limit,
        "seed {seed}: client targets must be met under {events} fault events"
    );
    assert_eq!(
        fast.stats.faults_injected, events as u64,
        "seed {seed}: every planned event fires"
    );

    // Detection: the anchor stuck channel always trips quarantine.
    assert!(
        fast.stats.quarantines >= 1,
        "seed {seed}: the stuck channel must be quarantined: {:?}",
        fast.stats
    );
    // Probe hygiene: every probe word is tested and discarded — tainted
    // draws never reach the buffer or a caller.
    assert_eq!(
        fast.stats.tainted_words_discarded,
        fast.stats.probe_rounds * u64::from(watchdog().probe_words),
        "seed {seed}: probe accounting identity"
    );
    assert!(
        fast.stats.readmissions <= fast.stats.quarantines,
        "seed {seed}: re-admissions cannot outnumber quarantines"
    );
}

#[test]
fn seeded_chaos_scenarios_uphold_recovery_invariants() {
    for seed in 0..seed_count() {
        soak_one(seed);
    }
}

/// Fleet chaos soak: each seed injects its fault plan into one
/// *random* shard of a 3-shard fleet while the other shards run clean.
/// Fault isolation is structural (shards share nothing), so the faulty
/// shard must uphold every single-system recovery invariant while the
/// clean shards run fault-free — and the parallel fleet run must be
/// bit-identical to running each shard alone.
fn fleet_soak_one(seed: u64) {
    use dr_strange::server::fleet::{run_shards, run_shards_sequential};

    let mut rng = SmallRng::seed_from_u64(seed);
    let plan = chaos_plan(&mut rng, 4);
    let faulty_shard = rng.gen_range(0..3usize);
    let build = || -> Vec<System> {
        (0..3)
            .map(|s| {
                let mut cfg = SystemConfig::dr_strange(0)
                    .with_watchdog(watchdog())
                    .with_service(contended_qos_service(64, 12));
                if s == faulty_shard {
                    cfg = cfg.with_fault_plan(plan.clone());
                }
                System::new(
                    cfg.with_sim_mode(SimMode::FastForward),
                    Vec::new(),
                    Box::new(DRange::new(fleet_shard_seed(2022, s))),
                )
                .expect("chaos plans are valid by construction")
            })
            .collect()
    };
    let parallel = run_shards(build());
    let sequential = run_shards_sequential(build());
    for (s, ((pr, _), (sr, _))) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(
            pr.service, sr.service,
            "seed {seed}: shard {s} parallel ≡ sequential"
        );
        assert_eq!(pr.stats, sr.stats, "seed {seed}: shard {s} engine stats");
    }
    for (s, (res, _)) in parallel.iter().enumerate() {
        assert!(
            !res.hit_cycle_limit,
            "seed {seed}: shard {s} must drain despite the plan"
        );
        if s == faulty_shard {
            assert_eq!(
                res.stats.faults_injected,
                plan.events.len() as u64,
                "seed {seed}: every planned event fires on the faulty shard"
            );
            assert!(
                res.stats.quarantines >= 1,
                "seed {seed}: the stuck channel must be quarantined"
            );
        } else {
            assert_eq!(
                res.stats.faults_injected, 0,
                "seed {seed}: shard {s} is clean — fault isolation is structural"
            );
            assert_eq!(
                res.stats.quarantines, 0,
                "seed {seed}: clean shard {s} must not quarantine"
            );
        }
    }
}

#[test]
fn fleet_chaos_faults_stay_on_their_shard() {
    for seed in 0..seed_count() {
        fleet_soak_one(seed);
    }
}
