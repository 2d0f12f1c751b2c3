//! Robustness: deterministic fault injection with graceful degradation,
//! and the overload-protection satellites (adaptive aging quantum,
//! weighted-fair per-episode batch caps). Every faulted or overloaded
//! scenario must uphold the house invariant — `FastForward` bit-identical
//! to the per-cycle `Reference` — because fault events fire at exact
//! scheduled cycles in both modes.

use dr_strange::core::{
    ClientSpec, FairnessPolicy, FaultPlan, RunResult, ServiceConfig, SimMode, System, SystemConfig,
};
use dr_strange::trng::DRange;
use dr_strange::workloads::{
    contended_qos_service, eval_pairs, flash_crowd_with_victim, slow_drain_service, Workload,
};

fn base(cfg: SystemConfig) -> SystemConfig {
    cfg.with_instruction_target(25_000)
}

/// Runs `cfg` in both simulation modes on `wl` and asserts bit-identical
/// results including the served random values; returns the fast-mode run
/// for follow-on degradation assertions.
fn assert_modes_identical(cfg: SystemConfig, wl: &Workload, label: &str) -> RunResult {
    let run = |mode: SimMode| {
        let cfg = cfg.clone().with_sim_mode(mode);
        let mut sys = System::new(cfg, wl.traces(), Box::new(DRange::new(3)))
            .expect("valid configuration");
        sys.set_value_log(true);
        let res = sys.run();
        let values = sys.mem().value_log().to_vec();
        let skipped = sys.skipped_cycles();
        (res, values, skipped)
    };
    let (reference, ref_values, ref_skipped) = run(SimMode::Reference);
    let (fast, fast_values, fast_skipped) = run(SimMode::FastForward);
    assert_eq!(ref_skipped, 0, "{label}: reference mode must not skip");
    assert!(fast_skipped > 0, "{label}: fast-forward must skip something");
    assert_eq!(fast.cpu_cycles, reference.cpu_cycles, "{label}: cpu cycles");
    assert_eq!(fast.stats, reference.stats, "{label}: engine stats");
    assert_eq!(fast.channels, reference.channels, "{label}: channel stats");
    for (i, (f, r)) in fast.cores.iter().zip(&reference.cores).enumerate() {
        assert_eq!(
            f.finish.map(|s| (s.at_cycle, s.stats)),
            r.finish.map(|s| (s.at_cycle, s.stats)),
            "{label}: core {i} finish snapshot"
        );
        assert_eq!(f.end_stats, r.end_stats, "{label}: core {i} end stats");
    }
    assert_eq!(fast_values, ref_values, "{label}: served random values");
    assert_eq!(fast.service, reference.service, "{label}: service stats");
    fast
}

/// The pure-service variant: no trace cores, the run drains when the
/// client targets are met (which itself proves recovery — a fault that
/// wedged generation would leave the run pinned at the cycle limit).
fn assert_service_modes_identical(cfg: SystemConfig, label: &str) -> RunResult {
    let run = |mode: SimMode| {
        let mut sys = System::new(
            cfg.clone().with_sim_mode(mode),
            Vec::new(),
            Box::new(DRange::new(3)),
        )
        .expect("valid configuration");
        let res = sys.run();
        (res, sys.skipped_cycles())
    };
    let (reference, ref_skipped) = run(SimMode::Reference);
    let (fast, fast_skipped) = run(SimMode::FastForward);
    assert_eq!(ref_skipped, 0, "{label}: reference mode must not skip");
    assert!(fast_skipped > 0, "{label}: fast-forward must skip something");
    assert!(!fast.hit_cycle_limit, "{label}: targets must be met");
    assert_eq!(fast.cpu_cycles, reference.cpu_cycles, "{label}: cpu cycles");
    assert_eq!(fast.stats, reference.stats, "{label}: engine stats");
    assert_eq!(fast.channels, reference.channels, "{label}: channel stats");
    assert_eq!(fast.service, reference.service, "{label}: service stats");
    fast
}

fn tenant_pct(res: &RunResult, client: usize, q: f64) -> u64 {
    res.service
        .as_ref()
        .expect("service stats")
        .client_latency_percentile(client, q)
        .expect("tenant completions")
}

mod faults {
    use super::*;

    #[test]
    fn channel_outage_fails_over_and_stays_bit_identical() {
        // An outage on channel 0 spanning most of the run: demand
        // generation must fail over to the three surviving channels
        // (degraded episodes) and predictive filling must skip the
        // channel, with both modes replaying the same schedule. The
        // single-word buffer forces requests onto the demand path so
        // the failover actually exercises.
        let wl = &eval_pairs(5120)[10];
        let plan = FaultPlan::new().outage(500, 0, 10_000);
        let res = assert_modes_identical(
            base(SystemConfig::dr_strange(2))
                .with_buffer_entries(1)
                .with_fault_plan(plan),
            wl,
            "outage",
        );
        assert_eq!(res.stats.faults_injected, 1, "the outage fired");
        assert!(
            res.stats.degraded_generations > 0,
            "episodes during the outage ran on 3 of 4 channels: {:?}",
            res.stats
        );
    }

    #[test]
    fn stall_storm_blockades_and_recovers() {
        let wl = &eval_pairs(5120)[4];
        let plan = FaultPlan::new().stall_storm(3_000, 1, 20_000);
        let res = assert_modes_identical(
            base(SystemConfig::dr_strange(2)).with_fault_plan(plan),
            wl,
            "stall-storm",
        );
        assert_eq!(res.stats.faults_injected, 1, "the storm fired");
    }

    #[test]
    fn entropy_derate_slows_generation_without_changing_timing_rules() {
        // Quartering the usable bits per round makes each generation
        // episode pay ~4x the rounds while it lasts; the decision logic
        // (and hence the mode equivalence) is untouched.
        let wl = &eval_pairs(5120)[10];
        let plan = FaultPlan::new().derate(500, 1, 4, 10_000);
        let cfg = base(SystemConfig::dr_strange(2)).with_buffer_entries(1);
        let res = assert_modes_identical(cfg.clone().with_fault_plan(plan), wl, "derate");
        assert_eq!(res.stats.faults_injected, 1);
        assert!(res.stats.degraded_generations > 0, "derated episodes count");
        // The same workload without the fault finishes no later and
        // fills no more batches per word (sanity: derating only hurts).
        let healthy = assert_modes_identical(cfg, wl, "derate-baseline");
        assert_eq!(healthy.stats.faults_injected, 0);
        assert_eq!(healthy.stats.degraded_generations, 0);
    }

    #[test]
    fn buffer_corruption_discards_words_oldest_first() {
        let wl = &eval_pairs(5120)[10];
        // Give the predictive filler time to stock the buffer, then
        // flag most of it corrupt.
        let plan = FaultPlan::new().corruption(2_500, 12);
        let res = assert_modes_identical(
            base(SystemConfig::dr_strange(2)).with_fault_plan(plan),
            wl,
            "corruption",
        );
        assert_eq!(res.stats.faults_injected, 1);
        assert!(
            res.stats.corrupted_words_discarded > 0,
            "the integrity check discarded stored words: {:?}",
            res.stats
        );
    }

    #[test]
    fn combined_plan_under_service_load_recovers_and_stays_bit_identical() {
        // All four fault kinds against a pure-service system under the
        // shared contended scenario: the run completing (targets met)
        // is the graceful-degradation acceptance — requests keep being
        // served through outage, storm, derating, and corruption.
        let plan = FaultPlan::new()
            .outage(2_000, 0, 30_000)
            .stall_storm(10_000, 2, 15_000)
            .derate(20_000, 1, 2, 40_000)
            .corruption(25_000, 8)
            .corruption(50_000, 8);
        let cfg = SystemConfig::dr_strange(0)
            .with_fault_plan(plan)
            .with_service(contended_qos_service(64, 40));
        let res = assert_service_modes_identical(cfg, "combined-faults");
        assert_eq!(res.stats.faults_injected, 5, "every event fired");
        assert!(res.stats.degraded_generations > 0);
        // (Under this load the buffer runs dry, so the corruption events
        // find little to discard — the dedicated corruption test covers
        // the discard accounting against a stocked buffer.)
        let svc = res.service.as_ref().expect("service stats");
        assert_eq!(svc.requests_completed, 2 * 160 + 2 * 40);
    }

    #[test]
    fn fault_under_flash_crowd_is_bit_identical() {
        // The overload × fault cross product: a flash crowd slams the
        // queue while a channel drops out mid-storm. This is the worst
        // case for the next-event contract (dense arrivals + fault
        // expiries) and must still replay bit for bit.
        let plan = FaultPlan::new().outage(5_000, 1, 25_000).derate(8_000, 1, 2, 20_000);
        let cfg = SystemConfig::dr_strange(0)
            .with_fairness(FairnessPolicy::weighted_fair())
            .with_fault_plan(plan)
            .with_service(flash_crowd_with_victim(3, 32, 24, 5_000, 30, 2_000));
        let res = assert_service_modes_identical(cfg, "fault-under-load");
        assert_eq!(res.stats.faults_injected, 2);
    }
}

mod watchdog {
    use super::*;
    use dr_strange::core::WatchdogConfig;

    /// The standard watchdog with a probe cadence short enough that
    /// quarantine → probe → re-admission fits inside a test-sized run.
    fn fast_watchdog() -> WatchdogConfig {
        WatchdogConfig {
            probe_period: 4_000,
            ..WatchdogConfig::standard()
        }
    }

    #[test]
    fn stuck_channel_is_quarantined_and_stays_bit_identical() {
        // A quality derate (num=0: every bit stuck at one) on channel 0
        // for essentially the whole run. The watchdog must detect the
        // biased words, quarantine the channel, and keep probing it —
        // all at exact simulated cycles, so both modes replay the same
        // trip and the same probe schedule.
        let plan = FaultPlan::new().channel_derate(500, 0, 0, 1, 10_000_000);
        let cfg = SystemConfig::dr_strange(0)
            .with_watchdog(fast_watchdog())
            .with_fault_plan(plan)
            .with_service(contended_qos_service(64, 40));
        let res = assert_service_modes_identical(cfg, "watchdog-trip");
        assert_eq!(res.stats.faults_injected, 1, "the derate fired");
        assert!(res.stats.windows_tested > 0, "live windows were tested");
        assert!(
            res.stats.quarantines >= 1,
            "the stuck channel must trip quarantine: {:?}",
            res.stats
        );
        assert!(
            res.stats.probe_rounds > 0,
            "quarantined channels receive probe rounds: {:?}",
            res.stats
        );
        assert!(
            res.stats.tainted_words_discarded > 0,
            "probe words are tested and discarded: {:?}",
            res.stats
        );
        // Probe draws are never buffered or served: every probe round
        // discards exactly its probe_words draw.
        assert_eq!(
            res.stats.tainted_words_discarded,
            res.stats.probe_rounds * u64::from(fast_watchdog().probe_words),
            "probe accounting identity"
        );
    }

    /// Quality windows (all channels) the watchdog may test between the
    /// fault onset and the quarantine: 4 channels × `trip_failures`,
    /// doubled for the window straddling the onset.
    const DETECT_WINDOW_BOUND: u64 = 16;

    #[test]
    fn stuck_channel_is_quarantined_within_the_window_bound() {
        // A stuck-at-one derate on channel 0 for 60 000 memory cycles
        // under endless contended load, driven in steps so the exact trip
        // and re-admission cycles are observable and replay across modes.
        const CPU_PER_MEM: u64 = 5;
        let (fault_at, fault_len) = (20_000, 60_000);
        let onset = fault_at * CPU_PER_MEM;
        let cap = (fault_at + fault_len) * CPU_PER_MEM + 600_000;
        let run = |mode: SimMode| {
            let cfg = SystemConfig::dr_strange(0)
                .with_watchdog(fast_watchdog())
                .with_fault_plan(FaultPlan::new().channel_derate(fault_at, 0, 0, 1, fault_len))
                .with_service(contended_qos_service(64, 100_000))
                .with_sim_mode(mode);
            let mut sys = System::new(cfg, Vec::new(), Box::new(DRange::new(2022)))
                .expect("valid configuration");
            sys.advance_until(onset, |_| false);
            let before = sys.mem().stats().windows_tested;
            assert_eq!(
                sys.mem().stats().quarantines,
                0,
                "{mode:?}: false trip before the fault"
            );
            sys.advance_until(cap, |s| s.mem().stats().quarantines >= 1);
            let detected = (sys.cpu_cycles(), sys.mem().stats().windows_tested - before);
            sys.advance_until(cap, |s| s.mem().stats().readmissions >= 1);
            (detected, sys.cpu_cycles(), sys.mem().stats().clone())
        };
        let reference = run(SimMode::Reference);
        let fast = run(SimMode::FastForward);
        assert_eq!(
            fast, reference,
            "trip and re-admission must replay across modes"
        );
        let ((_, windows), _, stats) = fast;
        assert!(
            stats.quarantines >= 1,
            "the stuck channel must be quarantined: {stats:?}"
        );
        assert!(
            windows <= DETECT_WINDOW_BOUND,
            "quarantine must land within {DETECT_WINDOW_BOUND} test windows of the onset \
             (took {windows})"
        );
        assert!(
            stats.readmissions >= 1,
            "the channel must be re-admitted: {stats:?}"
        );
        assert_eq!(
            stats.tainted_words_discarded,
            stats.probe_rounds * u64::from(fast_watchdog().probe_words),
            "probe hygiene: every tainted probe word is discarded, none served"
        );
    }

    #[test]
    fn fill_served_load_still_trips_the_watchdog() {
        // Arrivals slow enough that predictive fill keeps the buffer
        // full and every request is served from it — no demand
        // generation at all. Fill rounds deliver sub-64-bit chunks, and
        // the watchdog's bit accumulator must still assemble them into
        // test windows and quarantine the stuck channel (the regression
        // here: word-only sampling left fill-only operation unmonitored).
        let plan = FaultPlan::new().channel_derate(500, 0, 0, 1, 10_000_000);
        let cfg = SystemConfig::dr_strange(0)
            .with_watchdog(fast_watchdog())
            .with_fault_plan(plan)
            .with_service(ServiceConfig {
                clients: vec![ClientSpec::closed_loop(64, 30_000, 40)],
                ..ServiceConfig::default()
            });
        let res = assert_service_modes_identical(cfg, "watchdog-fill-only");
        assert_eq!(
            res.stats.demand_generations, 0,
            "the scenario must be served from the buffer alone: {:?}",
            res.stats
        );
        assert!(res.stats.rng_served_from_buffer > 0, "{:?}", res.stats);
        assert!(
            res.stats.quarantines >= 1,
            "fill-chunk sampling must still catch the stuck channel: {:?}",
            res.stats
        );
    }

    #[test]
    fn recovered_channel_is_probed_back_to_health() {
        // The derate ends mid-run: probes start passing once the bias
        // lifts, and the configured pass streak re-admits the channel.
        let plan = FaultPlan::new().channel_derate(500, 0, 0, 1, 60_000);
        let cfg = SystemConfig::dr_strange(0)
            .with_watchdog(fast_watchdog())
            .with_fault_plan(plan)
            .with_service(contended_qos_service(64, 60));
        let res = assert_service_modes_identical(cfg, "watchdog-readmit");
        assert!(res.stats.quarantines >= 1, "tripped: {:?}", res.stats);
        assert!(
            res.stats.readmissions >= 1,
            "the recovered channel must be re-admitted: {:?}",
            res.stats
        );
    }

    #[test]
    fn disabled_watchdog_serves_biased_words_silently() {
        // The counterfactual: the same stuck channel with the watchdog
        // off. Nothing is sampled, nothing trips — the silent failure
        // the watchdog exists to catch — and the value-only fault still
        // replays bit for bit.
        let plan = FaultPlan::new().channel_derate(500, 0, 0, 1, 10_000_000);
        let cfg = SystemConfig::dr_strange(0)
            .with_fault_plan(plan)
            .with_service(contended_qos_service(64, 40));
        let res = assert_service_modes_identical(cfg, "watchdog-off");
        assert_eq!(res.stats.windows_tested, 0);
        assert_eq!(res.stats.quarantines, 0);
        assert_eq!(res.stats.tainted_words_discarded, 0);
    }

    #[test]
    fn healthy_channels_pass_windows_without_exclusion() {
        // No fault: windows are tested continuously but the D-RaNGe
        // stream passes them, so no channel is ever excluded.
        let cfg = SystemConfig::dr_strange(0)
            .with_watchdog(fast_watchdog())
            .with_service(contended_qos_service(64, 40));
        let res = assert_service_modes_identical(cfg, "watchdog-healthy");
        assert!(res.stats.windows_tested > 0);
        assert_eq!(res.stats.quarantines, 0, "healthy entropy never trips");
        assert_eq!(res.stats.probe_rounds, 0);
    }

    #[test]
    fn watchdog_under_trace_cores_is_bit_identical() {
        // Trace cores + single-word buffer force the demand path while
        // the watchdog samples and quarantines: the worst case for the
        // next-event contract (probe deadlines interleaved with demand
        // episodes) must still replay bit for bit.
        let wl = &eval_pairs(5120)[10];
        let plan = FaultPlan::new().channel_derate(500, 0, 0, 1, 10_000_000);
        // Trace runs draw far fewer words than service runs (this one
        // serves 16 requests): shrink the window so the sampler still
        // reaches boundaries.
        let wd = WatchdogConfig {
            window_words: 2,
            trip_failures: 1,
            probe_words: 8,
            ..fast_watchdog()
        };
        let cfg = base(SystemConfig::dr_strange(2))
            .with_buffer_entries(1)
            .with_watchdog(wd)
            .with_fault_plan(plan);
        let res = assert_modes_identical(cfg, wl, "watchdog-traces");
        assert!(res.stats.windows_tested > 0, "{:?}", res.stats);
    }
}

mod satellites {
    use super::*;

    /// Runs the shared contended scenario under `policy`.
    fn contended(policy: FairnessPolicy, requests: u64) -> RunResult {
        let cfg = SystemConfig::dr_strange(0)
            .with_fairness(policy)
            .with_service(contended_qos_service(64, requests));
        System::new(cfg, Vec::new(), Box::new(DRange::new(17)))
            .expect("valid configuration")
            .run()
    }

    #[test]
    fn adaptive_aging_is_bit_identical_across_modes() {
        // The adaptive quantum is derived from the engine's running
        // episode-cost estimate, which mutates only at live decision
        // cycles — so fast forward replays the same promotions.
        let wl = &eval_pairs(5120)[10];
        let cfg = base(SystemConfig::dr_strange(2))
            .with_fairness(FairnessPolicy::adaptive_aging())
            .with_service(contended_qos_service(64, 30));
        assert_modes_identical(cfg, wl, "adaptive-aging");
    }

    #[test]
    fn adaptive_aging_bounds_the_low_tenant_like_static_aging() {
        // The adaptive quantum must deliver the static policy's headline
        // numbers with zero tuning: Low-tenant p99 at least 5x below
        // Strict, High-tenant p99 within 2x of Strict.
        let strict = contended(FairnessPolicy::Strict, 50);
        let adaptive = contended(FairnessPolicy::adaptive_aging(), 50);
        let (strict_low, strict_high) =
            (tenant_pct(&strict, 3, 0.99), tenant_pct(&strict, 0, 0.99));
        let (ada_low, ada_high) =
            (tenant_pct(&adaptive, 3, 0.99), tenant_pct(&adaptive, 0, 0.99));
        assert!(
            ada_low * 5 <= strict_low,
            "adaptive aging must cut the Low p99 >= 5x: {ada_low} vs {strict_low}"
        );
        assert!(
            ada_high <= 2 * strict_high,
            "adaptive aging may cost the High tenant at most 2x: {ada_high} vs {strict_high}"
        );
        // And it stays flat as the horizon doubles (bounded starvation).
        let long = contended(FairnessPolicy::adaptive_aging(), 100);
        let (s, l) = (tenant_pct(&adaptive, 3, 0.99), tenant_pct(&long, 3, 0.99));
        assert!(
            l * 2 <= 3 * s,
            "doubled run must not inflate the adaptive Low p99 ({s} -> {l})"
        );
    }

    #[test]
    fn wfq_episode_cap_defers_slow_drain_batches() {
        // Slow-drain tenants (huge word counts per request) monopolize
        // generation episodes; the per-episode batch cap re-queues their
        // excess so other tenants' words ride the same episode.
        let cfg = SystemConfig::dr_strange(0)
            .with_fairness(FairnessPolicy::weighted_fair())
            .with_service(slow_drain_service(3, 48, 2_000, 12));
        let res = assert_service_modes_identical(cfg, "slow-drain-wfq");
        assert!(
            res.stats.demand_batch_deferrals > 0,
            "48-word requests must exceed the per-episode cap: {:?}",
            res.stats
        );
        let svc = res.service.as_ref().expect("service stats");
        assert_eq!(svc.requests_completed, 3 * 12, "deferred words still serve");
    }

    #[test]
    fn episode_cap_only_engages_under_weighted_fair() {
        // Strict has no per-tenant share to enforce: the same slow-drain
        // population must not record deferrals.
        let cfg = SystemConfig::dr_strange(0)
            .with_service(slow_drain_service(3, 48, 2_000, 12));
        let res = assert_service_modes_identical(cfg, "slow-drain-strict");
        assert_eq!(res.stats.demand_batch_deferrals, 0);
    }
}
