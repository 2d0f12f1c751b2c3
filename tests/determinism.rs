//! Full-stack determinism: identical configurations and seeds must yield
//! bit-identical results, which the experiment harness relies on (alone
//! baselines are cached and reused across figures) — and the event-driven
//! fast-forward engine must be bit-identical to the per-cycle reference
//! across every design point.

use dr_strange::core::{RunResult, SchedulerKind, SimMode, System, SystemConfig};
use dr_strange::energy::{system_energy, Ddr3PowerParams};
use dr_strange::trng::{DRange, QuacTrng};
use dr_strange::workloads::{eval_pairs, Workload};

fn run_workload(wl: &Workload, seed: u64) -> RunResult {
    let cfg = SystemConfig::dr_strange(wl.cores()).with_instruction_target(30_000);
    System::new(cfg, wl.traces(), Box::new(DRange::new(seed)))
        .expect("valid configuration")
        .run()
}

#[test]
fn identical_runs_are_bit_identical() {
    let wl = &eval_pairs(5120)[10];
    let a = run_workload(wl, 7);
    let b = run_workload(wl, 7);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
    assert_eq!(a.stats.rng_requests, b.stats.rng_requests);
    assert_eq!(a.stats.fill_batches, b.stats.fill_batches);
    assert_eq!(a.stats.buffer_serve.hits(), b.stats.buffer_serve.hits());
    assert_eq!(a.stats.predictor, b.stats.predictor);
    for (ca, cb) in a.cores.iter().zip(&b.cores) {
        assert_eq!(ca.finish.map(|f| f.at_cycle), cb.finish.map(|f| f.at_cycle));
        assert_eq!(ca.end_stats, cb.end_stats);
    }
    for (ca, cb) in a.channels.iter().zip(&b.channels) {
        assert_eq!(ca.acts, cb.acts);
        assert_eq!(ca.reads, cb.reads);
        assert_eq!(ca.idle_periods, cb.idle_periods);
    }
    // Downstream energy is therefore identical too.
    let t = dr_strange::dram::TimingParams::ddr3_1600();
    let p = Ddr3PowerParams::default();
    assert_eq!(
        system_energy(&a.channels, &t, &p).total_nj(),
        system_energy(&b.channels, &t, &p).total_nj()
    );
}

#[test]
fn different_trng_seed_changes_values_not_timing() {
    // The entropy seed changes which bits are produced, but generation
    // timing is seed-independent, so performance results are unchanged.
    let wl = &eval_pairs(5120)[4];
    let a = run_workload(wl, 1);
    let b = run_workload(wl, 2);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
    assert_eq!(a.exec_cycles(0), b.exec_cycles(0));
    assert_eq!(a.exec_cycles(1), b.exec_cycles(1));
}

/// Mechanisms built from one seed share one profiled die (strange-trng
/// profiles a die once per process): a system must serve the same values
/// whether its die was just profiled or recalled, and whatever another
/// seed's system did in between.
#[test]
fn systems_over_a_shared_die_do_not_interact() {
    let wl = &eval_pairs(5120)[10];
    for mode in [SimMode::Reference, SimMode::FastForward] {
        let run = |seed: u64| {
            let cfg = SystemConfig::dr_strange(wl.cores())
                .with_instruction_target(30_000)
                .with_sim_mode(mode);
            let mut sys = System::new(cfg, wl.traces(), Box::new(DRange::new(seed)))
                .expect("valid configuration");
            sys.set_value_log(true);
            let res = sys.run();
            (format!("{res:?}"), sys.mem().value_log().to_vec())
        };
        let first = run(7);
        let other = run(8);
        let again = run(7);
        assert!(!first.1.is_empty(), "{mode:?}: the run served values");
        assert_eq!(first, again, "{mode:?}: same seed, same run");
        assert_ne!(first.1, other.1, "{mode:?}: another seed, other values");
    }
}

#[test]
fn mechanism_changes_timing_deterministically() {
    let wl = &eval_pairs(5120)[4];
    let cfg = || SystemConfig::dr_strange(2).with_instruction_target(30_000);
    let quac_a = System::new(cfg(), wl.traces(), Box::new(QuacTrng::new(1)))
        .expect("valid configuration")
        .run();
    let quac_b = System::new(cfg(), wl.traces(), Box::new(QuacTrng::new(1)))
        .expect("valid configuration")
        .run();
    assert_eq!(quac_a.cpu_cycles, quac_b.cpu_cycles);
    // And QUAC differs from D-RaNGe (different round shapes).
    let drange = run_workload(wl, 1);
    assert_ne!(quac_a.stats.fill_batches, drange.stats.fill_batches);
}

#[test]
fn workload_traces_are_reproducible() {
    let wl = &eval_pairs(5120)[0];
    let mut t1 = wl.traces();
    let mut t2 = wl.traces();
    for (a, b) in t1.iter_mut().zip(t2.iter_mut()) {
        for _ in 0..500 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}

/// Fast-forward vs. per-cycle reference: the two simulation modes must be
/// bit-identical in every observable output, for every design point.
mod fastforward {
    use super::*;

    /// Runs `cfg` in both modes on `wl` and asserts bit-identical results,
    /// including the served random values. Returns the fraction of CPU
    /// cycles the fast mode skipped, so callers can assert the comparison
    /// was not vacuous (a fast path degenerating to per-cycle stepping
    /// would trivially match the reference).
    fn assert_modes_identical(cfg: SystemConfig, wl: &Workload, label: &str) -> f64 {
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
        assert_eq!(fast.mem_cycles, reference.mem_cycles, "{label}: mem cycles");
        assert_eq!(
            fast.hit_cycle_limit, reference.hit_cycle_limit,
            "{label}: cycle limit"
        );
        assert_eq!(fast.stats, reference.stats, "{label}: engine stats");
        assert_eq!(fast.channels, reference.channels, "{label}: channel stats");
        assert_eq!(fast.cores.len(), reference.cores.len());
        for (i, (f, r)) in fast.cores.iter().zip(&reference.cores).enumerate() {
            assert_eq!(
                f.finish.map(|s| (s.at_cycle, s.stats)),
                r.finish.map(|s| (s.at_cycle, s.stats)),
                "{label}: core {i} finish snapshot"
            );
            assert_eq!(f.end_stats, r.end_stats, "{label}: core {i} end stats");
        }
        assert_eq!(fast_values, ref_values, "{label}: served random values");
        assert_eq!(
            fast.service, reference.service,
            "{label}: service stats (incl. latency log)"
        );
        fast_skipped as f64 / fast.cpu_cycles as f64
    }

    fn base(cfg: SystemConfig) -> SystemConfig {
        cfg.with_instruction_target(25_000)
    }

    #[test]
    fn oblivious_baseline_frfcfs_cap() {
        let wl = &eval_pairs(5120)[10];
        assert_modes_identical(base(SystemConfig::rng_oblivious(2)), wl, "oblivious");
    }

    #[test]
    fn oblivious_pure_frfcfs() {
        let wl = &eval_pairs(5120)[4];
        let cfg = base(SystemConfig::rng_oblivious(2)).with_scheduler(SchedulerKind::FrFcfs);
        assert_modes_identical(cfg, wl, "frfcfs");
    }

    #[test]
    fn oblivious_bliss() {
        let wl = &eval_pairs(5120)[7];
        let cfg = base(SystemConfig::rng_oblivious(2)).with_scheduler(SchedulerKind::Bliss);
        assert_modes_identical(cfg, wl, "bliss");
    }

    #[test]
    fn dr_strange_predictive_simple() {
        let wl = &eval_pairs(5120)[10];
        assert_modes_identical(base(SystemConfig::dr_strange(2)), wl, "dr-strange");
    }

    #[test]
    fn dr_strange_bliss_scheduler() {
        let wl = &eval_pairs(5120)[13];
        let cfg = base(SystemConfig::dr_strange(2)).with_scheduler(SchedulerKind::Bliss);
        assert_modes_identical(cfg, wl, "dr-strange+bliss");
    }

    #[test]
    fn dr_strange_qlearning_predictor() {
        let wl = &eval_pairs(5120)[2];
        assert_modes_identical(base(SystemConfig::dr_strange_rl(2)), wl, "dr-strange+rl");
    }

    #[test]
    fn dr_strange_no_predictor() {
        let wl = &eval_pairs(5120)[5];
        assert_modes_identical(
            base(SystemConfig::dr_strange_no_predictor(2)),
            wl,
            "no-pred",
        );
    }

    #[test]
    fn greedy_oracle_fill() {
        let wl = &eval_pairs(5120)[10];
        assert_modes_identical(base(SystemConfig::greedy_idle(2)), wl, "greedy");
    }

    #[test]
    fn priorities_and_starvation_path() {
        let wl = &eval_pairs(5120)[10];
        let cfg = base(SystemConfig::dr_strange(2))
            .with_buffer_entries(1)
            .with_priorities(vec![2, 1]);
        assert_modes_identical(cfg, wl, "priorities");
    }

    #[test]
    fn burst_events_under_stability_coalescing() {
        // A one-entry buffer forces frequent demand generation, so each
        // coalesced batch completes as one k-entry burst event. Fast
        // forward must honor the burst's due cycle exactly, with the
        // feature on (one event per batch) and off (one event per
        // request, the legacy granularity).
        let wl = &eval_pairs(5120)[7];
        for (burst, label) in [(true, "burst-stability-on"), (false, "burst-stability-off")] {
            let cfg = base(SystemConfig::dr_strange(2))
                .with_buffer_entries(1)
                .with_burst_events(burst);
            assert_modes_identical(cfg, wl, label);
        }
    }

    #[test]
    fn dirty_readiness_off_is_bit_identical() {
        // Dirty-tracked readiness is a pure memoization of the per-entry
        // timing scan: disabling it (alone, or together with burst
        // events) must not change a single statistic.
        let wl = &eval_pairs(5120)[0];
        let run = |dirty: bool, burst: bool| {
            let cfg = base(SystemConfig::dr_strange(2))
                .with_dirty_readiness(dirty)
                .with_burst_events(burst);
            System::new(cfg, wl.traces(), Box::new(DRange::new(3)))
                .expect("valid configuration")
                .run()
        };
        let on = run(true, true);
        for (dirty, burst) in [(false, true), (true, false), (false, false)] {
            let off = run(dirty, burst);
            let label = format!("dirty={dirty} burst={burst}");
            assert_eq!(on.cpu_cycles, off.cpu_cycles, "{label}: cpu cycles");
            assert_eq!(on.stats, off.stats, "{label}: engine stats");
            assert_eq!(on.channels, off.channels, "{label}: channel stats");
            for (a, b) in on.cores.iter().zip(&off.cores) {
                assert_eq!(
                    a.finish.map(|s| (s.at_cycle, s.stats)),
                    b.finish.map(|s| (s.at_cycle, s.stats)),
                    "{label}: finish snapshots"
                );
                assert_eq!(a.end_stats, b.end_stats, "{label}: end stats");
            }
        }
    }

    #[test]
    fn four_core_mixed_workload() {
        let wl = &dr_strange::workloads::four_core_groups(1, 7)[0].1[0];
        assert_modes_identical(base(SystemConfig::dr_strange(4)), wl, "four-core");
    }

    #[test]
    fn idle_dominated_low_utilization_pair() {
        // The fig05/fig15 regime where skipping dominates (the benchmark's
        // ≥3x speedup case): low-intensity app + 640 Mb/s RNG benchmark.
        // Here the vast majority of cycles must actually be skipped.
        let app = dr_strange::workloads::app_by_name("povray").expect("catalog");
        let wl = Workload::pair(&app, 640);
        for (cfg, label) in [
            (SystemConfig::dr_strange(2), "idle-dominated"),
            (SystemConfig::rng_oblivious(2), "idle-oblivious"),
            (SystemConfig::greedy_idle(2), "idle-greedy"),
        ] {
            let skipped = assert_modes_identical(base(cfg), &wl, label);
            assert!(
                skipped > 0.5,
                "{label}: skipped fraction {skipped:.2} too low for an idle-dominated run"
            );
        }
    }

    /// Service layer active: every arrival process must stay bit-identical
    /// across simulation modes (arrivals are CPU-cycle events the
    /// fast-forward next-event contract now has to honor).
    mod service {
        use super::*;
        use dr_strange::core::{ServiceConfig, SystemConfig};
        use dr_strange::workloads::{
            bursty_service, closed_loop_service, poisson_service,
        };

        fn with_requests(mut cfg: ServiceConfig, log: bool) -> ServiceConfig {
            cfg.capture_values = log;
            cfg
        }

        #[test]
        fn closed_loop_clients_with_trace_cores() {
            let wl = &eval_pairs(5120)[10];
            let cfg = base(SystemConfig::dr_strange(2))
                .with_service(with_requests(closed_loop_service(3, 32, 400, 60), true));
            assert_modes_identical(cfg, wl, "svc-closed-loop");
        }

        #[test]
        fn poisson_clients_with_trace_cores() {
            let wl = &eval_pairs(5120)[4];
            let cfg = base(SystemConfig::dr_strange(2))
                .with_service(with_requests(poisson_service(4, 16, 2048, 80, 11), true));
            assert_modes_identical(cfg, wl, "svc-poisson");
        }

        #[test]
        fn bursty_clients_with_oblivious_baseline() {
            // Service requests ride the read queues under Oblivious
            // routing; bursts exercise the demand-batching path.
            let wl = &eval_pairs(5120)[7];
            let cfg = base(SystemConfig::rng_oblivious(2))
                .with_service(with_requests(bursty_service(2, 24, 8, 9000, 64), true));
            assert_modes_identical(cfg, wl, "svc-bursty-oblivious");
        }

        #[test]
        fn pure_service_system_without_cores() {
            // Zero trace cores: the run is driven entirely by client
            // arrivals and ends when the service targets are met.
            let cfg = SystemConfig::dr_strange(0)
                .with_service(with_requests(poisson_service(4, 32, 1024, 120, 3), true));
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
            assert_eq!(ref_skipped, 0);
            assert!(fast_skipped > 0, "pure-service run must fast-forward");
            assert!(!fast.hit_cycle_limit, "targets must be met");
            assert_eq!(fast.cpu_cycles, reference.cpu_cycles);
            assert_eq!(fast.stats, reference.stats);
            assert_eq!(fast.channels, reference.channels);
            assert_eq!(fast.service, reference.service);
            let svc = fast.service.expect("service stats");
            assert_eq!(svc.requests_completed, 4 * 120);
            assert_eq!(svc.latency_log.len(), 4 * 120);
        }

        #[test]
        fn trace_replay_clients_with_trace_cores() {
            // TraceReplay arrivals are absolute-cycle events: the
            // fast-forward next-event contract must honor them exactly
            // like the generated processes. The schedule mixes bursts
            // (duplicate cycles) with long gaps so both the live path and
            // dead-span skipping cross arrivals.
            let wl = &eval_pairs(5120)[10];
            let schedules: Vec<Vec<u64>> = (0..3)
                .map(|c| {
                    (0..40)
                        .map(|i| (i / 2) * 7_000 + c * 911)
                        .collect()
                })
                .collect();
            let clients = schedules
                .into_iter()
                .map(|s| dr_strange::core::ClientSpec::trace_replay(24, s))
                .collect();
            let cfg = base(SystemConfig::dr_strange(2)).with_service(ServiceConfig {
                clients,
                capture_values: true,
                ..ServiceConfig::default()
            });
            assert_modes_identical(cfg, wl, "svc-trace-replay");
        }

        #[test]
        fn aging_policy_is_bit_identical_across_modes() {
            // Priority aging is a closed-form function of (now, arrival),
            // so it must not perturb the next-event contract even under a
            // mixed-QoS overload.
            use dr_strange::core::FairnessPolicy;
            use dr_strange::workloads::assign_qos;
            let wl = &eval_pairs(5120)[10];
            let service = assign_qos(
                poisson_service(4, 32, 2560, 60, 13),
                &[
                    dr_strange::core::QosClass::High,
                    dr_strange::core::QosClass::Normal,
                    dr_strange::core::QosClass::Normal,
                    dr_strange::core::QosClass::Low,
                ],
            );
            let cfg = base(SystemConfig::dr_strange(2))
                .with_fairness(FairnessPolicy::aging())
                .with_service(with_requests(service, true));
            assert_modes_identical(cfg, wl, "svc-aging");
        }

        #[test]
        fn weighted_fair_policy_is_bit_identical_across_modes() {
            // DRR deficits mutate only at live decision cycles; fast
            // forward must replay the exact same schedule.
            use dr_strange::core::FairnessPolicy;
            use dr_strange::workloads::contended_qos_service;
            let wl = &eval_pairs(5120)[4];
            let cfg = base(SystemConfig::dr_strange(2))
                .with_fairness(FairnessPolicy::weighted_fair())
                .with_service(with_requests(contended_qos_service(64, 30), true));
            assert_modes_identical(cfg, wl, "svc-wfq");
        }

        #[test]
        fn k_or_timeout_coalescing_is_bit_identical_across_modes() {
            // The widened arbitration window holds the RNG queue for a
            // k-deep burst or a timeout; both checks run on live cycles
            // the fast-forward path never skips.
            use dr_strange::core::CoalesceWindow;
            let wl = &eval_pairs(5120)[7];
            let cfg = base(SystemConfig::dr_strange(2))
                .with_buffer_entries(1)
                .with_coalesce_window(CoalesceWindow::KOrTimeout { k: 6, timeout: 300 })
                .with_service(with_requests(bursty_service(2, 24, 8, 9000, 48), true));
            assert_modes_identical(cfg, wl, "svc-k-or-timeout");
        }

        #[test]
        fn burst_events_under_k_or_timeout_coalescing() {
            // The widened window batches k-deep RNG bursts whose
            // completions all land on one due cycle — the burst-as-one-
            // event path at its densest. Bit-identity must hold with the
            // feature on and off.
            use dr_strange::core::CoalesceWindow;
            let wl = &eval_pairs(5120)[7];
            for (burst, label) in [(true, "burst-kot-on"), (false, "burst-kot-off")] {
                let cfg = base(SystemConfig::dr_strange(2))
                    .with_buffer_entries(1)
                    .with_coalesce_window(CoalesceWindow::KOrTimeout { k: 6, timeout: 300 })
                    .with_burst_events(burst)
                    .with_service(with_requests(bursty_service(2, 24, 8, 9000, 48), true));
                assert_modes_identical(cfg, wl, label);
            }
        }

        #[test]
        fn service_with_probe_cache_off_is_bit_identical() {
            // The engine fill-probe memoization must be a pure
            // memoization under service traffic too.
            let cfg = base(SystemConfig::dr_strange(2))
                .with_service(with_requests(closed_loop_service(2, 32, 300, 50), true));
            let wl = &eval_pairs(5120)[0];
            let run = |probe_cache: bool| {
                let cfg = cfg.clone().with_probe_cache(probe_cache);
                System::new(cfg, wl.traces(), Box::new(DRange::new(3)))
                    .expect("valid configuration")
                    .run()
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(on.cpu_cycles, off.cpu_cycles);
            assert_eq!(on.stats, off.stats);
            assert_eq!(on.channels, off.channels);
            assert_eq!(on.service, off.service);
        }
    }

    #[test]
    fn probe_cache_off_is_bit_identical() {
        // The O(1) next-event probe cache is a pure memoization: disabling
        // it must not change a single statistic, on a busy workload (many
        // invalidations) and on an idle-dominated one (long-lived entries).
        let busy = &eval_pairs(5120)[0];
        let idle = Workload::pair(
            &dr_strange::workloads::app_by_name("povray").expect("catalog"),
            640,
        );
        for (wl, label) in [(busy, "busy"), (&idle, "idle")] {
            let run = |probe_cache: bool| {
                let cfg = base(SystemConfig::dr_strange(2)).with_probe_cache(probe_cache);
                System::new(cfg, wl.traces(), Box::new(DRange::new(3)))
                    .expect("valid configuration")
                    .run()
            };
            let on = run(true);
            let off = run(false);
            assert_eq!(on.cpu_cycles, off.cpu_cycles, "{label}: cpu cycles");
            assert_eq!(on.stats, off.stats, "{label}: engine stats");
            assert_eq!(on.channels, off.channels, "{label}: channel stats");
            for (a, b) in on.cores.iter().zip(&off.cores) {
                assert_eq!(
                    a.finish.map(|s| (s.at_cycle, s.stats)),
                    b.finish.map(|s| (s.at_cycle, s.stats)),
                    "{label}: finish snapshots"
                );
                assert_eq!(a.end_stats, b.end_stats, "{label}: end stats");
            }
        }
    }
}
