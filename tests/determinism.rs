//! Full-stack determinism: identical configurations and seeds must yield
//! bit-identical results, which the experiment harness relies on (alone
//! baselines are cached and reused across figures) — and the event-driven
//! fast-forward engine must be bit-identical to the per-cycle reference
//! across every design point.

use dr_strange::core::{RunResult, SchedulerKind, SimMode, System, SystemConfig};
use dr_strange::energy::{system_energy, Ddr3PowerParams};
use dr_strange::trng::{DRange, QuacTrng};
use dr_strange::workloads::{
    apps_in_class, eval_pairs, multicore_class_groups, IntensityClass, Workload,
};

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
        // forward must honor the burst's due cycle exactly.
        let wl = &eval_pairs(5120)[7];
        let cfg = base(SystemConfig::dr_strange(2)).with_buffer_entries(1);
        assert_modes_identical(cfg, wl, "burst-stability");
    }

    #[test]
    fn four_core_mixed_workload() {
        let wl = &dr_strange::workloads::four_core_groups(1, 7)[0].1[0];
        assert_modes_identical(base(SystemConfig::dr_strange(4)), wl, "four-core");
    }

    #[test]
    fn eight_core_high_intensity_mix_skips_between_memory_calls() {
        // Seven H-class applications plus the RNG benchmark keep loads in
        // flight on every core on almost every cycle. A core with a load
        // in flight is live only on the cycles it calls into memory: 79 %
        // of this run is skippable, 42 % if such a core is ticked on every
        // cycle it pushes bubbles into its window.
        let wl = &multicore_class_groups(8, 1, 7)[2].1[0];
        assert!(wl.name.starts_with('H'), "{}", wl.name);
        assert_modes_identical(base(SystemConfig::rng_oblivious(8)), wl, "h8-oblivious");
        let skipped = assert_modes_identical(base(SystemConfig::dr_strange(8)), wl, "h8");
        assert!(
            skipped >= 0.70,
            "h8: skipped fraction {skipped:.2}: cores are being polled again"
        );
    }

    #[test]
    fn two_core_high_intensity_pair() {
        let app = apps_in_class(IntensityClass::High)[0];
        let wl = Workload::pair(&app, 5120);
        for (cfg, label) in [
            (SystemConfig::dr_strange(2), "h2"),
            (SystemConfig::rng_oblivious(2), "h2-oblivious"),
        ] {
            assert_modes_identical(base(cfg), &wl, label);
        }
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
        use dr_strange::trng::TrngMechanism;
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
            // event path at its densest (twice the window of
            // `k_or_timeout_coalescing_is_bit_identical_across_modes`).
            use dr_strange::core::CoalesceWindow;
            let wl = &eval_pairs(5120)[7];
            let cfg = base(SystemConfig::dr_strange(2))
                .with_buffer_entries(1)
                .with_coalesce_window(CoalesceWindow::KOrTimeout { k: 12, timeout: 600 })
                .with_service(with_requests(bursty_service(2, 24, 8, 9000, 48), true));
            assert_modes_identical(cfg, wl, "burst-kot");
        }

        /// A coreless service run in `mode`: the result, the served
        /// values, and the system for its tick counters.
        fn run_coreless(
            cfg: &SystemConfig,
            mechanism: &dyn Fn() -> Box<dyn TrngMechanism>,
            mode: SimMode,
        ) -> (RunResult, Vec<u64>, System) {
            let mut sys = System::new(cfg.clone().with_sim_mode(mode), Vec::new(), mechanism())
                .expect("valid configuration");
            sys.set_value_log(true);
            let res = sys.run();
            let values = sys.mem().value_log().to_vec();
            (res, values, sys)
        }

        /// Both modes on a back-pressured coreless run: bit-identical in
        /// the full result rendering (every statistic incl. the latency
        /// log and `issue_blocked_cycles`), the run really was blocked,
        /// and fast-forward really skipped.
        fn assert_saturated_modes_identical(
            cfg: SystemConfig,
            mechanism: &dyn Fn() -> Box<dyn TrngMechanism>,
            label: &str,
        ) -> (RunResult, System) {
            let (reference, ref_values, ref_sys) = run_coreless(&cfg, mechanism, SimMode::Reference);
            let (fast, fast_values, fast_sys) = run_coreless(&cfg, mechanism, SimMode::FastForward);
            assert_eq!(ref_sys.skipped_cycles(), 0, "{label}: reference must not skip");
            assert!(fast_sys.skipped_cycles() > 0, "{label}: fast-forward must skip");
            assert!(!fast.hit_cycle_limit, "{label}: targets must be met");
            let blocked = |r: &RunResult| r.service.as_ref().expect("service stats").issue_blocked_cycles;
            assert!(blocked(&fast) > 0, "{label}: run was never back-pressured");
            assert_eq!(
                blocked(&fast),
                blocked(&reference),
                "{label}: skipped blocked cycles must still be counted"
            );
            assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{label}: full run result");
            assert_eq!(fast_values, ref_values, "{label}: served random values");
            (fast, fast_sys)
        }

        fn drange() -> Box<dyn TrngMechanism> {
            Box::new(DRange::new(3))
        }

        /// Enough closed-loop 256-byte aggressors to hold more words than
        /// either design can queue (Aware: the 32-entry RNG queue;
        /// Oblivious: 4 x 32 read-queue slots), a bursty Normal tenant so
        /// arrivals land inside blocked spans, and a Low tenant.
        fn queue_filling_service(requests: u64) -> ServiceConfig {
            use dr_strange::core::{ClientSpec, QosClass};
            let mut clients: Vec<ClientSpec> = (0..6)
                .map(|_| ClientSpec::closed_loop(256, 200, requests).with_qos(QosClass::High))
                .collect();
            clients.push(ClientSpec::bursty(64, 3, 7_001, 2 * requests).with_qos(QosClass::Normal));
            clients.push(ClientSpec::closed_loop(64, 2_000, requests).with_qos(QosClass::Low));
            ServiceConfig {
                clients,
                capture_values: true,
                ..ServiceConfig::default()
            }
        }

        #[test]
        fn saturated_modes_identical_across_policy_routing_and_window() {
            // Back-pressure is skipped, not ticked: every fairness policy
            // (the issue order under rejection), both routings (what a
            // rejection waits on) and both coalescing windows (when the
            // queue drains) must account the skipped blocked cycles
            // exactly as the per-cycle reference does.
            use dr_strange::core::{CoalesceWindow, FairnessPolicy, RngRouting};
            let policies = [
                FairnessPolicy::Strict,
                FairnessPolicy::aging(),
                FairnessPolicy::adaptive_aging(),
                FairnessPolicy::weighted_fair(),
            ];
            let windows = [
                CoalesceWindow::Stability,
                CoalesceWindow::KOrTimeout { k: 6, timeout: 300 },
            ];
            for policy in policies {
                for routing in [RngRouting::Aware, RngRouting::Oblivious] {
                    for window in windows {
                        let base = match routing {
                            RngRouting::Aware => SystemConfig::dr_strange(0),
                            RngRouting::Oblivious => SystemConfig::rng_oblivious(0),
                        };
                        let cfg = base
                            .with_fairness(policy)
                            .with_coalesce_window(window)
                            .with_service(queue_filling_service(3));
                        let label = format!("saturated {policy:?}/{routing:?}/{window:?}");
                        assert_saturated_modes_identical(cfg, &drange, &label);
                    }
                }
            }
        }

        #[test]
        fn saturated_quac_surplus_lands_in_buffer_while_requests_queue() {
            // The one state in which the engine must keep ticking live
            // during an episode: RNG queue non-empty, episode in flight
            // *and* buffered words to serve it from. WFQ with quantum 1
            // caps a Low tenant at one word per episode, so client 0's 32
            // words fill the queue, the first episode takes one and defers
            // 31, and its QUAC-TRNG round (1024 bits for 64 demanded)
            // leaves 15 surplus words in the buffer. The back-pressured
            // client 1 takes 8 of them on the fast path that cycle; the
            // rest must go to queued requests on the very next memory
            // tick, not at the end of the episode.
            use dr_strange::core::{ClientSpec, FairnessPolicy, QosClass};
            let low = |bytes| ClientSpec::trace_replay(bytes, vec![0]).with_qos(QosClass::Low);
            let cfg = SystemConfig::dr_strange(0)
                .with_buffer_entries(16)
                .with_prefill_buffer(false)
                .with_fairness(FairnessPolicy::WeightedFair { quantum: 1 })
                .with_service(ServiceConfig {
                    clients: vec![low(256), low(64)],
                    capture_values: true,
                    ..ServiceConfig::default()
                });
            let quac = || -> Box<dyn TrngMechanism> { Box::new(QuacTrng::new(3)) };
            let (fast, _) = assert_saturated_modes_identical(cfg, &quac, "saturated quac");
            assert!(fast.stats.demand_batch_deferrals > 0, "requests stayed queued");
            assert!(
                fast.stats.rng_served_from_buffer > 8,
                "surplus words reached queued requests, not only the fast path"
            );
        }

        #[test]
        fn saturated_live_ticks_scale_with_events_not_cycles() {
            // The structural gate on the back-pressure contract: a
            // saturated run's live ticks are O(requests + words), not
            // O(cycles). A per-cycle retry pin (service or engine side)
            // fails both bounds by an order of magnitude.
            use dr_strange::workloads::contended_qos_service;
            let cfg = SystemConfig::dr_strange(0)
                .with_fairness(dr_strange::core::FairnessPolicy::aging())
                .with_service(contended_qos_service(64, 12));
            let (fast, sys) = assert_saturated_modes_identical(cfg, &drange, "saturated gate");
            let svc = fast.service.as_ref().expect("service stats");
            let events = svc.requests_offered + svc.words_issued;
            assert!(
                sys.live_ticks() <= 8 * events,
                "{} live ticks for {events} events",
                sys.live_ticks()
            );
            assert!(
                sys.skipped_cycles() * 10 >= fast.cpu_cycles * 9,
                "skipped {} of {} cycles",
                sys.skipped_cycles(),
                fast.cpu_cycles
            );
        }

        #[test]
        fn quarantine_live_ticks_scale_with_events_not_its_length() {
            // The same gate for a channel in quarantine. Saturating demand
            // episodes blockade every channel past its refresh deadlines;
            // the excluded channel drops out of the episodes, is unblocked,
            // and pays the refreshes it owes back to back. Each REF waits
            // tRFC for the one before it: a dead span, not a per-cycle pin
            // for as long as the debt lasts (40 refreshes x 208 cycles
            // here; the benchmark's 22 M-cycle `svc_saturated` round paid
            // 27 000 live ticks a quarantine).
            use dr_strange::core::{FairnessPolicy, FaultPlan, WatchdogConfig};
            use dr_strange::workloads::contended_qos_service;
            let healthy = SystemConfig::dr_strange(0)
                .with_fairness(FairnessPolicy::aging())
                .with_watchdog(WatchdogConfig::standard())
                .with_service(contended_qos_service(64, 20));
            let stuck = FaultPlan::new().channel_derate(250_000, 0, 0, 1, 10_000_000);
            let cfg = healthy.clone().with_fault_plan(stuck);
            let (fast, sys) = assert_saturated_modes_identical(cfg, &drange, "quarantine gate");
            assert!(fast.stats.quarantines >= 1, "{:?}", fast.stats);
            assert!(fast.stats.probe_rounds >= 2, "{:?}", fast.stats);
            let refreshes: u64 = fast.channels.iter().map(|c| c.refreshes).sum();
            assert!(refreshes >= 40, "the excluded channel caught up: {refreshes}");
            // What the quarantine may add to the healthy run's live ticks:
            // a few per refresh and per probe round.
            let (_, _, healthy_sys) = run_coreless(&healthy, &drange, SimMode::FastForward);
            let allowed = healthy_sys.live_ticks() + 8 * (refreshes + fast.stats.probe_rounds);
            assert!(
                sys.live_ticks() <= allowed,
                "{} live ticks, {} without the quarantine, {refreshes} refreshes",
                sys.live_ticks(),
                healthy_sys.live_ticks()
            );
        }

        #[test]
        fn external_mutation_while_blocked_is_bit_identical_across_modes() {
            // Manual WFQ sessions driven from outside the run loop:
            // submits, a session open and a session close all land while
            // the service is back-pressured, at cycles that are not memory
            // ticks. Each touches the issue candidates outside `tick`, so
            // the service drops its blocked-span claim and the next cycle
            // runs live; the skipped spans on either side must still add
            // up to the reference's schedule and blocked-cycle count.
            use dr_strange::core::{ClientSpec, FairnessPolicy, QosClass};
            let run = |mode: SimMode| {
                let cfg = SystemConfig::dr_strange(0)
                    .with_fairness(FairnessPolicy::weighted_fair())
                    .with_prefill_buffer(false)
                    .with_service(ServiceConfig {
                        sessions: true,
                        ..ServiceConfig::default()
                    })
                    .with_sim_mode(mode);
                let mut sys =
                    System::new(cfg, Vec::new(), drange()).expect("valid configuration");
                let blocked = |s: &System| s.service().expect("service").stats().issue_blocked_cycles;
                let high = sys.open_session(ClientSpec::manual(256).with_qos(QosClass::High));
                let low = sys.open_session(ClientSpec::manual(256).with_qos(QosClass::Low));
                let mut order = Vec::new();
                let drain = |sys: &mut System, order: &mut Vec<(usize, u64, u64)>| {
                    while let Some((session, seq, served)) = sys.take_service_completion() {
                        order.push((session, seq, served.latency_cycles));
                    }
                };
                // 3 x 32 words against a 32-entry queue: blocked at once.
                sys.service_submit(high, 256);
                sys.service_submit(high, 256);
                sys.service_submit(low, 256);
                sys.advance_until(700, |_| false);
                assert!(blocked(&sys) > 0, "{mode:?}: sessions must be back-pressured");
                // Mutations at cycles that are not memory ticks, mid-episode.
                sys.service_submit(low, 64);
                sys.advance_until(333, |_| false);
                let late = sys.open_session(ClientSpec::manual(128).with_qos(QosClass::Normal));
                sys.service_submit(late, 128);
                sys.advance_until(1_111, |_| false);
                drain(&mut sys, &mut order);
                let before_close = blocked(&sys);
                sys.close_session(low);
                sys.service_submit_at(high, 96, sys.cpu_cycles() - 40);
                sys.advance_until(2_000_000, |s| s.service().expect("service").in_flight() == 0);
                assert!(blocked(&sys) > before_close, "{mode:?}: still blocked after the close");
                drain(&mut sys, &mut order);
                assert_eq!(order.len(), 6, "{mode:?}: every request completed");
                let stats = sys.service().expect("service").stats().clone();
                (order, stats, sys.cpu_cycles(), sys.skipped_cycles())
            };
            let (ref_order, ref_stats, ref_cycles, ref_skipped) = run(SimMode::Reference);
            let (fast_order, fast_stats, fast_cycles, fast_skipped) = run(SimMode::FastForward);
            assert_eq!(ref_skipped, 0);
            assert!(fast_skipped > 0, "fast-forward must skip blocked spans");
            assert_eq!(fast_order, ref_order, "completion order and latencies");
            assert_eq!(fast_cycles, ref_cycles);
            assert_eq!(fast_stats, ref_stats, "latency log, blocked cycles and the rest");
        }

        #[test]
        fn probe_memo_under_closed_loop_service() {
            // The channel probe memo under service traffic; debug builds
            // check every memo hit against the fresh scan.
            let wl = &eval_pairs(5120)[0];
            let cfg = base(SystemConfig::dr_strange(2))
                .with_service(with_requests(closed_loop_service(2, 32, 300, 50), true));
            assert_modes_identical(cfg, wl, "svc-probe-memo");
        }
    }

    #[test]
    fn probe_memo_on_a_busy_pair() {
        // Many memo invalidations; debug builds check every memo hit
        // against the fresh scan. The idle-dominated counterpart (long-
        // lived entries) is `idle_dominated_low_utilization_pair`.
        let wl = &eval_pairs(5120)[0];
        assert_modes_identical(base(SystemConfig::dr_strange(2)), wl, "busy-probe-memo");
    }

    /// A DR-STRaNGe pair run in `mode`: the full result rendering, the
    /// served values, and the system for its tick counters.
    fn run_pair(app: &str, mode: SimMode) -> (String, Vec<u64>, System) {
        let wl = Workload::pair(&dr_strange::workloads::app_by_name(app).expect("catalog"), 5120);
        let cfg = base(SystemConfig::dr_strange(2)).with_sim_mode(mode);
        let mut sys =
            System::new(cfg, wl.traces(), Box::new(DRange::new(3))).expect("valid configuration");
        sys.set_value_log(true);
        let res = sys.run();
        (format!("{res:?}"), sys.mem().value_log().to_vec(), sys)
    }

    #[test]
    fn channels_tick_only_on_their_own_events() {
        // Under fast-forward a channel is ticked only when its cached
        // event is due. A fill or demand blockade that ends on an idle
        // channel leaves a due event with nothing to do: the channel is
        // re-derived, not ticked, and synced to the start of the next
        // skip so its later catch-up does not span the blockade edge.
        // These pairs are where getting either half wrong showed: ticking
        // every due channel adds live ticks, and a missing skip-start
        // sync moves channel stats. ycsb3 is also the busy pair
        // (`eval_pairs(5120)[0]`, 97 % of cycles skipped): its exact
        // live-tick count catches a core or channel polled again.
        for (app, live) in [("povray", 163), ("ycsb3", 393)] {
            let (reference, ref_values, ref_sys) = run_pair(app, SimMode::Reference);
            let (fast, fast_values, sys) = run_pair(app, SimMode::FastForward);
            assert_eq!(fast, reference, "{app}: full run result");
            assert_eq!(fast_values, ref_values, "{app}: served random values");
            assert_eq!(sys.live_ticks(), live, "{app}: live ticks");
            let channels = ref_sys.config().geometry.channels as u64;
            assert_eq!(ref_sys.channel_ticks(), channels * ref_sys.mem().live_ticks());
            // Not vacuous: most channels sit out most live memory ticks.
            assert!(
                2 * sys.channel_ticks() <= channels * sys.mem().live_ticks(),
                "{app}: {} channel ticks over {} live memory ticks",
                sys.channel_ticks(),
                sys.mem().live_ticks()
            );
        }
    }

    #[test]
    fn lagging_channels_read_the_same_mid_run() {
        // `advance_until` returns with every channel caught up, so channel
        // stats read between calls match the per-cycle reference, also
        // when a call ends between two memory ticks.
        let wl = Workload::pair(&dr_strange::workloads::app_by_name("ycsb3").expect("catalog"), 5120);
        let run = |mode: SimMode| {
            let cfg = base(SystemConfig::dr_strange(2)).with_sim_mode(mode);
            let mut sys = System::new(cfg, wl.traces(), Box::new(DRange::new(3)))
                .expect("valid configuration");
            let mut seen = Vec::new();
            for stop in [1_003u64, 40_000, 250_001, 600_004, 1_500_002] {
                sys.advance_until(stop - sys.cpu_cycles(), |_| false);
                let stats: Vec<_> = sys.mem().channels().iter().map(|c| c.stats().clone()).collect();
                seen.push((sys.cpu_cycles(), stats));
            }
            (seen, sys.skipped_cycles())
        };
        let (reference, _) = run(SimMode::Reference);
        let (fast, skipped) = run(SimMode::FastForward);
        assert!(skipped > 0, "fast-forward must skip");
        assert_eq!(fast, reference);
    }
}
