//! Overload-protection behavior of the server facade: admission
//! decisions are deterministic and thread-count invariant, a flash-crowd
//! storm's accepted tail stays bounded with admission on and grows with
//! the backlog without it, the tail recovers once a quarantined channel
//! returns, deadlines resolve to timeouts, shed tenants can retry with
//! backoff, and sessions that close (or vanish) with deferred/shed
//! requests outstanding drain cleanly instead of freezing the
//! virtual-time barrier.

use std::thread;

use strange_core::{
    ClientSpec, FairnessPolicy, FaultPlan, QosClass, ServiceConfig, SimMode, System, SystemConfig,
    WatchdogConfig,
};
use strange_metrics::percentile_sorted;
use strange_server::{
    AdmissionConfig, Backoff, Pacing, RngServer, ServerReport, SessionHandle, ShedReason,
    SubmitOutcome,
};
use strange_trng::DRange;

const TRNG_SEED: u64 = 17;

fn server_system() -> System {
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        capture_values: true,
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED))).expect("valid configuration")
}

/// Watermark-only admission: tenant throttling off, defer at queue
/// depth 4 (the 16-word buffer never disables the check), shed at 24.
/// Deferrals retry after 20k cycles — well inside a congestion episode,
/// so a sustained overload exhausts the 2-defer budget and sheds.
fn watermark_admission() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        bucket_capacity: 0,
        cycles_per_token: 0,
        defer_queue_depth: 4,
        shed_queue_depth: 24,
        buffer_low_words: 16,
        max_defers: 2,
        defer_cycles: 20_000,
    }
}

/// Throttle-only admission: watermarks effectively off.
fn throttle_admission(burst: u32, cycles_per_token: u64) -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        bucket_capacity: burst,
        cycles_per_token,
        defer_queue_depth: usize::MAX,
        shed_queue_depth: usize::MAX,
        buffer_low_words: 0,
        max_defers: 0,
        defer_cycles: 1_000,
    }
}

/// Offers a 3-session flash crowd (open-loop bursts far above the
/// generation rate) over `threads` host threads and returns the report
/// plus per-outcome counts observed client-side.
fn flash_crowd(threads: usize) -> (ServerReport, [u64; 3]) {
    const SESSIONS: usize = 3;
    const REQUESTS: usize = 50;
    let server = RngServer::start_with_admission(
        server_system(),
        Pacing::Virtual,
        watermark_admission(),
    );
    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| server.open_session(ClientSpec::manual(32)))
        .collect();
    let mut lanes: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, h) in handles.into_iter().enumerate() {
        lanes[i % threads].push(h);
    }
    let workers: Vec<_> = lanes
        .into_iter()
        .map(|lane| {
            thread::spawn(move || {
                let mut sessions: Vec<_> = lane
                    .into_iter()
                    .map(|mut h| {
                        // Far beyond saturation: 4 words every 500
                        // cycles per session against ~100k-cycle
                        // generation episodes.
                        h.submit_burst(32, 0, 500, REQUESTS, u64::MAX);
                        (Some(h), 0usize)
                    })
                    .collect();
                let mut counts = [0u64; 3]; // served, shed, timed out
                let mut open = sessions.len();
                while open > 0 {
                    let mut progressed = false;
                    for (handle, done) in &mut sessions {
                        let Some(h) = handle.as_mut() else { continue };
                        while let Some(outcome) = h.try_recv_outcome() {
                            progressed = true;
                            match outcome {
                                SubmitOutcome::Served(_) => counts[0] += 1,
                                SubmitOutcome::Shed(_) => counts[1] += 1,
                                SubmitOutcome::TimedOut { .. } => counts[2] += 1,
                            }
                            *done += 1;
                        }
                        if *done == REQUESTS {
                            handle.take().expect("present").close();
                            open -= 1;
                        }
                    }
                    if !progressed {
                        thread::yield_now();
                    }
                }
                counts
            })
        })
        .collect();
    let mut totals = [0u64; 3];
    for w in workers {
        let c = w.join().expect("worker panicked");
        for (t, v) in totals.iter_mut().zip(c) {
            *t += v;
        }
    }
    (server.shutdown(), totals)
}

#[test]
fn flash_crowd_is_bounded_and_thread_count_invariant() {
    let (one, counts_one) = flash_crowd(1);
    assert!(one.admission.accepted > 0, "some requests must get through");
    assert!(
        one.admission.shed() > 0,
        "a 5-10x overload must shed: {:?}",
        one.admission
    );
    assert!(one.admission.deferred > 0, "soft watermark engages first");
    assert!(one.admission.shed_fraction() < 1.0);
    // Client-observed outcomes match the server's accounting.
    assert_eq!(counts_one[0], one.stats.requests_completed);
    assert_eq!(counts_one[1], one.admission.shed());

    // The admission decisions are functions of simulated state only:
    // spreading the same offered schedule over 3 host threads reproduces
    // them bit for bit.
    let (three, counts_three) = flash_crowd(3);
    assert_eq!(one.admission, three.admission);
    assert_eq!(counts_one, counts_three);
    assert_eq!(one.stats.requests_completed, three.stats.requests_completed);
    assert_eq!(one.stats.latency_log, three.stats.latency_log);
    assert_eq!(one.captured, three.captured);
    assert_eq!(one.cpu_cycles, three.cpu_cycles);
}

#[test]
fn token_bucket_sheds_individually_abusive_tenants() {
    let server = RngServer::start_with_admission(
        server_system(),
        Pacing::Virtual,
        throttle_admission(2, 1_000_000_000),
    );
    let mut h = server.open_session(ClientSpec::manual(8));
    h.submit_burst(8, 0, 100, 5, u64::MAX);
    let mut served = 0;
    let mut shed = 0;
    for _ in 0..5 {
        match h.recv_outcome() {
            SubmitOutcome::Served(_) => served += 1,
            SubmitOutcome::Shed(hint) => {
                assert_eq!(hint.reason, ShedReason::TenantThrottle);
                assert!(hint.cycles > 0, "hint says when the next token mints");
                shed += 1;
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    h.close();
    let report = server.shutdown();
    assert_eq!(served, 2, "burst capacity admits exactly the bucket");
    assert_eq!(shed, 3);
    assert_eq!(report.admission.shed_tenant_throttle, 3);
    assert_eq!(report.admission.shed_queue_overload, 0);
}

#[test]
fn deadlines_resolve_to_timeouts() {
    let server = RngServer::start_with_admission(
        server_system(),
        Pacing::Virtual,
        AdmissionConfig::disabled(),
    );
    let mut h = server.open_session(ClientSpec::manual(8));
    // No real request completes within 1 cycle.
    h.submit_with_deadline(8, 0, 1);
    match h.recv_outcome() {
        SubmitOutcome::TimedOut { waited_cycles } => assert!(waited_cycles > 1),
        other => panic!("expected timeout, got {other:?}"),
    }
    // A generous deadline is met.
    h.submit_with_deadline(8, 10, 1_000_000_000);
    assert!(matches!(h.recv_outcome(), SubmitOutcome::Served(_)));
    h.close();
    let report = server.shutdown();
    assert_eq!(report.admission.timed_out, 1);
}

#[test]
fn backoff_retry_rides_out_tenant_throttle() {
    let server = RngServer::start_with_admission(
        server_system(),
        Pacing::Virtual,
        throttle_admission(1, 500_000),
    );
    let mut h = server.open_session(ClientSpec::manual(8));
    let mut backoff = Backoff::new(3, 10_000, 10_000_000, 6);
    let mut buf = [0u8; 8];
    // First call takes the only token; the second is shed, then retried
    // with the server's mint-time hint until a fresh token admits it.
    for _ in 0..2 {
        match h.getrandom_with_retry(&mut buf, 1_000, u64::MAX, &mut backoff) {
            SubmitOutcome::Served(_) => {}
            other => panic!("retry loop should end served, got {other:?}"),
        }
    }
    assert_eq!(backoff.attempts(), 0, "success resets the budget");
    h.close();
    let report = server.shutdown();
    assert_eq!(report.stats.requests_completed, 2);
    assert!(
        report.admission.shed_tenant_throttle >= 1,
        "the second call was shed at least once: {:?}",
        report.admission
    );
}

#[test]
fn closing_with_deferred_and_scheduled_requests_drains_cleanly() {
    let server = RngServer::start_with_admission(
        server_system(),
        Pacing::Virtual,
        watermark_admission(),
    );
    let mut burster = server.open_session(ClientSpec::manual(16));
    burster.submit_burst(16, 0, 1_000, 30, u64::MAX);
    // Take a couple of outcomes (some of the burst is by now deferred or
    // still scheduled), then walk away mid-burst: the close must discard
    // the rest without freezing the virtual-time barrier.
    let _ = burster.recv_outcome();
    let _ = burster.recv_outcome();
    burster.close();
    // A session opened after the close still gets served — the closed
    // session's scheduled and deferred arrivals were discarded, not left
    // gating time (retry rides out any residual congestion they caused).
    let mut bystander = server.open_session(ClientSpec::manual(8));
    let mut backoff = Backoff::new(11, 50_000, 10_000_000, 10);
    let mut buf = [0u8; 8];
    for _ in 0..3 {
        match bystander.getrandom_with_retry(&mut buf, 5_000, u64::MAX, &mut backoff) {
            SubmitOutcome::Served(served) => assert!(served.latency_cycles > 0),
            other => panic!("bystander should be served, got {other:?}"),
        }
    }
    bystander.close();
    let report = server.shutdown();
    assert!(report.stats.requests_completed >= 3);
}

#[test]
fn dead_receiver_under_shed_load_does_not_freeze_the_barrier() {
    let server = RngServer::start_with_admission(
        server_system(),
        Pacing::Virtual,
        watermark_admission(),
    );
    let mut vanishing = server.open_session(ClientSpec::manual(16));
    let mut survivor = server.open_session(ClientSpec::manual(8));
    vanishing.submit_burst(16, 0, 1_000, 30, u64::MAX);
    // Drop the handle without closing: the driver notices the dead
    // receiver at the next outcome delivery and auto-closes the session,
    // discarding its remaining flood.
    drop(vanishing);
    let mut backoff = Backoff::new(23, 50_000, 10_000_000, 10);
    let mut buf = [0u8; 8];
    for _ in 0..3 {
        match survivor.getrandom_with_retry(&mut buf, 5_000, u64::MAX, &mut backoff) {
            SubmitOutcome::Served(served) => assert!(served.latency_cycles > 0),
            other => panic!("survivor should be served, got {other:?}"),
        }
    }
    survivor.close();
    let report = server.shutdown();
    assert!(report.stats.requests_completed >= 3);
    assert_eq!(report.sessions, 2);
}

/// A coreless session system on seed 2022, where the storm and recovery
/// bounds below were measured.
fn session_system(cfg: SystemConfig) -> System {
    let cfg = cfg.with_service(ServiceConfig {
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(cfg, Vec::new(), Box::new(DRange::new(2022))).expect("valid configuration")
}

fn p99(mut latencies: Vec<u64>) -> u64 {
    latencies.sort_unstable();
    percentile_sorted(&latencies, 0.99).expect("a non-empty latency set")
}

/// The storm admission policy: soft-defer at queue depth 3 (4-word
/// requests, so only into an empty queue), hard-shed at 16, 50k-cycle
/// retry windows with a 2-defer budget, tenant throttling off. The wide
/// retry window spreads the deferred-retry waves far enough apart that
/// accepted requests drain between them.
fn storm_admission() -> AdmissionConfig {
    AdmissionConfig {
        enabled: true,
        bucket_capacity: 0,
        cycles_per_token: 0,
        defer_queue_depth: 3,
        shed_queue_depth: 16,
        buffer_low_words: 16,
        max_defers: 2,
        defer_cycles: 50_000,
    }
}

/// One tenant issuing the storm's Low trickle (2 000-cycle gaps) alone,
/// with a single-word buffer so every request pays a real generation
/// episode: the p99 the storm bounds are anchored to.
fn uncontended_p99(requests: usize) -> u64 {
    let system = session_system(
        SystemConfig::dr_strange(0)
            .with_fairness(FairnessPolicy::adaptive_aging())
            .with_buffer_entries(1),
    );
    let server =
        RngServer::start_with_admission(system, Pacing::Virtual, AdmissionConfig::disabled());
    let mut h = server.open_session(ClientSpec::manual(32));
    h.submit_burst(32, 0, 2_000, requests, u64::MAX);
    let latencies = (0..requests)
        .map(|_| match h.recv_outcome() {
            SubmitOutcome::Served(s) => s.latency_cycles,
            other => panic!("uncontended request not served: {other:?}"),
        })
        .collect();
    h.close();
    server.shutdown();
    p99(latencies)
}

/// Accepted p99 over every session, the Low session's accepted p99, and
/// the shed fraction of one storm.
struct Storm {
    accepted_p99: u64,
    low_p99: u64,
    shed_fraction: f64,
}

/// Three High sessions each release `requests` 32-byte requests every
/// 500 cycles (about ten times D-RaNGe's rate) while a Low session
/// trickles half as many at 2 000-cycle gaps. One thread drains every
/// outcome by polling and closes each session once its burst resolves:
/// a drained but open session would gate virtual time.
fn storm(admission: AdmissionConfig, requests: usize) -> Storm {
    let system =
        session_system(SystemConfig::dr_strange(0).with_fairness(FairnessPolicy::adaptive_aging()));
    let server = RngServer::start_with_admission(system, Pacing::Virtual, admission);
    let open = |qos: QosClass, gap: u64, n: usize| {
        let mut h = server.open_session(ClientSpec::manual(32).with_qos(qos));
        h.submit_burst(32, 0, gap, n, u64::MAX);
        (Some(h), n, Vec::new())
    };
    let mut sessions: Vec<(Option<SessionHandle>, usize, Vec<u64>)> = vec![
        open(QosClass::High, 500, requests),
        open(QosClass::High, 500, requests),
        open(QosClass::High, 500, requests),
        open(QosClass::Low, 2_000, requests / 2),
    ];
    while sessions.iter().any(|(h, ..)| h.is_some()) {
        for (handle, left, served) in &mut sessions {
            let Some(h) = handle.as_mut() else { continue };
            while let Some(outcome) = h.try_recv_outcome() {
                if let SubmitOutcome::Served(s) = outcome {
                    served.push(s.latency_cycles);
                }
                *left -= 1;
            }
            if *left == 0 {
                handle.take().expect("present").close();
            }
        }
        thread::yield_now();
    }
    let report = server.shutdown();
    let low_p99 = p99(sessions[3].2.clone());
    Storm {
        accepted_p99: p99(sessions.into_iter().flat_map(|(.., s)| s).collect()),
        low_p99,
        shed_fraction: report.admission.shed_fraction(),
    }
}

#[test]
fn admission_bounds_a_storm_tail_that_grows_without_it() {
    let anchor = uncontended_p99(40);
    let on = storm(storm_admission(), 50);
    let on2 = storm(storm_admission(), 100);
    for s in [&on, &on2] {
        assert!(
            s.accepted_p99 <= 10 * anchor,
            "accepted p99 must stay within 10x uncontended ({} vs {anchor})",
            s.accepted_p99
        );
        assert!(s.shed_fraction > 0.0, "the storm must actually overload");
        assert!(s.shed_fraction < 0.95, "the server must keep serving");
    }
    assert!(
        on2.low_p99 * 2 <= 3 * on.low_p99,
        "Low-tenant accepted p99 must not trend as the horizon doubles ({} -> {})",
        on.low_p99,
        on2.low_p99
    );
    // The control: with every request accepted, the tail follows the
    // unbounded backlog.
    let off = storm(AdmissionConfig::disabled(), 50);
    let off2 = storm(AdmissionConfig::disabled(), 100);
    assert_eq!(off.shed_fraction, 0.0, "nothing is shed without admission");
    assert_eq!(off2.shed_fraction, 0.0, "nothing is shed without admission");
    assert!(
        off2.accepted_p99 * 2 >= off.accepted_p99 * 3,
        "without admission the p99 must grow with the backlog ({} -> {})",
        off.accepted_p99,
        off2.accepted_p99
    );
    assert!(
        off.accepted_p99 > on.accepted_p99,
        "admission control must beat the uncontrolled tail"
    );
}

#[test]
fn accepted_tail_recovers_after_a_quarantined_channel_returns() {
    // One open-loop tenant paced at GAP across a stuck-at-one derate of
    // channel 0 that spans 20 %..50 % of the arrival horizon. Admission
    // watermarks tighten by the quarantined capacity; the post-recovery
    // phase starts at 75 %, leaving the watchdog a quarter of the
    // horizon to probe the channel back in.
    const REQUESTS: usize = 240;
    const GAP: u64 = 6_000;
    const CPU_PER_MEM: u64 = 5;
    let horizon = REQUESTS as u64 * GAP;
    let plan = FaultPlan::new().channel_derate(
        horizon / 5 / CPU_PER_MEM,
        0,
        0,
        1,
        horizon * 3 / 10 / CPU_PER_MEM,
    );
    // The queue is measured in words (8 per request): defer at one queued
    // request with a low buffer, shed at four.
    let admission = AdmissionConfig {
        enabled: true,
        bucket_capacity: 0,
        cycles_per_token: 0,
        defer_queue_depth: 8,
        shed_queue_depth: 32,
        buffer_low_words: 8,
        max_defers: 3,
        defer_cycles: 10_000,
    };
    let run = |mode: SimMode| {
        let system = session_system(
            SystemConfig::dr_strange(0)
                .with_fairness(FairnessPolicy::weighted_fair())
                .with_watchdog(WatchdogConfig {
                    probe_period: 4_000,
                    ..WatchdogConfig::standard()
                })
                .with_fault_plan(plan.clone())
                .with_sim_mode(mode),
        );
        let server = RngServer::start_with_admission(system, Pacing::Virtual, admission);
        let mut h = server.open_session(ClientSpec::manual(64));
        h.submit_burst(64, 0, GAP, REQUESTS, u64::MAX);
        // One session: outcome i is the request that arrived at i * GAP.
        let outcomes: Vec<Option<u64>> = (0..REQUESTS)
            .map(|_| match h.recv_outcome() {
                SubmitOutcome::Served(s) => Some(s.latency_cycles),
                _ => None,
            })
            .collect();
        h.close();
        (outcomes, server.shutdown().system)
    };
    let reference = run(SimMode::Reference);
    let (outcomes, system) = run(SimMode::FastForward);
    assert_eq!(
        outcomes, reference.0,
        "per-request outcomes must replay across modes"
    );
    assert_eq!(system, reference.1, "engine stats must replay across modes");
    assert!(
        system.quarantines >= 1,
        "the stuck channel must be quarantined: {system:?}"
    );
    assert!(
        system.readmissions >= 1,
        "the channel must be re-admitted: {system:?}"
    );
    let phase =
        |from: usize, to: usize| p99(outcomes[from..to].iter().flatten().copied().collect());
    let (pre, post) = (phase(0, REQUESTS / 5), phase(REQUESTS * 3 / 4, REQUESTS));
    assert!(
        post <= 2 * pre,
        "post-recovery accepted p99 must come back within 2x the pre-fault p99 ({post} vs {pre})"
    );
}
