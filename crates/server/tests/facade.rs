//! The server facade's determinism contract: N host threads submitting
//! through the async session API in virtual-time pacing must reproduce
//! the synchronous `ServiceConfig` run **bit for bit** — same per-request
//! latency log, same per-session latencies, same served words — no
//! matter how the OS schedules the submitter threads.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use strange_core::{ClientSpec, QosClass, ServiceConfig, ServiceStats, System, SystemConfig};
use strange_server::{AdmissionConfig, Pacing, RngServer, SubmitOutcome};
use strange_trng::DRange;

/// (bytes, think, requests) per session — a fixed seeded schedule.
const SESSIONS: [(usize, u64, u64); 4] = [(8, 211, 25), (24, 467, 25), (32, 123, 25), (16, 934, 25)];
const TRNG_SEED: u64 = 9;

fn sync_reference() -> (ServiceStats, Vec<u64>) {
    let clients = SESSIONS
        .iter()
        .map(|&(bytes, think, requests)| ClientSpec::closed_loop(bytes, think, requests))
        .collect();
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients,
        capture_values: true,
        ..ServiceConfig::default()
    });
    let mut sys = System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED)))
        .expect("valid configuration");
    let res = sys.run();
    assert!(!res.hit_cycle_limit);
    let captured = sys.service().expect("service").captured_words().to_vec();
    (res.service.expect("service stats"), captured)
}

fn server_system() -> System {
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        capture_values: true,
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED))).expect("valid configuration")
}

/// Runs the 4-session schedule over `threads` host threads (sessions are
/// dealt round-robin to threads) and returns the final report.
///
/// A thread owning several sessions multiplexes them with non-blocking
/// polls: under virtual pacing the driver freezes time until every open
/// interactive session reacts to its last completion, so a client thread
/// must never block on one session while it owes another a decision.
fn server_run(pacing: Pacing, threads: usize) -> strange_server::ServerReport {
    let server = RngServer::start(server_system(), pacing);
    // Open sessions in a fixed order (session ids must be deterministic).
    let handles: Vec<_> = SESSIONS
        .iter()
        .map(|&(bytes, _, _)| server.open_session(ClientSpec::manual(bytes)))
        .collect();
    let mut workers = Vec::new();
    let mut lanes: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, h) in handles.into_iter().enumerate() {
        lanes[i % threads].push((h, SESSIONS[i]));
    }
    for lane in lanes {
        workers.push(thread::spawn(move || {
            struct Sess {
                handle: Option<strange_server::SessionHandle>,
                bytes: usize,
                think: u64,
                left: u64,
            }
            let mut sessions: Vec<Sess> = lane
                .into_iter()
                .map(|(mut handle, (bytes, think, requests))| {
                    handle.submit_after(bytes, 0); // first request: arrival = open cycle
                    Sess {
                        handle: Some(handle),
                        bytes,
                        think,
                        left: requests - 1,
                    }
                })
                .collect();
            let mut open = sessions.len();
            while open > 0 {
                let mut progressed = false;
                for s in &mut sessions {
                    let Some(handle) = s.handle.as_mut() else {
                        continue;
                    };
                    if let Some(served) = handle.try_recv() {
                        progressed = true;
                        assert!(served.latency_cycles > 0);
                        assert_eq!(served.words.len(), s.bytes.div_ceil(8));
                        if s.left > 0 {
                            s.left -= 1;
                            handle.submit_after(s.bytes, s.think);
                        } else {
                            s.handle.take().expect("present").close();
                            open -= 1;
                        }
                    }
                }
                if !progressed {
                    thread::yield_now();
                }
            }
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }
    server.shutdown()
}

#[test]
fn four_host_threads_virtual_time_is_bit_identical_to_sync() {
    let (sync_stats, sync_captured) = sync_reference();
    let report = server_run(Pacing::Virtual, 4);
    assert_eq!(report.sessions, SESSIONS.len());
    assert_eq!(
        report.stats, sync_stats,
        "async facade must reproduce the synchronous service run \
         (stats incl. latency log + per-session latencies)"
    );
    assert_eq!(
        report.captured, sync_captured,
        "served words must match bit for bit"
    );
}

/// The benchmark's `server_closed` shape: one thread per session, each
/// blocked in `getrandom` for every call, so every call crosses the
/// control and completion channels with the receiver parked.
#[test]
fn blocking_sessions_match_the_synchronous_closed_loop() {
    const THINKS: [u64; 3] = [4_000, 2_500, 3_300];
    const CALLS: u64 = 3_000;
    const BYTES: usize = 32;

    let (done_tx, done) = mpsc::channel();
    let runner = thread::spawn(move || {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let handles: Vec<_> = THINKS
            .iter()
            .map(|_| server.open_session(ClientSpec::manual(BYTES)))
            .collect();
        thread::scope(|scope| {
            for (mut handle, think) in handles.into_iter().zip(THINKS) {
                scope.spawn(move || {
                    let mut buf = [0u8; BYTES];
                    for _ in 0..CALLS {
                        let served = handle.getrandom(&mut buf, think);
                        assert_eq!(served.words.len(), BYTES / 8);
                    }
                    handle.close();
                });
            }
        });
        done_tx
            .send(server.shutdown())
            .expect("test thread waiting");
    });
    // A lost wake-up fails the test here instead of hanging it.
    let report = done
        .recv_timeout(Duration::from_secs(120))
        .expect("blocking sessions finished within two minutes");
    runner.join().expect("runner panicked");

    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients: THINKS
            .iter()
            .map(|&think| ClientSpec::closed_loop(BYTES, think, CALLS))
            .collect(),
        capture_values: true,
        ..ServiceConfig::default()
    });
    let mut sync = System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED)))
        .expect("valid configuration");
    let res = sync.run();
    assert!(!res.hit_cycle_limit);
    assert_eq!(report.stats, res.service.expect("service stats"));
    assert_eq!(
        report.captured,
        sync.service().expect("service").captured_words()
    );
}

#[test]
fn thread_count_does_not_change_results() {
    // 1 thread serializes every session on one submitter; 2 threads split
    // them; results must be identical to each other (and, transitively
    // via the test above, to the synchronous run).
    let a = server_run(Pacing::Virtual, 1);
    let b = server_run(Pacing::Virtual, 2);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.captured, b.captured);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
}

#[test]
fn wall_clock_pacing_serves_every_request() {
    // Wall-clock pacing is not deterministic, but it must serve all
    // offered requests and advance virtual time.
    let report = server_run(
        Pacing::WallClock {
            cycles_per_ms: 40_000_000,
        },
        2,
    );
    let offered: u64 = SESSIONS.iter().map(|&(_, _, r)| r).sum();
    assert_eq!(report.stats.requests_offered, offered);
    assert_eq!(report.stats.requests_completed, offered);
    assert!(report.cpu_cycles > 0);
}

#[test]
fn qos_session_priority_reaches_the_service() {
    // A High-QoS session registers its priority with the engine and the
    // per-session latency split tracks it separately. Sessions run one
    // after the other: under virtual pacing a single thread must not
    // block on one session while another open one sits idle.
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let mut buf = [0u8; 16];
    for qos in [QosClass::High, QosClass::Low] {
        let mut h = server.open_session(ClientSpec::manual(16).with_qos(qos));
        for _ in 0..8 {
            h.getrandom(&mut buf, 64);
        }
        h.close();
    }
    let report = server.shutdown();
    assert_eq!(report.stats.latency_by_client.len(), 2);
    assert_eq!(report.stats.latency_by_client[0].len(), 8);
    assert_eq!(report.stats.latency_by_client[1].len(), 8);
}

#[test]
fn background_sessions_generate_load_while_interactive_traffic_drives_time() {
    let server = RngServer::start(server_system(), Pacing::Virtual);
    // An autonomous Poisson tenant: no channel traffic, pure load.
    let bg = server.open_session(ClientSpec::poisson(32, 2_000, 100_000, 42));
    let mut fg = server.open_session(ClientSpec::manual(8));
    let mut buf = [0u8; 8];
    for _ in 0..20 {
        fg.getrandom(&mut buf, 50_000);
    }
    fg.close();
    // Autonomous sessions are not closed — dropping the handle leaves the
    // tenant running inside the simulation.
    drop(bg);
    let report = server.shutdown();
    // ~1M cycles of virtual time at a 2k-cycle mean gap: plenty of
    // background arrivals beyond the 20 interactive requests.
    assert!(
        report.stats.requests_offered > 100,
        "background tenant must have offered load (got {})",
        report.stats.requests_offered
    );
}

#[test]
fn configured_clients_offset_session_ids_correctly() {
    // A system built with configured service clients AND dynamic
    // sessions: driver-opened ids start past the configured clients, and
    // the driver must address its own slots through that offset.
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients: vec![ClientSpec::poisson(16, 4_000, 2_000, 3)],
        capture_values: true,
        sessions: true,
        ..ServiceConfig::default()
    });
    let sys = System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED)))
        .expect("valid configuration");
    let server = RngServer::start(sys, Pacing::Virtual);
    let mut h = server.open_session(ClientSpec::manual(8));
    assert_eq!(h.id(), 1, "configured client takes id 0");
    let mut buf = [0u8; 8];
    for _ in 0..10 {
        h.getrandom(&mut buf, 5_000);
    }
    h.close();
    let report = server.shutdown();
    assert_eq!(report.stats.latency_by_client.len(), 2);
    assert_eq!(report.stats.latency_by_client[1].len(), 10);
}

#[test]
fn pipelined_submits_chain_deterministically() {
    // Back-to-back submits must serve in FIFO order with arrivals
    // chained off completions, independent of how many control messages
    // the driver drains per batch — two runs must agree bit for bit.
    let run = || {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let mut h = server.open_session(ClientSpec::manual(8));
        h.submit_after(8, 0);
        for _ in 0..9 {
            h.submit_after(8, 250); // pipelined: queued behind the previous
        }
        let mut latencies = Vec::new();
        for _ in 0..10 {
            latencies.push(h.recv().latency_cycles);
        }
        h.close();
        (latencies, server.shutdown())
    };
    let (lat_a, rep_a) = run();
    let (lat_b, rep_b) = run();
    assert_eq!(lat_a, lat_b, "pipelined latencies must be deterministic");
    assert_eq!(rep_a.stats, rep_b.stats);
    assert_eq!(rep_a.captured, rep_b.captured);
    assert_eq!(rep_a.cpu_cycles, rep_b.cpu_cycles);
}

#[test]
fn dropping_the_server_does_not_hang() {
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let mut h = server.open_session(ClientSpec::manual(8));
    let mut buf = [0u8; 8];
    h.getrandom(&mut buf, 10);
    drop(h);
    drop(server); // Drop impl shuts the driver down
}

#[test]
fn close_with_submits_still_queued_does_not_panic_the_driver() {
    // A submit followed immediately by close: the scheduled-but-not-yet
    // injected arrival must be discarded, not injected into a closed
    // service client (which would panic the driver thread).
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let mut h = server.open_session(ClientSpec::manual(8));
    h.submit_after(8, 1_000);
    h.close();
    // The driver is still healthy: a fresh session works end to end.
    let mut h2 = server.open_session(ClientSpec::manual(8));
    let mut buf = [0u8; 8];
    h2.getrandom(&mut buf, 10);
    h2.close();
    let report = server.shutdown();
    assert_eq!(report.sessions, 2);
}

#[test]
fn closing_a_busy_background_session_is_safe() {
    // Closing an autonomous tenant (kept below saturation — a
    // saturating equal-priority backlog would starve the interactive
    // tenant by strict priority) stops its arrivals; whatever it has in
    // flight drains inside the simulation.
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let bg = server.open_session(ClientSpec::poisson(32, 4_000, 10_000, 5));
    let mut fg = server.open_session(ClientSpec::manual(8).with_qos(QosClass::High));
    let mut buf = [0u8; 8];
    for _ in 0..5 {
        fg.getrandom(&mut buf, 20_000);
    }
    bg.close();
    for _ in 0..5 {
        fg.getrandom(&mut buf, 20_000);
    }
    fg.close();
    let report = server.shutdown();
    assert_eq!(report.stats.latency_by_client[1].len(), 10);
}

#[test]
fn dropped_handle_mid_run_does_not_freeze_other_sessions() {
    // A submitter thread that vanishes with a request still in flight
    // (handle dropped without close) must not pin virtual time: the
    // failed completion send closes the session, and later sessions keep
    // being served.
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let mut doomed = server.open_session(ClientSpec::manual(8));
    let mut buf = [0u8; 8];
    doomed.getrandom(&mut buf, 100);
    doomed.submit_after(8, 100); // in flight when the handle dies
    drop(doomed);
    let mut survivor = server.open_session(ClientSpec::manual(8));
    for _ in 0..10 {
        // Without the dead-receiver close, the doomed session's delivered
        // completion would set `awaiting` forever and freeze time here.
        survivor.getrandom(&mut buf, 100);
    }
    survivor.close();
    let report = server.shutdown();
    assert_eq!(report.stats.latency_by_client[1].len(), 10);
}

/// Session churn: thousands of open → call → close sessions on one
/// server. The driver keeps a count of the sessions holding the
/// virtual-time barrier, `System::open_session` skips re-materializing
/// priorities for Normal tenants and the engine counts non-default
/// priorities; debug builds assert each against a full scan on every
/// use, so this run exercises those oracles across every transition —
/// a late first High tenant, a k-deep pipelined session owed several
/// reactions at once, throttle sheds, a handle dropped without `close`,
/// a close with a submit still scheduled — and the recorded arrivals
/// replayed as a synchronous `ServiceConfig` run (every client
/// configured up front, priorities materialized from scratch) must
/// reproduce the report bit for bit.
#[test]
fn session_churn_matches_the_synchronous_replay() {
    const CHURN: usize = 5_200;
    const FIRST_HIGH: usize = 4_100;
    const PIPELINED_AT: usize = 1_000;
    const DROPPED_AT: usize = 2_000;
    const ABANDONED_AT: usize = 3_000;
    const PIPELINE_DEPTH: usize = 6;
    const BUCKET: u32 = 4;

    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        capture_values: true,
        record_arrivals: true,
        sessions: true,
        ..ServiceConfig::default()
    });
    let sys = System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED)))
        .expect("valid configuration");
    let server = RngServer::start_with_admission(
        sys,
        Pacing::Virtual,
        AdmissionConfig::protective(BUCKET, 5_000),
    );

    // (bytes, qos) of every session in id order, for the replay.
    let mut specs: Vec<(usize, QosClass)> = Vec::new();
    let mut open = |bytes: usize, qos: QosClass| {
        specs.push((bytes, qos));
        server.open_session(ClientSpec::manual(bytes).with_qos(qos))
    };
    let mut served = 0u64;
    let mut shed = 0u64;
    for i in 0..CHURN {
        let bytes = [8, 16, 32, 24][i % 4];
        let qos = match i {
            _ if i < FIRST_HIGH => QosClass::Normal,
            FIRST_HIGH => QosClass::High,
            _ => [QosClass::Normal, QosClass::Low, QosClass::High][i % 3],
        };
        if i == PIPELINED_AT {
            // All six arrive on the open cycle: two exceed the token
            // bucket, the rest are buffer hits that mature together, so
            // one delivery batch leaves the session owing several
            // reactions.
            let mut p = open(8, QosClass::Normal);
            p.submit_pipelined(8, 0, PIPELINE_DEPTH, u64::MAX);
            for k in 0..PIPELINE_DEPTH + 1 {
                match p.recv_outcome() {
                    SubmitOutcome::Served(_) => served += 1,
                    SubmitOutcome::Shed(_) => shed += 1,
                    other => panic!("unexpected outcome {other:?}"),
                }
                match k {
                    0 => p.submit_pipelined(8, 40_000, 1, u64::MAX),
                    PIPELINE_DEPTH => {}
                    _ => p.ack(),
                }
            }
            p.close();
        }
        // The next session holds the barrier (it owes its first submit)
        // while the two casualties below act, so the driver cannot run
        // ahead of them and the outcome does not depend on host timing.
        let special = (i == DROPPED_AT || i == ABANDONED_AT).then(|| open(8, QosClass::Normal));
        let mut h = open(bytes, qos);
        if let Some(mut casualty) = special {
            if i == DROPPED_AT {
                casualty.submit_after(8, 50); // in flight when the handle dies
                drop(casualty);
            } else {
                casualty.submit_after(8, 1_000); // scheduled, never injected
                casualty.close();
            }
        }
        h.submit_after(bytes, (i % 5) as u64 * 300);
        match h.recv_outcome() {
            SubmitOutcome::Served(r) => {
                assert_eq!(r.words.len(), bytes.div_ceil(8));
                served += 1;
            }
            other => panic!("session {i}: unexpected outcome {other:?}"),
        }
        h.close();
    }
    let report = server.shutdown();

    assert_eq!(report.sessions, specs.len());
    assert_eq!(report.sessions, CHURN + 3);
    assert!(shed > 0, "the pipeline fill must overrun its token bucket");
    assert_eq!(report.admission.shed_tenant_throttle, shed);
    // The dropped handle's request completes unseen.
    assert_eq!(report.stats.requests_completed, served + 1);
    let abandoned = ABANDONED_AT + 2; // the pipelined and dropped sessions precede it
    assert!(report.arrival_logs[abandoned].is_empty());
    let pipelined = &report.stats.latency_by_client[PIPELINED_AT];
    let arrivals = &report.arrival_logs[PIPELINED_AT];
    assert!(
        (1..pipelined.len()).any(|k| arrivals[k] + pipelined[k] == arrivals[0] + pipelined[0]),
        "no two pipelined completions shared a delivery cycle"
    );

    let clients = specs
        .iter()
        .zip(&report.arrival_logs)
        .map(|(&(bytes, qos), log)| ClientSpec::trace_replay(bytes, log.clone()).with_qos(qos))
        .collect();
    let mut cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients,
        capture_values: true,
        ..ServiceConfig::default()
    });
    cfg.max_cpu_cycles = report.cpu_cycles + 1_000_000;
    let mut sync = System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED)))
        .expect("valid configuration");
    let res = sync.run();
    assert!(!res.hit_cycle_limit, "replay must drain");
    assert_eq!(
        res.service.expect("service stats"),
        report.stats,
        "the churned server must equal the synchronous run of its arrivals"
    );
    assert_eq!(
        sync.service().expect("service").captured_words(),
        report.captured
    );
}

/// Runs `body` on its own thread and fails the test after `limit`
/// instead of hanging on a lost wake-up.
fn within<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done) = mpsc::channel();
    let runner = thread::spawn(move || done_tx.send(body()).expect("test thread waiting"));
    let out = done
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("not finished within {limit:?}"));
    runner.join().expect("runner panicked");
    out
}

fn within_two_minutes<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    within(Duration::from_secs(120), body)
}

/// A wall-clock pacer that can never catch up with the host clock runs
/// turn after turn under the lock. It must step aside both for callers
/// it woke with an outcome and for threads waiting to take the lock, such
/// as a poller: taking the lock straight back starves them. On one CPU,
/// as CI runs this, a pacer that skipped either step-aside held the
/// caller off past the guard in every run tried; this takes under a
/// second in release and about 4 s in debug.
#[test]
fn a_pacer_behind_the_clock_lets_callers_in() {
    const BLOCKING: usize = 1_000;
    const POLLED: usize = 100;
    let report = within(Duration::from_secs(60), || {
        let server = RngServer::start(
            server_system(),
            Pacing::WallClock {
                cycles_per_ms: 1_000_000_000_000,
            },
        );
        let _load = server.open_session(ClientSpec::poisson(32, 200_000, u64::MAX, 5));
        let mut h = server.open_session(ClientSpec::manual(8));
        let mut buf = [0u8; 8];
        for _ in 0..BLOCKING {
            h.getrandom(&mut buf, 1_000);
        }
        for _ in 0..POLLED {
            h.submit_after(8, 1_000);
            while h.try_recv_outcome().is_none() {
                thread::yield_now();
            }
        }
        h.close();
        server.shutdown()
    });
    assert_eq!(report.stats.latency_by_client[1].len(), BLOCKING + POLLED);
}

#[test]
fn idle_dropped_handle_does_not_freeze_other_sessions() {
    // A handle dropped while its session awaits the client's next
    // decision, with nothing in flight: no outcome will ever reveal
    // that it is gone, so the drop itself must give up the barrier.
    let report = within_two_minutes(|| {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let mut buf = [0u8; 8];
        let mut idle = server.open_session(ClientSpec::manual(8));
        idle.getrandom(&mut buf, 100);
        drop(idle);
        let mut next = server.open_session(ClientSpec::manual(8));
        next.getrandom(&mut buf, 100);
        next.close();
        server.shutdown()
    });
    assert_eq!(report.sessions, 2);
    assert_eq!(report.stats.requests_completed, 2);
}

/// The 4-session schedule from two threads that only ever poll with
/// `try_recv_outcome`: polling alone must advance the simulation, and
/// the result is the synchronous run's.
#[test]
fn polling_clients_drive_the_simulation() {
    const THREADS: usize = 2;
    let report = within_two_minutes(|| {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let handles: Vec<_> = SESSIONS
            .iter()
            .map(|&(bytes, _, _)| server.open_session(ClientSpec::manual(bytes)))
            .collect();
        let mut lanes: Vec<Vec<_>> = (0..THREADS).map(|_| Vec::new()).collect();
        for (i, handle) in handles.into_iter().enumerate() {
            lanes[i % THREADS].push((Some(handle), SESSIONS[i]));
        }
        thread::scope(|scope| {
            for mut lane in lanes {
                scope.spawn(move || {
                    for (handle, (bytes, _, _)) in &mut lane {
                        handle.as_mut().expect("open").submit_after(*bytes, 0);
                    }
                    let mut left: Vec<u64> = lane.iter().map(|(_, s)| s.2 - 1).collect();
                    while lane.iter().any(|(h, _)| h.is_some()) {
                        let mut progressed = false;
                        for ((slot, (bytes, think, _)), left) in lane.iter_mut().zip(&mut left) {
                            let Some(handle) = slot.as_mut() else {
                                continue;
                            };
                            let Some(outcome) = handle.try_recv_outcome() else {
                                continue;
                            };
                            progressed = true;
                            assert!(matches!(outcome, SubmitOutcome::Served(_)));
                            if *left > 0 {
                                *left -= 1;
                                handle.submit_after(*bytes, *think);
                            } else {
                                slot.take().expect("open").close();
                            }
                        }
                        if !progressed {
                            thread::yield_now();
                        }
                    }
                });
            }
        });
        server.shutdown()
    });
    let (sync_stats, sync_captured) = sync_reference();
    assert_eq!(report.stats, sync_stats);
    assert_eq!(report.captured, sync_captured);
}

/// More blocked callers than CPUs: eight threads, one session each,
/// every call parked until some other thread delivers its outcome or
/// clears the barrier. CI also runs this on one CPU.
#[test]
fn many_blocking_threads_match_the_synchronous_closed_loop() {
    const THINKS: [u64; 8] = [4_000, 2_500, 3_300, 2_900, 3_700, 4_400, 2_200, 3_100];
    const CALLS: u64 = 2_000;
    const BYTES: usize = 32;

    let report = within_two_minutes(|| {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let handles: Vec<_> = THINKS
            .iter()
            .map(|_| server.open_session(ClientSpec::manual(BYTES)))
            .collect();
        thread::scope(|scope| {
            for (mut handle, think) in handles.into_iter().zip(THINKS) {
                scope.spawn(move || {
                    let mut buf = [0u8; BYTES];
                    for _ in 0..CALLS {
                        let served = handle.getrandom(&mut buf, think);
                        assert_eq!(served.words.len(), BYTES / 8);
                    }
                    handle.close();
                });
            }
        });
        server.shutdown()
    });

    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients: THINKS
            .iter()
            .map(|&think| ClientSpec::closed_loop(BYTES, think, CALLS))
            .collect(),
        capture_values: true,
        ..ServiceConfig::default()
    });
    let mut sync = System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED)))
        .expect("valid configuration");
    let res = sync.run();
    assert!(!res.hit_cycle_limit);
    assert_eq!(report.stats, res.service.expect("service stats"));
    assert_eq!(
        report.captured,
        sync.service().expect("service").captured_words()
    );
}
