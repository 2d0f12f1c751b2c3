//! Pipelined interactive sessions (k-deep in-flight, virtual pacing):
//! the arrival-chaining contract. A pipelined session's request *i*
//! arrives at `open + i × gap` — chained off the previous *arrival*,
//! never off completions — so the arrival schedule is an arithmetic
//! series independent of pipeline depth and service speed. With a
//! generous gap a k-deep pipeline is **bit-identical** to the k=1 chain
//! and to the synchronous trace-replay run; with a tight gap the k-deep
//! pipeline overlaps service (earlier completions, lower latency) while
//! the arrival logs stay identical.

use strange_core::{ClientSpec, ServiceConfig, ServiceStats, System, SystemConfig};
use strange_server::{Pacing, RngServer, ServerReport};
use strange_trng::DRange;

const TRNG_SEED: u64 = 41;
const BYTES: usize = 16;
const REQUESTS: usize = 30;

fn server_system() -> System {
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        capture_values: true,
        record_arrivals: true,
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED))).expect("valid configuration")
}

/// Runs one pipelined session: fills the pipeline k deep, chains one
/// request per received outcome until `n` have been submitted, then
/// acks the tail as the pipeline drains.
fn pipelined_run(n: usize, k: usize, gap: u64) -> ServerReport {
    assert!(k <= n);
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let mut h = server.open_session(ClientSpec::manual(BYTES));
    h.submit_pipelined(BYTES, gap, k, u64::MAX);
    let mut submitted = k;
    for _ in 0..n {
        let served = h.recv();
        assert_eq!(served.words.len(), BYTES / 8);
        if submitted < n {
            h.submit_pipelined(BYTES, gap, 1, u64::MAX);
            submitted += 1;
        } else {
            h.ack();
        }
    }
    h.close();
    server.shutdown()
}

/// The synchronous reference: the same arithmetic arrival series as an
/// open-loop trace replay inside the simulation loop.
fn sync_trace_reference(n: usize, gap: u64) -> (ServiceStats, Vec<u64>, Vec<Vec<u64>>) {
    let schedule: Vec<u64> = (1..=n as u64).map(|i| i * gap).collect();
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients: vec![ClientSpec::trace_replay(BYTES, schedule)],
        capture_values: true,
        record_arrivals: true,
        ..ServiceConfig::default()
    });
    let mut sys =
        System::new(cfg, Vec::new(), Box::new(DRange::new(TRNG_SEED))).expect("valid configuration");
    let res = sys.run();
    assert!(!res.hit_cycle_limit);
    let svc = sys.service().expect("service");
    let captured = svc.captured_words().to_vec();
    let logs = vec![svc.arrival_log(0).to_vec()];
    (res.service.expect("service stats"), captured, logs)
}

/// Generous gap: far above any request latency, so even a deep pipeline
/// never actually overlaps and every variant must agree bit for bit.
const WIDE_GAP: u64 = 400_000;
/// Tight gap: far below the per-request service latency, so a deep
/// pipeline genuinely overlaps service.
const TIGHT_GAP: u64 = 100;

#[test]
fn k1_pipeline_matches_synchronous_trace_replay() {
    let report = pipelined_run(REQUESTS, 1, WIDE_GAP);
    let (sync_stats, sync_words, sync_logs) = sync_trace_reference(REQUESTS, WIDE_GAP);
    assert_eq!(
        report.stats, sync_stats,
        "k=1 pipeline must be bit-identical to the synchronous trace replay"
    );
    assert_eq!(report.captured, sync_words);
    assert_eq!(report.arrival_logs, sync_logs);
}

#[test]
fn k_deep_equals_k1_under_generous_gap() {
    let k1 = pipelined_run(REQUESTS, 1, WIDE_GAP);
    for k in [2, 4, 8] {
        let kd = pipelined_run(REQUESTS, k, WIDE_GAP);
        assert_eq!(
            kd.stats, k1.stats,
            "k={k} pipeline must match k=1 bit for bit under a generous gap"
        );
        assert_eq!(kd.captured, k1.captured);
        assert_eq!(kd.arrival_logs, k1.arrival_logs);
    }
}

#[test]
fn tight_gap_pipeline_overlaps_service_with_identical_arrivals() {
    let k1 = pipelined_run(REQUESTS, 1, TIGHT_GAP);
    let k4 = pipelined_run(REQUESTS, 4, TIGHT_GAP);
    // The contract: the arrival schedule is the same arithmetic series
    // regardless of depth...
    assert_eq!(
        k4.arrival_logs, k1.arrival_logs,
        "arrival chaining must not depend on pipeline depth"
    );
    let expected: Vec<u64> = (1..=REQUESTS as u64).map(|i| i * TIGHT_GAP).collect();
    assert_eq!(k1.arrival_logs[0], expected);
    // ...but the deep pipeline keeps requests in flight, so it finishes
    // sooner and its latency (charged from the scheduled arrival) is no
    // worse.
    assert_eq!(k4.stats.requests_completed, k1.stats.requests_completed);
    assert!(
        k4.cpu_cycles < k1.cpu_cycles,
        "4-deep pipeline must finish before the serialized k=1 chain \
         ({} vs {} cycles)",
        k4.cpu_cycles,
        k1.cpu_cycles
    );
    let (p99_k4, p99_k1) = (
        k4.stats.latency_percentile(0.99).expect("completions"),
        k1.stats.latency_percentile(0.99).expect("completions"),
    );
    assert!(
        p99_k4 <= p99_k1,
        "overlap must not worsen tail latency ({p99_k4} vs {p99_k1})"
    );
}

#[test]
fn pipelined_runs_are_reproducible() {
    let a = pipelined_run(REQUESTS, 4, TIGHT_GAP);
    let b = pipelined_run(REQUESTS, 4, TIGHT_GAP);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.captured, b.captured);
    assert_eq!(a.arrival_logs, b.arrival_logs);
    assert_eq!(a.cpu_cycles, b.cpu_cycles);
}

/// Mixing closed-loop submits into a pipelined session is a driver
/// panic ("closed-loop submit on a pipelined session"); the client
/// observes it as the dropped session channel.
#[test]
#[should_panic(expected = "server dropped the session")]
fn mixing_closed_loop_into_a_pipeline_panics() {
    let server = RngServer::start(server_system(), Pacing::Virtual);
    let mut h = server.open_session(ClientSpec::manual(BYTES));
    h.submit_pipelined(BYTES, 1_000, 2, u64::MAX);
    let _ = h.recv();
    h.submit_after(BYTES, 10);
    let _ = h.recv();
    let _ = h.recv();
}

/// A misuse kills the server, not the process: a caller parked in
/// `getrandom` on another thread wakes and sees the dropped session.
/// Virtual time orders the two threads. The other session's second call
/// arrives long after the pipelined session's first arrival, and time
/// cannot pass that arrival until the other thread has submitted it, so
/// the pipelined outcome (and the misuse that answers it) comes while
/// that call is blocked.
#[test]
fn a_misuse_wakes_a_caller_blocked_in_getrandom() {
    use std::sync::mpsc;
    use std::time::Duration;

    let (done_tx, done) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let mut piped = server.open_session(ClientSpec::manual(BYTES));
        let mut other = server.open_session(ClientSpec::manual(BYTES));
        let blocked = std::thread::spawn(move || {
            let mut buf = [0u8; BYTES];
            other.getrandom(&mut buf, 0);
            other.getrandom(&mut buf, 10_000_000);
        });
        piped.submit_pipelined(BYTES, 1_000_000, 2, u64::MAX);
        let _ = piped.recv();
        piped.submit_after(BYTES, 10);
        let message = match blocked.join() {
            Ok(()) => "the blocked call returned".to_string(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "a panic without a message".to_string()),
        };
        // Neither drop may panic on the dead server.
        drop(piped);
        drop(server);
        done_tx.send(message).expect("test thread waiting");
    });
    // A lost wake-up fails the test here instead of hanging it.
    let message = done
        .recv_timeout(Duration::from_secs(120))
        .expect("the blocked caller woke within two minutes");
    runner.join().expect("runner panicked");
    assert!(
        message.contains("server dropped the session"),
        "the blocked caller saw: {message}"
    );
}

/// The other wake rule: a non-blocking reaction (here an `ack`) that
/// clears the barrier wakes a caller parked behind it, because the
/// reacting thread does not drive. Ordered in virtual time as above: the
/// pipelined outcome is delivered while the other thread's second call
/// waits on it, and this thread never receives again.
#[test]
fn an_ack_wakes_a_caller_parked_behind_the_barrier() {
    use std::sync::mpsc;
    use std::time::Duration;

    let (done_tx, done) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let server = RngServer::start(server_system(), Pacing::Virtual);
        let mut piped = server.open_session(ClientSpec::manual(BYTES));
        let mut other = server.open_session(ClientSpec::manual(BYTES));
        let blocked = std::thread::spawn(move || {
            let mut buf = [0u8; BYTES];
            other.getrandom(&mut buf, 0);
            other.getrandom(&mut buf, 10_000_000);
            other.close();
        });
        piped.submit_pipelined(BYTES, 1_000_000, 1, u64::MAX);
        let _ = piped.recv();
        piped.ack();
        blocked.join().expect("the parked caller was served");
        piped.close();
        done_tx
            .send(server.shutdown())
            .expect("test thread waiting");
    });
    let report = done
        .recv_timeout(Duration::from_secs(120))
        .expect("the parked caller woke within two minutes");
    runner.join().expect("runner panicked");
    assert_eq!(report.stats.requests_completed, 3);
}
