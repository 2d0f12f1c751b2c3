//! Concurrent RNG server load sweep: sustained served throughput and
//! request-latency percentiles across host-thread count × offered load ×
//! TRNG mechanism, through the `strange-server` async submit/drain
//! facade (one OS thread per session, virtual-time pacing).
//!
//! Each cell starts a server over a coreless DR-STRaNGe system, opens N
//! closed-loop sessions (32-byte `getrandom` requests, think time sets
//! the offered load), drives them from N host threads, and reads the
//! final `ServiceStats`. One cell additionally asserts the determinism
//! contract in-bench: the 4-thread async run must be bit-identical to
//! the synchronous `ServiceConfig` closed-loop run (stats including the
//! per-request latency log, plus the served words).
//!
//! A final churn cell opens, uses and closes 16 000 sessions one after
//! the other on a single server and compares the per-session wall time
//! of the last 2 000 with the first 2 000: the driver, `open_session`
//! and the engine's priority check keep maintained values instead of
//! scanning every session ever opened, so the ratio must stay under
//! 2.0. Run it pinned (`taskset -c 0 cargo bench --bench server_load`,
//! as CI does): on one CPU the scanning code read 4.3–4.7 and this code
//! reads 1.0; unpinned, cross-core wake-ups put ~90 µs under every
//! session, the scanning code read 1.2, and the gate can only pass.
//!
//! Emits `BENCH_server.json` (working directory, or `$BENCH_SERVER_OUT`).
//! Requests per session come from `STRANGE_SERVER_REQUESTS` (default
//! 150).

use std::thread;
use std::time::Instant;

use strange_core::{ClientSpec, ServiceConfig, System, SystemConfig};
use strange_server::{Pacing, RngServer, ServerReport};
use strange_trng::{DRange, QuacTrng, TrngMechanism};

const BYTES_PER_REQUEST: usize = 32;
/// Host-thread counts (= concurrent sessions; one thread per session).
const THREADS: [usize; 3] = [1, 2, 4];
/// Closed-loop think times in CPU cycles: the offered-load dial (smaller
/// think → higher offered load; 500 drives D-RaNGe past saturation).
const THINKS: [u64; 2] = [500, 20_000];
const TRNG_SEED: u64 = 2022;

fn requests_per_session() -> u64 {
    std::env::var("STRANGE_SERVER_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(150)
}

#[derive(Clone, Copy, PartialEq)]
enum Mechanism {
    DRange,
    Quac,
}

impl Mechanism {
    fn label(self) -> &'static str {
        match self {
            Mechanism::DRange => "D-RaNGe",
            Mechanism::Quac => "QUAC-TRNG",
        }
    }

    fn build(self) -> Box<dyn TrngMechanism> {
        match self {
            Mechanism::DRange => Box::new(DRange::new(TRNG_SEED)),
            Mechanism::Quac => Box::new(QuacTrng::new(TRNG_SEED)),
        }
    }
}

fn server_system(mech: Mechanism) -> System {
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        capture_values: true,
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(cfg, Vec::new(), mech.build()).expect("valid configuration")
}

/// Drives `threads` closed-loop sessions (one host thread each) to
/// completion and returns the report plus host wall time.
fn drive(mech: Mechanism, threads: usize, think: u64, requests: u64) -> (ServerReport, f64) {
    let start = Instant::now();
    let server = RngServer::start(server_system(mech), Pacing::Virtual);
    let handles: Vec<_> = (0..threads)
        .map(|_| server.open_session(ClientSpec::manual(BYTES_PER_REQUEST)))
        .collect();
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            thread::spawn(move || {
                let mut buf = [0u8; BYTES_PER_REQUEST];
                for _ in 0..requests {
                    let served = h.getrandom(&mut buf, think);
                    assert_eq!(served.words.len(), BYTES_PER_REQUEST / 8);
                }
                h.close();
            })
        })
        .collect();
    for w in workers {
        w.join().expect("session thread panicked");
    }
    let report = server.shutdown();
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// The determinism contract, asserted in-bench: N-thread async facade ≡
/// synchronous `service` run, bit for bit.
fn assert_async_equals_sync(requests: u64) {
    let think = THINKS[0];
    let (report, _) = drive(Mechanism::DRange, 4, think, requests);
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        clients: (0..4)
            .map(|_| ClientSpec::closed_loop(BYTES_PER_REQUEST, think, requests))
            .collect(),
        capture_values: true,
        ..ServiceConfig::default()
    });
    let mut sys = System::new(cfg, Vec::new(), Mechanism::DRange.build())
        .expect("valid configuration");
    let res = sys.run();
    assert!(!res.hit_cycle_limit);
    let sync_stats = res.service.expect("service stats");
    let sync_words = sys.service().expect("service").captured_words().to_vec();
    assert_eq!(
        report.stats, sync_stats,
        "async facade must be bit-identical to the synchronous service run"
    );
    assert_eq!(report.captured, sync_words, "served words must match");
    println!(
        "determinism check: 4-thread async == sync over {} requests\n",
        sync_stats.requests_completed
    );
}

const CHURN_SESSIONS: usize = 16_000;
const CHURN_WINDOW: usize = 2_000;
const CHURN_ROUNDS: usize = 3;
const CHURN_MAX_GROWTH: f64 = 2.0;
/// Short think time on the fast mechanism: little simulated work per
/// call, so per-session host overhead is what the windows time.
const CHURN_THINK: u64 = 2_000;

/// One churn round: `CHURN_SESSIONS` × (open, two 32-byte calls, close)
/// from one thread. Returns the host µs of one session among the first
/// and among the last `CHURN_WINDOW` sessions, each as its window's
/// lowest decile: a cost that grows with the session count is paid by
/// every session, so it lifts the floor, while the cross-core wake-ups
/// an unpinned closed loop suffers in stretches (up to 5× the wall time)
/// only lift the mean.
fn churn_round() -> (f64, f64) {
    let server = RngServer::start(server_system(Mechanism::Quac), Pacing::Virtual);
    let mut buf = [0u8; BYTES_PER_REQUEST];
    let mut session_us = Vec::with_capacity(CHURN_SESSIONS);
    for _ in 0..CHURN_SESSIONS {
        let start = Instant::now();
        let mut h = server.open_session(ClientSpec::manual(BYTES_PER_REQUEST));
        h.getrandom(&mut buf, CHURN_THINK);
        h.getrandom(&mut buf, CHURN_THINK);
        h.close();
        session_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let report = server.shutdown();
    assert_eq!(report.sessions, CHURN_SESSIONS);
    assert_eq!(report.stats.requests_completed, 2 * CHURN_SESSIONS as u64);
    let low_decile = |window: &mut [f64]| {
        window.sort_unstable_by(f64::total_cmp);
        window[window.len() / 10]
    };
    (
        low_decile(&mut session_us[..CHURN_WINDOW]),
        low_decile(&mut session_us[CHURN_SESSIONS - CHURN_WINDOW..]),
    )
}

/// Minimum over `CHURN_ROUNDS` rounds of each window (host noise only
/// ever adds time), as `(first µs, last µs)`.
fn churn_growth() -> (f64, f64) {
    (0..CHURN_ROUNDS)
        .map(|_| churn_round())
        .fold((f64::MAX, f64::MAX), |(first, last), (f, l)| {
            (first.min(f), last.min(l))
        })
}

struct Cell {
    mech: &'static str,
    threads: usize,
    think: u64,
    served_mbps: f64,
    p50: u64,
    p95: u64,
    p99: u64,
    completed: u64,
    sim_mcycles: f64,
    wall_ms: f64,
}

fn main() {
    let requests = requests_per_session();
    println!(
        "server load sweep: closed-loop sessions x {BYTES_PER_REQUEST}-byte getrandom, \
         {requests} requests/session, one host thread per session\n"
    );
    assert_async_equals_sync(requests.min(100));

    let mut cells = Vec::new();
    println!(
        "{:10} {:>7} {:>7} {:>9} {:>8} {:>8} {:>8} {:>9} {:>8}",
        "mechanism", "threads", "think", "served", "p50", "p95", "p99", "simMcyc", "wall ms"
    );
    for mech in [Mechanism::DRange, Mechanism::Quac] {
        for &threads in &THREADS {
            for &think in &THINKS {
                let (report, wall_ms) = drive(mech, threads, think, requests);
                let stats = &report.stats;
                assert_eq!(stats.requests_completed, threads as u64 * requests);
                assert_eq!(stats.latency_by_client.len(), threads);
                let seconds = report.cpu_cycles as f64 / 4e9;
                let served_mbps = stats.bytes_served as f64 * 8.0 / seconds / 1e6;
                let pcts = stats.latency_percentiles(&[0.50, 0.95, 0.99]);
                let cell = Cell {
                    mech: mech.label(),
                    threads,
                    think,
                    served_mbps,
                    p50: pcts[0].expect("completions"),
                    p95: pcts[1].expect("completions"),
                    p99: pcts[2].expect("completions"),
                    completed: stats.requests_completed,
                    sim_mcycles: report.cpu_cycles as f64 / 1e6,
                    wall_ms,
                };
                println!(
                    "{:10} {:>7} {:>7} {:>7.0}Mb {:>8} {:>8} {:>8} {:>9.2} {:>8.1}",
                    cell.mech,
                    cell.threads,
                    cell.think,
                    cell.served_mbps,
                    cell.p50,
                    cell.p95,
                    cell.p99,
                    cell.sim_mcycles,
                    cell.wall_ms
                );
                cells.push(cell);
            }
        }
    }

    let (churn_first_us, churn_last_us) = churn_growth();
    let churn_ratio = churn_last_us / churn_first_us;
    println!(
        "\nsession churn: {CHURN_SESSIONS} x (open, 2 calls, close), min of {CHURN_ROUNDS} rounds, \
         lowest-decile us/session: first {CHURN_WINDOW} {churn_first_us:.1}, last {CHURN_WINDOW} \
         {churn_last_us:.1}, growth {churn_ratio:.2}x (gate {CHURN_MAX_GROWTH})"
    );

    let json = format!(
        "{{\n  \"bytes_per_request\": {BYTES_PER_REQUEST},\n  \
         \"requests_per_session\": {requests},\n  \"pacing\": \"virtual\",\n  \
         \"latency_unit\": \"cpu_cycles_at_4ghz\",\n  \"churn\": {{\"sessions\": {CHURN_SESSIONS}, \
         \"window\": {CHURN_WINDOW}, \"rounds\": {CHURN_ROUNDS}, \
         \"first_us_per_session\": {churn_first_us:.2}, \
         \"last_us_per_session\": {churn_last_us:.2}, \"growth_ratio\": {churn_ratio:.3}, \
         \"max_growth_ratio\": {CHURN_MAX_GROWTH}}},\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells
            .iter()
            .map(|c| {
                format!(
                    "    {{\"mechanism\": \"{}\", \"threads\": {}, \"think_cycles\": {}, \
                     \"served_mbps\": {:.1}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
                     \"completed\": {}, \"sim_mcycles\": {:.2}, \"wall_ms\": {:.2}}}",
                    c.mech,
                    c.threads,
                    c.think,
                    c.served_mbps,
                    c.p50,
                    c.p95,
                    c.p99,
                    c.completed,
                    c.sim_mcycles,
                    c.wall_ms
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let out =
        std::env::var("BENCH_SERVER_OUT").unwrap_or_else(|_| "BENCH_server.json".to_string());
    std::fs::write(&out, json).expect("write benchmark json");
    println!("\nwrote {out}");
    assert!(
        churn_ratio <= CHURN_MAX_GROWTH,
        "per-session cost grew {churn_ratio:.2}x over {CHURN_SESSIONS} sessions \
         (gate {CHURN_MAX_GROWTH}x): something scans the session population again"
    );
}
