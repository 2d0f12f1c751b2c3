//! Concurrent RNG server under three fairness policies: many OS threads
//! drawing random bytes from one shared simulated DR-STRaNGe system,
//! with per-tenant QoS — and the same contended 4-tenant scenario run
//! under `Strict`, `Aging`, and `WeightedFair` tenant scheduling.
//!
//! The scenario (the shared `contended_qos_service` shape): two
//! saturating High-priority aggressors run closed loops of 256-byte
//! requests — 32 words each, exactly the RNG queue's capacity, with a
//! 200-cycle think time — while a Normal and a Low tenant issue modest
//! 64-byte requests. Under strict Section 5.2 priority the Low tenant
//! starves outright (p99 near two million cycles); priority aging (the
//! paper's `stall_limit` idea generalized to tenants) and weighted fair
//! queueing bound it, for a small toll on the aggressors.
//!
//! The tenant threads advance virtual time themselves, behind the
//! server's virtual-time barrier (`Pacing::Virtual`), so this prints the
//! same numbers on every run regardless of host scheduling.
//!
//! Run with: `cargo run --release --example concurrent_server`

use std::thread;

use dr_strange::core::{
    ArrivalProcess, ClientSpec, FairnessPolicy, ServiceConfig, System, SystemConfig,
};
use dr_strange::server::{Pacing, RngServer, ServerReport};
use dr_strange::trng::DRange;
use dr_strange::workloads::contended_qos_service;

const REQUESTS: u64 = 50;
/// Request size (bytes) of the measured Normal/Low tenants.
const TENANT_BYTES: usize = 64;

/// Runs the contended 4-tenant scenario (sessions 0–1: High aggressors,
/// 2: Normal, 3: Low) under `policy` and returns the final report. The
/// tenant shapes are **derived from the shared `contended_qos_service`
/// preset** — the same closed loops `tests/fairness.rs` runs
/// synchronously — so this example and the tests cannot drift apart; here
/// each tenant runs from its own host thread against the server facade.
fn run_scenario(policy: FairnessPolicy) -> ServerReport {
    let config = SystemConfig::dr_strange(0)
        .with_fairness(policy)
        .with_service(ServiceConfig {
            sessions: true,
            ..ServiceConfig::default()
        });
    let system =
        System::new(config, Vec::new(), Box::new(DRange::new(7))).expect("valid configuration");
    let server = RngServer::start(system, Pacing::Virtual);

    let workers: Vec<_> = contended_qos_service(TENANT_BYTES, REQUESTS)
        .clients
        .into_iter()
        .map(|spec| {
            let ArrivalProcess::ClosedLoop { think } = spec.arrival else {
                panic!("contended scenario tenants are closed loops");
            };
            let (bytes, requests) = (spec.bytes, spec.requests);
            let mut session =
                server.open_session(ClientSpec::manual(bytes).with_qos(spec.qos));
            thread::spawn(move || {
                let mut buf = vec![0u8; bytes];
                let mut checksum = 0u64;
                for _ in 0..requests {
                    session.getrandom(&mut buf, think);
                    checksum ^= u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
                }
                session.close();
                checksum
            })
        })
        .collect();
    for w in workers {
        w.join().expect("tenant thread");
    }
    server.shutdown()
}

fn main() {
    let policies = [
        ("Strict", FairnessPolicy::Strict),
        ("Aging", FairnessPolicy::aging()),
        ("WeightedFair", FairnessPolicy::weighted_fair()),
    ];
    let names = ["agg-0", "agg-1", "normal", "low"];

    let mut low_p99 = Vec::new();
    let mut high_p99 = Vec::new();
    for (label, policy) in policies {
        let report = run_scenario(policy);
        let seconds = report.cpu_cycles as f64 / 4e9;
        println!(
            "{label}: served {} requests in {:.1} µs of virtual time — {:.0} Mb/s, \
             buffer hit rate {:.0}%",
            report.stats.requests_completed,
            seconds * 1e6,
            report.stats.bytes_served as f64 * 8.0 / seconds / 1e6,
            report.stats.buffer_hit_rate() * 100.0,
        );
        println!("{:>8} {:>6} {:>9} {:>9}", "tenant", "qos", "p50", "p99");
        for (id, name) in names.iter().enumerate() {
            let qos = ["High", "High", "Normal", "Low"][id];
            let p50 = report.stats.client_latency_percentile(id, 0.50).expect("served");
            let p99 = report.stats.client_latency_percentile(id, 0.99).expect("served");
            println!("{name:>8} {qos:>6} {p50:>9} {p99:>9}");
        }
        println!();
        high_p99.push(report.stats.client_latency_percentile(0, 0.99).expect("served"));
        low_p99.push(report.stats.client_latency_percentile(3, 0.99).expect("served"));
    }

    println!("Low-tenant p99 delta vs Strict (the starvation the fair policies remove):");
    for (i, (label, _)) in policies.iter().enumerate().skip(1) {
        println!(
            "  {label:>12}: low p99 {} vs {} ({:.1}x lower); high p99 {} vs {} ({:.2}x)",
            low_p99[i],
            low_p99[0],
            low_p99[0] as f64 / low_p99[i] as f64,
            high_p99[i],
            high_p99[0],
            high_p99[i] as f64 / high_p99[0] as f64,
        );
    }
}
