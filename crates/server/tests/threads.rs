//! Virtual pacing spawns no thread: callers drive the simulation
//! themselves. Alone in its file, so no other test's threads come and go
//! while the process's thread count is read.

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use strange_core::{ClientSpec, ServiceConfig, System, SystemConfig};
use strange_server::fleet::{FleetServer, RoutePolicy};
use strange_server::{AdmissionConfig, Pacing, RngServer};
use strange_trng::DRange;

/// The process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

fn system(seed: u64) -> System {
    let cfg = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(cfg, Vec::new(), Box::new(DRange::new(seed))).expect("valid configuration")
}

#[test]
fn virtual_servers_spawn_no_thread() {
    let (done_tx, done) = mpsc::channel();
    let runner = thread::spawn(move || {
        let before = threads();
        let server = RngServer::start(system(3), Pacing::Virtual);
        let started = threads();
        let mut h = server.open_session(ClientSpec::manual(8));
        let mut buf = [0u8; 8];
        for _ in 0..100 {
            h.getrandom(&mut buf, 500);
        }
        let called = threads();
        h.close();
        server.shutdown();

        let fleet = FleetServer::start_with_admission(
            vec![system(4), system(5)],
            RoutePolicy::LeastLoaded,
            Pacing::Virtual,
            AdmissionConfig::protective(8, 1_000),
        );
        let mut s = fleet.open_session(ClientSpec::manual(8));
        s.getrandom(&mut buf, 500);
        let fleet_running = threads();
        s.close();
        fleet.shutdown();

        let paced = RngServer::start(
            system(6),
            Pacing::WallClock {
                cycles_per_ms: 4_000_000,
            },
        );
        let wall_clock = threads();
        paced.shutdown();
        done_tx
            .send((before, [started, called, fleet_running], wall_clock))
            .expect("test thread waiting");
    });
    let (before, virtual_counts, wall_clock) = done
        .recv_timeout(Duration::from_secs(120))
        .expect("finished within two minutes");
    runner.join().expect("runner panicked");
    assert_eq!(
        virtual_counts,
        [before; 3],
        "virtual-paced servers and fleets must run on their callers' threads"
    );
    assert_eq!(wall_clock, before + 1, "a wall-clock server adds its pacer");
}
