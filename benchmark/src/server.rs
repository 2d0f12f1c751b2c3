//! `server_closed` and `fleet_churn`: the threaded facades. Simulated
//! work per request is tiny here, so the driver loop, its schedule heap,
//! the channel hops and (for the fleet) per-session state are the cost.

use strange_core::{ClientSpec, ServiceConfig, ServiceStats, System, SystemConfig};
use strange_metrics::Ratio;
use strange_server::fleet::{
    partition_sessions, run_shards, run_shards_sequential, FleetReport, FleetServer, RoutePolicy,
    ShardRouter,
};
use strange_server::{AdmissionConfig, Pacing, RngServer, ServerReport, SubmitOutcome};
use strange_trng::DRange;
use strange_workloads::{fleet_flash_crowd, fleet_shard_seed, fleet_shard_service};

use crate::bench::{
    fingerprint, served_mbps, timed, Account, Check, Counts, Handoff, Round, Values, Workload,
};
use crate::json::Json;
use crate::service::{conservation_checks, manual_us_per_req, service_values, session_system};
use crate::trace::Tracer;

const BYTES: usize = 32;
const WORDS: usize = BYTES / 8;
/// One `getrandom` span in this many is recorded; opens and closes all.
const SPAN_SAMPLE: u64 = 16;
/// For the coreless batch runs here: their default limit would derive
/// from the unused instruction target and truncate them.
const NO_CYCLE_LIMIT: u64 = 1 << 50;

// ---------------------------------------------------------------------
// server_closed

/// Closed-loop think times, one per session. Unequal, so the sessions
/// drift against each other and a round sees both buffer hits and demand
/// episodes.
const THINKS: [u64; 4] = [4_000, 2_500, 3_300, 2_900];
const CALLS_PER_SESSION: u64 = 150_000;

pub struct ServerClosed {
    seed: u64,
    /// One client thread and session per host CPU, at most `THINKS.len()`.
    sessions: usize,
}

pub fn server_closed(seed: u64, nproc: usize) -> ServerClosed {
    ServerClosed {
        seed,
        sessions: nproc.clamp(1, THINKS.len()),
    }
}

impl ServerClosed {
    /// Starts a server, drives every session's closed loop from its own
    /// thread, shuts down. Returns the wall time of all of it.
    fn serve(&self, tr: &mut Tracer, calls: u64) -> (f64, ServerReport, u64) {
        let (wall_s, (report, bad)) = timed(|| {
            let server = tr.span("server.start", 0, |_| {
                RngServer::start(
                    session_system(Box::new(DRange::new(self.seed))),
                    Pacing::Virtual,
                )
            });
            // Every session is open before any thread submits, so the
            // open order (and with it the run) does not depend on the host.
            let handles: Vec<_> = (0..self.sessions)
                .map(|i| {
                    tr.span("server.open_session", i as u64, |_| {
                        server.open_session(ClientSpec::manual(BYTES))
                    })
                })
                .collect();
            let mut bad = 0;
            std::thread::scope(|scope| {
                let workers: Vec<_> = handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut handle)| {
                        let mut tr = tr.fork(i as u64 + 1);
                        scope.spawn(move || {
                            let mut buf = [0u8; BYTES];
                            let mut bad = 0u64;
                            for call in 0..calls {
                                let req = (i as u64) << 32 | call;
                                let served = if call % SPAN_SAMPLE == 0 {
                                    tr.span("server.getrandom", req, |_| {
                                        handle.getrandom(&mut buf, THINKS[i])
                                    })
                                } else {
                                    handle.getrandom(&mut buf, THINKS[i])
                                };
                                bad += u64::from(served.words.len() != WORDS);
                            }
                            tr.span("server.close", i as u64, |_| handle.close());
                            (tr, bad)
                        })
                    })
                    .collect();
                for worker in workers {
                    let (child, worker_bad) = worker.join().expect("client thread panicked");
                    tr.join(child);
                    bad += worker_bad;
                }
            });
            let report = tr.span("server.shutdown", 0, |_| server.shutdown());
            (report, bad)
        });
        (wall_s, report, bad)
    }

    fn round(&self, wall_s: f64, report: &ServerReport, bad: u64) -> Round {
        let attempted = self.sessions as u64 * CALLS_PER_SESSION;
        Round {
            wall_s,
            reqs: report.stats.requests_completed,
            instr: 0,
            sim_cycles: report.cpu_cycles,
            attempted,
            failed: bad + (attempted - report.stats.requests_completed.min(attempted)),
            fingerprint: fingerprint(&(&report.stats, report.cpu_cycles, &report.system)),
        }
    }

    /// The synchronous run of the same schedule: one configured
    /// closed-loop client per session.
    fn sync_system(&self, calls: u64) -> System {
        let mut config = SystemConfig::dr_strange(0).with_service(ServiceConfig {
            clients: (0..self.sessions)
                .map(|i| ClientSpec::closed_loop(BYTES, THINKS[i], calls))
                .collect(),
            ..ServiceConfig::default()
        });
        config.max_cpu_cycles = NO_CYCLE_LIMIT;
        System::new(config, Vec::new(), Box::new(DRange::new(self.seed)))
            .expect("valid configuration")
    }
}

impl Workload for ServerClosed {
    fn constants(&self) -> Json {
        Json::obj([
            (
                "sessions_and_client_threads",
                Json::from(self.sessions as u64),
            ),
            ("calls_per_session", Json::from(CALLS_PER_SESSION)),
            ("bytes", Json::from(BYTES as u64)),
            (
                "think_cycles",
                Json::Arr(
                    THINKS[..self.sessions]
                        .iter()
                        .map(|&t| Json::from(t))
                        .collect(),
                ),
            ),
            ("pacing", Json::str("virtual")),
            ("admission", Json::str("off")),
            ("mechanism", Json::str("D-RaNGe")),
        ])
    }

    fn setup(&mut self) -> f64 {
        let (seconds, (server, handles)) = timed(|| {
            let server = RngServer::start(
                session_system(Box::new(DRange::new(self.seed))),
                Pacing::Virtual,
            );
            let handles: Vec<_> = (0..self.sessions)
                .map(|_| server.open_session(ClientSpec::manual(BYTES)))
                .collect();
            (server, handles)
        });
        handles.into_iter().for_each(|h| h.close());
        server.shutdown();
        seconds
    }

    fn account(&mut self, tr: &mut Tracer) -> Account {
        let (wall_s, report, bad) = self.serve(tr, CALLS_PER_SESSION);
        let mut values = Values::new();
        service_values(
            tr,
            &report.stats,
            report.system.buffer_serve_rate(),
            served_mbps(report.stats.bytes_served, report.cpu_cycles),
            report.cpu_cycles,
            &mut values,
        );
        let mut counts = Counts {
            sim_cycles: report.cpu_cycles,
            ..Counts::default()
        };
        counts.add_engine(&report.system);
        counts.write_engine(&mut values);
        Account {
            round: self.round(wall_s, &report, bad),
            values,
        }
    }

    fn timed(&mut self) -> Round {
        let (wall_s, report, bad) = self.serve(&mut Tracer::new(false), CALLS_PER_SESSION);
        self.round(wall_s, &report, bad)
    }

    fn checks(&mut self) -> Vec<Check> {
        const CALLS: u64 = 2_000;
        let (_, report, bad) = self.serve(&mut Tracer::new(false), CALLS);
        let sync = self.sync_system(CALLS).run();
        let sync_stats = sync.service.as_ref().expect("service configured");
        let mut out = vec![
            Check::same("server_equals_synchronous_run", &report.stats, sync_stats),
            Check::new(
                "words_delivered",
                bad == 0,
                format!("{bad} calls with a wrong word count"),
            ),
        ];
        conservation_checks(
            &report.stats,
            self.sessions as u64 * CALLS * BYTES as u64,
            &mut out,
        );
        out
    }

    fn extras(&mut self, round_s: f64, handoff: &Handoff, out: &mut Values) {
        let requests = (self.sessions as u64 * CALLS_PER_SESSION) as f64;
        let mut sync = self.sync_system(CALLS_PER_SESSION);
        let (sync_s, _) = timed(|| sync.run());
        let manual_us = manual_us_per_req(Box::new(DRange::new(self.seed)), BYTES, THINKS[0]);
        out.insert("service.sync_us_per_req", sync_s / requests * 1e6);
        out.insert("service.manual_us_per_req", manual_us);
        out.insert("server.facade_ratio", round_s / sync_s);
        out.insert("server.thread_hop_us", round_s / requests * 1e6 - manual_us);
        if let Some(&unpinned) = handoff.get("server.unpinned_wall_s") {
            out.insert("server.unpinned_wall_s", unpinned);
        }
    }
}

/// One unpinned round at a fifth of the calls, scaled to a full round:
/// unpinned, the closed loop is bimodal (cross-core futex wake-ups), which
/// is why the measured rounds are pinned and this one is report-only.
pub fn server_unpinned_wall_s(seed: u64, nproc: usize) -> f64 {
    const SHARE: u64 = 5;
    let (wall_s, _, _) =
        server_closed(seed, nproc).serve(&mut Tracer::new(false), CALLS_PER_SESSION / SHARE);
    wall_s * SHARE as f64
}

// ---------------------------------------------------------------------
// fleet_churn

const SHARDS: usize = 2;
const CHURN_SESSIONS: usize = 24_000;
const CALLS_PER_CHURN_SESSION: u64 = 2;
const CHURN_THINK: u64 = 2_000;
/// Token bucket sized so that no session of this workload is ever shed:
/// two requests against a burst of eight.
const BUCKET_BURST: u32 = 8;
const BUCKET_CYCLES_PER_TOKEN: u64 = 1_000;

pub struct FleetChurn {
    seed: u64,
}

pub fn fleet_churn(seed: u64) -> FleetChurn {
    FleetChurn { seed }
}

fn admission() -> AdmissionConfig {
    AdmissionConfig::protective(BUCKET_BURST, BUCKET_CYCLES_PER_TOKEN)
}

/// The two calls of one churn session. Returns the calls not served with
/// the right number of words.
fn churn_calls(session: &mut strange_server::SessionHandle) -> u64 {
    let mut bad = 0;
    for call in 0..CALLS_PER_CHURN_SESSION {
        // As `getrandom` does: the first call arrives at the open cycle.
        session.submit_after(BYTES, if call == 0 { 0 } else { CHURN_THINK });
        match session.recv_outcome() {
            SubmitOutcome::Served(served) if served.words.len() == WORDS => {}
            _ => bad += 1,
        }
    }
    bad
}

impl FleetChurn {
    fn systems(&self, shards: usize) -> Vec<System> {
        (0..shards)
            .map(|shard| session_system(Box::new(DRange::new(fleet_shard_seed(self.seed, shard)))))
            .collect()
    }

    /// One opener thread: open → two calls → close, `sessions` times.
    /// A close trails its open by `shards − 1` sessions, so least-loaded
    /// routing sees the previous session still open and alternates
    /// shards; closing first would send every session to shard 0. Each
    /// shard still has at most one open session, which the virtual-time
    /// barrier needs: an idle open session halts its shard's clock.
    fn churn(&self, tr: &mut Tracer, shards: usize, sessions: usize) -> (f64, FleetReport, u64) {
        let (wall_s, (report, bad)) = timed(|| {
            let fleet = tr.span("fleet.start", 0, |_| {
                FleetServer::start_with_admission(
                    self.systems(shards),
                    RoutePolicy::LeastLoaded,
                    Pacing::Virtual,
                    admission(),
                )
            });
            let mut bad = 0;
            let mut open = std::collections::VecDeque::new();
            for i in 0..sessions as u64 {
                let mut session = tr.span("fleet.open_session", i, |_| {
                    fleet.open_session(ClientSpec::manual(BYTES))
                });
                bad += tr.span("fleet.calls", i, |_| churn_calls(&mut session));
                open.push_back((i, session));
                if open.len() == shards {
                    let (j, oldest) = open.pop_front().expect("non-empty");
                    tr.span("fleet.close", j, |_| oldest.close());
                }
            }
            for (j, session) in open {
                tr.span("fleet.close", j, |_| session.close());
            }
            let report = tr.span("fleet.shutdown", 0, |_| fleet.shutdown());
            (report, bad)
        });
        (wall_s, report, bad)
    }

    fn round(&self, wall_s: f64, report: &FleetReport, bad: u64) -> Round {
        let attempted = CHURN_SESSIONS as u64 * CALLS_PER_CHURN_SESSION;
        let completed: u64 = report
            .shards
            .iter()
            .map(|s| s.stats.requests_completed)
            .sum();
        let refused = report.admission.shed() + report.admission.timed_out;
        Round {
            wall_s,
            reqs: completed,
            instr: 0,
            sim_cycles: report.shards.iter().map(|s| s.cpu_cycles).sum(),
            attempted,
            failed: bad.max(refused).max(attempted - completed.min(attempted)),
            fingerprint: fingerprint(&(
                report
                    .shards
                    .iter()
                    .map(|s| (&s.stats, s.cpu_cycles, &s.system))
                    .collect::<Vec<_>>(),
                &report.sessions,
                report.admission,
            )),
        }
    }
}

/// The same churn against a plain `RngServer`: the fleet front-end's
/// baseline.
fn churn_plain_server(seed: u64, sessions: usize) -> f64 {
    let (wall_s, ()) = timed(|| {
        let system = session_system(Box::new(DRange::new(fleet_shard_seed(seed, 0))));
        let server = RngServer::start_with_admission(system, Pacing::Virtual, admission());
        for _ in 0..sessions {
            let mut session = server.open_session(ClientSpec::manual(BYTES));
            std::hint::black_box(churn_calls(&mut session));
            session.close();
        }
        server.shutdown();
    });
    wall_s
}

/// `FleetStats` recomputed from the shard reports, independently of
/// `FleetStats::aggregate`.
fn union_of_shards(shards: &[&ServiceStats]) -> (u64, u64, u64, Vec<u64>, Vec<u64>) {
    let mut log: Vec<u64> = Vec::new();
    for s in shards {
        log.extend(&s.latency_log);
    }
    log.sort_unstable();
    (
        shards.iter().map(|s| s.requests_offered).sum(),
        shards.iter().map(|s| s.requests_completed).sum(),
        shards.iter().map(|s| s.bytes_served).sum(),
        log,
        shards.iter().map(|s| s.bytes_served).collect(),
    )
}

impl Workload for FleetChurn {
    fn constants(&self) -> Json {
        Json::obj([
            ("shards", Json::from(SHARDS as u64)),
            ("route_policy", Json::str("LeastLoaded")),
            ("sessions", Json::from(CHURN_SESSIONS as u64)),
            ("calls_per_session", Json::from(CALLS_PER_CHURN_SESSION)),
            ("bytes", Json::from(BYTES as u64)),
            ("think_cycles", Json::from(CHURN_THINK)),
            ("close_lag_sessions", Json::from(SHARDS as u64 - 1)),
            ("admission", Json::str("protective")),
            ("bucket_burst", Json::from(u64::from(BUCKET_BURST))),
            (
                "bucket_cycles_per_token",
                Json::from(BUCKET_CYCLES_PER_TOKEN),
            ),
            ("client_threads", Json::from(1u64)),
            ("mechanism", Json::str("D-RaNGe")),
        ])
    }

    fn setup(&mut self) -> f64 {
        let (seconds, fleet) = timed(|| {
            FleetServer::start_with_admission(
                self.systems(SHARDS),
                RoutePolicy::LeastLoaded,
                Pacing::Virtual,
                admission(),
            )
        });
        fleet.shutdown();
        seconds
    }

    fn account(&mut self, tr: &mut Tracer) -> Account {
        let (wall_s, report, bad) = self.churn(tr, SHARDS, CHURN_SESSIONS);
        let fleet = tr.span("fleet.aggregate", 0, |_| report.fleet_stats());
        let mut values = Values::new();
        let mut counts = Counts::default();
        let mut buffer = Ratio::new();
        let mut mbps = 0.0;
        for shard in &report.shards {
            counts.sim_cycles += shard.cpu_cycles;
            counts.add_engine(&shard.system);
            buffer.merge(shard.system.buffer_serve);
            // Shards advance their own virtual clocks side by side, so
            // the fleet's rate is the sum of the shard rates.
            mbps += served_mbps(shard.stats.bytes_served, shard.cpu_cycles);
        }
        let words: u64 = report.shards.iter().map(|s| s.stats.words_issued).sum();
        let blocked: u64 = report
            .shards
            .iter()
            .map(|s| s.stats.issue_blocked_cycles)
            .sum();
        let pcts = tr.span("metrics.percentile", 0, |_| {
            (
                fleet.latency_percentile(0.50),
                fleet.latency_percentile(0.99),
            )
        });
        values.insert("sim_buffer_hit_rate", buffer.rate());
        values.insert("sim_served_mbps", mbps);
        values.insert("sim_p50_cycles", pcts.0.unwrap_or(0) as f64);
        values.insert("sim_p99_cycles", pcts.1.unwrap_or(0) as f64);
        values.insert("sim_jain", fleet.jain().unwrap_or(0.0));
        values.insert("service.words_issued", words as f64);
        values.insert(
            "service.issue_blocked_frac",
            blocked as f64 / counts.sim_cycles.max(1) as f64,
        );
        values.insert("admission.accepted", report.admission.accepted as f64);
        values.insert("admission.deferred", report.admission.deferred as f64);
        values.insert("admission.shed", report.admission.shed() as f64);
        counts.write_engine(&mut values);
        Account {
            round: self.round(wall_s, &report, bad),
            values,
        }
    }

    fn timed(&mut self) -> Round {
        let (wall_s, report, bad) = self.churn(&mut Tracer::new(false), SHARDS, CHURN_SESSIONS);
        self.round(wall_s, &report, bad)
    }

    fn checks(&mut self) -> Vec<Check> {
        const SESSIONS: usize = 1_000;
        let (_, report, bad) = self.churn(&mut Tracer::new(false), SHARDS, SESSIONS);
        let fleet = report.fleet_stats();
        let shard_stats: Vec<&ServiceStats> = report.shards.iter().map(|s| &s.stats).collect();
        let bytes = SESSIONS as u64 * CALLS_PER_CHURN_SESSION * BYTES as u64;
        let mut out = vec![
            Check::same(
                "fleet_stats_equal_union_of_shards",
                &(
                    fleet.requests_offered,
                    fleet.requests_completed,
                    fleet.bytes_served,
                    &fleet.latency_log,
                    &fleet.shard_bytes,
                ),
                &union_of_shards(&shard_stats),
            ),
            Check::new(
                "nothing_shed",
                bad == 0 && report.admission.shed() + report.admission.timed_out == 0,
                format!("{bad} bad calls, {:?}", report.admission),
            ),
            Check::new(
                "sessions_mapped",
                report.sessions.len() == SESSIONS,
                format!(
                    "{} of {SESSIONS} sessions in the map",
                    report.sessions.len()
                ),
            ),
        ];
        for shard in &report.shards {
            conservation_checks(&shard.stats, shard.stats.bytes_served, &mut out);
        }
        out.push(Check::new(
            "bytes_served",
            fleet.bytes_served == bytes,
            format!("{} of {bytes}", fleet.bytes_served),
        ));
        out
    }

    fn extras(&mut self, round_s: f64, handoff: &Handoff, out: &mut Values) {
        out.insert(
            "fleet.ksessions_per_s",
            CHURN_SESSIONS as f64 / round_s / 1e3,
        );

        // Same schedule through a one-shard fleet and through a plain
        // server: what routing and the session map add per session.
        const SESSIONS: usize = 6_000;
        let (front_s, _, _) = self.churn(&mut Tracer::new(false), 1, SESSIONS);
        out.insert(
            "fleet.front_ratio",
            front_s / churn_plain_server(self.seed, SESSIONS),
        );

        const KEYS: u64 = 1_000_000;
        let mut router = ShardRouter::new(RoutePolicy::LeastLoaded, SHARDS);
        let (route_s, ()) = timed(|| {
            for key in 0..KEYS {
                let shard = router.route_session(std::hint::black_box(key), None);
                if key % 2 == 1 {
                    router.release(shard);
                }
            }
        });
        out.insert("fleet.route_ns", route_s * 1e9 / KEYS as f64);
        if let Some(&ratio) = handoff.get("fleet.scaleout_ratio") {
            out.insert("fleet.scaleout_ratio", ratio);
        }
    }
}

/// Sequential ÷ parallel wall of a two-shard flash-crowd partition,
/// unpinned. Report-only: it moves with the host's core count.
pub fn fleet_scaleout_ratio(seed: u64) -> f64 {
    let shards = || -> Vec<System> {
        let mut router = ShardRouter::new(RoutePolicy::RoundRobin, SHARDS);
        let (per_shard, _) = partition_sessions(&mut router, &fleet_flash_crowd(10_000, BYTES, 50));
        per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, sessions)| {
                let mut config =
                    SystemConfig::dr_strange(0).with_service(fleet_shard_service(sessions));
                config.max_cpu_cycles = NO_CYCLE_LIMIT;
                let mechanism = Box::new(DRange::new(fleet_shard_seed(seed, shard)));
                System::new(config, Vec::new(), mechanism).expect("valid configuration")
            })
            .collect()
    };
    let (sequential_s, _) = timed(|| run_shards_sequential(shards()));
    let (parallel_s, _) = timed(|| run_shards(shards()));
    sequential_s / parallel_s
}
