//! `svc_saturated` and `svc_buffered`: the coreless `System::run` over a
//! `getrandom()` client population — the same engine used two ways.

use strange_core::{
    ClientSpec, FairnessPolicy, RunResult, ServiceConfig, ServiceStats, SimMode, System,
    SystemConfig, WatchdogConfig,
};
use strange_metrics::jain_index;
use strange_trng::{DRange, QuacTrng, TrngMechanism};
use strange_workloads::{contended_qos_service, poisson_service};

use crate::bench::{
    fingerprint, readiness_counts, served_mbps, timed, Account, Check, Counts, Handoff, Round,
    Values, Workload,
};
use crate::json::Json;
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// D-RaNGe under two saturating High tenants plus a Normal and a Low
    /// one: closed loop, little to skip.
    Saturated,
    /// QUAC-TRNG behind the 16-entry buffer under an open-loop Poisson
    /// population: almost everything skipped, almost every request a hit.
    Buffered,
}

/// Requests of each measured tenant of `contended_qos_service`; the two
/// aggressors issue four times as many, 10 000 requests in all.
const SATURATED_REQUESTS: u64 = 1_000;
const SATURATED_BYTES: usize = 64;
const BUFFERED_CLIENTS: usize = 4;
const BUFFERED_BYTES: usize = 32;
const BUFFERED_MBPS: u32 = 1_280;
const BUFFERED_REQUESTS: u64 = 300_000;
/// Explicit cycle limits: a coreless run's default limit derives from the
/// (unused) instruction target and would silently truncate these runs.
const SATURATED_CYCLE_LIMIT: u64 = 2_000_000_000;
const BUFFERED_CYCLE_LIMIT: u64 = 20_000_000_000;

pub struct Service {
    kind: Kind,
    seed: u64,
}

pub fn svc_saturated(seed: u64) -> Service {
    Service {
        kind: Kind::Saturated,
        seed,
    }
}

pub fn svc_buffered(seed: u64) -> Service {
    Service {
        kind: Kind::Buffered,
        seed,
    }
}

/// A coreless DR-STRaNGe system that accepts dynamically opened sessions.
pub fn session_system(mechanism: Box<dyn TrngMechanism>) -> System {
    let config = SystemConfig::dr_strange(0).with_service(ServiceConfig {
        sessions: true,
        ..ServiceConfig::default()
    });
    System::new(config, Vec::new(), mechanism).expect("valid configuration")
}

/// Host microseconds per request of the single-threaded manual path
/// (`service_submit` + `advance_until` + `take_service_completion`): one
/// closed-loop session, what a server's driver does minus the threads.
pub fn manual_us_per_req(mechanism: Box<dyn TrngMechanism>, bytes: usize, think: u64) -> f64 {
    const REQUESTS: u64 = 20_000;
    let mut sys = session_system(mechanism);
    let session = sys.open_session(ClientSpec::manual(bytes));
    let (seconds, ()) = timed(|| {
        for _ in 0..REQUESTS {
            sys.service_submit(session, bytes);
            sys.advance_until(u64::MAX, |s| s.service_completions_pending() > 0);
            std::hint::black_box(sys.take_service_completion());
            sys.advance_until(think, |_| false);
        }
    });
    seconds / REQUESTS as f64 * 1e6
}

impl Service {
    /// The client population at `1/reduce` of its requests.
    fn clients(&self, reduce: u64) -> ServiceConfig {
        match self.kind {
            Kind::Saturated => contended_qos_service(SATURATED_BYTES, SATURATED_REQUESTS / reduce),
            Kind::Buffered => poisson_service(
                BUFFERED_CLIENTS,
                BUFFERED_BYTES,
                BUFFERED_MBPS,
                BUFFERED_REQUESTS / reduce,
                self.seed,
            ),
        }
    }

    fn config(&self, clients: ServiceConfig, mode: SimMode) -> SystemConfig {
        let mut config = SystemConfig::dr_strange(0)
            .with_service(clients)
            .with_sim_mode(mode);
        match self.kind {
            Kind::Saturated => {
                config = config
                    .with_fairness(FairnessPolicy::aging())
                    .with_watchdog(WatchdogConfig::standard());
                config.max_cpu_cycles = SATURATED_CYCLE_LIMIT;
            }
            Kind::Buffered => config.max_cpu_cycles = BUFFERED_CYCLE_LIMIT,
        }
        config
    }

    fn mechanism(&self) -> Box<dyn TrngMechanism> {
        match self.kind {
            Kind::Saturated => Box::new(DRange::new(self.seed)),
            Kind::Buffered => Box::new(QuacTrng::new(self.seed)),
        }
    }

    fn system(&self, reduce: u64, mode: SimMode) -> System {
        System::new(
            self.config(self.clients(reduce), mode),
            Vec::new(),
            self.mechanism(),
        )
        .expect("valid configuration")
    }

    fn run(&self, tr: &mut Tracer) -> (f64, RunResult, System) {
        let clients = tr.span("workloads.gen", 0, |_| self.clients(1));
        let config = self.config(clients, SimMode::FastForward);
        let (wall_s, (res, sys)) = timed(|| {
            let mut sys = tr.span("system.new", 0, |_| {
                System::new(config, Vec::new(), self.mechanism()).expect("valid configuration")
            });
            let res = tr.span("system.run", 0, |_| sys.run());
            (res, sys)
        });
        (wall_s, res, sys)
    }

    fn round(&self, wall_s: f64, res: &RunResult) -> Round {
        let stats = res.service.as_ref().expect("service configured");
        let offered: u64 = self.clients(1).clients.iter().map(|c| c.requests).sum();
        Round {
            wall_s,
            reqs: stats.requests_completed,
            instr: 0,
            sim_cycles: res.cpu_cycles,
            attempted: offered,
            failed: (offered - stats.requests_completed.min(offered))
                + u64::from(res.hit_cycle_limit),
            fingerprint: fingerprint(res),
        }
    }
}

/// Simulated end-to-end numbers of a service run: word-level buffer hit
/// rate, served Mb/s over the run, and exact request-latency percentiles.
pub fn service_values(
    tr: &mut Tracer,
    stats: &ServiceStats,
    buffer_serve_rate: f64,
    served_mbps: f64,
    sim_cycles: u64,
    out: &mut Values,
) {
    let pcts = tr.span("metrics.percentile", 0, |_| {
        stats.latency_percentiles(&[0.50, 0.99])
    });
    out.insert("sim_buffer_hit_rate", buffer_serve_rate);
    out.insert("sim_served_mbps", served_mbps);
    out.insert("sim_p50_cycles", pcts[0].unwrap_or(0) as f64);
    out.insert("sim_p99_cycles", pcts[1].unwrap_or(0) as f64);
    out.insert("service.words_issued", stats.words_issued as f64);
    out.insert(
        "service.issue_blocked_frac",
        stats.issue_blocked_cycles as f64 / sim_cycles.max(1) as f64,
    );
}

/// Conservation of served words: every issued word came from the buffer
/// or from generation, and every completed request delivered its bytes.
pub fn conservation_checks(stats: &ServiceStats, bytes_expected: u64, out: &mut Vec<Check>) {
    out.push(Check::new(
        "words_conserved",
        stats.words_from_buffer + stats.words_generated == stats.words_issued,
        format!(
            "{} from buffer + {} generated vs {} issued",
            stats.words_from_buffer, stats.words_generated, stats.words_issued
        ),
    ));
    out.push(Check::new(
        "completed_equals_offered",
        stats.requests_completed == stats.requests_offered && stats.bytes_served == bytes_expected,
        format!(
            "{} of {} requests, {} of {bytes_expected} bytes",
            stats.requests_completed, stats.requests_offered, stats.bytes_served
        ),
    ));
}

impl Workload for Service {
    fn constants(&self) -> Json {
        match self.kind {
            Kind::Saturated => Json::obj([
                ("population", Json::str("contended_qos_service")),
                ("bytes", Json::from(SATURATED_BYTES as u64)),
                (
                    "requests_per_measured_tenant",
                    Json::from(SATURATED_REQUESTS),
                ),
                ("requests_total", Json::from(10 * SATURATED_REQUESTS)),
                ("fairness", Json::str("aging")),
                ("watchdog", Json::str("standard")),
                ("mechanism", Json::str("D-RaNGe")),
                ("cycle_limit", Json::from(SATURATED_CYCLE_LIMIT)),
            ]),
            Kind::Buffered => Json::obj([
                ("population", Json::str("poisson_service")),
                ("clients", Json::from(BUFFERED_CLIENTS as u64)),
                ("bytes", Json::from(BUFFERED_BYTES as u64)),
                ("offered_mbps", Json::from(u64::from(BUFFERED_MBPS))),
                ("requests_per_client", Json::from(BUFFERED_REQUESTS)),
                ("mechanism", Json::str("QUAC-TRNG")),
                ("buffer_entries", Json::from(16u64)),
                ("cycle_limit", Json::from(BUFFERED_CYCLE_LIMIT)),
            ]),
        }
    }

    fn setup(&mut self) -> f64 {
        let (seconds, sys) = timed(|| self.system(1, SimMode::FastForward));
        drop(sys);
        seconds
    }

    fn account(&mut self, tr: &mut Tracer) -> Account {
        let (wall_s, res, sys) = self.run(tr);
        let stats = res.service.as_ref().expect("service configured");
        let mut values = Values::new();
        service_values(
            tr,
            stats,
            res.stats.buffer_serve_rate(),
            served_mbps(stats.bytes_served, res.cpu_cycles),
            res.cpu_cycles,
            &mut values,
        );
        if self.kind == Kind::Saturated {
            let shares: Vec<f64> = stats.bytes_by_client.iter().map(|&b| b as f64).collect();
            values.insert("sim_jain", jain_index(&shares).unwrap_or(0.0));
            let low = stats.client_latency_percentile(3, 0.99).unwrap_or(0);
            values.insert("service.low_tenant_p99_cycles", low as f64);
        }
        let mut counts = Counts::default();
        counts.add_run(&res, sys.skipped_cycles(), readiness_counts(&sys));
        counts.write(&mut values);
        Account {
            round: self.round(wall_s, &res),
            values,
        }
    }

    fn timed(&mut self) -> Round {
        let (wall_s, res, _) = self.run(&mut Tracer::new(false));
        self.round(wall_s, &res)
    }

    fn checks(&mut self) -> Vec<Check> {
        let reduce = match self.kind {
            Kind::Saturated => 25,
            Kind::Buffered => 150,
        };
        let reference = self.system(reduce, SimMode::Reference).run();
        let fast = self.system(reduce, SimMode::FastForward).run();
        let stats = fast.service.as_ref().expect("service configured");
        let bytes: u64 = self
            .clients(reduce)
            .clients
            .iter()
            .map(|c| c.requests * c.bytes as u64)
            .sum();
        let mut out = vec![
            Check::same("reference_equals_fastforward", &reference, &fast),
            Check::new(
                "no_cycle_limit",
                !reference.hit_cycle_limit && !fast.hit_cycle_limit,
                "reduced scale, both modes",
            ),
        ];
        conservation_checks(stats, bytes, &mut out);
        out
    }

    fn extras(&mut self, round_s: f64, _handoff: &Handoff, out: &mut Values) {
        let requests: u64 = self.clients(1).clients.iter().map(|c| c.requests).sum();
        out.insert("service.sync_us_per_req", round_s / requests as f64 * 1e6);
        let bytes = match self.kind {
            Kind::Saturated => SATURATED_BYTES,
            Kind::Buffered => BUFFERED_BYTES,
        };
        out.insert(
            "service.manual_us_per_req",
            manual_us_per_req(self.mechanism(), bytes, 2_000),
        );

        // Live-tick and skip cost of this workload's own system at
        // reduced scale. `advance_until` calls its predicate once per
        // loop turn, and each turn is one skip or one live tick, which
        // is the only public way to count skips. A reference-mode run of
        // the same work prices a tick; what fast-forward spends beyond
        // its live ticks at that price is what its skips (and the probes
        // that found them) cost.
        let reduce = match self.kind {
            Kind::Saturated => 10,
            Kind::Buffered => 30,
        };
        let mut reference = self.system(reduce, SimMode::Reference);
        let (ref_s, ref_res) = timed(|| reference.run());
        let tick_ns = ref_s * 1e9 / ref_res.cpu_cycles as f64;
        let mut fast = self.system(reduce, SimMode::FastForward);
        let mut turns = 0u64;
        let (fast_s, advanced) = timed(|| {
            fast.advance_until(u64::MAX, |s| {
                turns += 1;
                s.service().is_some_and(|svc| svc.targets_met())
            })
        });
        let live = advanced - fast.skipped_cycles();
        let skips = (turns - 1).saturating_sub(live);
        out.insert("system.ns_per_live_tick", tick_ns);
        out.insert(
            "system.ns_per_skip",
            (fast_s * 1e9 - live as f64 * tick_ns).max(0.0) / skips.max(1) as f64,
        );
    }
}
