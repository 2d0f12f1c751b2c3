//! Sharded multi-[`System`] fleet: a router front-end over N independent
//! shards, each behind its own lock, with fleet-level aggregated
//! observability.
//!
//! One `System` — one DRAM channel set, one TRNG engine — saturates near
//! its mechanism ceiling (~620 Mb/s D-RaNGe, ~2.7 Gb/s QUAC). Real
//! deployments scale past a single memory controller by adding
//! sockets/nodes; this module is that scale-out layer for the simulated
//! server: a [`ShardRouter`] distributes `open_session`/`getrandom`
//! traffic across shards, each shard's virtual time is advanced by the
//! callers of its sessions (or its pacer, under wall-clock pacing), and
//! [`FleetSnapshot`] / [`FleetStats`] aggregate the per-shard views back
//! into one fleet readout.
//!
//! # Determinism contract
//!
//! Routing decisions are pure functions of routing history and the
//! session key — never of host timing — so the induced per-shard session
//! sets are reproducible. Because shards share no simulated state, the
//! fleet inherits shard-local determinism wholesale:
//!
//! * per shard, `SimMode::Reference` ≡ `SimMode::FastForward` bit
//!   identity holds exactly as for a single system;
//! * an N-shard run under [`RoutePolicy::SessionHash`] is bit-identical
//!   to N separate single-shard runs of the induced per-shard session
//!   sets (asserted in `tests/fleet.rs`);
//! * [`run_shards`] (parallel, one thread per shard) produces exactly
//!   the results of [`run_shards_sequential`].
//!
//! # Aggregation semantics
//!
//! Every global session lives on exactly one shard, so per-tenant fleet
//! percentiles are *exact* — a tenant's fleet p50/p99 is its shard-local
//! p50/p99, looked up through the session map, not an approximation.
//! Fleet-wide scalars (offered/completed/bytes) are sums; the fleet
//! latency distribution is the merge of the shard logs; the fleet Jain
//! index is computed across shards over bytes served (how evenly the
//! fleet is utilized). Admission stays shard-local — each shard's
//! ladder sees only its own queue depth and buffer — while
//! [`FleetReport::admission`] exposes the fleet-wide shed/defer
//! counters.

use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use strange_core::{ClientSpec, RunResult, ServiceStats, System};
use strange_metrics::{jain_index, percentile_sorted};

use crate::{
    AdmissionConfig, AdmissionStats, Pacing, RngServer, ServerReport, SessionHandle, Snapshot,
};

/// SplitMix64 finalizer: the session-key mixer behind
/// [`RoutePolicy::SessionHash`]. Deterministic and host-independent.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How the [`ShardRouter`] picks a shard for a new session. All three
/// policies are pure functions of simulated/routing state, so fleet
/// runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through the candidate shards in order.
    RoundRobin,
    /// Hash the session key (salted) onto a shard: sticky per key,
    /// independent of arrival order — the policy whose induced
    /// partition is asserted bit-identical to single-shard runs.
    SessionHash {
        /// Salt mixed into every key (lets two fleets disagree).
        salt: u64,
    },
    /// Pick the candidate shard with the fewest open sessions (ties go
    /// to the lower index). Load is the router's own open-session
    /// accounting — simulated state, not host state.
    LeastLoaded,
}

/// The fleet front-end's routing state: open-session accounting per
/// shard plus the pluggable [`RoutePolicy`].
///
/// The optional per-shard *mechanism labels* are the hook for the
/// heterogeneous-fleet follow-on: [`ShardRouter::route_session`] takes
/// a preferred mechanism, and when any shard carries that label the
/// candidate set narrows to those shards before the policy picks.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    policy: RoutePolicy,
    labels: Vec<String>,
    open: Vec<usize>,
    rr: usize,
    routed: u64,
}

impl ShardRouter {
    /// A router over `shards` unlabeled shards.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet.
    pub fn new(policy: RoutePolicy, shards: usize) -> Self {
        assert!(shards >= 1, "fleet of zero shards");
        ShardRouter {
            policy,
            labels: vec![String::new(); shards],
            open: vec![0; shards],
            rr: 0,
            routed: 0,
        }
    }

    /// A router whose shards carry mechanism labels (e.g. `"D-RaNGe"`,
    /// `"QUAC-TRNG"`) for mechanism-aware routing.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet.
    pub fn with_labels(policy: RoutePolicy, labels: Vec<String>) -> Self {
        assert!(!labels.is_empty(), "fleet of zero shards");
        let shards = labels.len();
        ShardRouter {
            policy,
            labels,
            open: vec![0; shards],
            rr: 0,
            routed: 0,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.open.len()
    }

    /// Sessions currently open on `shard` (router accounting).
    pub fn open_count(&self, shard: usize) -> usize {
        self.open[shard]
    }

    /// Total sessions routed over the router's lifetime.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Routes a new session identified by `key` and returns its shard,
    /// counting it open there. `prefer_mechanism` narrows the candidate
    /// set to shards carrying that label when at least one does; an
    /// unknown label falls back to the whole fleet, so a mono-mechanism
    /// fleet ignores preferences entirely.
    pub fn route_session(&mut self, key: u64, prefer_mechanism: Option<&str>) -> usize {
        let candidates: Vec<usize> = match prefer_mechanism {
            Some(m) if self.labels.iter().any(|l| l == m) => (0..self.open.len())
                .filter(|&i| self.labels[i] == m)
                .collect(),
            _ => (0..self.open.len()).collect(),
        };
        let pick = match self.policy {
            RoutePolicy::RoundRobin => {
                let i = candidates[self.rr % candidates.len()];
                self.rr += 1;
                i
            }
            RoutePolicy::SessionHash { salt } => {
                let h = splitmix64(salt ^ splitmix64(key));
                candidates[(h % candidates.len() as u64) as usize]
            }
            RoutePolicy::LeastLoaded => *candidates
                .iter()
                .min_by_key(|&&i| (self.open[i], i))
                .expect("non-empty fleet"),
        };
        self.open[pick] += 1;
        self.routed += 1;
        pick
    }

    /// Counts a session on `shard` closed (the [`RoutePolicy::LeastLoaded`]
    /// load signal).
    pub fn release(&mut self, shard: usize) {
        self.open[shard] = self.open[shard].saturating_sub(1);
    }
}

/// Partitions a session population across the router's shards: spec `i`
/// is routed with key `i`, yielding the per-shard session sets (batch
/// mode) plus the global→shard assignment. With
/// [`RoutePolicy::SessionHash`] the induced partition is what the
/// N-shard ≡ union-of-single-shard bit-identity contract quantifies
/// over.
pub fn partition_sessions(
    router: &mut ShardRouter,
    specs: &[ClientSpec],
) -> (Vec<Vec<ClientSpec>>, Vec<usize>) {
    let mut per_shard: Vec<Vec<ClientSpec>> = vec![Vec::new(); router.shards()];
    let mut assignment = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let shard = router.route_session(i as u64, None);
        per_shard[shard].push(spec.clone());
        assignment.push(shard);
    }
    (per_shard, assignment)
}

/// Runs every shard to completion, one host thread per shard (the PR 2
/// worker discipline: scoped threads, no shared simulated state), and
/// returns each shard's result *and* its final `System` — arrival logs
/// and captured words stay inspectable. Bit-identical to
/// [`run_shards_sequential`] because shards are independent.
///
/// # Panics
///
/// Panics if a shard thread panics.
pub fn run_shards(shards: Vec<System>) -> Vec<(RunResult, System)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|mut sys| {
                scope.spawn(move || {
                    let res = sys.run();
                    (res, sys)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    })
}

/// [`run_shards`] on the calling thread, in shard order — the sequential
/// half of the parallel ≡ sequential assertion.
pub fn run_shards_sequential(shards: Vec<System>) -> Vec<(RunResult, System)> {
    shards
        .into_iter()
        .map(|mut sys| {
            let res = sys.run();
            (res, sys)
        })
        .collect()
}

/// Fleet-level aggregate of per-shard [`ServiceStats`]: sums for the
/// scalars, a merged latency distribution, and the per-shard byte
/// shares the fleet Jain index is computed over. Pure function of the
/// shard stats — `tests/fleet.rs` asserts it equals the union of the
/// shard-local views.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Requests offered across the fleet.
    pub requests_offered: u64,
    /// Requests completed across the fleet.
    pub requests_completed: u64,
    /// Bytes served across the fleet.
    pub bytes_served: u64,
    /// Merged (sorted ascending) per-request latency log of every shard.
    pub latency_log: Vec<u64>,
    /// Bytes served per shard — the shares behind [`FleetStats::jain`].
    pub shard_bytes: Vec<u64>,
}

impl FleetStats {
    /// Aggregates the per-shard service statistics.
    pub fn aggregate(shards: &[ServiceStats]) -> FleetStats {
        let mut latency_log: Vec<u64> = shards
            .iter()
            .flat_map(|s| s.latency_log.iter().copied())
            .collect();
        latency_log.sort_unstable();
        FleetStats {
            requests_offered: shards.iter().map(|s| s.requests_offered).sum(),
            requests_completed: shards.iter().map(|s| s.requests_completed).sum(),
            bytes_served: shards.iter().map(|s| s.bytes_served).sum(),
            latency_log,
            shard_bytes: shards.iter().map(|s| s.bytes_served).collect(),
        }
    }

    /// Exact fleet-wide latency percentile (`None` before any
    /// completion).
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        percentile_sorted(&self.latency_log, q)
    }

    /// Jain fairness index across shards over bytes served: 1.0 when
    /// load spreads evenly, → 1/N when one shard serves everything.
    /// `None` when no shard served bytes.
    pub fn jain(&self) -> Option<f64> {
        let shares: Vec<f64> = self.shard_bytes.iter().map(|&b| b as f64).collect();
        jain_index(&shares).ok()
    }
}

/// A fleet-level [`Snapshot`] aggregate: per-shard raw views (queue
/// depth, buffer occupancy, quarantined channels) plus fleet scalars,
/// exact per-tenant fleet percentiles, and the fleet Jain index.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// The per-shard snapshots this aggregate was computed from, in
    /// shard order — per-shard queue depth / buffer occupancy /
    /// quarantine counts read directly from here.
    pub shards: Vec<Snapshot>,
    /// Max simulated cycle across shards (shards advance independently).
    pub cpu_cycles: u64,
    /// Requests offered across the fleet.
    pub requests_offered: u64,
    /// Requests completed across the fleet.
    pub requests_completed: u64,
    /// Bytes served across the fleet.
    pub bytes_served: u64,
    /// Requests in flight across the fleet.
    pub in_flight: usize,
    /// Channels excluded by the entropy-health watchdog, fleet-wide.
    pub quarantined_channels: usize,
    /// Per *global* session fleet p50 — exact, looked up on the
    /// session's home shard through the session map.
    pub tenant_p50: Vec<Option<u64>>,
    /// Per global session fleet p99 (same indexing as `tenant_p50`).
    pub tenant_p99: Vec<Option<u64>>,
    /// Jain index across shards over bytes served so far.
    pub jain: Option<f64>,
}

impl FleetSnapshot {
    /// Aggregates per-shard snapshots. `sessions` maps each global
    /// session to `(shard, local client index)`; because a session
    /// lives on exactly one shard, its fleet percentile *is* its
    /// shard-local percentile.
    pub fn aggregate(shards: Vec<Snapshot>, sessions: &[(usize, usize)]) -> FleetSnapshot {
        let tenant_p50 = sessions
            .iter()
            .map(|&(s, c)| shards[s].tenant_p50.get(c).copied().flatten())
            .collect();
        let tenant_p99 = sessions
            .iter()
            .map(|&(s, c)| shards[s].tenant_p99.get(c).copied().flatten())
            .collect();
        let shares: Vec<f64> = shards.iter().map(|s| s.bytes_served as f64).collect();
        FleetSnapshot {
            cpu_cycles: shards.iter().map(|s| s.cpu_cycles).max().unwrap_or(0),
            requests_offered: shards.iter().map(|s| s.requests_offered).sum(),
            requests_completed: shards.iter().map(|s| s.requests_completed).sum(),
            bytes_served: shards.iter().map(|s| s.bytes_served).sum(),
            in_flight: shards.iter().map(|s| s.in_flight).sum(),
            quarantined_channels: shards.iter().map(|s| s.quarantined_channels).sum(),
            tenant_p50,
            tenant_p99,
            jain: jain_index(&shares).ok(),
            shards,
        }
    }
}

/// One open fleet session: the shard-local [`SessionHandle`] plus fleet
/// bookkeeping. Derefs to the handle, so `getrandom`, `submit_after`,
/// `recv_outcome`, pipelined submits, … all work unchanged.
pub struct FleetSession {
    /// The shard this session was routed to.
    pub shard: usize,
    /// The fleet-wide session index (position in the session map).
    pub global: usize,
    handle: SessionHandle,
    router: Arc<Mutex<ShardRouter>>,
}

impl FleetSession {
    /// Closes the session and releases its router load accounting.
    pub fn close(self) {
        self.router
            .lock()
            .expect("router lock poisoned")
            .release(self.shard);
        self.handle.close();
    }
}

impl std::ops::Deref for FleetSession {
    type Target = SessionHandle;
    fn deref(&self) -> &SessionHandle {
        &self.handle
    }
}

impl std::ops::DerefMut for FleetSession {
    fn deref_mut(&mut self) -> &mut SessionHandle {
        &mut self.handle
    }
}

/// Final accounting of a fleet run, returned by
/// [`FleetServer::shutdown`].
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard server reports, in shard order.
    pub shards: Vec<ServerReport>,
    /// The session map: global session → `(shard, local client index)`.
    pub sessions: Vec<(usize, usize)>,
    /// Fleet-wide admission counters (sum of the shard-local ladders).
    pub admission: AdmissionStats,
}

impl FleetReport {
    /// The fleet-level service aggregate.
    pub fn fleet_stats(&self) -> FleetStats {
        let stats: Vec<ServiceStats> = self.shards.iter().map(|r| r.stats.clone()).collect();
        FleetStats::aggregate(&stats)
    }
}

/// The live fleet front-end: N per-shard [`RngServer`]s (a lock each;
/// no thread under virtual pacing), a shared [`ShardRouter`], and the
/// global session map.
/// Sessions opened through the fleet land on exactly one shard and keep
/// the full [`SessionHandle`] API.
pub struct FleetServer {
    servers: Vec<RngServer>,
    router: Arc<Mutex<ShardRouter>>,
    sessions: Arc<Mutex<Vec<(usize, usize)>>>,
    aggregator: Option<JoinHandle<()>>,
}

impl FleetServer {
    /// Starts one server per system, routing with `policy`.
    pub fn start(systems: Vec<System>, policy: RoutePolicy, pacing: Pacing) -> FleetServer {
        FleetServer::start_inner(systems, policy, pacing, AdmissionConfig::disabled(), None)
    }

    /// Starts a fleet whose shards each run the admission ladder
    /// (shard-local decisions; fleet-wide counters in the report).
    pub fn start_with_admission(
        systems: Vec<System>,
        policy: RoutePolicy,
        pacing: Pacing,
        admission: AdmissionConfig,
    ) -> FleetServer {
        FleetServer::start_inner(systems, policy, pacing, admission, None)
    }

    /// Starts an *observed* fleet: each shard streams [`Snapshot`]s and
    /// an aggregator thread folds them into [`FleetSnapshot`]s on the
    /// returned channel (latest-per-shard semantics; one final
    /// aggregate as the fleet winds down). Dropping the receiver stops
    /// the stream.
    pub fn start_observed(
        systems: Vec<System>,
        policy: RoutePolicy,
        pacing: Pacing,
        every: Duration,
    ) -> (FleetServer, Receiver<FleetSnapshot>) {
        let (tx, rx) = channel();
        let fleet = FleetServer::start_inner(
            systems,
            policy,
            pacing,
            AdmissionConfig::disabled(),
            Some((tx, every)),
        );
        (fleet, rx)
    }

    fn start_inner(
        systems: Vec<System>,
        policy: RoutePolicy,
        pacing: Pacing,
        admission: AdmissionConfig,
        observe: Option<(std::sync::mpsc::Sender<FleetSnapshot>, Duration)>,
    ) -> FleetServer {
        assert!(!systems.is_empty(), "fleet of zero shards");
        let shards = systems.len();
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let mut servers = Vec::with_capacity(shards);
        let mut snap_rxs = Vec::with_capacity(shards);
        for sys in systems {
            match &observe {
                Some((_, every)) => {
                    let (server, rx) = RngServer::start_observed(sys, pacing, *every);
                    servers.push(server);
                    snap_rxs.push(rx);
                }
                None => {
                    servers.push(if admission.enabled {
                        RngServer::start_with_admission(sys, pacing, admission)
                    } else {
                        RngServer::start(sys, pacing)
                    });
                }
            }
        }
        let aggregator = observe.map(|(tx, _)| {
            let map = Arc::clone(&sessions);
            std::thread::Builder::new()
                .name("strange-fleet-aggregator".into())
                .spawn(move || aggregate_stream(snap_rxs, map, tx))
                .expect("spawn aggregator thread")
        });
        FleetServer {
            servers,
            router: Arc::new(Mutex::new(ShardRouter::new(policy, shards))),
            sessions,
            aggregator,
        }
    }

    /// Shards in the fleet.
    pub fn shards(&self) -> usize {
        self.servers.len()
    }

    /// Opens a session routed by its global index (round-robin and
    /// least-loaded ignore the key anyway; session-hash gets a stable
    /// per-session key).
    pub fn open_session(&self, spec: ClientSpec) -> FleetSession {
        let key = self.sessions.lock().expect("session map poisoned").len() as u64;
        self.open_session_with(spec, key, None)
    }

    /// Opens a session with an explicit routing key and an optional
    /// preferred mechanism label (the heterogeneous-fleet hook).
    pub fn open_session_with(
        &self,
        spec: ClientSpec,
        key: u64,
        prefer_mechanism: Option<&str>,
    ) -> FleetSession {
        let shard = self
            .router
            .lock()
            .expect("router lock poisoned")
            .route_session(key, prefer_mechanism);
        let handle = self.servers[shard].open_session(spec);
        let mut map = self.sessions.lock().expect("session map poisoned");
        let global = map.len();
        map.push((shard, handle.id()));
        drop(map);
        FleetSession {
            shard,
            global,
            handle,
            router: Arc::clone(&self.router),
        }
    }

    /// Stops every shard (draining in-flight requests) and returns the
    /// fleet accounting.
    ///
    /// # Panics
    ///
    /// Panics if a misuse killed a shard or the aggregator thread
    /// panicked.
    pub fn shutdown(mut self) -> FleetReport {
        let shards: Vec<ServerReport> = self.servers.drain(..).map(RngServer::shutdown).collect();
        if let Some(agg) = self.aggregator.take() {
            agg.join().expect("aggregator thread panicked");
        }
        let sessions = self.sessions.lock().expect("session map poisoned").clone();
        let mut admission = AdmissionStats::default();
        for r in &shards {
            admission.accepted += r.admission.accepted;
            admission.deferred += r.admission.deferred;
            admission.shed_tenant_throttle += r.admission.shed_tenant_throttle;
            admission.shed_queue_overload += r.admission.shed_queue_overload;
            admission.timed_out += r.admission.timed_out;
        }
        FleetReport {
            shards,
            sessions,
            admission,
        }
    }
}

/// The aggregator loop: folds per-shard snapshot streams into
/// [`FleetSnapshot`]s with latest-per-shard semantics, emits one final
/// aggregate when every shard stream has ended, and exits. Reused
/// buffers throughout — per emission it allocates only the outgoing
/// aggregate itself.
fn aggregate_stream(
    rxs: Vec<Receiver<Snapshot>>,
    sessions: Arc<Mutex<Vec<(usize, usize)>>>,
    tx: std::sync::mpsc::Sender<FleetSnapshot>,
) {
    let shards = rxs.len();
    let mut latest: Vec<Option<Snapshot>> = vec![None; shards];
    let mut done = vec![false; shards];
    loop {
        let mut fresh = false;
        for (i, rx) in rxs.iter().enumerate() {
            loop {
                match rx.try_recv() {
                    Ok(snap) => {
                        latest[i] = Some(snap);
                        fresh = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        done[i] = true;
                        break;
                    }
                }
            }
        }
        let all_done = done.iter().all(|&d| d);
        if fresh && latest.iter().all(|s| s.is_some()) {
            let shard_snaps: Vec<Snapshot> = latest
                .iter()
                .map(|s| s.clone().expect("all some"))
                .collect();
            let map = sessions.lock().expect("session map poisoned").clone();
            if tx
                .send(FleetSnapshot::aggregate(shard_snaps, &map))
                .is_err()
            {
                return;
            }
        }
        if all_done {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        // Shard servers shut themselves down on drop; the aggregator
        // exits once their snapshot senders disconnect.
        self.servers.clear();
        if let Some(agg) = self.aggregator.take() {
            let _ = agg.join();
        }
    }
}
