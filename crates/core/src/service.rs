//! The cycle-accurate `getrandom()` service layer (Sections 5.3 and 6).
//!
//! The paper's end-to-end claim is that applications reach the DRAM TRNG
//! through the kernel's `getrandom()` path and that the random number
//! buffer hides the TRNG's latency from them. This module makes that path
//! first-class in the simulation: N simulated *clients* issue
//! `getrandom(bytes)` requests according to configurable arrival processes
//! ([`ArrivalProcess`]), each request is decomposed into 64-bit words and
//! threaded through the memory subsystem's real RNG machinery — the buffer
//! fast path (`buffer_serve_latency`), the RNG queue, arbitration, and
//! on-demand generation episodes — and every request's completion cycle is
//! recorded.
//!
//! Clients are simulation entities parallel to the trace cores: they are
//! addressed as *virtual cores* (`CoreId >= SystemConfig::cores`), their
//! word requests flow through [`crate::MemSubsystem`] exactly like core
//! `TraceOp::Rng` requests, and their arrival cycles participate in the
//! fast-forward next-event contract so [`crate::SimMode::FastForward`]
//! stays bit-identical to [`crate::SimMode::Reference`] under active
//! request traffic.
//!
//! Security property (Section 6): every 64-bit word is drawn once and
//! served to exactly one request; with value capture enabled the service
//! retains per-request word values so tests can assert no byte is ever
//! shared between clients.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strange_cpu::MemorySystem;
use strange_dram::RequestId;
use strange_metrics::{percentile_sorted, Histogram};

use crate::engine::MemSubsystem;
use crate::sched::{effective_priority, DrrState, FairnessPolicy};

/// Per-tenant quality-of-service class, mapped onto the OS priority
/// levels the Section 5.2 arbitration rules consume (higher = more
/// important; trace cores default to priority 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosClass {
    /// Background tenant (priority 0): loses Section 5.2 arbitration
    /// against every default-priority competitor.
    Low,
    /// The default tenant class (priority 1 — equal to unconfigured
    /// trace cores, so behavior matches the pre-QoS service layer).
    #[default]
    Normal,
    /// Latency-sensitive tenant (priority 2): wins arbitration against
    /// default-priority competitors and is served first from the buffer
    /// and the per-cycle issue path.
    High,
    /// An explicit raw OS priority level (escape hatch for studies that
    /// need more than three tiers).
    Custom(u8),
}

impl QosClass {
    /// The OS priority level this class maps to.
    pub fn priority(self) -> u8 {
        match self {
            QosClass::Low => 0,
            QosClass::Normal => 1,
            QosClass::High => 2,
            QosClass::Custom(p) => p,
        }
    }
}

/// How a `getrandom` call was satisfied (observable timing class — the
/// Section 6 side-channel discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// All requested bytes came from the random number buffer (fast path).
    Buffer,
    /// At least one generation episode was needed (slow path).
    Generated,
}

/// When a client's `getrandom(bytes)` requests arrive.
///
/// All gaps and think times are in **CPU cycles** (4 GHz).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Closed loop: one request in flight; the next arrives `think` cycles
    /// after the previous completes. The first request arrives at cycle 0.
    ClosedLoop {
        /// Think time between a completion and the next request.
        think: u64,
    },
    /// Open loop: requests arrive with exponentially distributed
    /// inter-arrival gaps of the given mean, regardless of completions
    /// (Poisson process). The first request arrives after one drawn gap.
    Poisson {
        /// Mean inter-arrival gap in CPU cycles.
        mean_gap: u64,
        /// Seed for the (deterministic) inter-arrival stream.
        seed: u64,
    },
    /// Open loop, bursty: `burst` requests arrive back-to-back every `gap`
    /// cycles (the paper: "RNG requests are received in bursts and served
    /// together"). The first burst arrives at cycle 0.
    Bursty {
        /// Requests per burst.
        burst: u32,
        /// Cycles between burst starts.
        gap: u64,
    },
    /// Replay of a recorded arrival trace: one request per entry, at the
    /// given **absolute** CPU cycles (non-decreasing). This is how
    /// production `getrandom` arrival logs — or the recorded arrivals of
    /// a previous run (`ServiceConfig::record_arrivals`) — are fed back
    /// into the simulator; `strange-workloads` provides the text-format
    /// parser and writer.
    TraceReplay {
        /// Absolute arrival cycles, non-decreasing (duplicates allowed:
        /// several requests may arrive on one cycle).
        schedule: Arc<Vec<u64>>,
    },
    /// Externally driven: requests are submitted explicitly through
    /// [`crate::System::service_submit`] (the interactive `RngDevice`
    /// front-end). Never blocks run-loop termination.
    Manual,
}

/// One simulated `getrandom()` client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Arrival process for this client's requests.
    pub arrival: ArrivalProcess,
    /// Bytes requested per `getrandom` call (must be nonzero; rounded up
    /// to whole 64-bit words on the wire, as the hardware serves words).
    pub bytes: usize,
    /// Total requests this client issues over the run (ignored for
    /// [`ArrivalProcess::Manual`]; zero means the client is inert).
    pub requests: u64,
    /// QoS class: the OS priority level this tenant's requests carry into
    /// the Section 5.2 arbitration (defaults to [`QosClass::Normal`]).
    pub qos: QosClass,
}

impl ClientSpec {
    /// A closed-loop client: `requests` calls of `bytes` each, with
    /// `think` CPU cycles between completion and the next call.
    pub fn closed_loop(bytes: usize, think: u64, requests: u64) -> Self {
        ClientSpec {
            arrival: ArrivalProcess::ClosedLoop { think },
            bytes,
            requests,
            qos: QosClass::Normal,
        }
    }

    /// An open-loop Poisson client.
    pub fn poisson(bytes: usize, mean_gap: u64, requests: u64, seed: u64) -> Self {
        ClientSpec {
            arrival: ArrivalProcess::Poisson { mean_gap, seed },
            bytes,
            requests,
            qos: QosClass::Normal,
        }
    }

    /// An open-loop bursty client.
    pub fn bursty(bytes: usize, burst: u32, gap: u64, requests: u64) -> Self {
        ClientSpec {
            arrival: ArrivalProcess::Bursty { burst, gap },
            bytes,
            requests,
            qos: QosClass::Normal,
        }
    }

    /// A trace-replay client: one request of `bytes` per entry of
    /// `schedule`, at those absolute CPU cycles (must be non-decreasing).
    pub fn trace_replay(bytes: usize, schedule: Vec<u64>) -> Self {
        ClientSpec {
            requests: schedule.len() as u64,
            arrival: ArrivalProcess::TraceReplay {
                schedule: Arc::new(schedule),
            },
            bytes,
            qos: QosClass::Normal,
        }
    }

    /// An externally driven client (see [`ArrivalProcess::Manual`]).
    pub fn manual(bytes: usize) -> Self {
        ClientSpec {
            arrival: ArrivalProcess::Manual,
            bytes,
            requests: 0,
            qos: QosClass::Normal,
        }
    }

    /// Sets the tenant's QoS class (the per-session priority override).
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Validates the spec: nonzero bytes, nonzero burst, a non-decreasing
    /// replay schedule that covers `requests`. Enforced both for
    /// configured clients ([`crate::SystemConfig::validate`]) and for
    /// dynamically opened sessions ([`crate::System::open_session`]).
    ///
    /// # Errors
    ///
    /// Returns [`strange_dram::ConfigError::InvalidParameter`] naming the
    /// offending field.
    pub fn validate(&self) -> Result<(), strange_dram::ConfigError> {
        use strange_dram::ConfigError::InvalidParameter;
        if self.bytes == 0 {
            return Err(InvalidParameter {
                field: "service.clients.bytes",
                constraint: "be nonzero",
            });
        }
        if let ArrivalProcess::Bursty { burst: 0, .. } = self.arrival {
            return Err(InvalidParameter {
                field: "service.clients.burst",
                constraint: "be nonzero",
            });
        }
        if let ArrivalProcess::TraceReplay { schedule } = &self.arrival {
            if schedule.windows(2).any(|w| w[0] > w[1]) {
                return Err(InvalidParameter {
                    field: "service.clients.schedule",
                    constraint: "be non-decreasing",
                });
            }
            if self.requests > schedule.len() as u64 {
                return Err(InvalidParameter {
                    field: "service.clients.requests",
                    constraint: "not exceed the replay schedule length",
                });
            }
        }
        Ok(())
    }

    fn words(&self) -> u32 {
        (self.bytes.div_ceil(8)).max(1) as u32
    }
}

/// Service-layer configuration carried by [`crate::SystemConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceConfig {
    /// The simulated clients (empty disables the service layer — unless
    /// `sessions` enables dynamic registration).
    pub clients: Vec<ClientSpec>,
    /// Record the served 64-bit words per request (tests of the Section 6
    /// no-duplication property; manual requests always capture, since the
    /// caller consumes the bytes).
    pub capture_values: bool,
    /// Record each client's arrival cycles
    /// ([`RngService::arrival_log`]), so a run can be replayed later
    /// through [`ArrivalProcess::TraceReplay`].
    pub record_arrivals: bool,
    /// Allow dynamic session registration ([`crate::System::open_session`]):
    /// the service layer is active even with zero initial clients, and a
    /// coreless system with no initial clients validates.
    pub sessions: bool,
}

/// Aggregate statistics of the service layer over one run.
///
/// Latencies are end-to-end per request in **CPU cycles**: from the
/// arrival cycle (including client-side queueing when the service falls
/// behind an open-loop process) to the delivery of the request's last
/// word.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Requests generated by the arrival processes (offered load).
    pub requests_offered: u64,
    /// Requests fully served.
    pub requests_completed: u64,
    /// 64-bit word requests issued into the memory subsystem.
    pub words_issued: u64,
    /// Bytes delivered to clients (requested bytes of completed calls).
    pub bytes_served: u64,
    /// Words served from the random number buffer (fast path).
    pub words_from_buffer: u64,
    /// Words served by on-demand generation (slow path).
    pub words_generated: u64,
    /// Completed requests whose every word came from the buffer.
    pub buffer_hit_requests: u64,
    /// Cycles on which at least one client had words it could not issue
    /// (RNG queue back-pressure).
    pub issue_blocked_cycles: u64,
    /// Log₂-bucketed latency histogram (constant memory).
    pub latency: Histogram,
    /// Exact per-request latencies in completion order.
    pub latency_log: Vec<u64>,
    /// Exact per-request latencies split by client (index = client /
    /// session id), each in that client's completion order — the
    /// per-tenant view the QoS studies compare.
    pub latency_by_client: Vec<Vec<u64>>,
    /// Bytes delivered per client (requested bytes of its completed
    /// calls) — with [`ServiceStats::last_completion_by_client`], the
    /// per-tenant served-throughput view the fairness sweeps feed into
    /// Jain's index.
    pub bytes_by_client: Vec<u64>,
    /// CPU cycle of each client's most recent completion (0 before any).
    pub last_completion_by_client: Vec<u64>,
}

impl ServiceStats {
    /// Exact latency percentile (`q` in `0.0..=1.0`); `None` before any
    /// completion. Sorts a copy of the latency log — for several
    /// quantiles at once, use [`ServiceStats::latency_percentiles`],
    /// which sorts only once.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        self.latency_percentiles(&[q])[0]
    }

    /// Exact latency percentiles for each `q` in `qs`, sharing one sort
    /// of the latency log; entries are `None` before any completion.
    pub fn latency_percentiles(&self, qs: &[f64]) -> Vec<Option<u64>> {
        let mut sorted = self.latency_log.clone();
        sorted.sort_unstable();
        qs.iter().map(|&q| percentile_sorted(&sorted, q)).collect()
    }

    /// Mean request latency in CPU cycles.
    pub fn mean_latency(&self) -> Option<f64> {
        self.latency.mean()
    }

    /// Exact latency percentile of one client's requests (`None` before
    /// any completion or for an unknown client).
    pub fn client_latency_percentile(&self, client: usize, q: f64) -> Option<u64> {
        let mut sorted = self.latency_by_client.get(client)?.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, q)
    }

    /// Served throughput of one client in Mb/s over its active span
    /// (arrival of its first request is approximated as cycle 0; `None`
    /// before any completion). The per-tenant rates a fairness index
    /// compares.
    pub fn client_served_mbps(&self, client: usize) -> Option<f64> {
        let bytes = *self.bytes_by_client.get(client)?;
        let last = *self.last_completion_by_client.get(client)?;
        if bytes == 0 || last == 0 {
            return None;
        }
        Some(bytes as f64 * 8.0 / (last as f64 / 4e9) / 1e6)
    }

    /// Fraction of completed requests served entirely from the buffer.
    pub fn buffer_hit_rate(&self) -> f64 {
        if self.requests_completed == 0 {
            0.0
        } else {
            self.buffer_hit_requests as f64 / self.requests_completed as f64
        }
    }
}

/// A fully served request, as handed back to an interactive caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedRequest {
    /// The served 64-bit words, in issue order (enough to cover the
    /// requested bytes).
    pub words: Vec<u64>,
    /// Fast/slow path classification.
    pub kind: ServeKind,
    /// End-to-end latency in CPU cycles.
    pub latency_cycles: u64,
}

/// A table keyed by integers this program hands out itself, in increasing
/// order (a client's request sequence numbers, the memory subsystem's
/// request ids): a ring of slots over the key of its first one, so
/// inserting, finding and removing an entry index it instead of hashing.
/// A key skipped between two inserts (an id that went to a trace core)
/// costs one empty slot until every older entry is gone.
#[derive(Debug, Clone)]
struct KeyRing<T> {
    /// Key of `slots[0]`; unused while `slots` is empty.
    base: u64,
    /// The first slot is occupied whenever there is one, so the ring is
    /// empty exactly when it holds no entry.
    slots: VecDeque<Option<T>>,
}

impl<T> KeyRing<T> {
    fn new() -> Self {
        KeyRing {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Entries held; a scan, for the debug oracles only.
    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn slot(&self, key: u64) -> Option<usize> {
        usize::try_from(key.checked_sub(self.base)?).ok()
    }

    /// Adds the entry for `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `key` is above every key inserted since the ring was
    /// last empty.
    fn insert(&mut self, key: u64, value: T) {
        if self.slots.is_empty() {
            self.base = key;
        }
        let at = self.slot(key).filter(|&at| at >= self.slots.len());
        let at = at.expect("keys arrive in increasing order");
        self.slots.resize_with(at, || None);
        self.slots.push_back(Some(value));
    }

    fn get(&self, key: u64) -> Option<&T> {
        self.slots.get(self.slot(key)?)?.as_ref()
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let at = self.slot(key)?;
        self.slots.get_mut(at)?.as_mut()
    }

    fn remove(&mut self, key: u64) -> Option<T> {
        let at = self.slot(key)?;
        let value = self.slots.get_mut(at)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }
}

/// One in-flight `getrandom` request.
#[derive(Debug, Clone)]
struct ActiveRequest {
    arrival: u64,
    bytes: usize,
    words_to_issue: u32,
    outstanding: u32,
    buffer_words: u32,
    generated_words: u32,
    capture: bool,
    words: Vec<u64>,
}

/// Per-client runtime state.
#[derive(Debug, Clone)]
struct ClientState {
    spec: ClientSpec,
    rng: SmallRng,
    /// OS priority level of this tenant ([`QosClass::priority`]).
    priority: u8,
    /// Absolute CPU cycle of the next arrival (`None`: no arrival
    /// scheduled — closed loop waiting on a completion, open loop
    /// exhausted, or manual).
    next_arrival: Option<u64>,
    arrivals: u64,
    next_seq: u64,
    /// Seqs with words still to issue, FIFO.
    issue_queue: VecDeque<u64>,
    /// Requests arrived and not yet fully served, by seq.
    in_flight: KeyRing<ActiveRequest>,
    /// Completed manual requests awaiting pickup.
    done_manual: HashMap<u64, ServedRequest>,
    /// Arrival cycles of every request, in arrival order (only populated
    /// when `ServiceConfig::record_arrivals` is set).
    arrival_log: Vec<u64>,
    /// A closed session: no further arrivals or submissions accepted.
    closed: bool,
}

impl ClientState {
    fn new(spec: ClientSpec) -> Self {
        ClientState::new_at(spec, 0)
    }

    /// Builds the state for a client opened at CPU cycle `open`: relative
    /// arrival processes (closed loop, Poisson, bursty) schedule from the
    /// open cycle; trace replay keeps its absolute schedule; manual
    /// clients schedule nothing.
    fn new_at(spec: ClientSpec, open: u64) -> Self {
        let (seed, next_arrival) = match &spec.arrival {
            ArrivalProcess::ClosedLoop { .. } | ArrivalProcess::Bursty { .. } => {
                (0, (spec.requests > 0).then_some(open))
            }
            ArrivalProcess::Poisson { seed, .. } => (*seed, None), // drawn below
            ArrivalProcess::TraceReplay { schedule } => {
                (0, (spec.requests > 0).then(|| schedule.first().copied().unwrap_or(0)))
            }
            ArrivalProcess::Manual => (0, None),
        };
        let priority = spec.qos.priority();
        let mut state = ClientState {
            spec,
            rng: SmallRng::seed_from_u64(seed),
            priority,
            next_arrival,
            arrivals: 0,
            next_seq: 0,
            issue_queue: VecDeque::new(),
            in_flight: KeyRing::new(),
            done_manual: HashMap::new(),
            arrival_log: Vec::new(),
            closed: false,
        };
        if let ArrivalProcess::Poisson { mean_gap, .. } = state.spec.arrival {
            if state.spec.requests > 0 {
                let first = open + state.draw_gap(mean_gap);
                state.next_arrival = Some(first);
            }
        }
        state
    }

    /// One exponential inter-arrival gap (at least 1 cycle).
    fn draw_gap(&mut self, mean: u64) -> u64 {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let gap = -(1.0 - u).ln() * mean.max(1) as f64;
        (gap.round() as u64).max(1)
    }

    /// Whether this client can block run-loop termination.
    fn targets_met(&self) -> bool {
        let arrivals_done = self.closed
            || match self.spec.arrival {
                ArrivalProcess::Manual => true,
                _ => self.arrivals >= self.spec.requests,
            };
        arrivals_done && self.issue_queue.is_empty() && self.in_flight.is_empty()
    }

    fn has_unissued_words(&self) -> bool {
        !self.issue_queue.is_empty()
    }
}

/// The runtime service: owns the clients, maps in-flight word requests
/// back to them, and accumulates [`ServiceStats`].
#[derive(Debug, Clone)]
pub struct RngService {
    base_core: usize,
    capture: bool,
    record_arrivals: bool,
    /// Whether manual completions are queued for in-order draining
    /// ([`RngService::pop_completed`]). On for session-driven systems
    /// (server front-ends); off for the take-by-seq `RngDevice` path,
    /// which would otherwise accumulate never-drained queue entries.
    track_completed_order: bool,
    clients: Vec<ClientState>,
    /// How competing clients are ordered on the per-cycle issue path
    /// (who takes RNG-queue slots and buffer words first).
    fairness: FairnessPolicy,
    /// Deficit-round-robin state for [`FairnessPolicy::WeightedFair`]
    /// (tenant = client index).
    drr: DrrState,
    /// Scheduled-arrival min-heap `(cycle, client)`, lazily pruned: an
    /// entry is live only while it matches its client's `next_arrival`
    /// (stale duplicates from rescheduling are discarded on peek/pop).
    /// Interior mutability lets the read-only next-event probe prune.
    /// This is what keeps per-tick arrival processing and next-event
    /// probes sublinear in the client population (10⁴–10⁵ sessions in
    /// the fleet scenarios).
    arrivals: RefCell<BinaryHeap<Reverse<(u64, usize)>>>,
    /// Clients holding unissued words, in [`FairnessPolicy::Strict`]
    /// issue order: descending priority, ascending index within a level
    /// (so equal-priority populations keep the original index order).
    active: BTreeSet<(Reverse<u8>, usize)>,
    /// The same membership in client-index order (the deficit-round-
    /// robin candidate order).
    active_by_index: BTreeSet<usize>,
    /// The last `tick` ended with words held back by RNG back-pressure
    /// and the active set has not been touched from outside `tick`
    /// since. While it holds, only a live memory tick can turn the
    /// rejection into an acceptance, so blocked cycles are skippable
    /// ([`RngService::skip_cycles`] replays their accounting).
    issue_blocked: bool,
    /// Clients whose termination targets are not yet met (O(1)
    /// [`RngService::targets_met`]).
    unmet: usize,
    /// Requests arrived and not yet fully served, over all clients (O(1)
    /// [`RngService::in_flight`]).
    requests_in_flight: usize,
    /// Scratch for the aging-policy per-tick re-sort (reused so a busy
    /// tick allocates nothing).
    aging_scratch: Vec<(Reverse<u64>, u64, usize)>,
    /// Word-request id → (client index, request seq).
    word_map: KeyRing<(usize, u64)>,
    /// Served words of completed requests, in completion order (only
    /// populated when value capture is on).
    captured: Vec<u64>,
    /// Completed manual requests in completion order, for in-order
    /// draining by server front-ends ([`RngService::pop_completed`]).
    completed_order: VecDeque<(usize, u64)>,
    stats: ServiceStats,
}

impl RngService {
    /// Builds the service from its configuration. `base_core` is the
    /// number of real trace cores; client *i* issues requests as virtual
    /// core `base_core + i`. `fairness` orders competing clients on the
    /// issue path (`SystemConfig::fairness`).
    pub(crate) fn new(config: &ServiceConfig, base_core: usize, fairness: FairnessPolicy) -> Self {
        let clients: Vec<ClientState> =
            config.clients.iter().cloned().map(ClientState::new).collect();
        let mut service = RngService {
            base_core,
            capture: config.capture_values,
            record_arrivals: config.record_arrivals,
            track_completed_order: config.sessions,
            fairness,
            drr: DrrState::new(),
            arrivals: RefCell::new(BinaryHeap::new()),
            active: BTreeSet::new(),
            active_by_index: BTreeSet::new(),
            issue_blocked: false,
            unmet: 0,
            requests_in_flight: 0,
            aging_scratch: Vec::new(),
            word_map: KeyRing::new(),
            captured: Vec::new(),
            completed_order: VecDeque::new(),
            stats: ServiceStats {
                latency_by_client: vec![Vec::new(); clients.len()],
                bytes_by_client: vec![0; clients.len()],
                last_completion_by_client: vec![0; clients.len()],
                ..ServiceStats::default()
            },
            clients,
        };
        for ci in 0..service.clients.len() {
            service.note_open(ci);
        }
        service
    }

    /// Bookkeeping for a freshly added client: schedule its first
    /// arrival and count it toward the unmet-target total.
    fn note_open(&mut self, ci: usize) {
        if let Some(t) = self.clients[ci].next_arrival {
            self.arrivals.get_mut().push(Reverse((t, ci)));
        }
        if !self.clients[ci].targets_met() {
            self.unmet += 1;
        }
    }

    /// Marks a client as holding unissued words (idempotent).
    fn activate(&mut self, ci: usize) {
        self.active.insert((Reverse(self.clients[ci].priority), ci));
        self.active_by_index.insert(ci);
    }

    /// Clears a client's unissued-words mark (idempotent).
    fn deactivate(&mut self, ci: usize) {
        self.active.remove(&(Reverse(self.clients[ci].priority), ci));
        self.active_by_index.remove(&ci);
    }

    /// Registers a new session at CPU cycle `now` and returns its client
    /// index (the session id; virtual core = `base_core + id`).
    pub(crate) fn open_session(&mut self, spec: ClientSpec, now: u64) -> usize {
        let id = self.clients.len();
        self.clients.push(ClientState::new_at(spec, now));
        self.stats.latency_by_client.push(Vec::new());
        self.stats.bytes_by_client.push(0);
        self.stats.last_completion_by_client.push(0);
        self.note_open(id);
        self.track_completed_order = true;
        self.issue_blocked = false;
        id
    }

    /// Closes a session: no further arrivals or submissions are
    /// accepted. Requests already in flight (or queued for issue) drain
    /// normally — the session blocks run-loop termination only until
    /// they complete.
    ///
    /// # Panics
    ///
    /// Panics when the session is out of range.
    pub(crate) fn close_session(&mut self, id: usize) {
        let was_met = self.clients[id].targets_met();
        let c = &mut self.clients[id];
        c.closed = true;
        c.next_arrival = None;
        if !was_met && self.clients[id].targets_met() {
            self.unmet -= 1;
        }
        self.issue_blocked = false;
    }

    /// The OS priority level of a session's tenant.
    pub fn client_priority(&self, id: usize) -> u8 {
        self.clients[id].priority
    }

    /// The recorded arrival cycles of client `id` (empty unless
    /// `ServiceConfig::record_arrivals` was set).
    pub fn arrival_log(&self, id: usize) -> &[u64] {
        &self.clients[id].arrival_log
    }

    /// Completed manual requests not yet drained via
    /// [`RngService::pop_completed`].
    pub fn completed_pending(&self) -> usize {
        self.completed_order.len()
    }

    /// Drains the oldest undelivered manual completion, in completion
    /// order: `(client, seq, result)`. Entries already taken through
    /// [`RngService::take_completed`] are skipped.
    pub(crate) fn pop_completed(&mut self) -> Option<(usize, u64, ServedRequest)> {
        while let Some((client, seq)) = self.completed_order.pop_front() {
            if let Some(served) = self.clients[client].done_manual.remove(&seq) {
                return Some((client, seq, served));
            }
        }
        None
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Number of configured clients.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// Whether every client has issued its configured requests and all of
    /// them completed (the run-loop termination condition). O(1): the
    /// run loop probes this on every finish-check boundary, so it must
    /// not scan a 10⁴-session population.
    pub fn targets_met(&self) -> bool {
        self.unmet == 0
    }

    /// Requests currently in flight (arrived, not yet fully served).
    pub fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.requests_in_flight,
            self.clients
                .iter()
                .map(|c| c.in_flight.len())
                .sum::<usize>(),
            "in-flight counter out of sync"
        );
        self.requests_in_flight
    }

    /// Whether a specific request has completed (manual clients).
    pub(crate) fn is_completed(&self, client: usize, seq: u64) -> bool {
        self.clients[client].done_manual.contains_key(&seq)
    }

    /// Takes the result of a completed manual request.
    pub(crate) fn take_completed(&mut self, client: usize, seq: u64) -> Option<ServedRequest> {
        let served = self.clients[client].done_manual.remove(&seq);
        if served.is_some() && self.track_completed_order {
            // Keep the in-order drain queue free of tombstones under
            // mixed take-by-seq / pop-in-order use.
            if let Some(pos) = self
                .completed_order
                .iter()
                .position(|&entry| entry == (client, seq))
            {
                self.completed_order.remove(pos);
            }
        }
        served
    }

    /// Submits a manual request of `bytes` at CPU cycle `now`; returns the
    /// request's sequence number for [`RngService::is_completed`] /
    /// [`RngService::take_completed`].
    ///
    /// # Panics
    ///
    /// Panics when `client` is out of range, is not a
    /// [`ArrivalProcess::Manual`] client, or `bytes` is zero.
    pub(crate) fn submit(&mut self, client: usize, bytes: usize, now: u64) -> u64 {
        self.submit_at(client, bytes, now, now)
    }

    /// [`RngService::submit`] with an explicit `arrival` stamp `<= now`:
    /// open-loop pipelined sessions may commit to an arrival schedule
    /// faster than the service drains, so a request's intended arrival
    /// can precede its injection cycle. Latency accounting and fairness
    /// aging then include that queueing delay, exactly as they do for
    /// the in-simulation open-loop arrival processes.
    ///
    /// # Panics
    ///
    /// Panics like [`RngService::submit`], or when `arrival > now`.
    pub(crate) fn submit_at(&mut self, client: usize, bytes: usize, arrival: u64, now: u64) -> u64 {
        assert!(bytes > 0, "getrandom of zero bytes");
        assert!(arrival <= now, "submit stamped after its injection cycle");
        let record = self.record_arrivals;
        let was_met = self.clients[client].targets_met();
        let c = &mut self.clients[client];
        assert!(
            matches!(c.spec.arrival, ArrivalProcess::Manual),
            "submit on a non-manual client"
        );
        assert!(!c.closed, "submit on a closed session");
        if record {
            c.arrival_log.push(arrival);
        }
        self.stats.requests_offered += 1;
        let seq = c.next_seq;
        c.next_seq += 1;
        c.arrivals += 1;
        let words = (bytes.div_ceil(8)).max(1) as u32;
        c.in_flight.insert(
            seq,
            ActiveRequest {
                arrival,
                bytes,
                words_to_issue: words,
                outstanding: 0,
                buffer_words: 0,
                generated_words: 0,
                capture: true,
                words: Vec::with_capacity(words as usize),
            },
        );
        c.issue_queue.push_back(seq);
        self.requests_in_flight += 1;
        if was_met {
            self.unmet += 1;
        }
        self.activate(client);
        // The issue candidates changed outside `tick`: run the next cycle
        // live rather than argue that every policy's rejected attempt
        // (the DRR pick→refund in particular) is still a fixed point.
        self.issue_blocked = false;
        seq
    }

    /// The earliest CPU cycle at or after `now` at which the service could
    /// do anything: `Some(now)` while a client holds unissued words whose
    /// issue has not been tried against the current memory state (a fresh
    /// arrival, or a submit / session open / close since the last tick),
    /// otherwise the earliest scheduled arrival; `None` when dormant.
    ///
    /// Back-pressure is *not* a pin. Once a tick ends blocked, a rejected
    /// `try_rng` can only flip to accepted at a live memory tick (Aware:
    /// the buffer gains a word or the RNG queue shrinks; Oblivious: a
    /// channel queue drains). The memory subsystem's own next-event
    /// machinery bounds that tick, as it does completions; the caller
    /// ticks the service on the same cycle and accounts the skipped ones
    /// through [`RngService::skip_cycles`].
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if !self.active.is_empty() && !self.issue_blocked {
            return Some(now);
        }
        // Every live `next_arrival` has a matching heap entry, so the
        // earliest non-stale top is the global minimum; stale duplicates
        // from rescheduling are pruned as they surface.
        let mut heap = self.arrivals.borrow_mut();
        while let Some(&Reverse((t, ci))) = heap.peek() {
            if self.clients[ci].next_arrival == Some(t) {
                return Some(t.max(now));
            }
            heap.pop();
        }
        None
    }

    /// Bulk-applies the accounting of `n` skipped CPU cycles: each would
    /// have re-tried the same rejected issue and counted one blocked
    /// cycle (the caller guarantees the span holds no arrival).
    pub(crate) fn skip_cycles(&mut self, n: u64) {
        if self.issue_blocked {
            self.stats.issue_blocked_cycles += n;
        }
    }

    /// Advances the service by one CPU cycle: processes due arrivals for
    /// every client, then issues queued word requests into the memory
    /// subsystem in the order the configured [`FairnessPolicy`] dictates
    /// — this is who takes RNG-queue slots and buffer words first under
    /// contention:
    ///
    /// * `Strict` — descending tenant priority, index order within a
    ///   level (the pre-policy behavior).
    /// * `Aging` — like `Strict`, but each waiting tenant's priority
    ///   rises one level per aging quantum its oldest queued request has
    ///   waited; ties go to the older request, then the lower index.
    /// * `WeightedFair` — deficit round robin, one word per turn, so a
    ///   saturating high-priority tenant cannot monopolize the issue
    ///   path.
    pub(crate) fn tick(&mut self, now: u64, mem: &mut MemSubsystem) {
        // Drain due arrivals off the heap instead of scanning every
        // client: a tick touches only the clients that actually have an
        // arrival this cycle. Same-cycle entries pop in client-index
        // order (the heap key is `(cycle, index)`), matching the old
        // full-scan processing order.
        loop {
            let due = {
                let heap = self.arrivals.get_mut();
                match heap.peek() {
                    Some(&Reverse((t, ci))) if t <= now => {
                        heap.pop();
                        Some((t, ci))
                    }
                    _ => None,
                }
            };
            let Some((t, ci)) = due else { break };
            if self.clients[ci].next_arrival != Some(t) {
                continue; // stale entry from a reschedule
            }
            self.process_arrivals(ci, now);
            if let Some(nt) = self.clients[ci].next_arrival {
                self.arrivals.get_mut().push(Reverse((nt, ci)));
            }
            if self.clients[ci].has_unissued_words() {
                self.activate(ci);
            }
        }
        // Issue over only the clients holding words. The first rejection
        // is global for this memory tick — the engine memoizes RNG-queue
        // exhaustion, so every later `try_rng` this tick would also be
        // refused — which makes breaking there outcome-identical to the
        // historical issue-everyone loop.
        let mut blocked = false;
        match self.fairness {
            FairnessPolicy::Strict => {
                while let Some(&(_, ci)) = self.active.iter().next() {
                    if self.issue_words(ci, mem) {
                        blocked = true;
                        break;
                    }
                }
            }
            FairnessPolicy::Aging { .. } | FairnessPolicy::AdaptiveAging => {
                // (effective priority desc, oldest arrival, index): a
                // dynamic re-sort of the Strict order with waiting time
                // folded in. Clients with nothing to issue don't compete.
                // AdaptiveAging reads the quantum off the engine's running
                // episode-cost estimate instead of a static knob.
                let quantum = match self.fairness {
                    FairnessPolicy::Aging { quantum } => quantum,
                    _ => mem.adaptive_aging_quantum(),
                };
                let mut order = std::mem::take(&mut self.aging_scratch);
                order.clear();
                order.extend(self.active.iter().map(|&(_, ci)| {
                    let c = &self.clients[ci];
                    let &seq = c.issue_queue.front().expect("active client has queued words");
                    let arrival = c
                        .in_flight
                        .get(seq)
                        .expect("queued request is in flight")
                        .arrival;
                    let eff = effective_priority(c.priority, now.saturating_sub(arrival), quantum);
                    (Reverse(eff), arrival, ci)
                }));
                // The key embeds the unique client index, so the unstable
                // sort is total and input-order independent.
                order.sort_unstable();
                for &(_, _, ci) in &order {
                    if self.issue_words(ci, mem) {
                        blocked = true;
                        break;
                    }
                }
                self.aging_scratch = order;
            }
            FairnessPolicy::WeightedFair { quantum } => {
                blocked = self.issue_words_drr(quantum, mem);
            }
        }
        if blocked {
            self.stats.issue_blocked_cycles += 1;
        }
        self.issue_blocked = blocked;
        #[cfg(debug_assertions)]
        self.check_bookkeeping();
    }

    /// Debug oracle: the incremental arrival-heap / active-set / unmet
    /// bookkeeping must agree with a full rescan. Skipped above 64
    /// clients so debug runs of the fleet-scale scenarios stay fast.
    #[cfg(debug_assertions)]
    fn check_bookkeeping(&self) {
        if self.clients.len() > 64 {
            return;
        }
        let unmet = self.clients.iter().filter(|c| !c.targets_met()).count();
        debug_assert_eq!(self.unmet, unmet, "unmet-target counter out of sync");
        self.in_flight(); // asserts its counter against the per-client sum
        debug_assert_eq!(self.active.len(), self.active_by_index.len());
        for (ci, c) in self.clients.iter().enumerate() {
            debug_assert_eq!(
                self.active.contains(&(Reverse(c.priority), ci)),
                c.has_unissued_words(),
                "active set out of sync for client {ci}"
            );
        }
    }

    fn process_arrivals(&mut self, ci: usize, now: u64) {
        while let Some(t) = self.clients[ci].next_arrival {
            if t > now {
                break;
            }
            let (burst, reschedule) = {
                let c = &mut self.clients[ci];
                match &c.spec.arrival {
                    ArrivalProcess::ClosedLoop { .. } => (1, None),
                    ArrivalProcess::Poisson { mean_gap, .. } => {
                        let mean_gap = *mean_gap;
                        let gap = c.draw_gap(mean_gap);
                        (1, Some(t + gap))
                    }
                    ArrivalProcess::Bursty { burst, gap } => {
                        let (burst, gap) = (*burst, *gap);
                        (burst.max(1), Some(t + gap.max(1)))
                    }
                    ArrivalProcess::TraceReplay { schedule } => {
                        (1, schedule.get(c.arrivals as usize + 1).copied())
                    }
                    ArrivalProcess::Manual => unreachable!("manual clients never schedule"),
                }
            };
            for _ in 0..burst {
                let c = &mut self.clients[ci];
                if c.arrivals >= c.spec.requests {
                    break;
                }
                c.arrivals += 1;
                if self.record_arrivals {
                    c.arrival_log.push(t);
                }
                let seq = c.next_seq;
                c.next_seq += 1;
                let words = c.spec.words();
                let bytes = c.spec.bytes;
                let capture = self.capture;
                c.in_flight.insert(
                    seq,
                    ActiveRequest {
                        arrival: t,
                        bytes,
                        words_to_issue: words,
                        outstanding: 0,
                        buffer_words: 0,
                        generated_words: 0,
                        capture,
                        words: if capture {
                            Vec::with_capacity(words as usize)
                        } else {
                            Vec::new()
                        },
                    },
                );
                c.issue_queue.push_back(seq);
                self.requests_in_flight += 1;
                self.stats.requests_offered += 1;
            }
            let c = &mut self.clients[ci];
            c.next_arrival = if c.arrivals >= c.spec.requests {
                None
            } else {
                reschedule
            };
            // Closed loop schedules the next arrival at completion time.
            if matches!(c.spec.arrival, ArrivalProcess::ClosedLoop { .. }) {
                break;
            }
        }
    }

    /// Issues as many queued words as the memory subsystem accepts this
    /// cycle; returns true when back-pressure left words unissued.
    fn issue_words(&mut self, ci: usize, mem: &mut MemSubsystem) -> bool {
        let core = self.base_core + ci;
        while let Some(&seq) = self.clients[ci].issue_queue.front() {
            // The front of the issue queue always has at least one word
            // left (requests enter with >= 1 and are popped on reaching
            // zero), so admission can be tried before the in-flight
            // lookup: under back-pressure this returns without touching
            // the map at all.
            let Some(id) = mem.try_rng(core) else {
                return true;
            };
            let req = self.clients[ci]
                .in_flight
                .get_mut(seq)
                .expect("queued request is in flight");
            debug_assert!(req.words_to_issue > 0, "queued request has no words left");
            req.words_to_issue -= 1;
            req.outstanding += 1;
            self.stats.words_issued += 1;
            self.word_map.insert(id, (ci, seq));
            if req.words_to_issue == 0 {
                self.clients[ci].issue_queue.pop_front();
            }
        }
        self.deactivate(ci);
        false
    }

    /// Deficit-round-robin issue: one word per DRR turn, interleaving
    /// the competing clients by their QoS weight instead of issuing each
    /// client to exhaustion. Returns true when back-pressure left words
    /// unissued (the memory subsystem rejecting one client's word means
    /// the global RNG queue is full, so no client could issue).
    fn issue_words_drr(&mut self, quantum: u32, mem: &mut MemSubsystem) -> bool {
        // Scratch reused across the words issued this cycle, so the
        // per-word DRR evaluation allocates nothing (amortized).
        let mut active: Vec<usize> = Vec::new();
        let mut quanta: Vec<u64> = Vec::new();
        loop {
            active.clear();
            active.extend(self.active_by_index.iter().copied());
            if active.is_empty() {
                return false;
            }
            quanta.clear();
            quanta.extend(
                active
                    .iter()
                    .map(|&ci| quantum as u64 * FairnessPolicy::weight_of(self.clients[ci].priority)),
            );
            let ci = self.drr.pick(&active, &quanta, 1);
            let core = self.base_core + ci;
            let &seq = self.clients[ci]
                .issue_queue
                .front()
                .expect("active client has queued words");
            match mem.try_rng(core) {
                Some(id) => {
                    let req = self.clients[ci]
                        .in_flight
                        .get_mut(seq)
                        .expect("queued request is in flight");
                    req.words_to_issue -= 1;
                    req.outstanding += 1;
                    self.stats.words_issued += 1;
                    self.word_map.insert(id, (ci, seq));
                    if req.words_to_issue == 0 {
                        self.clients[ci].issue_queue.pop_front();
                        if self.clients[ci].issue_queue.is_empty() {
                            self.deactivate(ci);
                        }
                    }
                }
                None => {
                    // The word was never served: hand the charged credit
                    // (and the turn) back, or blocked cycles would burn
                    // this tenant's round on phantom picks.
                    self.drr.refund(ci, 1);
                    return true;
                }
            }
        }
    }

    /// Whether `core` addresses one of this service's virtual clients.
    pub(crate) fn owns_core(&self, core: usize) -> bool {
        core >= self.base_core && core < self.base_core + self.clients.len()
    }

    /// Delivers one completed word request. `now` is the CPU cycle of
    /// delivery; `value`/`from_buffer` describe the served word.
    pub(crate) fn complete(&mut self, id: RequestId, value: u64, from_buffer: bool, now: u64) {
        let (ci, seq) = self
            .word_map
            .remove(id)
            .expect("completion for an unknown service request");
        if from_buffer {
            self.stats.words_from_buffer += 1;
        } else {
            self.stats.words_generated += 1;
        }
        let finished = {
            let req = self.clients[ci]
                .in_flight
                .get_mut(seq)
                .expect("completion for a finished request");
            if from_buffer {
                req.buffer_words += 1;
            } else {
                req.generated_words += 1;
            }
            if req.capture {
                req.words.push(value);
            }
            req.outstanding -= 1;
            req.outstanding == 0 && req.words_to_issue == 0
        };
        if !finished {
            return;
        }
        let req = self.clients[ci]
            .in_flight
            .remove(seq)
            .expect("request present");
        self.requests_in_flight -= 1;
        if self.capture {
            self.captured.extend_from_slice(&req.words);
        }
        let latency = now - req.arrival;
        self.stats.requests_completed += 1;
        self.stats.bytes_served += req.bytes as u64;
        self.stats.latency.record(latency);
        self.stats.latency_log.push(latency);
        self.stats.latency_by_client[ci].push(latency);
        self.stats.bytes_by_client[ci] += req.bytes as u64;
        self.stats.last_completion_by_client[ci] = now;
        let kind = if req.generated_words == 0 {
            self.stats.buffer_hit_requests += 1;
            ServeKind::Buffer
        } else {
            ServeKind::Generated
        };
        let c = &mut self.clients[ci];
        match c.spec.arrival {
            ArrivalProcess::ClosedLoop { think } if !c.closed && c.arrivals < c.spec.requests => {
                c.next_arrival = Some(now + think);
                self.arrivals.get_mut().push(Reverse((now + think, ci)));
            }
            ArrivalProcess::Manual => {
                c.done_manual.insert(
                    seq,
                    ServedRequest {
                        words: req.words,
                        kind,
                        latency_cycles: latency,
                    },
                );
                if self.track_completed_order {
                    self.completed_order.push_back((ci, seq));
                }
            }
            _ => {}
        }
        // The request just left `in_flight`, so the client was unmet on
        // entry; if this was its last obligation it is met now.
        if self.clients[ci].targets_met() {
            self.unmet -= 1;
        }
    }

    /// All served words captured so far, in completion order (empty
    /// unless `capture_values` was set). Used by the Section 6
    /// no-duplication tests: every word must appear exactly once across
    /// all clients.
    pub fn captured_words(&self) -> &[u64] {
        &self.captured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The ring against an ordered map: increasing keys with gaps,
        /// lookups of held, removed, skipped and never-issued keys, and
        /// removals from anywhere, down to empty and up again.
        #[test]
        fn key_ring_equals_a_map(
            first_key in 0u64..1_000,
            steps in collection::vec((0u8..8, any::<u64>()), 1..300),
        ) {
            let mut ring = KeyRing::new();
            let mut model = BTreeMap::new();
            let mut next_key = first_key;
            for (kind, pick) in steps {
                // A key around the live span: held, removed, a gap, or out of range.
                let lo = model.keys().next().copied().unwrap_or(next_key).saturating_sub(2);
                let probe = lo + pick % (next_key - lo + 3);
                match kind {
                    0..=2 => {
                        next_key += [0, 0, 1, 5][(pick % 4) as usize];
                        ring.insert(next_key, pick);
                        model.insert(next_key, pick);
                        next_key += 1;
                    }
                    3..=4 => prop_assert_eq!(ring.remove(probe), model.remove(&probe)),
                    5 => {
                        // The oldest entry: the front and its trailing gaps go.
                        let oldest = model.keys().next().copied().unwrap_or(probe);
                        prop_assert_eq!(ring.remove(oldest), model.remove(&oldest));
                    }
                    6 => {
                        if let Some(v) = ring.get_mut(probe) {
                            *v ^= 1;
                        }
                        if let Some(v) = model.get_mut(&probe) {
                            *v ^= 1;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(ring.get(probe), model.get(&probe));
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                // Slots start at the oldest held key and end by the newest issued.
                match model.keys().next() {
                    Some(&oldest) => {
                        prop_assert_eq!(ring.base, oldest);
                        prop_assert!(ring.slots.len() as u64 <= next_key - oldest);
                    }
                    None => prop_assert!(ring.slots.is_empty()),
                }
            }
            for (key, value) in model {
                prop_assert_eq!(ring.remove(key), Some(value));
            }
            prop_assert!(ring.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "keys arrive in increasing order")]
    fn key_ring_rejects_a_key_it_has_passed() {
        let mut ring = KeyRing::new();
        ring.insert(7, ());
        ring.insert(9, ());
        ring.insert(8, ());
    }

    #[test]
    fn spec_word_rounding() {
        assert_eq!(ClientSpec::manual(1).words(), 1);
        assert_eq!(ClientSpec::manual(8).words(), 1);
        assert_eq!(ClientSpec::manual(9).words(), 2);
        assert_eq!(ClientSpec::manual(32).words(), 4);
    }

    #[test]
    fn poisson_gaps_are_deterministic_and_positive() {
        let spec = ClientSpec::poisson(8, 500, 10, 42);
        let mut a = ClientState::new(spec.clone());
        let mut b = ClientState::new(spec);
        assert_eq!(a.next_arrival, b.next_arrival);
        for _ in 0..100 {
            let (x, y) = (a.draw_gap(500), b.draw_gap(500));
            assert_eq!(x, y);
            assert!(x >= 1);
        }
    }

    #[test]
    fn poisson_mean_gap_is_calibrated() {
        let mut c = ClientState::new(ClientSpec::poisson(8, 1000, 1, 7));
        let n = 20_000;
        let total: u64 = (0..n).map(|_| c.draw_gap(1000)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean gap {mean}");
    }

    #[test]
    fn closed_loop_first_arrival_is_cycle_zero() {
        let c = ClientState::new(ClientSpec::closed_loop(16, 100, 5));
        assert_eq!(c.next_arrival, Some(0));
        assert!(!c.targets_met());
    }

    #[test]
    fn inert_and_manual_clients_meet_targets() {
        assert!(ClientState::new(ClientSpec::manual(8)).targets_met());
        assert!(ClientState::new(ClientSpec::poisson(8, 100, 0, 1)).targets_met());
    }

    #[test]
    fn service_stats_percentiles() {
        let mut s = ServiceStats::default();
        for v in [10, 20, 30, 40, 1000] {
            s.latency_log.push(v);
            s.latency.record(v);
        }
        assert_eq!(s.latency_percentile(0.5), Some(30));
        assert_eq!(s.latency_percentile(1.0), Some(1000));
    }
}
