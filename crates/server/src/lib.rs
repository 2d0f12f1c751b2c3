//! Host-concurrent RNG server front-end over the cycle-accurate
//! DR-STRaNGe service core.
//!
//! The synchronous service layer (`strange_core::service`) simulates
//! clients *inside* the simulation loop; this crate turns the simulated
//! system into a **server**: many real OS threads open sessions and
//! submit `getrandom(bytes)` requests against one shared [`System`],
//! while a single *driver* thread owns the simulation, advances virtual
//! time in [`System::advance_until`] spans, injects arrivals at their
//! exact cycles, and drains completions back to the blocked or polling
//! submitters over per-session channels.
//!
//! # Threading model
//!
//! ```text
//!  submitter threads                    driver thread
//!  ┌──────────────┐  Ctl::Submit   ┌──────────────────────┐
//!  │SessionHandle │ ─────────────▶ │  schedule (min-heap)  │
//!  │  .getrandom  │                │  System::advance_until│
//!  │  .recv ◀──────────────────────│  take_service_        │
//!  └──────────────┘  ServedRequest │     completion()      │
//!        × N          per-session  └──────────────────────┘
//!                     channel
//! ```
//!
//! The driver is the only owner of the [`System`]; submitters never touch
//! simulation state, so no lock guards the hot loop. Three things cross
//! threads, all over the crate's private handoff channel: control
//! messages (`Ctl`: open, submit, ack, close, shutdown) on one channel
//! every handle shares, each session's outcomes on a channel of its own,
//! and the session id that `open_session` waits for. The driver relies
//! only on per-sender FIFO order: a session's messages reach it in the
//! order its handle sent them. Only the observed servers' snapshot
//! streams use the standard library's channel, because their receivers
//! are public API.
//!
//! The handoff channel is a mutex-guarded queue with a condition
//! variable and two wake rules: a sender wakes the receiver only after it
//! has released the lock, and only when the receiver is parked. A
//! blocking [`SessionHandle::getrandom`] then costs the two context
//! switches a driver thread requires — the submit wakes the driver, the
//! outcome wakes the submitter — and nothing spins or yields. The
//! standard library's channel wakes a parked receiver from inside its
//! waker lock instead. On one CPU the woken thread preempts the sender
//! and spins on that lock before it sleeps again, once on submit and once
//! on delivery. In a sampled, pinned run of the benchmark's
//! `server_closed` loop that spinning took 15 % of CPU time and futex
//! calls another 42 %. Replacing the channel took the workload from
//! 121.5 to 178.5 thousand calls per second on 2 vCPUs (EXPERIMENTS.md,
//! "A getrandom without a lock convoy").
//!
//! # Pacing and the determinism contract
//!
//! * [`Pacing::Virtual`] — virtual time is **data-driven**: it advances
//!   only to the next scheduled arrival or pending completion, and never
//!   while an open interactive session owes the driver its next decision
//!   (submit or close). A request's arrival cycle is
//!   `max(previous completion cycle + delay, now)` — host scheduling
//!   cannot perturb it — so a fixed submission schedule (sessions opened
//!   in a fixed order, each running a seeded request sequence) produces
//!   **bit-for-bit** the results of the equivalent synchronous
//!   `ServiceConfig` run, no matter how many OS threads submit or how
//!   they interleave (asserted in `tests/facade.rs`). Because a
//!   completion is observed one cycle after it lands, a post-completion
//!   delay of 0 behaves as 1; the equivalent synchronous closed loop is
//!   one with `think >= 1`.
//! * [`Pacing::WallClock`] — virtual time is pegged to the host clock at
//!   a configurable rate for interactive load tests; arrivals are
//!   stamped when the driver receives them, so results are *not*
//!   reproducible across runs.
//!
//! Sessions carry a [`strange_core::QosClass`]; the Section 5.2
//! arbitration and the service issue path see the tenant priority, so
//! high-QoS sessions observe lower tail latency under contention.
//!
//! Autonomous sessions (non-manual [`ClientSpec`]s — Poisson, bursty,
//! trace replay) may also be opened as *background load generators*:
//! they run inside the simulation without per-request channel traffic.
//! Under [`Pacing::Virtual`] they do not gate time — they generate load
//! only while interactive traffic (or wall-clock pacing) advances it.
//!
//! # Overload protection
//!
//! The [`admission`] layer closes the loop against flash crowds: an
//! [`AdmissionConfig`] gates every arrival at its virtual cycle — token
//! buckets per tenant, defer/shed watermarks over the RNG queue depth
//! and buffer occupancy — so a session observes
//! [`SubmitOutcome::Shed`] / [`SubmitOutcome::TimedOut`] instead of
//! unbounded queueing. Requests may carry deadlines
//! ([`SessionHandle::submit_with_deadline`]), open-loop bursts offer
//! load that does not slow down with the server
//! ([`SessionHandle::submit_burst`]), and [`Backoff`] gives clients
//! seeded-jitter retry. Decisions are pure functions of simulated state,
//! so the Virtual-pacing determinism contract carries over unchanged.
//!
//! Two observability hooks close the load-testing loop:
//! [`RngServer::start_observed`] streams periodic [`Snapshot`]s
//! (per-tenant latency percentiles, RNG queue depth, buffer occupancy)
//! from the driver during wall-clock runs, and — when the system was
//! built with `ServiceConfig::record_arrivals` — the final
//! [`ServerReport::arrival_logs`] carry every session's arrival trace,
//! so a wall-clock load test can be re-run deterministically through
//! `ArrivalProcess::TraceReplay`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod fleet;
mod handoff;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strange_core::{ArrivalProcess, ClientSpec, ServedRequest, ServiceStats, System, SystemStats};
use strange_metrics::percentile_sorted;

use admission::TokenBucket;
pub use admission::{
    AdmissionConfig, AdmissionStats, Backoff, RetryAfter, ShedReason, SubmitOutcome,
};
use handoff::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};

/// CPU-cycle budget per driver advance while waiting on a completion;
/// generously above any realistic request latency, so exhausting it
/// without progress indicates an internal bug.
const DRIVE_SLICE: u64 = 50_000_000;

/// How the driver maps virtual (simulated) time onto host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Deterministic virtual time: advance only as far as the submitted
    /// work requires (see the crate docs for the determinism contract).
    Virtual,
    /// Wall-clock-paced load testing: virtual time tracks the host clock
    /// at `cycles_per_ms` simulated CPU cycles per host millisecond
    /// (4 000 000 ≈ real time for the paper's 4 GHz clock).
    WallClock {
        /// Simulated CPU cycles per host millisecond.
        cycles_per_ms: u64,
    },
}

/// Control messages from session handles to the driver.
enum Ctl {
    Open {
        spec: ClientSpec,
        completions: Sender<SubmitOutcome>,
        reply: Sender<usize>,
    },
    Submit {
        session: usize,
        bytes: usize,
        delay: u64,
        /// Cycles from scheduled arrival to completion before the
        /// request times out (`u64::MAX` = none).
        deadline: u64,
    },
    /// Open-loop burst: `count` arrivals at a fixed `gap`, anchored at
    /// the session's release (or, while the session is busy, its latest
    /// scheduled arrival) — offered load that does not slow down with
    /// the server.
    SubmitBurst {
        session: usize,
        bytes: usize,
        start_delay: u64,
        gap: u64,
        count: usize,
        deadline: u64,
    },
    /// Pipelined open-loop submit: `count` arrivals chained off the
    /// session's previous *arrival* (`arrival = prev arrival + gap`),
    /// independent of completions. Marks the session pipelined: every
    /// delivery then owes the driver one client reaction (another
    /// chained submit, an ack, or a close) before virtual time may
    /// advance, so each chained arrival is computed at a deterministic
    /// simulated cycle.
    SubmitChained {
        session: usize,
        bytes: usize,
        gap: u64,
        count: usize,
        deadline: u64,
    },
    /// Releases a pipelined session's per-delivery barrier without
    /// extending the pipeline (the client consumed a completion and
    /// declines to chain another request).
    Ack {
        session: usize,
    },
    Close {
        session: usize,
    },
    Shutdown,
}

/// One scheduled arrival: `(cycle, session, bytes, first_cycle,
/// deadline_at, defers)`. Ordering (the min-heap key) is dominated by
/// `(cycle, session, bytes)` — the session tiebreak keeps same-cycle
/// injection order independent of host message order; the trailing
/// fields only break exact duplicates and are themselves deterministic.
type SchedEntry = (u64, usize, usize, u64, u64, u32);

/// Final accounting of a server run, returned by [`RngServer::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// The service layer's aggregate statistics (per-request latency log,
    /// per-session latency split, fast/slow path counts).
    pub stats: ServiceStats,
    /// Served words in completion order (only populated when the system
    /// was configured with `capture_values`).
    pub captured: Vec<u64>,
    /// Per-session arrival traces: the absolute CPU cycle of every
    /// request each session (client index) injected, in arrival order.
    /// Populated when the system was configured with
    /// `ServiceConfig::record_arrivals`; the `strange-workloads`
    /// arrival-trace writer (`emit_arrival_trace`) turns each entry into
    /// the on-disk format, and replaying them through
    /// `ArrivalProcess::TraceReplay` reproduces a virtual-paced run bit
    /// for bit (and re-runs a wall-clock load test deterministically).
    pub arrival_logs: Vec<Vec<u64>>,
    /// Total simulated CPU cycles.
    pub cpu_cycles: u64,
    /// Sessions opened over the server's lifetime.
    pub sessions: usize,
    /// Admission-control accounting (all zeros when admission was off).
    pub admission: AdmissionStats,
    /// The engine's final counters (buffer serve rate, fault and
    /// entropy-health accounting) — the server-side view of the
    /// watchdog's quarantines, probe rounds, and re-admissions.
    pub system: SystemStats,
}

/// A periodic progress snapshot emitted by the driver thread of an
/// observed wall-clock server ([`RngServer::start_observed`]): the
/// in-progress view a live load-test dashboard consumes instead of
/// waiting for the final [`ServerReport`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulated CPU cycles at the snapshot.
    pub cpu_cycles: u64,
    /// Requests offered so far (all sessions).
    pub requests_offered: u64,
    /// Requests fully served so far.
    pub requests_completed: u64,
    /// Bytes delivered to clients so far (requested bytes of completed
    /// calls) — the numerator of a served-throughput readout, and what
    /// fleet aggregation weighs shards by.
    pub bytes_served: u64,
    /// Requests currently in flight inside the simulation.
    pub in_flight: usize,
    /// Current depth of the engine's global RNG request queue.
    pub rng_queue_len: usize,
    /// 64-bit words currently available in the random number buffer.
    pub buffer_words: usize,
    /// In-progress per-tenant p50 latency (CPU cycles; `None` before a
    /// tenant's first completion). Indexed by service client — session
    /// ids land at their client index, i.e. offset by any service
    /// clients configured at `System` construction.
    pub tenant_p50: Vec<Option<u64>>,
    /// In-progress per-tenant p99 latency (same indexing as
    /// [`Snapshot::tenant_p50`]).
    pub tenant_p99: Vec<Option<u64>>,
    /// TRNG channels currently excluded by the entropy-health watchdog
    /// (in `Quarantined` or `Probation` state). Zero when the watchdog
    /// is disabled.
    pub quarantined_channels: usize,
    /// Entropy-health quality windows tested so far (live + probe).
    pub health_windows_tested: u64,
    /// Watchdog transitions into quarantine so far.
    pub health_quarantines: u64,
    /// Probe rounds run on excluded channels so far.
    pub health_probe_rounds: u64,
    /// Channels re-admitted after a probation pass streak so far.
    pub health_readmissions: u64,
    /// Words drawn by probe rounds and discarded after testing.
    pub health_tainted_discarded: u64,
}

/// A cloneable connection to a running [`RngServer`]: hand one to each
/// submitter thread so it can open its own sessions.
#[derive(Clone)]
pub struct ServerClient {
    ctl: Sender<Ctl>,
}

impl ServerClient {
    /// Opens a session and returns its handle. Interactive sessions use
    /// a manual [`ClientSpec`] (e.g. `ClientSpec::manual(bytes)`, with a
    /// QoS class via [`ClientSpec::with_qos`]); non-manual specs become
    /// autonomous background load generators whose handle never receives
    /// completions.
    ///
    /// # Panics
    ///
    /// Panics if the server has shut down, or if the spec is invalid
    /// ([`ClientSpec::validate`] — checked here so the error surfaces in
    /// the calling thread, not the driver).
    pub fn open_session(&self, spec: ClientSpec) -> SessionHandle {
        if let Err(e) = spec.validate() {
            panic!("open_session: invalid session spec: {e}");
        }
        let (completions, rx) = channel();
        let (reply, mut reply_rx) = channel();
        self.ctl
            .send(Ctl::Open {
                spec,
                completions,
                reply,
            })
            .expect("server is running");
        let id = reply_rx.recv().expect("server is running");
        SessionHandle {
            id,
            ctl: self.ctl.clone(),
            rx,
            outstanding: 0,
            first: true,
        }
    }
}

/// One open session: the submitting thread's endpoint.
///
/// Requests submitted through the handle are served in order; results
/// arrive on the session's private channel via [`SessionHandle::recv`]
/// (blocking) or [`SessionHandle::try_recv`] (polling).
pub struct SessionHandle {
    id: usize,
    ctl: Sender<Ctl>,
    rx: Receiver<SubmitOutcome>,
    outstanding: usize,
    first: bool,
}

impl SessionHandle {
    /// The session id (also its client index in
    /// [`ServiceStats::latency_by_client`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Requests currently submitted but not yet received.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Submits a `getrandom(bytes)` request without blocking. Under
    /// [`Pacing::Virtual`] the request arrives `delay` cycles after the
    /// session's previous completion (its open cycle for the first
    /// request); under [`Pacing::WallClock`] `delay` is a minimum gap and
    /// the arrival is otherwise stamped on receipt.
    pub fn submit_after(&mut self, bytes: usize, delay: u64) {
        self.submit_with_deadline(bytes, delay, u64::MAX);
    }

    /// Like [`SessionHandle::submit_after`], with a completion deadline:
    /// if more than `deadline` cycles elapse between the request's first
    /// scheduled arrival and its completion — because admission deferrals
    /// pushed it back, or because service itself was slow — the outcome
    /// is [`SubmitOutcome::TimedOut`] instead of `Served`.
    pub fn submit_with_deadline(&mut self, bytes: usize, delay: u64, deadline: u64) {
        assert!(bytes > 0, "getrandom of zero bytes");
        self.ctl
            .send(Ctl::Submit {
                session: self.id,
                bytes,
                delay,
                deadline,
            })
            .expect("server is running");
        self.outstanding += 1;
    }

    /// Submits `count` open-loop arrivals of `bytes` each, the first
    /// `start_delay` cycles after the session's release and the rest at
    /// a fixed `gap` — offered load whose arrival times do *not* stretch
    /// when the server slows down (the flash-crowd shape; contrast the
    /// closed-loop [`SessionHandle::submit_after`], which chains off
    /// completions). Outcomes arrive in arrival order via
    /// [`SessionHandle::recv_outcome`].
    ///
    /// Under [`Pacing::Virtual`], back-to-back bursts stay deterministic:
    /// a burst submitted while earlier requests are outstanding anchors
    /// at the session's latest scheduled arrival instead of "now".
    pub fn submit_burst(
        &mut self,
        bytes: usize,
        start_delay: u64,
        gap: u64,
        count: usize,
        deadline: u64,
    ) {
        assert!(bytes > 0, "getrandom of zero bytes");
        assert!(count > 0, "empty burst");
        self.first = false;
        self.ctl
            .send(Ctl::SubmitBurst {
                session: self.id,
                bytes,
                start_delay,
                gap,
                count,
                deadline,
            })
            .expect("server is running");
        self.outstanding += count;
    }

    /// Submits `count` pipelined open-loop arrivals of `bytes` each,
    /// chained off the session's previous *arrival*: request *i* arrives
    /// `gap` cycles after request *i−1*'s arrival (the session's open
    /// cycle before any), regardless of completions — so a k-deep
    /// pipeline keeps k requests in flight without the closed-loop
    /// serialization of [`SessionHandle::submit_after`].
    ///
    /// The first call (typically with `count = k`, the pipeline fill) is
    /// one atomic control message, so the whole fill anchors off one
    /// deterministic state. From then on the session is **pipelined**:
    /// under [`Pacing::Virtual`] every received outcome must be answered
    /// with exactly one `submit_pipelined`, [`SessionHandle::ack`], or
    /// [`SessionHandle::close`] — virtual time halts until the driver
    /// hears the decision, which is what keeps each chained arrival
    /// independent of host scheduling. Mixing with `submit_after` /
    /// `submit_burst` on the same session panics in the driver.
    pub fn submit_pipelined(&mut self, bytes: usize, gap: u64, count: usize, deadline: u64) {
        assert!(bytes > 0, "getrandom of zero bytes");
        assert!(count > 0, "empty pipeline");
        self.first = false;
        self.ctl
            .send(Ctl::SubmitChained {
                session: self.id,
                bytes,
                gap,
                count,
                deadline,
            })
            .expect("server is running");
        self.outstanding += count;
    }

    /// Releases a pipelined session's per-delivery barrier without
    /// chaining another request: call once per received outcome when the
    /// pipeline should drain rather than extend.
    pub fn ack(&mut self) {
        self.ctl
            .send(Ctl::Ack { session: self.id })
            .expect("server is running");
    }

    /// Blocks until the next completion for this session arrives.
    ///
    /// # Panics
    ///
    /// Panics if the server shut down with the request still in flight,
    /// when nothing is outstanding, or if the outcome was a shed or
    /// timeout (requests submitted under admission control or with
    /// deadlines must be received via [`SessionHandle::recv_outcome`]).
    pub fn recv(&mut self) -> ServedRequest {
        match self.recv_outcome() {
            SubmitOutcome::Served(served) => served,
            other => panic!("non-served outcome {other:?}: use recv_outcome"),
        }
    }

    /// Blocks until the next outcome for this session arrives: served,
    /// shed by admission control, or timed out.
    ///
    /// # Panics
    ///
    /// Panics if the server shut down with the request still in flight,
    /// or when nothing is outstanding.
    pub fn recv_outcome(&mut self) -> SubmitOutcome {
        assert!(self.outstanding > 0, "recv with no outstanding request");
        let outcome = self.rx.recv().expect("server dropped the session");
        self.outstanding -= 1;
        outcome
    }

    /// Returns the next completion if one is already available.
    ///
    /// # Panics
    ///
    /// Panics if the server shut down with requests still in flight
    /// (mirrors [`SessionHandle::recv`] — a polling submitter must not
    /// spin forever on a dead driver), or on a non-served outcome.
    pub fn try_recv(&mut self) -> Option<ServedRequest> {
        self.try_recv_outcome().map(|o| match o {
            SubmitOutcome::Served(served) => served,
            other => panic!("non-served outcome {other:?}: use try_recv_outcome"),
        })
    }

    /// Returns the next outcome if one is already available.
    ///
    /// # Panics
    ///
    /// Panics if the server shut down with requests still in flight.
    pub fn try_recv_outcome(&mut self) -> Option<SubmitOutcome> {
        match self.rx.try_recv() {
            Ok(outcome) => {
                self.outstanding -= 1;
                Some(outcome)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("server dropped the session"),
        }
    }

    /// Fills `out` with true-random bytes, blocking until the simulated
    /// system serves the request, and returns the served result (timing
    /// class + latency). `think` is the virtual-time gap between the
    /// previous completion and this arrival (the closed-loop think time;
    /// the first call arrives at the session's open cycle) — equivalent
    /// to `ArrivalProcess::ClosedLoop { think }` for `think >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty.
    pub fn getrandom(&mut self, out: &mut [u8], think: u64) -> ServedRequest {
        let delay = if self.first { 0 } else { think };
        self.first = false;
        self.submit_after(out.len(), delay);
        let served = self.recv();
        for (chunk, word) in out.chunks_mut(8).zip(&served.words) {
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        served
    }

    /// [`SessionHandle::getrandom`] with overload handling: submits with
    /// `deadline`, and on [`SubmitOutcome::Shed`] resubmits after the
    /// backoff policy's next delay (which honors the server's
    /// [`RetryAfter`] hint) until served, timed out, or the retry budget
    /// is exhausted — the returned outcome is whatever ended the loop.
    /// Fills `out` only when served.
    pub fn getrandom_with_retry(
        &mut self,
        out: &mut [u8],
        think: u64,
        deadline: u64,
        backoff: &mut Backoff,
    ) -> SubmitOutcome {
        let mut delay = if self.first { 0 } else { think };
        self.first = false;
        loop {
            self.submit_with_deadline(out.len(), delay, deadline);
            match self.recv_outcome() {
                SubmitOutcome::Served(served) => {
                    for (chunk, word) in out.chunks_mut(8).zip(&served.words) {
                        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
                    }
                    backoff.reset();
                    return SubmitOutcome::Served(served);
                }
                SubmitOutcome::Shed(hint) => match backoff.next_delay(&hint) {
                    Some(wait) => delay = wait,
                    None => return SubmitOutcome::Shed(hint),
                },
                timed_out @ SubmitOutcome::TimedOut { .. } => return timed_out,
            }
        }
    }

    /// Closes the session. Submits not yet injected into the simulation
    /// are discarded; requests already in flight drain inside the
    /// simulation and their results are dropped.
    pub fn close(self) {
        let _ = self.ctl.send(Ctl::Close { session: self.id });
    }
}

/// A session handle is itself a [`rand::RngCore`] generator: each
/// `next_u64` is one blocking 8-byte `getrandom()` against the simulated
/// system (think time 0), so any consumer written against the `rand`
/// traits — `Rng::gen`, `gen_range`, `SliceRandom::choose` — can draw
/// its randomness from the cycle-accurate DRAM TRNG unchanged.
///
/// # Panics
///
/// Panics like [`SessionHandle::recv`] on a non-served outcome: drive a
/// server with admission control through
/// [`SessionHandle::getrandom_with_retry`] instead, where shed and
/// timeout outcomes can be surfaced to the caller.
impl rand::RngCore for SessionHandle {
    fn next_u64(&mut self) -> u64 {
        let mut out = [0u8; 8];
        self.getrandom(&mut out, 0);
        u64::from_le_bytes(out)
    }
}

/// The server: owns the driver thread that owns the simulated [`System`].
pub struct RngServer {
    ctl: Sender<Ctl>,
    driver: Option<JoinHandle<ServerReport>>,
}

impl RngServer {
    /// Starts a server over `system`. Build the system with
    /// `SystemConfig::service.sessions = true` (and `capture_values` if
    /// the caller consumes the bytes); trace cores are allowed and run
    /// alongside the served sessions as background memory traffic.
    pub fn start(system: System, pacing: Pacing) -> RngServer {
        RngServer::spawn(system, pacing, None, AdmissionConfig::disabled())
    }

    /// Starts a server with overload protection: every arrival passes
    /// the [`AdmissionConfig`] gate (token buckets, defer/shed
    /// watermarks) before entering the simulation. Sessions should drain
    /// results via [`SessionHandle::recv_outcome`], since requests may
    /// now resolve [`SubmitOutcome::Shed`] or
    /// [`SubmitOutcome::TimedOut`].
    pub fn start_with_admission(
        system: System,
        pacing: Pacing,
        admission: AdmissionConfig,
    ) -> RngServer {
        RngServer::spawn(system, pacing, None, admission)
    }

    /// Starts an *observed* server: the driver thread additionally emits
    /// a [`Snapshot`] on the returned channel roughly every `every` of
    /// host time while the simulation is being paced against the wall
    /// clock, plus one final snapshot as the driver winds down (under
    /// any pacing). Dropping the receiver silently stops the stream.
    /// *Periodic* snapshots only flow under [`Pacing::WallClock`] — a
    /// virtual-paced run is deterministic and fully described by its
    /// final report, so it emits just the parting snapshot.
    pub fn start_observed(
        system: System,
        pacing: Pacing,
        every: Duration,
    ) -> (RngServer, mpsc::Receiver<Snapshot>) {
        let (tx, rx) = mpsc::channel();
        let spawned = RngServer::spawn(
            system,
            pacing,
            Some(Observer::new(tx, every)),
            AdmissionConfig::disabled(),
        );
        (spawned, rx)
    }

    fn spawn(
        system: System,
        pacing: Pacing,
        observer: Option<Observer>,
        admission: AdmissionConfig,
    ) -> RngServer {
        let (ctl, ctl_rx) = channel();
        let driver = std::thread::Builder::new()
            .name("strange-server-driver".into())
            .spawn(move || Driver::new(system, ctl_rx, pacing, observer, admission).run())
            .expect("spawn driver thread");
        RngServer {
            ctl,
            driver: Some(driver),
        }
    }

    /// A cloneable connection for submitter threads.
    pub fn client(&self) -> ServerClient {
        ServerClient {
            ctl: self.ctl.clone(),
        }
    }

    /// Opens a session directly (see [`ServerClient::open_session`]).
    pub fn open_session(&self, spec: ClientSpec) -> SessionHandle {
        self.client().open_session(spec)
    }

    /// Stops the server after draining every in-flight request and
    /// returns the final accounting.
    ///
    /// # Panics
    ///
    /// Panics if the driver thread panicked.
    pub fn shutdown(mut self) -> ServerReport {
        let _ = self.ctl.send(Ctl::Shutdown);
        self.driver
            .take()
            .expect("driver present until shutdown")
            .join()
            .expect("driver thread panicked")
    }
}

impl Drop for RngServer {
    fn drop(&mut self) {
        if let Some(driver) = self.driver.take() {
            let _ = self.ctl.send(Ctl::Shutdown);
            let _ = driver.join();
        }
    }
}

/// Driver-side session state.
struct Sess {
    /// Completion channel; `None` once the session is closed, so the
    /// channel's buffer is returned at close rather than at shutdown.
    tx: Option<Sender<SubmitOutcome>>,
    /// Cycle the session last became free: its open cycle, then the
    /// resolution cycle of each request (completion, shed, or timeout).
    release: u64,
    /// Requests injected into the simulation and not yet completed.
    in_flight: usize,
    /// Requests scheduled in the arrival heap but not yet injected.
    scheduled: usize,
    /// Submits queued behind earlier ones (virtual pacing keeps one
    /// closed-loop request committed per interactive session; the rest
    /// chain off its resolution in FIFO order, so host message timing
    /// cannot reorder or re-time them). `(bytes, delay, deadline)`.
    pending: VecDeque<(usize, u64, u64)>,
    /// Latest scheduled arrival cycle — the deterministic anchor for a
    /// burst submitted while the session is busy.
    last_arrival: u64,
    /// Per-tenant admission token bucket.
    bucket: TokenBucket,
    /// Virtual pacing: the driver must hear from this session (submit or
    /// close) before time may advance.
    awaiting: bool,
    /// The session entered the pipelined (arrival-chained) discipline via
    /// [`Ctl::SubmitChained`]; closed-loop/burst submits now panic.
    pipelined: bool,
    /// Pipelined per-delivery barrier: outcomes delivered to the session
    /// whose client reaction (chained submit, ack, or close) the driver
    /// has not yet heard. A counter, not a flag — one delivery batch can
    /// hand several completions to the same k-deep session. Virtual time
    /// halts while any session owes a reaction.
    owed: u32,
    interactive: bool,
    closed: bool,
}

impl Sess {
    /// Whether the session already has a committed request (scheduled or
    /// in flight) that later submits must chain behind.
    fn busy(&self) -> bool {
        self.in_flight > 0 || self.scheduled > 0 || !self.pending.is_empty()
    }

    /// Whether the session holds the virtual-time barrier.
    fn gates(&self) -> bool {
        self.awaiting || self.owed > 0
    }

    /// The only writer of `awaiting` / `owed` after open: keeps the
    /// driver's `gating` count equal to the number of sessions that
    /// [`Sess::gates`].
    fn set_gate(&mut self, gating: &mut usize, awaiting: bool, owed: u32) {
        *gating -= usize::from(self.gates());
        self.awaiting = awaiting;
        self.owed = owed;
        *gating += usize::from(self.gates());
    }

    /// Sends an outcome to the session's handle; false when the handle
    /// is gone (dropped, or the session closed).
    fn send(&self, outcome: SubmitOutcome) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send(outcome).is_ok())
    }
}

/// Reusable scratch for the observed-stream driver's per-tenant
/// percentile extraction: one sort buffer serves every tenant and both
/// quantiles of a [`Snapshot`], so steady-state snapshots do no
/// per-snapshot percentile allocation (the old path cloned and sorted
/// each tenant's latency log once *per quantile*). The counters make
/// the claim testable, PR 8-style: `grows` must go flat once the buffer
/// has seen the largest log.
#[derive(Debug, Default)]
pub struct PercentileScratch {
    sorted: Vec<u64>,
    sorts: u64,
    grows: u64,
}

impl PercentileScratch {
    /// Exact nearest-rank `(p50, p99)` of `log` — same semantics as
    /// [`ServiceStats::client_latency_percentile`] at 0.50 / 0.99, but
    /// one copy into the reused buffer and one sort for both quantiles.
    /// `(None, None)` on an empty log.
    pub fn p50_p99(&mut self, log: &[u64]) -> (Option<u64>, Option<u64>) {
        if log.len() > self.sorted.capacity() {
            self.grows += 1;
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(log);
        self.sorted.sort_unstable();
        self.sorts += 1;
        (
            percentile_sorted(&self.sorted, 0.50),
            percentile_sorted(&self.sorted, 0.99),
        )
    }

    /// Sorts performed (exactly one per [`PercentileScratch::p50_p99`]
    /// call — the old path did two per tenant per snapshot).
    pub fn sorts(&self) -> u64 {
        self.sorts
    }

    /// Times the incoming log exceeded the reused buffer's capacity and
    /// forced a reallocation. Flat at steady state.
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

/// Snapshot-emission state of an observed server.
struct Observer {
    tx: mpsc::Sender<Snapshot>,
    every: Duration,
    last: Instant,
}

impl Observer {
    fn new(tx: mpsc::Sender<Snapshot>, every: Duration) -> Self {
        Observer {
            tx,
            every,
            // Emit the first snapshot one interval in, not immediately.
            last: Instant::now(),
        }
    }
}

/// Arrival bookkeeping of one in-flight (injected) request.
struct Flight {
    /// Injection cycle (arrival inside the simulation).
    arrival: u64,
    /// First scheduled arrival cycle (deadline epoch — deferrals do not
    /// move it).
    first: u64,
    /// Absolute deadline cycle (`u64::MAX` = none).
    deadline_at: u64,
}

/// The driver loop: sole owner of the simulated system.
struct Driver {
    sys: System,
    ctl: Receiver<Ctl>,
    pacing: Pacing,
    observer: Option<Observer>,
    /// Driver-opened sessions, indexed by `session_id - id_base` (a
    /// system built with configured service clients hands out ids
    /// starting past them).
    sessions: Vec<Sess>,
    /// Sessions holding the virtual-time barrier (`Sess::gates`),
    /// maintained by `Sess::set_gate` so the driver loop does not scan
    /// every session ever opened on each turn.
    gating: usize,
    /// Service client id of the first driver-opened session.
    id_base: Option<usize>,
    /// Scheduled arrivals min-heap (see [`SchedEntry`]).
    schedule: BinaryHeap<Reverse<SchedEntry>>,
    /// `(session, seq)` → arrival bookkeeping of every in-flight request.
    inflight: HashMap<(usize, u64), Flight>,
    admission: AdmissionConfig,
    adm_stats: AdmissionStats,
    /// Reused percentile sort buffer for the snapshot hot path.
    scratch: PercentileScratch,
    shutdown: bool,
}

impl Driver {
    fn new(
        sys: System,
        ctl: Receiver<Ctl>,
        pacing: Pacing,
        observer: Option<Observer>,
        admission: AdmissionConfig,
    ) -> Self {
        Driver {
            sys,
            ctl,
            pacing,
            observer,
            sessions: Vec::new(),
            gating: 0,
            id_base: None,
            schedule: BinaryHeap::new(),
            inflight: HashMap::new(),
            admission,
            adm_stats: AdmissionStats::default(),
            scratch: PercentileScratch::default(),
            shutdown: false,
        }
    }

    fn virtual_pacing(&self) -> bool {
        self.pacing == Pacing::Virtual
    }

    /// Driver slot of a session id (ids from handles are service client
    /// indices, offset by any clients configured at construction).
    fn slot(&self, session: usize) -> usize {
        let base = self.id_base.expect("no session opened yet");
        debug_assert!(session >= base, "message for a non-driver session");
        session - base
    }

    fn handle(&mut self, msg: Ctl) {
        match msg {
            Ctl::Open {
                spec,
                completions,
                reply,
            } => {
                let interactive = matches!(spec.arrival, ArrivalProcess::Manual);
                let id = self.sys.open_session(spec);
                let base = *self.id_base.get_or_insert(id);
                debug_assert_eq!(id, base + self.sessions.len(), "driver-contiguous ids");
                let now = self.sys.cpu_cycles();
                let sess = Sess {
                    tx: Some(completions),
                    release: now,
                    in_flight: 0,
                    scheduled: 0,
                    pending: VecDeque::new(),
                    last_arrival: now,
                    bucket: TokenBucket::new(now, &self.admission),
                    awaiting: interactive && self.virtual_pacing(),
                    pipelined: false,
                    owed: 0,
                    interactive,
                    closed: false,
                };
                self.gating += usize::from(sess.gates());
                self.sessions.push(sess);
                let _ = reply.send(id);
            }
            Ctl::Submit {
                session,
                bytes,
                delay,
                deadline,
            } => {
                let now = self.sys.cpu_cycles();
                let virtual_pacing = self.virtual_pacing();
                let slot = self.slot(session);
                let sess = &mut self.sessions[slot];
                assert!(!sess.closed, "submit on a closed session");
                assert!(!sess.pipelined, "closed-loop submit on a pipelined session");
                sess.set_gate(&mut self.gating, false, sess.owed);
                // Virtual pacing: a session with any committed request
                // chains later submits behind it in FIFO order — whether
                // the driver has drained one or two control messages when
                // a pipelined pair arrives must not change any arrival
                // cycle.
                if virtual_pacing && sess.busy() {
                    sess.pending.push_back((bytes, delay, deadline));
                } else {
                    let arrival = (sess.release + delay).max(now);
                    self.schedule_arrival(slot, arrival, bytes, deadline);
                }
            }
            Ctl::SubmitBurst {
                session,
                bytes,
                start_delay,
                gap,
                count,
                deadline,
            } => {
                let now = self.sys.cpu_cycles();
                let virtual_pacing = self.virtual_pacing();
                let slot = self.slot(session);
                let sess = &mut self.sessions[slot];
                assert!(!sess.closed, "submit on a closed session");
                assert!(!sess.pipelined, "burst submit on a pipelined session");
                sess.set_gate(&mut self.gating, false, sess.owed);
                // Anchor the burst deterministically: a free session is
                // behind the virtual-time barrier (now is a pure function
                // of prior simulated work), a busy one anchors at its
                // latest scheduled arrival so host timing can't re-time
                // the burst.
                let first = if virtual_pacing && sess.busy() {
                    sess.last_arrival + start_delay
                } else {
                    (sess.release + start_delay).max(now)
                };
                for i in 0..count as u64 {
                    self.schedule_arrival(slot, first + i * gap, bytes, deadline);
                }
            }
            Ctl::SubmitChained {
                session,
                bytes,
                gap,
                count,
                deadline,
            } => {
                let now = self.sys.cpu_cycles();
                let virtual_pacing = self.virtual_pacing();
                let slot = self.slot(session);
                let sess = &mut self.sessions[slot];
                assert!(!sess.closed, "submit on a closed session");
                assert!(
                    sess.interactive,
                    "pipelined submit on an autonomous session"
                );
                sess.set_gate(&mut self.gating, false, sess.owed.saturating_sub(1));
                sess.pipelined = true;
                // Chain off the previous *arrival* (the open cycle before
                // any): an arithmetic arrival series independent of
                // completions — this is what distinguishes the pipeline
                // from the closed loop. Under virtual pacing the chained
                // cycle is a pure function of prior arrivals, so it may
                // legitimately lie in the simulated past of a backlogged
                // pipeline; injection stamps the scheduled arrival either
                // way. WallClock clamps to now like every other path.
                let mut arrival = sess.last_arrival + gap;
                for _ in 0..count {
                    if !virtual_pacing {
                        arrival = arrival.max(now);
                    }
                    self.schedule_arrival(slot, arrival, bytes, deadline);
                    arrival = self.sessions[slot].last_arrival + gap;
                }
            }
            Ctl::Ack { session } => {
                let slot = self.slot(session);
                let sess = &mut self.sessions[slot];
                sess.set_gate(&mut self.gating, false, sess.owed.saturating_sub(1));
            }
            Ctl::Close { session } => self.close_session(session),
            Ctl::Shutdown => self.shutdown = true,
        }
    }

    /// Commits one arrival at `cycle` for the session in `slot`.
    fn schedule_arrival(&mut self, slot: usize, cycle: u64, bytes: usize, deadline: u64) {
        let sess = &mut self.sessions[slot];
        let session = self.id_base.expect("session open implies base") + slot;
        let deadline_at = cycle.saturating_add(deadline);
        sess.scheduled += 1;
        sess.last_arrival = sess.last_arrival.max(cycle);
        self.schedule
            .push(Reverse((cycle, session, bytes, cycle, deadline_at, 0)));
    }

    /// Closes a session: discards its queued and scheduled-but-not-yet
    /// injected submits, stops the service-side client (in-flight
    /// requests drain normally; their completions are discarded if the
    /// handle is gone), and never again gates virtual time on it.
    fn close_session(&mut self, session: usize) {
        let slot = self.slot(session);
        let sess = &mut self.sessions[slot];
        if sess.closed {
            return;
        }
        sess.closed = true;
        sess.set_gate(&mut self.gating, false, 0);
        sess.tx = None;
        sess.pending = VecDeque::new();
        if sess.scheduled > 0 {
            sess.scheduled = 0;
            let entries = std::mem::take(&mut self.schedule).into_vec();
            self.schedule = entries
                .into_iter()
                .filter(|Reverse((_, s, ..))| *s != session)
                .collect();
        }
        self.sys.close_session(session);
    }

    /// Injects every scheduled arrival due at the current cycle, gating
    /// each through admission control. Decisions read only simulated
    /// state (RNG queue depth, buffer occupancy, virtual-cycle token
    /// buckets), so they are deterministic under Virtual pacing.
    fn inject_due(&mut self) {
        let now = self.sys.cpu_cycles();
        while let Some(&Reverse((cycle, session, bytes, first, deadline_at, defers))) =
            self.schedule.peek()
        {
            if cycle > now {
                break;
            }
            self.schedule.pop();
            let slot = self.slot(session);
            if self.admission.enabled {
                let queue_depth = self.sys.mem().rng_queue_len();
                let buffer_words = self.sys.mem().buffer().available_words();
                // Derate the global watermarks by the quarantined
                // fraction: the watchdog's exclusions shrink generation
                // capacity, so overload sets in at shallower queues and
                // higher buffer levels. Both inputs are simulated state,
                // so the decision stays deterministic.
                let total = self.sys.mem().channels().len();
                let healthy = total.saturating_sub(self.sys.mem().quarantined_channels());
                let cfg = self.admission.derated(healthy, total);
                // Hard watermark: shed outright.
                if queue_depth >= cfg.shed_queue_depth {
                    self.adm_stats.shed_queue_overload += 1;
                    self.resolve_rejected(
                        slot,
                        SubmitOutcome::Shed(RetryAfter {
                            cycles: cfg.defer_cycles.max(1),
                            reason: ShedReason::QueueOverload,
                        }),
                    );
                    continue;
                }
                // Soft watermark (deep queue *and* dry buffer): defer —
                // re-examine a bounded number of cycles later.
                if queue_depth >= cfg.defer_queue_depth && buffer_words <= cfg.buffer_low_words {
                    let retry_at = now + cfg.defer_cycles.max(1);
                    if retry_at > deadline_at {
                        self.adm_stats.timed_out += 1;
                        self.resolve_rejected(
                            slot,
                            SubmitOutcome::TimedOut {
                                waited_cycles: now.saturating_sub(first),
                            },
                        );
                    } else if defers >= cfg.max_defers {
                        self.adm_stats.shed_queue_overload += 1;
                        self.resolve_rejected(
                            slot,
                            SubmitOutcome::Shed(RetryAfter {
                                cycles: cfg.defer_cycles.max(1),
                                reason: ShedReason::QueueOverload,
                            }),
                        );
                    } else {
                        self.adm_stats.deferred += 1;
                        self.schedule.push(Reverse((
                            retry_at,
                            session,
                            bytes,
                            first,
                            deadline_at,
                            defers + 1,
                        )));
                    }
                    continue;
                }
                // Per-tenant rate limit.
                if let Err(until_token) = self.sessions[slot].bucket.try_take(now, &cfg) {
                    self.adm_stats.shed_tenant_throttle += 1;
                    self.resolve_rejected(
                        slot,
                        SubmitOutcome::Shed(RetryAfter {
                            cycles: until_token.max(1),
                            reason: ShedReason::TenantThrottle,
                        }),
                    );
                    continue;
                }
                self.adm_stats.accepted += 1;
            }
            // Stamp the *scheduled* cycle, not "now": a backlogged
            // pipelined session's chained arrivals can be due in the
            // simulated past, and their queueing delay must charge to
            // latency (and fairness aging) from the scheduled arrival.
            // On every other path cycle == now, so this changes nothing.
            let seq = self.sys.service_submit_at(session, bytes, cycle);
            self.inflight.insert(
                (session, seq),
                Flight {
                    arrival: cycle,
                    first,
                    deadline_at,
                },
            );
            let sess = &mut self.sessions[slot];
            sess.scheduled -= 1;
            sess.in_flight += 1;
        }
    }

    /// Resolves a request that never entered the simulation (shed or
    /// pre-injection timeout): delivers the outcome, releases the
    /// session at the current cycle, and chains its next pending submit
    /// — the same continuation a completion runs, so closed-loop tenants
    /// keep flowing through refusals.
    fn resolve_rejected(&mut self, slot: usize, outcome: SubmitOutcome) {
        let sess = &mut self.sessions[slot];
        sess.scheduled -= 1;
        sess.release = self.sys.cpu_cycles();
        self.hand_over(slot, outcome);
    }

    /// Drains every pending completion to its session channel, chaining
    /// queued submits.
    fn deliver(&mut self) {
        while let Some((session, seq, served)) = self.sys.take_service_completion() {
            let flight = self
                .inflight
                .remove(&(session, seq))
                .expect("every in-flight request is tracked");
            let done_at = flight.arrival + served.latency_cycles;
            let slot = self.slot(session);
            let sess = &mut self.sessions[slot];
            sess.in_flight -= 1;
            sess.release = done_at;
            // The deadline epoch is the *first* scheduled arrival, so
            // admission deferrals eat into the budget too.
            let outcome = if done_at > flight.deadline_at {
                self.adm_stats.timed_out += 1;
                SubmitOutcome::TimedOut {
                    waited_cycles: done_at - flight.first,
                }
            } else {
                SubmitOutcome::Served(served)
            };
            self.hand_over(slot, outcome);
        }
    }

    /// Sends a resolved request's outcome to its session and runs the
    /// session's continuation: a pipelined session owes one reaction, a
    /// closed-loop one chains its next queued submit or, with nothing
    /// left, holds the barrier until the client decides. A send failure
    /// means the handle was dropped without closing (or the session is
    /// closed); treating the session as closed right here is what keeps
    /// the virtual-time barrier from waiting forever on a submitter that
    /// no longer exists.
    fn hand_over(&mut self, slot: usize, outcome: SubmitOutcome) {
        let now = self.sys.cpu_cycles();
        let virtual_pacing = self.virtual_pacing();
        let sess = &mut self.sessions[slot];
        if !sess.send(outcome) {
            let session = self.id_base.expect("session open implies base") + slot;
            self.close_session(session);
            return;
        }
        if sess.pipelined {
            // Pipelined per-delivery barrier: the client owes one
            // reaction (chained submit, ack, or close) per outcome.
            if virtual_pacing {
                sess.set_gate(&mut self.gating, sess.awaiting, sess.owed + 1);
            }
        } else if let Some((bytes, delay, deadline)) = sess.pending.pop_front() {
            let arrival = (sess.release + delay).max(now);
            self.schedule_arrival(slot, arrival, bytes, deadline);
        } else if sess.interactive && !sess.closed && !sess.busy() {
            sess.set_gate(&mut self.gating, virtual_pacing, sess.owed);
        }
    }

    /// Builds the current in-progress snapshot. `&mut self` for the
    /// reused percentile scratch — one sort per tenant serves both
    /// quantiles, no per-snapshot allocation at steady state.
    fn snapshot(&mut self) -> Snapshot {
        let sys = &self.sys;
        let scratch = &mut self.scratch;
        let svc = sys.service();
        let stats = svc.map(|s| s.stats());
        let tenants = stats.map_or(0, |s| s.latency_by_client.len());
        let mut tenant_p50 = Vec::with_capacity(tenants);
        let mut tenant_p99 = Vec::with_capacity(tenants);
        if let Some(s) = stats {
            for log in &s.latency_by_client {
                let (p50, p99) = scratch.p50_p99(log);
                tenant_p50.push(p50);
                tenant_p99.push(p99);
            }
        }
        Snapshot {
            cpu_cycles: sys.cpu_cycles(),
            requests_offered: stats.map_or(0, |s| s.requests_offered),
            requests_completed: stats.map_or(0, |s| s.requests_completed),
            bytes_served: stats.map_or(0, |s| s.bytes_served),
            in_flight: svc.map_or(0, |s| s.in_flight()),
            rng_queue_len: sys.mem().rng_queue_len(),
            buffer_words: sys.mem().buffer().available_words(),
            tenant_p50,
            tenant_p99,
            quarantined_channels: sys.mem().quarantined_channels(),
            health_windows_tested: sys.mem().stats().windows_tested,
            health_quarantines: sys.mem().stats().quarantines,
            health_probe_rounds: sys.mem().stats().probe_rounds,
            health_readmissions: sys.mem().stats().readmissions,
            health_tainted_discarded: sys.mem().stats().tainted_words_discarded,
        }
    }

    /// Emits a snapshot if the observation interval elapsed (`force`
    /// skips the interval check — the driver's parting snapshot). A
    /// dropped receiver ends the stream.
    fn observe(&mut self, force: bool) {
        let Some(obs) = &mut self.observer else {
            return;
        };
        if !force && obs.last.elapsed() < obs.every {
            return;
        }
        obs.last = Instant::now();
        let snap = self.snapshot();
        if self
            .observer
            .as_ref()
            .expect("checked above")
            .tx
            .send(snap)
            .is_err()
        {
            self.observer = None;
        }
    }

    fn run(mut self) -> ServerReport {
        match self.pacing {
            Pacing::Virtual => self.run_virtual(),
            Pacing::WallClock { cycles_per_ms } => self.run_wallclock(cycles_per_ms),
        }
        self.observe(true);
        let stats = self
            .sys
            .service()
            .map(|s| s.stats().clone())
            .unwrap_or_default();
        let captured = self
            .sys
            .service()
            .map(|s| s.captured_words().to_vec())
            .unwrap_or_default();
        let arrival_logs = self.sys.service().map_or_else(Vec::new, |s| {
            (0..s.clients()).map(|i| s.arrival_log(i).to_vec()).collect()
        });
        ServerReport {
            stats,
            captured,
            arrival_logs,
            cpu_cycles: self.sys.cpu_cycles(),
            sessions: self.sessions.len(),
            admission: self.adm_stats,
            system: self.sys.mem().stats().clone(),
        }
    }

    /// One blocking control receive; returns false when the channel is
    /// disconnected (treated as shutdown).
    fn recv_blocking(&mut self) -> bool {
        match self.ctl.recv() {
            Ok(msg) => {
                self.handle(msg);
                true
            }
            Err(_) => {
                self.shutdown = true;
                false
            }
        }
    }

    fn drain_ctl(&mut self) {
        loop {
            match self.ctl.try_recv() {
                Ok(msg) => self.handle(msg),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.shutdown = true;
                    break;
                }
            }
        }
    }

    fn run_virtual(&mut self) {
        loop {
            self.drain_ctl();
            let drained = self.schedule.is_empty() && self.inflight.is_empty();
            if self.shutdown && drained {
                break;
            }
            // Time may not advance while an interactive session owes the
            // driver its next decision — that barrier is what makes the
            // interleaving independent of host thread scheduling.
            debug_assert_eq!(
                self.gating,
                self.sessions.iter().filter(|s| s.gates()).count(),
                "barrier count out of step with the session flags"
            );
            if !self.shutdown && self.gating > 0 {
                self.recv_blocking();
                continue;
            }
            if drained {
                if self.shutdown {
                    break;
                }
                self.recv_blocking();
                continue;
            }
            if self.sys.service_completions_pending() > 0 {
                self.deliver();
                continue;
            }
            if let Some(&Reverse((cycle, ..))) = self.schedule.peek() {
                // A backlogged pipelined session may chain arrivals into
                // the simulated past (`cycle < now`); they inject
                // immediately, stamped with the scheduled cycle.
                let now = self.sys.cpu_cycles();
                if cycle > now {
                    self.sys
                        .advance_until(cycle - now, |s| s.service_completions_pending() > 0);
                }
                if self.sys.service_completions_pending() == 0 {
                    self.inject_due();
                    continue;
                }
            } else {
                let before = self.sys.cpu_cycles();
                self.sys
                    .advance_until(DRIVE_SLICE, |s| s.service_completions_pending() > 0);
                assert!(
                    self.sys.service_completions_pending() > 0
                        || self.sys.cpu_cycles() > before,
                    "driver stuck: in-flight requests but no progress"
                );
            }
            self.deliver();
        }
    }

    fn run_wallclock(&mut self, cycles_per_ms: u64) {
        let start = Instant::now();
        loop {
            self.drain_ctl();
            self.observe(false);
            let drained = self.schedule.is_empty() && self.inflight.is_empty();
            if self.shutdown {
                if drained {
                    break;
                }
                // Drain outstanding work at full simulation speed.
                self.catch_up(u64::MAX);
                continue;
            }
            let target = start.elapsed().as_micros() as u64 * cycles_per_ms / 1000;
            let now = self.sys.cpu_cycles();
            if target <= now {
                if drained {
                    match self.ctl.recv_timeout(Duration::from_millis(1)) {
                        Ok(msg) => self.handle(msg),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => self.shutdown = true,
                    }
                } else {
                    // Simulation ahead of the host clock: let it catch up.
                    std::thread::sleep(Duration::from_micros(100));
                }
                continue;
            }
            self.catch_up(target);
        }
    }

    /// Advances the simulation toward `target`, stopping at scheduled
    /// arrivals and completions on the way.
    fn catch_up(&mut self, target: u64) {
        let now = self.sys.cpu_cycles();
        let bound = match self.schedule.peek() {
            Some(&Reverse((cycle, ..))) if cycle < target => cycle.max(now),
            _ => target,
        };
        if bound > now {
            let span = (bound - now).min(DRIVE_SLICE);
            self.sys
                .advance_until(span, |s| s.service_completions_pending() > 0);
        }
        self.inject_due();
        self.deliver();
    }
}
