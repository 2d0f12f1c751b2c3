//! Pluggable fairness and arbitration policies for tenant scheduling.
//!
//! The paper's Section 5.2 scheduler already embodies one fairness
//! mechanism: the `stall_limit` starvation counter that bounds how long
//! the RNG queue can lose arbitration against regular reads. This module
//! generalizes that idea from RNG-vs-regular to *tenant-vs-tenant*: the
//! three priority-ordered decision points of the service stack — the
//! engine's buffer serve ([`crate::MemSubsystem`]), the service layer's
//! per-cycle issue ordering ([`crate::RngService`]), and the
//! `rng_arbitrate` burst-coalescing window — all consult one configured
//! [`FairnessPolicy`] (plus a [`CoalesceWindow`]) instead of hardcoding
//! strict OS priority.
//!
//! Three policies:
//!
//! * [`FairnessPolicy::Strict`] — today's behavior, bit-identical to the
//!   pre-policy priority path (highest priority first, ties to the
//!   oldest request). Under a saturating higher-priority backlog a Low
//!   tenant starves outright.
//! * [`FairnessPolicy::Aging`] — per-tenant starvation counters in the
//!   spirit of Section 5.2's `stall_limit`: a tenant's effective
//!   priority rises by one level per `quantum` cycles its oldest pending
//!   request has waited. Because the counter would be incremented exactly
//!   once per cycle the request is pending, it always equals
//!   `now - arrival`, so it is computed in closed form — which is also
//!   what makes the policy safe under the fast-forward skip contract (no
//!   per-cycle state to replay across a dead span).
//! * [`FairnessPolicy::WeightedFair`] — deficit round robin over the
//!   tenants with weights derived from their [`crate::QosClass`]
//!   priority (`weight = priority + 1`, so Low:Normal:High share
//!   1:2:3). Every tenant with pending work is guaranteed a weighted
//!   share of served words, so no tenant starves regardless of the
//!   offered load above it.
//!
//! All three policies are deterministic functions of simulated state
//! only, and their state (the DRR deficits) changes only at decision
//! cycles the fast-forward engine ticks live — the back-pressured issue
//! cycles it skips repeat a rejected pick→refund, which changes nothing
//! after the first — so `Reference` ≡ `FastForward` bit-identity holds
//! for each (`tests/determinism.rs`).

use std::cmp::Reverse;

/// How competing tenants are ordered at the service stack's decision
/// points (buffer serve, per-cycle word issue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessPolicy {
    /// Strict OS priority (the pre-policy behavior, and the default):
    /// highest priority first, ties broken oldest-first. Starves low
    /// tenants under saturating higher-priority load.
    #[default]
    Strict,
    /// Priority aging: effective priority = base + `waited / quantum`,
    /// where `waited` is how long the tenant's oldest pending request
    /// has been waiting. Generalizes the Section 5.2 `stall_limit`
    /// starvation counter to tenant-vs-tenant arbitration; a Low tenant
    /// overtakes a High one after `(high - low) × quantum` cycles of
    /// waiting, which bounds its tail latency.
    Aging {
        /// CPU cycles of waiting per effective-priority level gained
        /// (must be nonzero; engine-side decisions, which run on the
        /// DRAM clock, scale it by the 5:1 clock ratio).
        quantum: u64,
    },
    /// Priority aging with a *derived* quantum: instead of a static
    /// value, the quantum tracks 2× the engine's running estimate of one
    /// on-demand generation episode's cost (mode switches + rounds), so
    /// bounded-wait scales with the mechanism — a Low tenant overtakes a
    /// High one after roughly two episodes' worth of waiting whether the
    /// substrate is D-RaNGe (slow rounds) or QUAC-TRNG (fast rounds).
    /// The estimate updates only at episode starts — live decision
    /// cycles — so the policy stays fast-forward safe.
    AdaptiveAging,
    /// Deficit round robin over tenants, weighted by QoS class
    /// (`weight = priority + 1`): each round, a tenant may serve up to
    /// `quantum × weight` 64-bit words before the turn passes on.
    WeightedFair {
        /// DRR refill per round in 64-bit words per unit weight (must be
        /// nonzero).
        quantum: u32,
    },
}

impl FairnessPolicy {
    /// Aging with the default quantum (25 000 CPU cycles ≈ 6.25 µs at
    /// 4 GHz): a Low tenant matches a High one after two quanta of
    /// waiting, bounding its tail latency near 50 k cycles under
    /// saturating higher-priority load.
    pub fn aging() -> Self {
        FairnessPolicy::Aging { quantum: 25_000 }
    }

    /// Weighted fair queueing with the default quantum (4 words per unit
    /// weight per round — one 256-bit request's worth for a Low tenant).
    pub fn weighted_fair() -> Self {
        FairnessPolicy::WeightedFair { quantum: 4 }
    }

    /// Aging with the quantum derived from the observed generation-episode
    /// cost (see [`FairnessPolicy::AdaptiveAging`]).
    pub fn adaptive_aging() -> Self {
        FairnessPolicy::AdaptiveAging
    }

    /// The DRR weight of a tenant with OS priority `priority`
    /// (`priority + 1`, so priority 0 still gets a share).
    pub fn weight_of(priority: u8) -> u64 {
        priority as u64 + 1
    }
}

/// When the Section 5.2 arbitration commits a queued RNG burst to one
/// generation episode (the mode-switch amortization window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoalesceWindow {
    /// Wait for one cycle of RNG-queue stability (the paper-faithful
    /// behavior, and the default): a burst arriving back-to-back shares
    /// one mode switch, and the queue goes as soon as it stops growing.
    #[default]
    Stability,
    /// Wait until the queue holds at least `k` requests or the oldest
    /// queued request has waited `timeout` cycles, whichever comes
    /// first: trades first-word latency against mode-switch
    /// amortization under many open-loop clients.
    KOrTimeout {
        /// Queue depth that releases the burst immediately (must be
        /// nonzero; `k = 1` disables coalescing).
        k: usize,
        /// Maximum DRAM-bus cycles the oldest request may wait for the
        /// burst to build (0 releases immediately).
        timeout: u64,
    },
}

/// Effective priority of a tenant under [`FairnessPolicy::Aging`]:
/// `base + waited / quantum`, saturating. `waited` and `quantum` must be
/// in the same clock domain (the engine scales CPU-cycle quanta onto the
/// DRAM clock).
pub fn effective_priority(base: u8, waited: u64, quantum: u64) -> u64 {
    base as u64 + waited / quantum.max(1)
}

/// Index of the entry the Strict policy serves first — the pre-refactor
/// priority path, verbatim: highest OS priority wins, ties go to the
/// oldest `(arrival, id)`. Entries are `(priority, arrival, id)` per
/// pending request, consumed as an iterator so the engine's per-word
/// serve loop allocates nothing; `None` on an empty stream.
///
/// For a uniformly prioritized, arrival-ordered queue this is always
/// index 0, which is why the engine's FIFO fast path (`pop_front` when
/// no priority differs) is outcome-identical — the Strict-oracle
/// property test in `tests/fairness.rs` pins both equivalences.
pub fn strict_pick(entries: impl IntoIterator<Item = (u8, u64, u64)>) -> Option<usize> {
    entries
        .into_iter()
        .enumerate()
        .max_by_key(|&(_, (priority, arrival, id))| (priority, Reverse((arrival, id))))
        .map(|(i, _)| i)
}

/// Deficit-round-robin scheduler state: one deficit counter per tenant
/// id plus the round cursor. Shared by the engine's buffer serve (tenant
/// = virtual core) and the service layer's issue path (tenant = client
/// index).
///
/// The state mutates only when [`DrrState::pick`] is called — i.e. at
/// decision cycles — and a pick undone by [`DrrState::refund`] repeats
/// as a no-op, so it is inert across fast-forwarded spans, blocked ones
/// included.
#[derive(Debug, Clone, Default)]
pub struct DrrState {
    /// Per-tenant word credit, indexed by tenant id.
    deficit: Vec<u64>,
    /// Tenant id at or after which the scan for the next turn starts.
    cursor: usize,
}

impl DrrState {
    /// Fresh scheduler state (all deficits zero, cursor at tenant 0).
    pub fn new() -> Self {
        DrrState::default()
    }

    fn ensure(&mut self, tenant: usize) {
        if self.deficit.len() <= tenant {
            self.deficit.resize(tenant + 1, 0);
        }
    }

    /// Chooses which tenant serves the next unit of work and charges its
    /// deficit by `cost`.
    ///
    /// `active` lists the tenant ids with pending work, ascending and
    /// deduplicated; `quanta[i]` is the per-round refill of `active[i]`
    /// (weight × configured quantum, floored at 1). Classic DRR
    /// accounting: a tenant reaching the head of the round refills once,
    /// spends its deficit in consecutive turns while it lasts, then
    /// passes the turn; tenants that went inactive forfeit their unspent
    /// credit.
    ///
    /// # Panics
    ///
    /// Panics when `active` is empty or `quanta` has a different length.
    pub fn pick(&mut self, active: &[usize], quanta: &[u64], cost: u64) -> usize {
        assert!(!active.is_empty(), "DRR pick with no active tenant");
        assert_eq!(active.len(), quanta.len(), "one quantum per active tenant");
        self.ensure(*active.last().expect("non-empty"));
        // A flow whose queue emptied leaves the round and forfeits its
        // credit (classic DRR); done lazily against the current active
        // set so no per-cycle bookkeeping is needed.
        let mut it = active.iter().peekable();
        for (t, d) in self.deficit.iter_mut().enumerate() {
            while it.peek().is_some_and(|&&a| a < t) {
                it.next();
            }
            if it.peek() != Some(&&t) {
                *d = 0;
            }
        }
        // First active tenant at or after the cursor, wrapping.
        let mut idx = active
            .iter()
            .position(|&t| t >= self.cursor)
            .unwrap_or(0);
        loop {
            let t = active[idx];
            if self.deficit[t] < cost {
                // Head-of-round refill. A single refill covers the unit
                // costs both call sites use; a cost above one refill
                // banks the credit and passes the turn.
                self.deficit[t] += quanta[idx].max(1);
                if self.deficit[t] < cost {
                    idx = (idx + 1) % active.len();
                    self.cursor = active[idx];
                    continue;
                }
            }
            self.deficit[t] -= cost;
            // Spent credit keeps the turn; an exhausted deficit passes
            // it to the next active tenant.
            self.cursor = if self.deficit[t] > 0 { t } else { t + 1 };
            return t;
        }
    }

    /// Returns `cost` of credit to `tenant` and hands it back the turn —
    /// the undo for a [`DrrState::pick`] whose unit of work was then
    /// rejected downstream (RNG-queue back-pressure). Without the
    /// refund, blocked cycles would burn tenants' round credit on
    /// phantom picks and skew the served shares away from the
    /// configured weights.
    pub fn refund(&mut self, tenant: usize, cost: u64) {
        self.ensure(tenant);
        self.deficit[tenant] += cost;
        self.cursor = tenant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_pick_prefers_priority_then_age() {
        // (priority, arrival, id)
        let entries = [(1, 10, 1), (2, 50, 2), (2, 40, 3), (0, 0, 4)];
        assert_eq!(strict_pick(entries), Some(2), "oldest of the highest level");
        assert_eq!(strict_pick([]), None);
    }

    #[test]
    fn strict_pick_on_uniform_arrival_ordered_queue_is_fifo() {
        let entries = [(1, 5, 1), (1, 5, 2), (1, 9, 3)];
        assert_eq!(strict_pick(entries), Some(0));
    }

    #[test]
    fn effective_priority_ages_one_level_per_quantum() {
        assert_eq!(effective_priority(0, 0, 100), 0);
        assert_eq!(effective_priority(0, 99, 100), 0);
        assert_eq!(effective_priority(0, 100, 100), 1);
        assert_eq!(effective_priority(0, 250, 100), 2);
        assert_eq!(effective_priority(2, 0, 100), 2);
        // A zero quantum is rejected by config validation; the helper
        // still never divides by zero.
        assert_eq!(effective_priority(1, 7, 0), 8);
    }

    #[test]
    fn drr_shares_words_by_weight() {
        // Tenants 0 (weight 1) and 1 (weight 3), always active: over any
        // long window the served ratio approaches 1:3.
        let mut drr = DrrState::new();
        let active = [0usize, 1];
        let quanta = [1u64, 3];
        let mut served = [0u64; 2];
        for _ in 0..400 {
            served[drr.pick(&active, &quanta, 1)] += 1;
        }
        assert_eq!(served[0] * 3, served[1], "1:3 weighted share");
    }

    #[test]
    fn drr_single_tenant_always_wins() {
        let mut drr = DrrState::new();
        for _ in 0..10 {
            assert_eq!(drr.pick(&[7], &[2], 1), 7);
        }
    }

    #[test]
    fn drr_inactive_tenant_forfeits_credit() {
        let mut drr = DrrState::new();
        // Tenant 0 banks three words of credit (quantum 4, one spent)…
        assert_eq!(drr.pick(&[0, 1], &[4, 4], 1), 0);
        // …then leaves the active set while tenant 1 spends its round
        // down to zero credit.
        for _ in 0..4 {
            assert_eq!(drr.pick(&[1], &[1], 1), 1);
        }
        // On return, tenant 0's banked credit is gone: with equal unit
        // quanta the tenants alternate exactly.
        let mut served = [0u64; 2];
        for _ in 0..64 {
            served[drr.pick(&[0, 1], &[1, 1], 1)] += 1;
        }
        assert_eq!(served[0], served[1], "equal weights serve equally");
    }

    #[test]
    fn drr_refund_undoes_a_rejected_pick() {
        // A pick whose work unit is rejected downstream, then refunded,
        // leaves the schedule exactly as if the pick never happened.
        let mut charged = DrrState::new();
        let active = [0usize, 1];
        let quanta = [1u64, 1];
        let t = charged.pick(&active, &quanta, 1);
        charged.refund(t, 1);
        let mut fresh = DrrState::new();
        let replay: Vec<usize> = (0..16).map(|_| charged.pick(&active, &quanta, 1)).collect();
        let expected: Vec<usize> = (0..16).map(|_| fresh.pick(&active, &quanta, 1)).collect();
        assert_eq!(replay, expected);
    }

    #[test]
    fn drr_rejected_pick_is_a_fixed_point_after_the_first() {
        // What lets fast-forward skip back-pressured cycles: the first
        // rejected pick may move the state (a head-of-round refill, the
        // cursor), but every further pick→refund over the same candidates
        // lands on the same tenant and changes nothing — so N blocked
        // cycles leave the schedule where one did.
        let active = [0usize, 2, 5];
        let quanta = [1u64, 2, 3];
        for served in 0..12 {
            let mut drr = DrrState::new();
            for _ in 0..served {
                drr.pick(&active, &quanta, 1);
            }
            let blocked = drr.pick(&active, &quanta, 1);
            drr.refund(blocked, 1);
            let (deficit, cursor) = (drr.deficit.clone(), drr.cursor);
            for _ in 0..3 {
                assert_eq!(drr.pick(&active, &quanta, 1), blocked, "after {served} served");
                drr.refund(blocked, 1);
                assert_eq!((&drr.deficit, drr.cursor), (&deficit, cursor), "after {served} served");
            }
        }
    }

    #[test]
    fn drr_is_deterministic() {
        let run = || {
            let mut drr = DrrState::new();
            (0..100)
                .map(|i| {
                    let active: &[usize] = if i % 3 == 0 { &[0, 2, 5] } else { &[0, 5] };
                    let quanta: &[u64] = if i % 3 == 0 { &[1, 2, 3] } else { &[1, 3] };
                    drr.pick(active, quanta, 1)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn policy_defaults_and_weights() {
        assert_eq!(FairnessPolicy::default(), FairnessPolicy::Strict);
        assert_eq!(CoalesceWindow::default(), CoalesceWindow::Stability);
        assert_eq!(FairnessPolicy::weight_of(0), 1);
        assert_eq!(FairnessPolicy::weight_of(2), 3);
        assert!(matches!(
            FairnessPolicy::aging(),
            FairnessPolicy::Aging { quantum } if quantum > 0
        ));
        assert!(matches!(
            FairnessPolicy::weighted_fair(),
            FairnessPolicy::WeightedFair { quantum } if quantum > 0
        ));
    }
}
