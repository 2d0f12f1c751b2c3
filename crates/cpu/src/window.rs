//! The instruction window (reorder-buffer abstraction).
//!
//! Follows Ramulator's simplistic OoO model: the window holds in-flight
//! instructions in program order; non-memory instructions are ready on
//! insertion, loads and RNG requests become ready when their data returns.
//! Retirement happens in order from the head, up to the issue width per
//! cycle; a not-ready head stalls the core.
//!
//! Ready instructions are indistinguishable from one another, so the
//! window stores them run-length encoded: `Ready(n)` runs between
//! individual `Pending` entries. The number of runs is bounded by the
//! number of requests in flight rather than by the window size, which
//! makes the leading-ready count O(1) and lets bulk retirement, bulk
//! insertion and completion lookup skip over whole runs.

use std::collections::VecDeque;

use strange_dram::RequestId;

/// Why a window entry is (or was) not ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// Waiting on a demand load.
    Load,
    /// Waiting on a random-number request.
    Rng,
}

#[derive(Debug, Clone, Copy)]
enum Run {
    /// `n > 0` consecutive ready instructions.
    Ready(usize),
    /// One instruction waiting on the answer to a memory request.
    Pending(RequestId, PendingKind),
}

/// A fixed-capacity, in-order-retire instruction window.
///
/// # Examples
///
/// ```
/// use strange_cpu::{InstructionWindow, PendingKind};
///
/// let mut w = InstructionWindow::new(4);
/// w.insert_ready();
/// w.insert_pending(7, PendingKind::Load);
/// assert_eq!(w.retire(2), 1); // the load blocks the second retirement
/// w.complete(7);
/// assert_eq!(w.retire(2), 1);
/// assert!(w.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct InstructionWindow {
    capacity: usize,
    /// Program order, head first. No `Ready(0)` and no two adjacent
    /// `Ready` runs: a completed entry merges into its neighbours.
    runs: VecDeque<Run>,
    len: usize,
    outstanding: usize,
}

impl InstructionWindow {
    /// Creates a window with `capacity` entries (paper Table 1: 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be nonzero");
        InstructionWindow {
            capacity,
            runs: VecDeque::new(),
            len: 0,
            outstanding: 0,
        }
    }

    /// Number of in-flight instructions still waiting on a memory answer.
    /// Zero means every entry is ready — the window cannot receive a
    /// completion, so the core's evolution is a pure function of its trace.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Maximum number of in-flight instructions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of in-flight instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether another instruction can be inserted.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Inserts a ready (non-memory or store) instruction.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; callers must check
    /// [`InstructionWindow::has_space`] first.
    pub fn insert_ready(&mut self) {
        assert!(self.has_space(), "window overflow");
        self.push_ready(1);
    }

    /// Inserts an instruction that waits on memory request `id`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full.
    pub fn insert_pending(&mut self, id: RequestId, kind: PendingKind) {
        assert!(self.has_space(), "window overflow");
        self.runs.push_back(Run::Pending(id, kind));
        self.len += 1;
        self.outstanding += 1;
    }

    /// Marks the instruction waiting on request `id` as ready. Returns true
    /// if a matching entry was found.
    pub fn complete(&mut self, id: RequestId) -> bool {
        let Some(mut i) = self
            .runs
            .iter()
            .position(|r| matches!(*r, Run::Pending(rid, _) if rid == id))
        else {
            return false;
        };
        self.outstanding -= 1;
        let mut n = 1;
        if let Some(&Run::Ready(after)) = self.runs.get(i + 1) {
            n += after;
            self.runs.remove(i + 1);
        }
        if let Some(&Run::Ready(before)) = i.checked_sub(1).and_then(|p| self.runs.get(p)) {
            n += before;
            self.runs.remove(i);
            i -= 1;
        }
        self.runs[i] = Run::Ready(n);
        true
    }

    /// Number of ready instructions at the head, ahead of the oldest
    /// not-ready one: what in-order retirement can draw from until a
    /// completion arrives.
    pub fn leading_ready(&self) -> usize {
        match self.runs.front() {
            Some(&Run::Ready(n)) => n,
            _ => 0,
        }
    }

    /// Fast-forward helper: retires `retired` entries and inserts
    /// `inserted` ready ones at the tail in bulk. Retirement draws from
    /// the leading ready run only — including, when nothing is
    /// outstanding, the entries inserted during the span, so there only
    /// the net length must balance.
    ///
    /// # Panics
    ///
    /// Panics if retirement would pass a not-ready entry or take more
    /// entries than pass through, or the result would overflow the window.
    pub fn skip_ready(&mut self, retired: usize, inserted: usize) {
        let first = retired.min(self.leading_ready());
        self.pop_ready(first);
        self.push_ready(inserted);
        self.pop_ready(retired - first);
        assert!(self.len <= self.capacity, "window overflow");
    }

    /// Retires up to `width` ready instructions from the head; returns how
    /// many retired.
    pub fn retire(&mut self, width: usize) -> usize {
        let n = width.min(self.leading_ready());
        self.pop_ready(n);
        n
    }

    /// If the head instruction is stalled on memory, the kind it waits on.
    pub fn head_pending(&self) -> Option<PendingKind> {
        match self.runs.front() {
            Some(&Run::Pending(_, kind)) => Some(kind),
            _ => None,
        }
    }

    /// The kind the oldest not-ready instruction waits on: what the head
    /// stalls on once the leading ready run has retired.
    pub fn first_pending(&self) -> Option<PendingKind> {
        self.runs.iter().take(2).find_map(|r| match *r {
            Run::Pending(_, kind) => Some(kind),
            Run::Ready(_) => None,
        })
    }

    fn push_ready(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        match self.runs.back_mut() {
            Some(Run::Ready(m)) => *m += n,
            _ => self.runs.push_back(Run::Ready(n)),
        }
        self.len += n;
    }

    fn pop_ready(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        match self.runs.front_mut() {
            Some(Run::Ready(m)) if *m > n => *m -= n,
            Some(Run::Ready(m)) if *m == n => {
                self.runs.pop_front();
            }
            _ => panic!("retiring past a not-ready entry"),
        }
        self.len -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retires_in_order_up_to_width() {
        let mut w = InstructionWindow::new(8);
        for _ in 0..5 {
            w.insert_ready();
        }
        assert_eq!(w.retire(3), 3);
        assert_eq!(w.retire(3), 2);
        assert!(w.is_empty());
    }

    #[test]
    fn pending_head_blocks_retirement_of_ready_followers() {
        let mut w = InstructionWindow::new(8);
        w.insert_pending(1, PendingKind::Load);
        w.insert_ready();
        w.insert_ready();
        assert_eq!(w.retire(3), 0);
        assert_eq!(w.head_pending(), Some(PendingKind::Load));
        assert!(w.complete(1));
        assert_eq!(w.retire(3), 3);
    }

    #[test]
    fn complete_unknown_id_returns_false() {
        let mut w = InstructionWindow::new(4);
        w.insert_pending(1, PendingKind::Rng);
        assert!(!w.complete(99));
        assert!(w.complete(1));
        assert!(!w.complete(1), "double completion is rejected");
    }

    #[test]
    fn rng_head_reports_rng_kind() {
        let mut w = InstructionWindow::new(4);
        w.insert_pending(5, PendingKind::Rng);
        assert_eq!(w.head_pending(), Some(PendingKind::Rng));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut w = InstructionWindow::new(2);
        w.insert_ready();
        w.insert_ready();
        assert!(!w.has_space());
    }

    #[test]
    #[should_panic(expected = "window overflow")]
    fn overflow_panics() {
        let mut w = InstructionWindow::new(1);
        w.insert_ready();
        w.insert_ready();
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        InstructionWindow::new(0);
    }

    /// ready ×2, load 1, ready, rng 2, ready ×3, load 3.
    fn mixed() -> InstructionWindow {
        let mut w = InstructionWindow::new(16);
        w.insert_ready();
        w.insert_ready();
        w.insert_pending(1, PendingKind::Load);
        w.insert_ready();
        w.insert_pending(2, PendingKind::Rng);
        for _ in 0..3 {
            w.insert_ready();
        }
        w.insert_pending(3, PendingKind::Load);
        w
    }

    #[test]
    fn ready_runs_merge_on_insert_and_on_completion() {
        let mut w = mixed();
        assert_eq!(w.runs.len(), 6, "adjacent ready inserts share a run");
        assert_eq!((w.len(), w.outstanding(), w.leading_ready()), (9, 3, 2));
        // Completing the rng joins the run before it and the run after it.
        assert!(w.complete(2));
        assert_eq!(w.runs.len(), 4);
        assert_eq!((w.len(), w.outstanding(), w.leading_ready()), (9, 2, 2));
        // Completing the head-side load joins the leading run to that one.
        assert!(w.complete(1));
        assert_eq!(w.runs.len(), 2);
        assert_eq!(w.leading_ready(), 8);
        assert_eq!(w.first_pending(), Some(PendingKind::Load));
        // The tail entry has a ready neighbour on one side only.
        assert!(w.complete(3));
        assert_eq!(w.runs.len(), 1);
        assert_eq!((w.outstanding(), w.leading_ready()), (0, 9));
        assert_eq!(w.first_pending(), None);
    }

    #[test]
    fn mid_window_completion_lets_retirement_cross_it() {
        let mut w = mixed();
        assert!(w.complete(2), "a younger request answers first");
        assert_eq!(w.retire(3), 2, "the older load still blocks");
        assert_eq!(w.head_pending(), Some(PendingKind::Load));
        assert_eq!(w.first_pending(), Some(PendingKind::Load));
        assert_eq!(w.retire(3), 0);
        assert!(w.complete(1));
        assert_eq!(w.head_pending(), None);
        // load 1, ready, rng 2 (completed), ready ×3 retire as one run.
        assert_eq!(w.retire(4), 4);
        assert_eq!(w.retire(4), 2);
        assert_eq!(w.head_pending(), Some(PendingKind::Load));
        assert_eq!((w.len(), w.outstanding()), (1, 1));
    }

    #[test]
    fn bulk_retire_stops_at_a_not_ready_entry() {
        let mut w = mixed();
        assert_eq!(w.retire(100), 2);
        assert_eq!(w.len(), 7);
        // Bulk insertion lands behind the in-flight entries, out of reach.
        w.skip_ready(0, 5);
        assert_eq!((w.len(), w.leading_ready()), (12, 0));
        assert_eq!(w.retire(100), 0);

        let mut w = mixed();
        w.skip_ready(2, 4);
        assert_eq!((w.len(), w.leading_ready()), (11, 0));
        assert_eq!(w.head_pending(), Some(PendingKind::Load));
    }

    #[test]
    #[should_panic(expected = "retiring past a not-ready entry")]
    fn bulk_retire_past_a_not_ready_entry_panics() {
        mixed().skip_ready(3, 0);
    }

    #[test]
    fn bulk_skip_with_nothing_outstanding_balances_net_length() {
        let mut w = InstructionWindow::new(8);
        w.insert_ready();
        // 1 + 30 pass through, 27 retire: more than the window ever holds.
        w.skip_ready(27, 30);
        assert_eq!((w.len(), w.leading_ready()), (4, 4));
        w.skip_ready(4, 0);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "window overflow")]
    fn bulk_insert_overflow_panics() {
        mixed().skip_ready(0, 8);
    }
}
