//! The server's private handoff channel: it carries control messages to
//! the driver, each session's outcomes back, and the `open_session`
//! reply.
//!
//! A `Mutex<VecDeque<T>>` and a `Condvar`, with sender and receiver
//! liveness for disconnects. Two rules keep a call at the two context
//! switches a driver thread requires: a sender wakes the receiver only
//! after it has released the lock, so the woken thread never finds the
//! lock held, and only when the receiver is parked, so a busy receiver
//! costs the sender no futex call. Nothing spins or yields. The crate
//! docs say why the standard library's channel is not used here.
//!
//! One receiver: its methods take `&mut self`, so at most one thread can
//! be parked on a channel, which is what the single `parked` flag counts.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver: bool,
    /// The receiver waits on `ready` and no one has woken it yet.
    parked: bool,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every update under the lock leaves the state valid and no value
        // is dropped under it, so a poisoned lock still guards good data.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Creates a channel with one sender and its receiver.
pub(crate) fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver: true,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half; clone it for more producers. Per-sender FIFO.
pub(crate) struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half.
pub(crate) struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The receiver is gone; the unsent value is handed back.
pub(crate) struct SendError<T>(pub(crate) T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Every sender is gone and the queue is empty.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Disconnected;

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> Sender<T> {
    /// Queues `value`, or hands it back when the receiver is gone.
    pub(crate) fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if !state.receiver {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        let wake = std::mem::take(&mut state.parked);
        drop(state);
        if wake {
            self.shared.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let wake = state.senders == 0 && std::mem::take(&mut state.parked);
        drop(state);
        if wake {
            self.shared.ready.notify_one();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value arrives; `Err` once every sender is gone and
    /// the queue is drained.
    pub(crate) fn recv(&mut self) -> Result<T, Disconnected> {
        self.recv_until(None).map_err(|_| Disconnected)
    }

    pub(crate) fn try_recv(&mut self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(value) => Ok(value),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub(crate) fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // A deadline past `Instant`'s range is no deadline.
        self.recv_until(Instant::now().checked_add(timeout))
    }

    fn recv_until(&mut self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let shared = &*self.shared;
        let mut state = shared.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = match deadline {
                Some(at) => match at.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(RecvTimeoutError::Timeout),
                },
                None => None,
            };
            state.parked = true;
            state = match left {
                Some(left) => {
                    shared
                        .ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            // Woken, timed out or spurious: awake either way.
            state.parked = false;
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver = false;
        let queued = std::mem::take(&mut state.queue);
        drop(state);
        // Outside the lock: a queued value may own a sender of this
        // channel, whose drop takes the lock.
        drop(queued);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn two_producers_arrive_complete_and_in_order() {
        const EACH: u32 = 10_000;
        let (tx, mut rx) = channel();
        let producers: Vec<_> = (0..2u32)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..EACH {
                        tx.send((p, i)).expect("receiver alive");
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u32; 2];
        // A lost wake-up ends the loop early instead of hanging it.
        while let Ok((p, i)) = rx.recv_timeout(Duration::from_secs(120)) {
            assert_eq!(i, next[p as usize], "producer {p} out of order");
            next[p as usize] += 1;
        }
        assert_eq!(next, [EACH; 2]);
        for p in producers {
            p.join().expect("producer panicked");
        }
    }

    #[test]
    fn queued_items_drain_after_the_last_sender_drops() {
        let (tx, mut rx) = channel();
        let tx2 = tx.clone();
        tx.send(1).expect("receiver alive");
        tx2.send(2).expect("receiver alive");
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.recv(), Err(Disconnected));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn a_dropped_receiver_hands_values_back_and_frees_the_queue() {
        let item = Arc::new(());
        let (tx, rx) = channel();
        tx.send(Arc::clone(&item)).expect("receiver alive");
        tx.send(Arc::clone(&item)).expect("receiver alive");
        assert_eq!(Arc::strong_count(&item), 3);
        drop(rx);
        assert_eq!(Arc::strong_count(&item), 1, "queued items leaked");
        let back = tx.send(Arc::clone(&item)).expect_err("receiver gone").0;
        assert!(Arc::ptr_eq(&back, &item));
        drop(back);
        assert_eq!(Arc::strong_count(&item), 1);
    }

    #[test]
    fn recv_timeout_on_an_empty_channel_times_out() {
        let (_tx, mut rx) = channel::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn ping_pong_loses_no_wake_up() {
        const ROUNDS: u64 = 100_000;
        let (done_tx, mut done) = channel();
        let pinger = thread::spawn(move || {
            let (ping, mut ping_rx) = channel::<u64>();
            let (pong, mut pong_rx) = channel::<u64>();
            let ponger = thread::spawn(move || {
                while let Ok(n) = ping_rx.recv() {
                    pong.send(n + 1).expect("pinger alive");
                }
            });
            let mut n = 0;
            for _ in 0..ROUNDS {
                ping.send(n).expect("ponger alive");
                n = pong_rx.recv().expect("ponger alive");
            }
            drop(ping);
            ponger.join().expect("ponger panicked");
            done_tx.send(n).expect("test waiting");
        });
        // A lost wake-up fails the test here instead of hanging it.
        let rounds = done
            .recv_timeout(Duration::from_secs(120))
            .expect("ping-pong finished within two minutes");
        assert_eq!(rounds, ROUNDS);
        pinger.join().expect("pinger panicked");
    }
}
