//! The random number buffer (Section 5.1).
//!
//! A small FIFO of 64-bit true-random words in the memory controller.
//! DR-STRaNGe fills it during (predicted) idle DRAM periods in 8-bit
//! batches and serves incoming random-number requests from it with low
//! latency. Served words are discarded (each random number is returned to
//! exactly one requester — the Section 6 security property).

use std::collections::VecDeque;

use strange_metrics::Ratio;

/// A bit-granular FIFO of random data with a 64-bit-entry capacity.
///
/// Bits arrive in arbitrary-size batches (D-RaNGe rounds deliver 8 bits,
/// QUAC rounds 256); consumers take whole 64-bit words.
///
/// # Examples
///
/// ```
/// use strange_core::RandomNumberBuffer;
///
/// let mut buf = RandomNumberBuffer::new(16);
/// assert!(buf.pop_word().is_none());
/// for _ in 0..8 {
///     buf.push_bits(0xAB, 8); // eight 8-bit batches
/// }
/// assert_eq!(buf.available_bits(), 64);
/// assert!(buf.pop_word().is_some());
/// assert_eq!(buf.available_bits(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomNumberBuffer {
    words: VecDeque<u64>,
    partial: u64,
    partial_bits: u32,
    capacity_entries: usize,
    serves: Ratio,
}

impl RandomNumberBuffer {
    /// Creates a buffer with `capacity_entries` 64-bit entries (paper
    /// default 16; 0 yields an always-empty, always-full buffer that
    /// disables buffering).
    pub fn new(capacity_entries: usize) -> Self {
        RandomNumberBuffer {
            words: VecDeque::with_capacity(capacity_entries),
            partial: 0,
            partial_bits: 0,
            capacity_entries,
            serves: Ratio::new(),
        }
    }

    /// Capacity in 64-bit entries.
    pub fn capacity_entries(&self) -> usize {
        self.capacity_entries
    }

    /// Capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.capacity_entries as u64 * 64
    }

    /// Bits currently stored (complete words plus the partial word).
    pub fn available_bits(&self) -> u64 {
        self.words.len() as u64 * 64 + self.partial_bits as u64
    }

    /// Number of complete 64-bit words available.
    pub fn available_words(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer can accept no more bits.
    pub fn is_full(&self) -> bool {
        self.available_bits() >= self.capacity_bits()
    }

    /// Whether no complete word is available.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Pushes `count` (1..=64) random bits (low bits of `value`). Bits
    /// beyond capacity are dropped. Returns the number of bits accepted.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 64.
    pub fn push_bits(&mut self, value: u64, count: u32) -> u32 {
        assert!((1..=64).contains(&count), "count must be 1..=64");
        let room = self.capacity_bits().saturating_sub(self.available_bits());
        let take = count.min(room.min(64) as u32);
        if take == 0 {
            return 0;
        }
        let bits = value & (u64::MAX >> (64 - take));
        // `partial` holds nothing above `partial_bits`, so the accepted
        // bits land on zeroes; those shifted out are the carry.
        self.partial |= bits << self.partial_bits;
        let filled = self.partial_bits + take;
        if filled >= 64 {
            self.words.push_back(self.partial);
            self.partial = bits.checked_shr(64 - self.partial_bits).unwrap_or(0);
        }
        self.partial_bits = filled % 64;
        take
    }

    /// Takes one complete 64-bit word, discarding it from the buffer, or
    /// `None` when fewer than 64 bits are available. Records the outcome in
    /// the serve-rate statistics.
    pub fn pop_word(&mut self) -> Option<u64> {
        let word = self.words.pop_front();
        self.serves.record(word.is_some());
        word
    }

    /// Serve-rate statistics: the fraction of pop attempts satisfied from
    /// the buffer (Figure 10's "buffer serve rate").
    pub fn serve_stats(&self) -> Ratio {
        self.serves
    }

    /// Clears stored bits (partition/flush countermeasure hook, Section 6).
    pub fn clear(&mut self) {
        self.words.clear();
        self.partial = 0;
        self.partial_bits = 0;
    }

    /// Discards up to `count` stored words, oldest first (the
    /// fault-injection integrity-check hook: flagged-corrupt words are
    /// dropped, never served). Returns how many were actually discarded.
    /// The partial word is untouched — only complete words carry an
    /// integrity tag.
    pub fn discard_words(&mut self, count: usize) -> usize {
        let n = count.min(self.words.len());
        self.words.drain(..n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_capacity_is_inert() {
        let mut b = RandomNumberBuffer::new(0);
        assert!(b.is_full());
        assert_eq!(b.push_bits(0xFF, 8), 0);
        assert!(b.pop_word().is_none());
        assert_eq!(b.serve_stats().rate(), 0.0);
    }

    #[test]
    fn bits_accumulate_into_words_in_order() {
        let mut b = RandomNumberBuffer::new(2);
        // First 64 bits: value 1 in the very first bit position.
        b.push_bits(1, 1);
        b.push_bits(0, 63);
        assert_eq!(b.available_words(), 1);
        assert_eq!(b.pop_word(), Some(1));
    }

    #[test]
    fn capacity_truncates_pushes() {
        let mut b = RandomNumberBuffer::new(1);
        assert_eq!(b.push_bits(u64::MAX, 64), 64);
        assert!(b.is_full());
        assert_eq!(b.push_bits(u64::MAX, 8), 0);
    }

    #[test]
    fn served_words_are_discarded() {
        let mut b = RandomNumberBuffer::new(1);
        b.push_bits(0xDEAD, 64);
        let first = b.pop_word();
        let second = b.pop_word();
        assert!(first.is_some());
        assert!(second.is_none(), "a served word must not be served twice");
    }

    #[test]
    fn serve_rate_tracks_hits_and_misses() {
        let mut b = RandomNumberBuffer::new(1);
        b.pop_word(); // miss
        b.push_bits(7, 64);
        b.pop_word(); // hit
        assert_eq!(b.serve_stats().rate(), 0.5);
    }

    #[test]
    fn clear_discards_content() {
        let mut b = RandomNumberBuffer::new(2);
        b.push_bits(0xAB, 8);
        b.push_bits(0xCD, 64);
        b.clear();
        assert_eq!(b.available_bits(), 0);
    }

    #[test]
    fn discard_words_drops_oldest_and_caps_at_occupancy() {
        let mut b = RandomNumberBuffer::new(4);
        for w in 1u64..=3 {
            b.push_bits(w, 64);
        }
        b.push_bits(0xF, 4); // partial word survives discards
        assert_eq!(b.discard_words(2), 2);
        assert_eq!(b.pop_word(), Some(3), "oldest words go first");
        assert_eq!(b.discard_words(5), 0, "capped at occupancy");
        assert_eq!(b.available_bits(), 4);
    }

    /// The append one bit at a time: the model `push_bits` must equal.
    fn push_bit_by_bit(b: &mut RandomNumberBuffer, value: u64, count: u32) -> u32 {
        let room = b.capacity_bits().saturating_sub(b.available_bits());
        let take = count.min(room.min(64) as u32);
        for i in 0..take {
            let bit = (value >> i) & 1;
            b.partial |= bit << b.partial_bits;
            b.partial_bits += 1;
            if b.partial_bits == 64 {
                b.words.push_back(b.partial);
                b.partial = 0;
                b.partial_bits = 0;
            }
        }
        take
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u64, u32),
        Pop,
        Discard(usize),
        Clear,
    }

    /// Runs `ops` on a buffer and on its bit-by-bit twin, comparing every
    /// return value and the whole state after every step.
    fn assert_equals_bit_by_bit(capacity: usize, ops: &[Op]) {
        let mut fast = RandomNumberBuffer::new(capacity);
        let mut model = RandomNumberBuffer::new(capacity);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Push(value, count) => assert_eq!(
                    fast.push_bits(value, count),
                    push_bit_by_bit(&mut model, value, count),
                    "bits accepted at step {step}: {op:?}"
                ),
                Op::Pop => assert_eq!(fast.pop_word(), model.pop_word(), "step {step}"),
                Op::Discard(n) => {
                    assert_eq!(fast.discard_words(n), model.discard_words(n), "step {step}")
                }
                Op::Clear => {
                    fast.clear();
                    model.clear();
                }
            }
            assert_eq!(
                (&fast.words, fast.partial, fast.partial_bits),
                (&model.words, model.partial, model.partial_bits),
                "state after step {step}: {op:?}"
            );
        }
    }

    #[test]
    fn batch_append_equals_bit_by_bit_at_the_edges() {
        let ones = u64::MAX;
        // A whole word onto an empty partial word, then onto a non-empty
        // one (the carry), then onto a full one minus a bit.
        assert_equals_bit_by_bit(
            4,
            &[
                Op::Push(0xDEAD_BEEF_0BAD_F00D, 64),
                Op::Push(0b101, 3),
                Op::Push(0x0123_4567_89AB_CDEF, 64),
                Op::Push(ones, 60),
                Op::Push(0x8000_0000_0000_0001, 64),
                Op::Pop,
                Op::Push(ones, 1),
            ],
        );
        // Capacity cuts a push short mid-call: with and without a carry,
        // and exactly at a word boundary; value bits above `count` and
        // above the cut are ignored.
        assert_equals_bit_by_bit(1, &[Op::Push(ones, 40), Op::Push(ones, 40), Op::Push(1, 1)]);
        assert_equals_bit_by_bit(
            2,
            &[Op::Push(ones, 50), Op::Push(ones, 64), Op::Push(ones, 64)],
        );
        assert_equals_bit_by_bit(
            1,
            &[Op::Push(ones, 7), Op::Pop, Op::Clear, Op::Push(ones, 64)],
        );
        assert_equals_bit_by_bit(0, &[Op::Push(ones, 64), Op::Push(1, 1), Op::Pop]);
    }

    proptest! {
        /// The shift-and-mask append equals the bit-by-bit one over random
        /// batches interleaved with pops, discards and clears, on buffers
        /// small enough that capacity cuts pushes short all the time.
        #[test]
        fn batch_append_equals_bit_by_bit(
            capacity in 0usize..6,
            steps in proptest::collection::vec((0u8..12, any::<u64>(), 1u32..=64), 0..200),
        ) {
            let ops: Vec<Op> = steps
                .into_iter()
                .map(|(kind, value, count)| match kind {
                    0..=5 => Op::Push(value, count),
                    6..=7 => Op::Push(value, 64),
                    8..=9 => Op::Pop,
                    10 => Op::Discard(count as usize % 3),
                    _ => Op::Clear,
                })
                .collect();
            assert_equals_bit_by_bit(capacity, &ops);
        }

        /// available_bits() is conserved by pushes (accepted bits only) and
        /// bounded by capacity.
        #[test]
        fn push_conservation(
            capacity in 0usize..8,
            batches in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..64),
        ) {
            let mut b = RandomNumberBuffer::new(capacity);
            let mut expected: u64 = 0;
            for (value, count) in batches {
                let accepted = b.push_bits(value, count);
                expected += accepted as u64;
                prop_assert_eq!(b.available_bits(), expected);
                prop_assert!(b.available_bits() <= b.capacity_bits());
            }
        }

        /// Popping returns exactly the accumulated 64-bit groups, FIFO.
        #[test]
        fn fifo_order(words in proptest::collection::vec(any::<u64>(), 1..8)) {
            let mut b = RandomNumberBuffer::new(words.len());
            for w in &words {
                b.push_bits(*w, 64);
            }
            for w in &words {
                prop_assert_eq!(b.pop_word(), Some(*w));
            }
            prop_assert!(b.pop_word().is_none());
        }

        /// 8-bit batch reassembly: pushing 8 batches of 8 bits yields the
        /// word whose byte i equals batch i.
        #[test]
        fn byte_reassembly(bytes in proptest::collection::vec(0u64..256, 8)) {
            let mut b = RandomNumberBuffer::new(1);
            for byte in &bytes {
                b.push_bits(*byte, 8);
            }
            let expected = bytes
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, byte)| acc | (byte << (8 * i)));
            prop_assert_eq!(b.pop_word(), Some(expected));
        }
    }
}
