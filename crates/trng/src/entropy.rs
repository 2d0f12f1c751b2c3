//! The DRAM-cell entropy substrate.
//!
//! DRAM-based TRNGs like D-RaNGe exploit manufacturing process variation:
//! when the memory controller violates timing parameters (e.g. a strongly
//! reduced tRCD), most cells still read deterministically (they are either
//! comfortably fast or comfortably slow), but a small fraction sit right at
//! the sampling boundary and fail *randomly* — these are the RNG cells.
//!
//! [`CellArray`] models a region of DRAM cells, each with a Bernoulli
//! failure probability drawn from a process-variation mixture (mostly
//! deterministic cells plus a tail of boundary cells). [`CellArray::profile`]
//! reproduces D-RaNGe's profiling step: estimate each cell's failure
//! probability from repeated reduced-timing reads and keep cells whose
//! estimate falls in the RNG band around 0.5.
//!
//! Profiling is a pure function of `(cells, seed, reads)`, so its product
//! — a `ProfiledDie` — is computed once per process and shared by every
//! [`RngCellSource`] over that die; a source owns only its sampler state.
//!
//! This substitutes for real-hardware measurements (see DESIGN.md): it
//! exercises the same profiling/selection/sampling code paths and produces
//! bits with the same statistical character.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Fraction of cells that are timing-boundary ("variable") cells.
const VARIABLE_CELL_FRACTION: f64 = 0.05;
/// Fraction of cells that always fail under reduced timing.
const ALWAYS_FAIL_FRACTION: f64 = 0.10;

/// The RNG-cell selection band: profile keeps cells with estimated failure
/// probability in `[0.5 - RNG_BAND, 0.5 + RNG_BAND]` (D-RaNGe's criterion).
pub const RNG_BAND: f64 = 0.1;

/// A simulated array of DRAM cells under reduced-timing access.
#[derive(Debug, Clone)]
pub struct CellArray {
    probs: Vec<f32>,
    rng: SmallRng,
}

impl CellArray {
    /// Creates an array of `cells` cells with process variation drawn from
    /// `seed`. The same seed reproduces the same die.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    pub fn with_process_variation(cells: usize, seed: u64) -> Self {
        assert!(cells > 0, "cell array must be non-empty");
        let mut rng = SmallRng::seed_from_u64(seed);
        let probs = (0..cells)
            .map(|_| {
                let class: f64 = rng.gen();
                if class < VARIABLE_CELL_FRACTION {
                    // Boundary cells: anywhere in (0.05, 0.95).
                    rng.gen_range(0.05..0.95) as f32
                } else if class < VARIABLE_CELL_FRACTION + ALWAYS_FAIL_FRACTION {
                    // Far past the boundary: (almost) always fails.
                    rng.gen_range(0.985..1.0) as f32
                } else {
                    // Comfortably fast: (almost) never fails.
                    rng.gen_range(0.0..0.015) as f32
                }
            })
            .collect();
        CellArray {
            probs,
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Number of cells in the array.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the array has no cells (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// One reduced-timing read of `cell`: true = the cell failed (sampled a
    /// random-looking value), false = read correctly.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn sample(&mut self, cell: usize) -> bool {
        let p = self.probs[cell];
        self.rng.gen::<f32>() < p
    }

    /// D-RaNGe-style profiling: read every cell `reads_per_cell` times under
    /// reduced timing and return the indices whose estimated failure
    /// probability lies within [`RNG_BAND`] of 0.5 — the RNG cells.
    ///
    /// # Panics
    ///
    /// Panics if `reads_per_cell` is zero.
    pub fn profile(&mut self, reads_per_cell: u32) -> Vec<usize> {
        assert!(reads_per_cell > 0, "profiling needs at least one read");
        let mut rng_cells = Vec::new();
        for cell in 0..self.probs.len() {
            let mut fails = 0u32;
            for _ in 0..reads_per_cell {
                fails += u32::from(self.sample(cell));
            }
            let p_hat = fails as f64 / reads_per_cell as f64;
            if (p_hat - 0.5).abs() <= RNG_BAND {
                rng_cells.push(cell);
            }
        }
        rng_cells
    }
}

/// Cells simulated per die region by the shipped mechanisms.
const STANDARD_CELLS: usize = 32_768;
/// Profiling reads per cell for the shipped mechanisms (D-RaNGe uses 1000
/// in hardware; 128 keeps profiling fast while selecting the same band).
const STANDARD_READS: u32 = 128;

/// Dies the process-wide memo holds before it evicts the least recently
/// used one. The traffic that exists: one seed in the figure harness, one
/// per shard in a fleet (two to four in the tests and the benchmark), a
/// handful per test binary. A standard die is ≈ 1.6 k RNG cells ≈ 6.5 KB,
/// so the memo stays near 100 KB.
const DIE_MEMO_CAPACITY: usize = 16;

/// What a die is a function of: `(cells, seed, reads_per_cell)`.
type DieKey = (usize, u64, u32);

/// Recently profiled dies, most recently used first.
static DIE_MEMO: Mutex<Vec<Arc<ProfiledDie>>> = Mutex::new(Vec::new());

/// Bits of a generator output that decide one cell read: `gen::<f32>()`
/// is `(next_u64() >> 40) as f32 * 2⁻²⁴`, a multiple of 2⁻²⁴ that `f32`
/// holds exactly.
const SAMPLE_BITS: u32 = 24;

/// The failure probability `p` as the integer a sample's top
/// [`SAMPLE_BITS`] bits are compared with: `⌈p·2²⁴⌉`, computed exactly
/// (scaling an `f32` by a power of two and rounding it up to an integer
/// are both exact in `f64`). For the integer `k` a sample is built from,
/// `k·2⁻²⁴ < p ⇔ k < p·2²⁴ ⇔ k < ⌈p·2²⁴⌉`, so `k < threshold(p)` is the
/// bit [`CellArray::sample`] returns for the same generator output.
fn threshold(p: f32) -> u32 {
    (f64::from(p) * f64::from(1u32 << SAMPLE_BITS)).ceil() as u32
}

/// What profiling a die produces, and all that sampling it needs: the
/// failure thresholds ([`threshold`]) of its RNG cells in draw order plus
/// the sampler state as profiling left it. A pure function of `(cells,
/// seed, reads_per_cell)` and immutable, so every source over the same
/// die shares one copy — D-RaNGe likewise profiles a device once and only
/// samples it afterwards.
struct ProfiledDie {
    key: DieKey,
    /// Never empty.
    rng_thresholds: Box<[u32]>,
    sampler: SmallRng,
}

impl ProfiledDie {
    fn profile(key: DieKey) -> Self {
        let (cells, seed, reads_per_cell) = key;
        let mut array = CellArray::with_process_variation(cells, seed);
        let rng_cells = array.profile(reads_per_cell);
        assert!(
            !rng_cells.is_empty(),
            "no RNG cells found; enlarge the array"
        );
        ProfiledDie {
            key,
            rng_thresholds: rng_cells
                .iter()
                .map(|&cell| threshold(array.probs[cell]))
                .collect(),
            sampler: array.rng,
        }
    }

    /// The die for `key` from the memo, profiling it on a miss.
    ///
    /// Profiling runs with the memo unlocked: a panicking or slow profile
    /// of one die neither poisons nor stalls builds over other dies. Two
    /// threads missing on the same key may both profile; the results are
    /// equal and the first one inserted is kept.
    fn shared(key: DieKey) -> Arc<Self> {
        // Its own statement, so the guard is gone before profiling starts.
        let hit = recall(&mut lock_memo(), key);
        if let Some(die) = hit {
            return die;
        }
        let die = Arc::new(ProfiledDie::profile(key));
        let mut memo = lock_memo();
        if let Some(earlier) = recall(&mut memo, key) {
            return earlier;
        }
        memo.truncate(DIE_MEMO_CAPACITY - 1);
        memo.insert(0, Arc::clone(&die));
        die
    }
}

fn lock_memo() -> MutexGuard<'static, Vec<Arc<ProfiledDie>>> {
    DIE_MEMO
        .lock()
        .expect("nothing that can panic runs under the die memo lock")
}

/// Finds `key` in the memo and marks it most recently used.
fn recall(memo: &mut [Arc<ProfiledDie>], key: DieKey) -> Option<Arc<ProfiledDie>> {
    let at = memo.iter().position(|die| die.key == key)?;
    memo[..=at].rotate_right(1);
    Some(Arc::clone(&memo[0]))
}

impl fmt::Debug for ProfiledDie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cells, seed, _) = self.key;
        f.debug_struct("ProfiledDie")
            .field("cells", &cells)
            .field("seed", &seed)
            .field("rng_cells", &self.rng_thresholds.len())
            .finish_non_exhaustive()
    }
}

/// A stream of true-random bits drawn from profiled RNG cells.
///
/// An independent sampler (its own generator state and cursor) over a
/// shared, immutable profiled die; it round-robins reads over the RNG
/// cells, the way D-RaNGe interleaves accesses over RNG cells in different
/// banks. Cloning is O(1) and the clone continues the same stream
/// independently.
///
/// # Examples
///
/// ```
/// use strange_trng::RngCellSource;
///
/// let mut source = RngCellSource::new(4096, 7, 100);
/// let word = source.draw(64);
/// let _ = word; // 64 true-random bits
/// assert!(source.rng_cell_count() > 0);
/// ```
#[derive(Clone)]
pub struct RngCellSource {
    die: Arc<ProfiledDie>,
    rng: SmallRng,
    cursor: usize,
}

impl RngCellSource {
    /// Builds a source over the die of `cells` cells seeded by `seed`,
    /// profiled with `reads_per_cell` reads. The die is profiled the first
    /// time a process asks for it and served from a small memo of recently
    /// used dies afterwards; the stream is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if profiling finds no RNG cells (arrays of a few thousand
    /// cells always contain some under the default process-variation model).
    pub fn new(cells: usize, seed: u64, reads_per_cell: u32) -> Self {
        let die = ProfiledDie::shared((cells, seed, reads_per_cell));
        RngCellSource {
            rng: die.sampler.clone(),
            die,
            cursor: 0,
        }
    }

    /// A source over the die region every shipped mechanism simulates.
    pub(crate) fn standard_die(seed: u64) -> Self {
        RngCellSource::new(STANDARD_CELLS, seed, STANDARD_READS)
    }

    /// Number of profiled RNG cells.
    pub fn rng_cell_count(&self) -> usize {
        self.die.rng_thresholds.len()
    }

    /// Draws `count` bits (1..=64) packed into the low bits of a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 64.
    pub fn draw(&mut self, count: u32) -> u64 {
        assert!((1..=64).contains(&count), "count must be 1..=64");
        let thresholds = &*self.die.rng_thresholds;
        let mut word = 0u64;
        let mut left = count as usize;
        // One contiguous run of cells per pass: up to the end of the table,
        // then again from its start (a small die wraps more than once).
        while left > 0 {
            let run = &thresholds[self.cursor..];
            let run = &run[..left.min(run.len())];
            for &threshold in run {
                let sample = self.rng.next_u64() >> (64 - SAMPLE_BITS);
                word = (word << 1) | u64::from(sample < u64::from(threshold));
            }
            left -= run.len();
            self.cursor += run.len();
            if self.cursor == thresholds.len() {
                self.cursor = 0;
            }
        }
        word
    }
}

impl fmt::Debug for RngCellSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RngCellSource")
            .field("die", &self.die)
            .field("cursor", &self.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::catch_unwind;
    use std::sync::Barrier;
    use std::thread;

    /// The reference the shared-die source must equal: a source that
    /// profiles and owns its whole cell array, samples through
    /// [`CellArray::sample`] by RNG-cell index and wraps its cursor with `%`.
    struct OwnedArraySource {
        cells: CellArray,
        rng_cells: Vec<usize>,
        cursor: usize,
    }

    impl OwnedArraySource {
        fn new(cells: usize, seed: u64, reads_per_cell: u32) -> Self {
            let mut array = CellArray::with_process_variation(cells, seed);
            let rng_cells = array.profile(reads_per_cell);
            assert!(!rng_cells.is_empty());
            OwnedArraySource {
                cells: array,
                rng_cells,
                cursor: 0,
            }
        }

        fn draw(&mut self, count: u32) -> u64 {
            let mut word = 0u64;
            for _ in 0..count {
                let cell = self.rng_cells[self.cursor];
                self.cursor = (self.cursor + 1) % self.rng_cells.len();
                word = (word << 1) | u64::from(self.cells.sample(cell));
            }
            word
        }

        fn words(cells: usize, seed: u64, reads_per_cell: u32, n: usize) -> Vec<u64> {
            let mut source = OwnedArraySource::new(cells, seed, reads_per_cell);
            (0..n).map(|_| source.draw(64)).collect()
        }
    }

    fn words(source: &mut RngCellSource, n: usize) -> Vec<u64> {
        (0..n).map(|_| source.draw(64)).collect()
    }

    #[test]
    fn process_variation_produces_three_populations() {
        let array = CellArray::with_process_variation(100_000, 1);
        let near_zero = array.probs.iter().filter(|&&p| p < 0.05).count();
        let near_one = array.probs.iter().filter(|&&p| p > 0.95).count();
        let middle = array.len() - near_zero - near_one;
        assert!(near_zero > 75_000, "most cells never fail: {near_zero}");
        assert!(near_one > 7_000, "a chunk always fail: {near_one}");
        assert!(middle > 2_000, "boundary cells exist: {middle}");
    }

    #[test]
    fn profiling_selects_cells_near_half() {
        let mut array = CellArray::with_process_variation(50_000, 2);
        let probs = array.probs.clone();
        let rng_cells = array.profile(200);
        assert!(!rng_cells.is_empty());
        for &c in &rng_cells {
            // True probability should be near the band (estimation noise
            // allows a small margin beyond it).
            assert!(
                (probs[c] as f64 - 0.5).abs() < RNG_BAND + 0.12,
                "cell {c} has p={}",
                probs[c]
            );
        }
    }

    #[test]
    fn same_seed_same_die() {
        let a = CellArray::with_process_variation(1000, 3);
        let b = CellArray::with_process_variation(1000, 3);
        assert_eq!(a.probs, b.probs);
    }

    #[test]
    fn different_seed_different_die() {
        let a = CellArray::with_process_variation(1000, 3);
        let b = CellArray::with_process_variation(1000, 4);
        assert_ne!(a.probs, b.probs);
    }

    #[test]
    fn draw_produces_balanced_bits() {
        let mut source = RngCellSource::new(20_000, 5, 200);
        let mut ones = 0u64;
        let n = 2_000u32;
        for _ in 0..n {
            ones += source.draw(64).count_ones() as u64;
        }
        let total = n as u64 * 64;
        let ratio = ones as f64 / total as f64;
        // RNG cells are within ±0.1 of p=0.5 by construction; the aggregate
        // over many cells lands well inside (0.42, 0.58).
        assert!((0.42..0.58).contains(&ratio), "ones ratio {ratio}");
    }

    #[test]
    fn draw_respects_bit_count() {
        let mut source = RngCellSource::new(8192, 6, 100);
        for count in [1u32, 7, 32, 63] {
            let word = source.draw(count);
            if count < 64 {
                assert_eq!(word >> count, 0, "bits above count must be zero");
            }
        }
    }

    #[test]
    #[should_panic(expected = "count must be 1..=64")]
    fn draw_rejects_zero() {
        RngCellSource::new(8192, 6, 50).draw(0);
    }

    #[test]
    #[should_panic(expected = "count must be 1..=64")]
    fn draw_rejects_more_than_a_word() {
        RngCellSource::new(8192, 6, 50).draw(65);
    }

    /// A generator stuck on one output.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// One cell read in the float form of [`CellArray::sample`], from a
    /// generator output with `k` in its top 24 bits and `low` below them.
    fn float_read(k: u32, low: u64, p: f32) -> bool {
        assert!(k < 1 << SAMPLE_BITS);
        Fixed(u64::from(k) << 40 | low >> SAMPLE_BITS).gen::<f32>() < p
    }

    /// Checks `k < threshold(p)` against the float read for the `k`s
    /// around the threshold, both ends of the range and a random sample.
    fn assert_threshold_is_the_float_compare(p: f32, rng: &mut SmallRng) {
        const TOP: u32 = (1 << SAMPLE_BITS) - 1;
        let t = threshold(p);
        let near = (t.saturating_sub(2)..=t.saturating_add(2)).filter(|&k| k <= TOP);
        let far = [0, TOP, rng.gen::<u32>() >> 8, rng.gen::<u32>() >> 8];
        for k in near.chain(far) {
            assert_eq!(
                k < t,
                float_read(k, rng.next_u64(), p),
                "p = {p:e} ({:#x}), threshold {t}, k = {k}",
                p.to_bits()
            );
        }
    }

    #[test]
    fn threshold_compare_equals_float_compare() {
        let mut rng = SmallRng::seed_from_u64(0x7412_E540);
        // Every cell of the standard die (its RNG cells among them).
        let die = CellArray::with_process_variation(STANDARD_CELLS, 11);
        for &p in &die.probs {
            assert_threshold_is_the_float_compare(p, &mut rng);
        }
        // Probabilities that are a sample value exactly, and their
        // neighbours one ulp either side.
        let scale = 1.0 / (1u32 << SAMPLE_BITS) as f32;
        let spots = [0.0f32, 0.05, 0.4, 0.5, 0.6, 0.95, 1.0];
        let js = spots
            .iter()
            .flat_map(|&spot| {
                let j = (spot / scale) as u32;
                j.saturating_sub(2)..=(j + 2).min(1 << SAMPLE_BITS)
            })
            .chain((0..2_000).map(|_| rng.gen::<u32>() >> 8))
            .collect::<Vec<_>>();
        for j in js {
            let exact = j as f32 * scale;
            assert_eq!(threshold(exact), j, "j·2⁻²⁴ is its own threshold");
            let below = f32::from_bits(exact.to_bits().saturating_sub(1));
            let above = f32::from_bits(exact.to_bits() + 1);
            for p in [below, exact, above] {
                assert_threshold_is_the_float_compare(p, &mut rng);
            }
        }
        // Arbitrary probabilities around the band edges and the middle.
        for centre in [0.05f32, 0.5, 0.95] {
            for _ in 0..2_000 {
                let p = centre + (rng.gen::<f32>() - 0.5) * 1e-3;
                assert_threshold_is_the_float_compare(p, &mut rng);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_array_rejected() {
        CellArray::with_process_variation(0, 1);
    }

    proptest! {
        /// A memo-served source serves the stream of a source that
        /// profiles and samples its own array, for any die and any mix of
        /// draw widths (small arrays wrap the cursor many times).
        #[test]
        fn shared_die_source_equals_owned_array_source(
            cells in 2_000usize..8_000,
            seed in any::<u64>(),
            reads in 8u32..=48,
            counts in collection::vec(1u32..=64, 1..120),
        ) {
            let mut reference = OwnedArraySource::new(cells, seed, reads);
            // Built twice: the first build may profile, the second is
            // served from the memo.
            let mut profiled = RngCellSource::new(cells, seed, reads);
            let mut recalled = RngCellSource::new(cells, seed, reads);
            prop_assert_eq!(profiled.rng_cell_count(), reference.rng_cells.len());
            for &count in &counts {
                let want = reference.draw(count);
                prop_assert_eq!(profiled.draw(count), want);
                prop_assert_eq!(recalled.draw(count), want);
            }
        }
    }

    #[test]
    fn standard_die_matches_owned_array_source() {
        let want = OwnedArraySource::words(STANDARD_CELLS, 11, STANDARD_READS, 64);
        assert_eq!(words(&mut RngCellSource::standard_die(11), 64), want);
    }

    #[test]
    fn sources_over_one_die_are_equal_and_independent() {
        let want = OwnedArraySource::words(6_000, 21, 40, 300);
        let mut a = RngCellSource::new(6_000, 21, 40);
        let mut b = RngCellSource::new(6_000, 21, 40);
        assert_eq!(words(&mut a, 100), want[..100]);
        let mut mid = a.clone();
        assert_eq!(words(&mut a, 100), want[100..200]);
        // Draining `a` moved neither the untouched source nor the clone.
        assert_eq!(words(&mut b, 300), want);
        assert_eq!(words(&mut mid, 200), want[100..]);
        assert_eq!(words(&mut a, 100), want[200..]);
    }

    #[test]
    fn eviction_reprofiles_the_same_die() {
        let (cells, seed, reads) = (3_000, 0xE71C_7000, 24);
        let want = OwnedArraySource::words(cells, seed, reads, 50);
        assert_eq!(words(&mut RngCellSource::new(cells, seed, reads), 50), want);
        for other in 1..=(DIE_MEMO_CAPACITY + 3) as u64 {
            RngCellSource::new(cells, seed + other, reads);
        }
        {
            let memo = lock_memo();
            assert!(memo.len() <= DIE_MEMO_CAPACITY);
            assert!(memo.iter().all(|die| die.key != (cells, seed, reads)));
        }
        assert_eq!(words(&mut RngCellSource::new(cells, seed, reads), 50), want);
    }

    #[test]
    fn concurrent_builds_of_one_die_agree() {
        let want = OwnedArraySource::words(5_000, 0xC0C0, 32, 100);
        let barrier = Barrier::new(8);
        thread::scope(|scope| {
            let builds: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        words(&mut RngCellSource::new(5_000, 0xC0C0, 32), 100)
                    })
                })
                .collect();
            for build in builds {
                assert_eq!(build.join().expect("builder thread"), want);
            }
        });
    }

    #[test]
    fn different_seeds_give_different_dies() {
        let mut a = RngCellSource::new(4_000, 30, 32);
        let mut b = RngCellSource::new(4_000, 31, 32);
        assert_ne!(a.die.rng_thresholds, b.die.rng_thresholds);
        assert_ne!(words(&mut a, 8), words(&mut b, 8));
    }

    #[test]
    fn failed_profile_leaves_the_memo_usable() {
        // Four cells hold no RNG cell under this seed.
        let failed = catch_unwind(|| RngCellSource::new(4, 1, 16));
        assert!(failed.is_err(), "profiling four cells must find nothing");
        let want = OwnedArraySource::words(3_000, 41, 24, 20);
        assert_eq!(words(&mut RngCellSource::new(3_000, 41, 24), 20), want);
        let elsewhere = thread::spawn(|| words(&mut RngCellSource::new(3_000, 42, 24), 20));
        assert_eq!(
            elsewhere.join().expect("build on another thread"),
            OwnedArraySource::words(3_000, 42, 24, 20)
        );
    }

    #[test]
    fn debug_is_compact() {
        let mut source = RngCellSource::standard_die(1);
        source.draw(5);
        let text = format!("{source:?}");
        assert!(text.len() < 160, "{text}");
        for field in ["cells: 32768", "seed: 1", "rng_cells: ", "cursor: 5"] {
            assert!(text.contains(field), "{field} missing from {text}");
        }
    }
}
