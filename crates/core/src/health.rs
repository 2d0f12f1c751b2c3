//! Online entropy-health watchdog (detect → quarantine → probe → re-admit).
//!
//! Real DRAM entropy degrades with temperature and voltage drift; a
//! derated channel that keeps serving low-entropy words into the shared
//! buffer is a silent security failure. The watchdog closes the loop the
//! paper's end-to-end argument demands: generated words are sampled per
//! channel into sliding [`QualityWindow`]s and the incremental
//! monobit/runs/serial tests run at deterministic window boundaries;
//! consecutive failures trip a per-channel state machine
//!
//! ```text
//! Healthy → Suspect → Quarantined → Probation → Healthy
//! ```
//!
//! Quarantined and probationary channels are **excluded** from demand
//! generation and fill arbitration (the same failover paths a
//! [`crate::FaultKind::ChannelOutage`] uses), but receive scheduled
//! low-rate probe rounds whose words are tested and discarded — never
//! buffered, never served — until a configurable pass streak re-admits
//! the channel.
//!
//! # Determinism contract
//!
//! Every transition happens at an exact simulated cycle from simulated
//! state only:
//!
//! * live window tests fire at draw sites, which are live ticks by
//!   construction (words are only drawn inside `tick`);
//! * probe rounds fire at `probe_due` cycles that the engine folds into
//!   `next_event_at`, exactly like pending fault-plan events;
//! * exclusion flips only inside those transitions, and the engine's
//!   fill bound reads it afresh at every probe.
//!
//! Reference ≡ FastForward bit-identity therefore holds under any
//! watchdog configuration (`tests/robustness.rs`, `tests/chaos.rs`).

use strange_dram::ConfigError;
use strange_trng::QualityWindow;

use crate::stats::SystemStats;

/// Per-channel entropy-health state (see the module docs for the
/// transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Passing its quality windows; fully in service.
    Healthy,
    /// One or more consecutive window failures, below the trip count;
    /// still in service.
    Suspect,
    /// Tripped: excluded from generation and fill, probed at low rate.
    Quarantined,
    /// Probe windows have started passing; still excluded until the
    /// configured pass streak completes.
    Probation,
}

impl HealthState {
    /// Whether this state excludes the channel from demand generation
    /// and fill arbitration.
    pub fn excluded(self) -> bool {
        matches!(self, HealthState::Quarantined | HealthState::Probation)
    }
}

/// Entropy-health watchdog configuration (disabled by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch; when false the watchdog neither samples nor tests.
    pub enabled: bool,
    /// Words per quality window; a test fires every `window_words`
    /// sampled words per channel (non-overlapping windows).
    pub window_words: u32,
    /// Consecutive failing windows that trip `Suspect → Quarantined`.
    pub trip_failures: u32,
    /// DRAM-bus cycles between probe rounds on an excluded channel.
    pub probe_period: u64,
    /// Words drawn (tested and discarded) per probe round.
    pub probe_words: u32,
    /// Consecutive passing probe windows that re-admit the channel.
    pub probe_pass_streak: u32,
}

impl WatchdogConfig {
    /// Watchdog off: no sampling, no exclusion (the default).
    pub fn off() -> Self {
        WatchdogConfig {
            enabled: false,
            ..WatchdogConfig::standard()
        }
    }

    /// A balanced enabled configuration: 32-word windows, two failures
    /// to trip, probes every 20k DRAM cycles, two passes to re-admit.
    pub fn standard() -> Self {
        WatchdogConfig {
            enabled: true,
            window_words: 32,
            trip_failures: 2,
            probe_period: 20_000,
            probe_words: 32,
            probe_pass_streak: 2,
        }
    }

    /// Validates the parameters (only meaningful when enabled).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.enabled {
            return Ok(());
        }
        if self.window_words == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "watchdog.window_words",
                constraint: "be nonzero",
            });
        }
        if self.trip_failures == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "watchdog.trip_failures",
                constraint: "be nonzero",
            });
        }
        if self.probe_period == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "watchdog.probe_period",
                constraint: "be nonzero",
            });
        }
        if self.probe_words == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "watchdog.probe_words",
                constraint: "be nonzero",
            });
        }
        if self.probe_pass_streak == 0 {
            return Err(ConfigError::InvalidParameter {
                field: "watchdog.probe_pass_streak",
                constraint: "be nonzero",
            });
        }
        Ok(())
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig::off()
    }
}

/// Per-channel sampling window and state-machine bookkeeping.
struct ChannelHealth {
    state: HealthState,
    window: QualityWindow,
    /// Words sampled since the last boundary test.
    fresh: u32,
    /// Consecutive failing live windows.
    fails: u32,
    /// Consecutive passing probe windows.
    streak: u32,
    /// Next probe-round cycle while excluded (`u64::MAX` otherwise).
    probe_due: u64,
    /// Sub-word bit accumulator: predictive fill rounds deliver bits in
    /// chunks smaller than 64, which pack low-bits-first here until a
    /// full word is ready for the window.
    acc: u64,
    /// Valid low bits in `acc` (< 64).
    acc_bits: u32,
}

impl ChannelHealth {
    fn new(window_words: u32) -> Self {
        ChannelHealth {
            state: HealthState::Healthy,
            window: QualityWindow::new(window_words.max(1) as usize),
            fresh: 0,
            fails: 0,
            streak: 0,
            probe_due: u64::MAX,
            acc: 0,
            acc_bits: 0,
        }
    }
}

/// The engine-side watchdog: one [`ChannelHealth`] per channel plus the
/// shared configuration. All mutation entry points return whether an
/// exclusion-relevant transition occurred so the caller can invalidate
/// its fill-state memoization.
pub(crate) struct Watchdog {
    cfg: WatchdogConfig,
    chans: Vec<ChannelHealth>,
}

impl Watchdog {
    pub(crate) fn new(cfg: WatchdogConfig, channels: usize) -> Self {
        let chans = (0..channels)
            .map(|_| ChannelHealth::new(cfg.window_words))
            .collect();
        Watchdog { cfg, chans }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether channel `i` is currently excluded from generation/fill.
    pub(crate) fn excluded(&self, i: usize) -> bool {
        self.cfg.enabled && self.chans[i].state.excluded()
    }

    /// Number of currently excluded channels.
    pub(crate) fn excluded_count(&self) -> usize {
        if !self.cfg.enabled {
            return 0;
        }
        self.chans.iter().filter(|c| c.state.excluded()).count()
    }

    /// Channel `i`'s current health state.
    pub(crate) fn state(&self, i: usize) -> HealthState {
        self.chans[i].state
    }

    /// Earliest pending probe cycle over all excluded channels (bounds
    /// the engine's `next_event_at`, like pending fault events).
    pub(crate) fn next_probe_at(&self) -> Option<u64> {
        if !self.cfg.enabled {
            return None;
        }
        self.chans
            .iter()
            .filter(|c| c.state.excluded())
            .map(|c| c.probe_due)
            .min()
    }

    /// Whether channel `i` has a probe round due at `now`.
    pub(crate) fn probe_ready(&self, i: usize, now: u64) -> bool {
        self.cfg.enabled && self.chans[i].state.excluded() && now >= self.chans[i].probe_due
    }

    /// Pushes a due probe to a later (strictly future) cycle because the
    /// channel is blocked or out.
    pub(crate) fn defer_probe(&mut self, i: usize, until: u64) {
        self.chans[i].probe_due = self.chans[i].probe_due.max(until);
    }

    /// Samples the low `take` bits of one draw for channel `i` on the
    /// live path. Bits pack low-first into the channel's sub-word
    /// accumulator (predictive fill delivers chunks smaller than 64);
    /// each completed 64-bit word enters the sliding window via
    /// [`Watchdog::observe`].
    pub(crate) fn observe_bits(
        &mut self,
        i: usize,
        bits: u64,
        take: u32,
        now: u64,
        stats: &mut SystemStats,
    ) {
        debug_assert!(self.cfg.enabled);
        debug_assert!((1..=64).contains(&take));
        let bits = if take == 64 {
            bits
        } else {
            bits & ((1u64 << take) - 1)
        };
        let ch = &mut self.chans[i];
        let avail = 64 - ch.acc_bits;
        if take < avail {
            ch.acc |= bits << ch.acc_bits;
            ch.acc_bits += take;
            return;
        }
        let word = ch.acc | (bits << ch.acc_bits);
        ch.acc = if avail >= 64 { 0 } else { bits >> avail };
        ch.acc_bits = take - avail;
        self.observe(i, word, now, stats);
    }

    /// Samples one full generated word for channel `i` on the live path.
    /// Fires a boundary test every `window_words` samples; returns true
    /// iff the channel transitioned into quarantine (the caller must
    /// invalidate its fill memoization).
    pub(crate) fn observe(
        &mut self,
        i: usize,
        word: u64,
        now: u64,
        stats: &mut SystemStats,
    ) -> bool {
        debug_assert!(self.cfg.enabled);
        let ch = &mut self.chans[i];
        debug_assert!(!ch.state.excluded(), "excluded channels sample via probes");
        ch.window.push(word);
        ch.fresh += 1;
        if ch.fresh < self.cfg.window_words {
            return false;
        }
        ch.fresh = 0;
        stats.windows_tested += 1;
        if ch.window.report().all_passed() {
            ch.fails = 0;
            ch.state = HealthState::Healthy;
            return false;
        }
        ch.fails += 1;
        if ch.fails < self.cfg.trip_failures {
            ch.state = HealthState::Suspect;
            return false;
        }
        // Trip: exclude and schedule the first probe round.
        ch.state = HealthState::Quarantined;
        ch.fails = 0;
        ch.streak = 0;
        ch.fresh = 0;
        ch.window.clear();
        ch.acc = 0;
        ch.acc_bits = 0;
        ch.probe_due = now + self.cfg.probe_period;
        stats.quarantines += 1;
        true
    }

    /// Runs one probe round's test for channel `i` over `words` (already
    /// drawn — and discarded — by the engine). Returns true iff the
    /// channel was re-admitted.
    pub(crate) fn run_probe(
        &mut self,
        i: usize,
        words: &[u64],
        now: u64,
        stats: &mut SystemStats,
    ) -> bool {
        debug_assert!(self.cfg.enabled);
        let ch = &mut self.chans[i];
        debug_assert!(ch.state.excluded(), "probes only run while excluded");
        ch.window.clear();
        for &w in words {
            ch.window.push(w);
        }
        stats.windows_tested += 1;
        let passed = ch.window.report().all_passed();
        ch.window.clear();
        if passed {
            ch.streak += 1;
            if ch.streak >= self.cfg.probe_pass_streak {
                ch.state = HealthState::Healthy;
                ch.streak = 0;
                ch.fails = 0;
                ch.fresh = 0;
                ch.acc = 0;
                ch.acc_bits = 0;
                ch.probe_due = u64::MAX;
                stats.readmissions += 1;
                return true;
            }
            ch.state = HealthState::Probation;
        } else {
            ch.streak = 0;
            if ch.state == HealthState::Probation {
                // Relapse: back to quarantine (counted like a fresh trip).
                ch.state = HealthState::Quarantined;
                stats.quarantines += 1;
            }
        }
        ch.probe_due = now + self.cfg.probe_period;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            enabled: true,
            window_words: 4,
            trip_failures: 2,
            probe_period: 100,
            probe_words: 4,
            probe_pass_streak: 2,
        }
    }

    /// Words that fail monobit spectacularly (all ones).
    const BAD: u64 = u64::MAX;

    fn good_words(n: usize) -> Vec<u64> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn config_validation() {
        WatchdogConfig::off().validate().unwrap();
        WatchdogConfig::standard().validate().unwrap();
        let mut bad = WatchdogConfig::standard();
        bad.window_words = 0;
        assert!(bad.validate().is_err());
        let mut bad = WatchdogConfig::standard();
        bad.probe_pass_streak = 0;
        assert!(bad.validate().is_err());
        // Degenerate parameters are fine while disabled.
        bad.enabled = false;
        bad.validate().unwrap();
    }

    #[test]
    fn trip_and_readmit_walks_the_full_state_machine() {
        let mut wd = Watchdog::new(cfg(), 2);
        let mut stats = SystemStats::new();
        // First failing window: Healthy -> Suspect.
        for _ in 0..4 {
            assert!(!wd.observe(0, BAD, 10, &mut stats));
        }
        assert_eq!(wd.state(0), HealthState::Suspect);
        assert!(!wd.excluded(0));
        // Second consecutive failure trips quarantine.
        let mut tripped = false;
        for _ in 0..4 {
            tripped |= wd.observe(0, BAD, 20, &mut stats);
        }
        assert!(tripped);
        assert_eq!(wd.state(0), HealthState::Quarantined);
        assert!(wd.excluded(0));
        assert_eq!(wd.excluded_count(), 1);
        assert_eq!(stats.quarantines, 1);
        assert_eq!(wd.next_probe_at(), Some(120));
        // A failing probe keeps it quarantined.
        assert!(!wd.run_probe(0, &[BAD; 4], 120, &mut stats));
        assert_eq!(wd.state(0), HealthState::Quarantined);
        // Passing probes walk Probation -> Healthy.
        let good = good_words(4);
        assert!(!wd.run_probe(0, &good, 220, &mut stats));
        assert_eq!(wd.state(0), HealthState::Probation);
        assert!(wd.excluded(0), "probation is still excluded");
        assert!(wd.run_probe(0, &good, 320, &mut stats));
        assert_eq!(wd.state(0), HealthState::Healthy);
        assert!(!wd.excluded(0));
        assert_eq!(stats.readmissions, 1);
        assert_eq!(wd.next_probe_at(), None);
    }

    #[test]
    fn probation_relapse_returns_to_quarantine() {
        let mut wd = Watchdog::new(cfg(), 1);
        let mut stats = SystemStats::new();
        for _ in 0..8 {
            wd.observe(0, BAD, 0, &mut stats);
        }
        assert_eq!(wd.state(0), HealthState::Quarantined);
        wd.run_probe(0, &good_words(4), 100, &mut stats);
        assert_eq!(wd.state(0), HealthState::Probation);
        wd.run_probe(0, &[BAD; 4], 200, &mut stats);
        assert_eq!(wd.state(0), HealthState::Quarantined);
        assert_eq!(stats.quarantines, 2, "relapse counts as a quarantine");
    }

    #[test]
    fn passing_windows_recover_suspect_without_exclusion() {
        let mut wd = Watchdog::new(cfg(), 1);
        let mut stats = SystemStats::new();
        for _ in 0..4 {
            wd.observe(0, BAD, 0, &mut stats);
        }
        assert_eq!(wd.state(0), HealthState::Suspect);
        for &w in good_words(4).iter() {
            wd.observe(0, w, 5, &mut stats);
        }
        assert_eq!(wd.state(0), HealthState::Healthy);
        assert_eq!(stats.quarantines, 0);
        assert_eq!(stats.windows_tested, 2);
    }

    #[test]
    fn deferred_probes_only_move_forward() {
        let mut wd = Watchdog::new(cfg(), 1);
        let mut stats = SystemStats::new();
        for _ in 0..8 {
            wd.observe(0, BAD, 0, &mut stats);
        }
        assert_eq!(wd.next_probe_at(), Some(100));
        wd.defer_probe(0, 250);
        assert_eq!(wd.next_probe_at(), Some(250));
        wd.defer_probe(0, 150);
        assert_eq!(wd.next_probe_at(), Some(250), "deferrals never rewind");
    }
}
