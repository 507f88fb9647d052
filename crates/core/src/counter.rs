//! Saturating counters: the two-bit fast path used by every table in the
//! paper, plus a general width-parameterised counter for ablations.

use std::fmt;

/// A two-bit saturating up/down counter, the basic storage element of all
/// predictors in the paper.
///
/// States `0` and `1` predict not-taken; states `2` and `3` predict taken
/// (the "sign bit" rule of Section 3.1). Updates saturate at `0` and `3`.
///
/// ```
/// use bpred_core::Counter2;
///
/// let mut c = Counter2::WEAKLY_NOT_TAKEN;
/// assert!(!c.predict());
/// c.update(true);
/// assert!(c.predict()); // one taken outcome flips a weak state
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter2 {
    value: u8,
}

impl Counter2 {
    /// Strongly not-taken (state 0).
    pub const STRONGLY_NOT_TAKEN: Self = Self { value: 0 };
    /// Weakly not-taken (state 1).
    pub const WEAKLY_NOT_TAKEN: Self = Self { value: 1 };
    /// Weakly taken (state 2). The paper initialises gshare tables and the
    /// bi-mode choice predictor to this state (footnote 2).
    pub const WEAKLY_TAKEN: Self = Self { value: 2 };
    /// Strongly taken (state 3).
    pub const STRONGLY_TAKEN: Self = Self { value: 3 };

    /// Creates a counter from a raw state in `0..=3`.
    ///
    /// # Panics
    ///
    /// Panics if `value > 3`.
    #[must_use]
    pub fn from_state(value: u8) -> Self {
        assert!(
            value <= 3,
            "two-bit counter state must be in 0..=3, got {value}"
        );
        Self { value }
    }

    /// The raw state in `0..=3`.
    #[must_use]
    pub fn state(self) -> u8 {
        self.value
    }

    /// The predicted direction: `true` for taken (states 2 and 3).
    #[must_use]
    pub fn predict(self) -> bool {
        self.value >= 2
    }

    /// Whether the counter is in a saturated (strong) state.
    #[must_use]
    pub fn is_strong(self) -> bool {
        self.value == 0 || self.value == 3
    }

    /// Trains the counter with an observed outcome, saturating at 0 and 3.
    ///
    /// Both saturating steps are computed and the outcome selects one,
    /// so no branch depends on the outcome: in a simulator the outcome
    /// stream is the hard-to-predict data being measured.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        let v = self.value;
        self.value = if taken {
            v + u8::from(v < 3)
        } else {
            v - u8::from(v > 0)
        };
    }

    /// Returns the counter that results from training with `taken`,
    /// without mutating `self`.
    #[must_use]
    pub fn updated(self, taken: bool) -> Self {
        let mut c = self;
        c.update(taken);
        c
    }
}

impl Default for Counter2 {
    /// Defaults to weakly taken, matching the paper's initialisation.
    fn default() -> Self {
        Self::WEAKLY_TAKEN
    }
}

impl fmt::Display for Counter2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.value {
            0 => "SN",
            1 => "WN",
            2 => "WT",
            _ => "ST",
        };
        f.write_str(name)
    }
}

/// A saturating up/down counter of configurable width (1..=16 bits).
///
/// Used by ablations that vary counter width and by schemes that need
/// one-bit state (for example the agree predictor's biasing bits).
///
/// ```
/// use bpred_core::SatCounter;
///
/// let mut c = SatCounter::new(3, 4); // 3-bit counter starting at 4
/// assert!(c.predict());
/// for _ in 0..8 { c.update(false); }
/// assert_eq!(c.value(), 0); // saturates at zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u16,
    max: u16,
    threshold: u16,
}

impl SatCounter {
    /// Creates a `bits`-wide counter with the given initial value.
    ///
    /// The taken threshold is the midpoint `2^(bits-1)`: values at or above
    /// it predict taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 16, or if `initial`
    /// exceeds the maximum representable value.
    #[must_use]
    pub fn new(bits: u32, initial: u16) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "counter width must be 1..=16, got {bits}"
        );
        let max = ((1u32 << bits) - 1) as u16;
        assert!(
            initial <= max,
            "initial value {initial} exceeds {bits}-bit maximum {max}"
        );
        Self {
            value: initial,
            max,
            threshold: (max as u32).div_ceil(2) as u16,
        }
    }

    /// The current value.
    #[must_use]
    pub fn value(self) -> u16 {
        self.value
    }

    /// The saturation maximum (`2^bits - 1`).
    #[must_use]
    pub fn max(self) -> u16 {
        self.max
    }

    /// The predicted direction: `true` when the value is in the upper half.
    #[must_use]
    pub fn predict(self) -> bool {
        self.value >= self.threshold
    }

    /// Trains the counter with an observed outcome.
    pub fn update(&mut self, taken: bool) {
        if taken {
            if self.value < self.max {
                self.value += 1;
            }
        } else if self.value > 0 {
            self.value -= 1;
        }
    }
}

impl fmt::Display for SatCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.value, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine_matches_smith() {
        // Full transition table of the classic Smith counter.
        let transitions = [
            (0u8, true, 1u8),
            (1, true, 2),
            (2, true, 3),
            (3, true, 3),
            (3, false, 2),
            (2, false, 1),
            (1, false, 0),
            (0, false, 0),
        ];
        for (from, taken, to) in transitions {
            let c = Counter2::from_state(from).updated(taken);
            assert_eq!(c.state(), to, "state {from} on taken={taken}");
        }
    }

    #[test]
    fn two_bit_prediction_uses_sign_bit() {
        assert!(!Counter2::STRONGLY_NOT_TAKEN.predict());
        assert!(!Counter2::WEAKLY_NOT_TAKEN.predict());
        assert!(Counter2::WEAKLY_TAKEN.predict());
        assert!(Counter2::STRONGLY_TAKEN.predict());
    }

    #[test]
    fn two_bit_hysteresis_survives_single_anomaly() {
        // A strongly-taken counter mispredicts once on a not-taken outcome
        // but still predicts taken afterwards: the hysteresis property the
        // paper relies on for biased branches.
        let mut c = Counter2::STRONGLY_TAKEN;
        c.update(false);
        assert!(c.predict());
        c.update(true);
        assert_eq!(c, Counter2::STRONGLY_TAKEN);
    }

    #[test]
    fn two_bit_default_is_weakly_taken() {
        assert_eq!(Counter2::default(), Counter2::WEAKLY_TAKEN);
    }

    #[test]
    fn two_bit_strong_states() {
        assert!(Counter2::STRONGLY_TAKEN.is_strong());
        assert!(Counter2::STRONGLY_NOT_TAKEN.is_strong());
        assert!(!Counter2::WEAKLY_TAKEN.is_strong());
        assert!(!Counter2::WEAKLY_NOT_TAKEN.is_strong());
    }

    #[test]
    #[should_panic(expected = "two-bit counter state")]
    fn two_bit_rejects_bad_state() {
        let _ = Counter2::from_state(4);
    }

    #[test]
    fn two_bit_display_names() {
        let names: Vec<String> = (0..4)
            .map(|s| Counter2::from_state(s).to_string())
            .collect();
        assert_eq!(names, ["SN", "WN", "WT", "ST"]);
    }

    #[test]
    fn sat_counter_one_bit_behaves_as_last_outcome() {
        let mut c = SatCounter::new(1, 0);
        assert!(!c.predict());
        c.update(true);
        assert!(c.predict());
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn sat_counter_two_bit_agrees_with_counter2() {
        for init in 0..4u16 {
            let mut a = SatCounter::new(2, init);
            let mut b = Counter2::from_state(init as u8);
            for &t in &[true, true, false, false, false, true, false, true, true] {
                assert_eq!(a.predict(), b.predict(), "init {init}");
                a.update(t);
                b.update(t);
            }
        }
    }

    #[test]
    fn sat_counter_saturates_at_bounds() {
        let mut c = SatCounter::new(4, 15);
        c.update(true);
        assert_eq!(c.value(), 15);
        for _ in 0..40 {
            c.update(false);
        }
        assert_eq!(c.value(), 0);
        c.update(false);
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn sat_counter_rejects_zero_width() {
        let _ = SatCounter::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn sat_counter_rejects_oversized_initial() {
        let _ = SatCounter::new(2, 4);
    }
}
