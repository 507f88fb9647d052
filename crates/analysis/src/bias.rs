//! Bias classes of branch-outcome substreams (paper Section 4.1).

use std::fmt;

/// The paper's three bias classes for a stream of branch outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BiasClass {
    /// Taken at least 90% of the time.
    StronglyTaken,
    /// Not-taken at least 90% of the time.
    StronglyNotTaken,
    /// Neither of the above.
    WeaklyBiased,
}

impl BiasClass {
    /// Short label used in tables (`ST`/`SNT`/`WB`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BiasClass::StronglyTaken => "ST",
            BiasClass::StronglyNotTaken => "SNT",
            BiasClass::WeaklyBiased => "WB",
        }
    }
}

impl fmt::Display for BiasClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated statistics of one substream `s_ij`: the outcomes a
/// particular static branch `i` sent to a particular counter `j`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of taken outcomes in the stream.
    pub taken: u64,
    /// Total outcomes in the stream (`|s_ij|` in the paper).
    pub total: u64,
}

impl StreamStats {
    /// Records one outcome.
    pub fn record(&mut self, taken: bool) {
        self.taken += u64::from(taken);
        self.total += 1;
    }

    /// The stream's bias class under the paper's 90% thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the stream is empty (an empty stream has no class).
    #[must_use]
    pub fn class(self) -> BiasClass {
        assert!(self.total > 0, "an empty stream has no bias class");
        // Integer comparison: taken/total >= 0.9  <=>  10*taken >= 9*total.
        if 10 * self.taken >= 9 * self.total {
            BiasClass::StronglyTaken
        } else if 10 * self.taken <= self.total {
            BiasClass::StronglyNotTaken
        } else {
            BiasClass::WeaklyBiased
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_of(taken: u64, total: u64) -> BiasClass {
        StreamStats { taken, total }.class()
    }

    #[test]
    fn thresholds_match_the_paper_at_90_percent() {
        assert_eq!(class_of(9, 10), BiasClass::StronglyTaken);
        assert_eq!(class_of(90, 100), BiasClass::StronglyTaken);
        assert_eq!(class_of(89, 100), BiasClass::WeaklyBiased);
        assert_eq!(class_of(1, 10), BiasClass::StronglyNotTaken);
        assert_eq!(class_of(10, 100), BiasClass::StronglyNotTaken);
        assert_eq!(class_of(11, 100), BiasClass::WeaklyBiased);
        assert_eq!(class_of(5, 10), BiasClass::WeaklyBiased);
    }

    #[test]
    fn single_outcome_streams_are_strong() {
        assert_eq!(class_of(1, 1), BiasClass::StronglyTaken);
        assert_eq!(class_of(0, 1), BiasClass::StronglyNotTaken);
    }

    #[test]
    fn record_accumulates() {
        let mut s = StreamStats::default();
        for taken in [true, true, false, true] {
            s.record(taken);
        }
        assert_eq!(s, StreamStats { taken: 3, total: 4 });
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn empty_stream_has_no_class() {
        let _ = StreamStats::default().class();
    }

    #[test]
    fn labels() {
        assert_eq!(BiasClass::StronglyTaken.to_string(), "ST");
        assert_eq!(BiasClass::StronglyNotTaken.to_string(), "SNT");
        assert_eq!(BiasClass::WeaklyBiased.to_string(), "WB");
    }
}
