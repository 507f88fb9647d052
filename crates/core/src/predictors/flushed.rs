//! A context-switch wrapper: models the loss of predictor state when
//! the process the tables were trained on is switched out.
//!
//! The IBS traces interleave kernel and user activity, so a real
//! predictor sees its learned state polluted or discarded at every
//! switch. This wrapper quantifies the cost of cold state by resetting
//! the inner predictor to power-on after every `interval`-th update;
//! with an interval at least as long as the stream it is an identity.

use crate::cost::Cost;
use crate::predictor::{CounterId, Predictor};

/// Wraps a predictor so its state is flushed every `interval` branches.
#[derive(Debug, Clone)]
pub struct Flushed<P> {
    inner: P,
    interval: u64,
    /// Updates left before the next flush.
    countdown: u64,
}

impl<P: Predictor> Flushed<P> {
    /// Wraps `inner`, flushing it after every `interval` updates.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(inner: P, interval: u64) -> Self {
        assert!(interval > 0, "flush interval must be positive");
        Self {
            inner,
            interval,
            countdown: interval,
        }
    }

    /// The configured flush interval.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Counts one update, flushing the inner predictor when the
    /// interval is used up.
    fn tick(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.inner.reset();
            self.countdown = self.interval;
        }
    }
}

impl<P: Predictor + Clone + 'static> Predictor for Flushed<P> {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("{}+flush={}", self.inner.name(), self.interval)
    }

    fn predict(&self, pc: u64) -> bool {
        self.inner.predict(pc)
    }

    fn predict_with_target(&self, pc: u64, target: u64) -> bool {
        self.inner.predict_with_target(pc, target)
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.inner.update(pc, taken);
        self.tick();
    }

    fn retire(&mut self, pc: u64, target: Option<u64>, taken: bool) -> bool {
        let predicted = self.inner.retire(pc, target, taken);
        self.tick();
        predicted
    }

    fn cost(&self) -> Cost {
        self.inner.cost()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.countdown = self.interval;
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        self.inner.counter_id(pc)
    }

    fn num_counters(&self) -> usize {
        self.inner.num_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::bimode::{BiMode, BiModeConfig};
    use crate::predictors::gshare::Gshare;

    /// A deterministic branch stream over a handful of sites.
    fn stream(len: u64) -> impl Iterator<Item = (u64, bool)> {
        (0..len).map(|i| (0x1000 + (i % 13) * 4, (i * 7) % 5 < 3))
    }

    #[test]
    fn interval_one_predicts_every_branch_from_power_on() {
        let mut flushed = Flushed::new(BiMode::new(BiModeConfig::paper_default(6)), 1);
        let cold = BiMode::new(BiModeConfig::paper_default(6));
        for (pc, taken) in stream(500) {
            assert_eq!(
                flushed.retire(pc, None, taken),
                cold.predict(pc),
                "pc {pc:#x}"
            );
        }
    }

    #[test]
    fn interval_at_least_the_stream_length_is_the_bare_predictor() {
        for interval in [500, 501, u64::MAX] {
            let mut flushed = Flushed::new(Gshare::new(8, 8), interval);
            let mut bare = Gshare::new(8, 8);
            for (pc, taken) in stream(500) {
                let want = bare.retire(pc, None, taken);
                assert_eq!(flushed.retire(pc, None, taken), want, "interval {interval}");
            }
        }
    }

    #[test]
    fn reset_restarts_the_countdown() {
        let mut p = Flushed::new(Gshare::new(6, 6), 10);
        for (pc, taken) in stream(7) {
            p.update(pc, taken);
        }
        p.reset();
        assert_eq!(p.countdown, 10);
        // A full interval after the reset flushes again, not three
        // updates in.
        let mut bare = Gshare::new(6, 6);
        for (pc, taken) in stream(9) {
            p.update(pc, taken);
            bare.update(pc, taken);
        }
        assert_eq!(format!("{:?}", p.inner), format!("{bare:?}"));
        p.update(0x1000, true);
        assert_eq!(format!("{:?}", p.inner), format!("{:?}", Gshare::new(6, 6)));
    }

    #[test]
    #[should_panic(expected = "flush interval")]
    fn zero_flush_interval_is_rejected() {
        let _ = Flushed::new(Gshare::new(4, 4), 0);
    }

    #[test]
    fn name_and_cost_are_the_inner_predictors() {
        let p = Flushed::new(Gshare::new(8, 8), 250);
        assert_eq!(p.name(), "gshare(s=8,h=8)+flush=250");
        assert_eq!(p.cost(), Gshare::new(8, 8).cost());
        assert_eq!(p.interval(), 250);
    }
}
