//! The [`Predictor`] trait: the trace-driven interface every scheme
//! implements, plus the counter-identification hook the bias-class
//! analysis of Section 4 relies on.

use std::fmt;

use crate::cost::Cost;

/// Identifies one final-direction two-bit counter inside a predictor.
///
/// For single-table schemes this is the table index; for the bi-mode
/// predictor it is `bank * bank_len + index` over the two direction banks.
/// The analysis crate keys its per-(branch, counter) substreams on this.
pub type CounterId = usize;

/// A trace-driven dynamic branch predictor.
///
/// # Contract
///
/// For every conditional branch, in program order, call
/// [`predict`](Self::predict) (any number of times — it is pure with
/// respect to predictor state) and then [`update`](Self::update) exactly
/// once with the architectural outcome. `update` recomputes whatever
/// internal indices it needs from the *pre-update* state, so no token has
/// to be carried from `predict` to `update`.
///
/// [`retire`](Self::retire) fuses the two for a caller that wants both:
/// it returns what `predict_with_target` (or, without a target,
/// `predict`) returns on the pre-update state and leaves exactly the
/// state `update` leaves. Families whose `update` would otherwise redo
/// the prediction's lookup override it to look up once, and their
/// `update` is `retire` with the answer dropped. The engine sessions
/// drive every branch through `retire`.
///
/// Implementations are deterministic: the same branch stream always
/// produces the same predictions.
///
/// The `Debug` supertrait must render the *complete* mutable state
/// (tables, histories, in-flight queues): the model checker in
/// `bpred-check` uses the debug rendering as a state digest when it
/// enumerates the reachable state space, so two states may format
/// equally only if they are behaviourally identical.
pub trait Predictor: fmt::Debug {
    /// A human-readable configuration name, e.g. `gshare(s=10,h=8)`.
    fn name(&self) -> String;

    /// Predicts the direction of the branch at `pc` (a byte address).
    fn predict(&self, pc: u64) -> bool;

    /// Predicts with the decoded taken-target available, as a fetch
    /// engine would have it. Dynamic predictors ignore the target (the
    /// default delegates to [`predict`](Self::predict)); static
    /// heuristics like BTFNT override it.
    fn predict_with_target(&self, pc: u64, target: u64) -> bool {
        let _ = target;
        self.predict(pc)
    }

    /// Trains the predictor with the architectural outcome of the branch
    /// at `pc` and advances any history state.
    fn update(&mut self, pc: u64, taken: bool);

    /// Predicts the branch at `pc` and trains on its outcome in one
    /// step: returns what [`predict_with_target`](Self::predict_with_target)
    /// with `target`, or [`predict`](Self::predict) when `target` is
    /// `None`, returns on the pre-update state, and leaves exactly the
    /// state [`update`](Self::update) leaves.
    ///
    /// `None` is the target-less view composites give their
    /// components. The default makes the two calls; families that can
    /// share one lookup between them override it.
    fn retire(&mut self, pc: u64, target: Option<u64>, taken: bool) -> bool {
        let predicted = match target {
            Some(target) => self.predict_with_target(pc, target),
            None => self.predict(pc),
        };
        self.update(pc, taken);
        predicted
    }

    /// Hardware cost in the paper's accounting (see [`crate::cost`]).
    fn cost(&self) -> Cost;

    /// Restores the power-on state (tables re-initialised, histories
    /// cleared).
    fn reset(&mut self);

    /// The final-direction counter the *current* state would consult for
    /// `pc`, if the scheme is built from identifiable two-bit counters.
    ///
    /// Must be called before the corresponding `update`. Returns `None`
    /// for schemes without a single identifiable direction counter
    /// (e.g. majority voters).
    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        let _ = pc;
        None
    }

    /// Total number of distinct [`CounterId`]s this predictor can return,
    /// or 0 when [`counter_id`](Self::counter_id) is unsupported.
    fn num_counters(&self) -> usize {
        0
    }

    /// Clones the predictor (state included) behind a fresh box.
    ///
    /// This is the object-safe surface behind `Clone for Box<dyn
    /// Predictor>`; sweeps and the model checker use it to fork
    /// predictor states without knowing the concrete type.
    fn clone_box(&self) -> Box<dyn Predictor>;
}

impl Clone for Box<dyn Predictor> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl Predictor for Box<dyn Predictor> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn predict(&self, pc: u64) -> bool {
        (**self).predict(pc)
    }

    fn predict_with_target(&self, pc: u64, target: u64) -> bool {
        (**self).predict_with_target(pc, target)
    }

    fn update(&mut self, pc: u64, taken: bool) {
        (**self).update(pc, taken);
    }

    fn retire(&mut self, pc: u64, target: Option<u64>, taken: bool) -> bool {
        (**self).retire(pc, target, taken)
    }

    fn cost(&self) -> Cost {
        (**self).cost()
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        (**self).counter_id(pc)
    }

    fn num_counters(&self) -> usize {
        (**self).num_counters()
    }

    fn clone_box(&self) -> Box<dyn Predictor> {
        (**self).clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::statics::{AlwaysTaken, Btfnt};

    #[test]
    fn boxed_predictor_delegates() {
        let mut boxed: Box<dyn Predictor> = Box::new(AlwaysTaken);
        assert_eq!(boxed.name(), "always-taken");
        assert!(boxed.predict(0x1000));
        boxed.update(0x1000, false);
        assert!(boxed.predict(0x1000));
        assert_eq!(boxed.cost(), Cost::default());
        assert_eq!(boxed.counter_id(0), None);
        assert_eq!(boxed.num_counters(), 0);
        boxed.reset();
        // `retire` forwards the target, and `None` is the target-less view.
        let mut boxed: Box<dyn Predictor> = Box::new(Btfnt);
        assert!(!boxed.retire(0x1000, Some(0x1100), true));
        assert!(boxed.retire(0x1000, Some(0x0F00), false));
        assert!(boxed.retire(0x1000, None, false));
    }
}
