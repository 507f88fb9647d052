//! McFarling's combining (tournament) predictor (\[McFarling93\]): two
//! component predictors arbitrated by a per-address meta table of
//! two-bit counters. Included as the classic alternative way of spending
//! extra hardware that the bi-mode paper implicitly competes with.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::index::{low_bits, pc_word};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// A tournament predictor over two boxed components.
///
/// The meta table is indexed by branch address; each entry is a two-bit
/// counter whose direction means "prefer component B". The meta counter
/// trains only when the components disagree, towards whichever was
/// correct. Like the cascade's stages, the components are consulted
/// without the branch target — the view the meta counter scores them
/// on — so a target-sensitive component such as `Btfnt` answers its
/// target-less `predict`.
///
/// ```
/// use bpred_core::{Bimodal, Gshare, Predictor, Tournament};
///
/// let p = Tournament::new(
///     Box::new(Bimodal::new(10)),
///     Box::new(Gshare::new(10, 10)),
///     10,
/// );
/// assert!(p.name().starts_with("tournament("));
/// ```
#[derive(Debug, Clone)]
pub struct Tournament {
    a: Box<dyn Predictor>,
    b: Box<dyn Predictor>,
    meta: CounterTable,
    meta_bits: u32,
}

impl Tournament {
    /// Creates a tournament predictor. The meta table starts weakly
    /// preferring component B (conventionally the history-based one).
    ///
    /// # Panics
    ///
    /// Panics if `meta_bits > 30`.
    #[must_use]
    pub fn new(a: Box<dyn Predictor>, b: Box<dyn Predictor>, meta_bits: u32) -> Self {
        Self {
            a,
            b,
            meta: CounterTable::new(meta_bits, Counter2::WEAKLY_TAKEN),
            meta_bits,
        }
    }

    fn meta_index(&self, pc: u64) -> usize {
        low_bits(pc_word(pc), self.meta_bits) as usize
    }

    /// Whether component B is currently selected for `pc`.
    #[must_use]
    pub fn prefers_b(&self, pc: u64) -> bool {
        self.meta.predict(self.meta_index(pc))
    }
}

impl Predictor for Tournament {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "tournament({}|{},m={})",
            self.a.name(),
            self.b.name(),
            self.meta_bits
        )
    }

    fn predict(&self, pc: u64) -> bool {
        if self.prefers_b(pc) {
            self.b.predict(pc)
        } else {
            self.a.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let prefers_b = self.prefers_b(pc);
        let pa = self.a.retire(pc, None, taken);
        let pb = self.b.retire(pc, None, taken);
        if pa != pb {
            // Train the selector towards whichever component was right.
            let idx = self.meta_index(pc);
            self.meta.update(idx, pb == taken);
        }
        if prefers_b {
            pb
        } else {
            pa
        }
    }

    fn cost(&self) -> Cost {
        self.a
            .cost()
            .plus(self.b.cost())
            .plus(Cost::state(self.meta.storage_bits()))
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
        self.meta.reset();
    }

    // The final counter lives inside whichever component is selected;
    // offset component B's ids above component A's id space.
    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        if self.num_counters() == 0 {
            return None;
        }
        if self.prefers_b(pc) {
            Some(self.a.num_counters() + self.b.counter_id(pc)?)
        } else {
            self.a.counter_id(pc)
        }
    }

    fn num_counters(&self) -> usize {
        let (na, nb) = (self.a.num_counters(), self.b.num_counters());
        if na == 0 || nb == 0 {
            0
        } else {
            na + nb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::bimodal::Bimodal;
    use crate::predictors::gshare::Gshare;
    use crate::predictors::statics::{AlwaysNotTaken, AlwaysTaken, Btfnt};

    fn bimodal_gshare() -> Tournament {
        Tournament::new(Box::new(Bimodal::new(8)), Box::new(Gshare::new(8, 8)), 8)
    }

    #[test]
    fn selects_the_component_that_works() {
        // An alternating branch: bimodal fails, gshare learns it. The
        // meta counter must migrate to gshare and stay there.
        let mut p = bimodal_gshare();
        let pc = 0x1000;
        let mut late_miss = 0;
        for i in 0..1000 {
            let taken = i % 2 == 0;
            if i >= 300 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert!(p.prefers_b(pc));
        assert_eq!(late_miss, 0);
    }

    #[test]
    fn meta_trains_only_on_disagreement() {
        // Components that always agree never move the selector.
        let mut p = Tournament::new(Box::new(AlwaysTaken), Box::new(AlwaysTaken), 4);
        let before: Vec<Counter2> = p.meta.iter().copied().collect();
        for i in 0..100 {
            p.update(0x40, i % 2 == 0);
        }
        let after: Vec<Counter2> = p.meta.iter().copied().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn per_branch_selection_is_independent() {
        // Branch X suits component A (static taken), branch Y suits B
        // (static not-taken); the meta table must pick per branch.
        let mut p = Tournament::new(Box::new(AlwaysTaken), Box::new(AlwaysNotTaken), 6);
        // Adjacent words so the meta entries are distinct in 6 index bits.
        let (x, y) = (0x100u64, 0x104u64);
        for _ in 0..10 {
            p.update(x, true);
            p.update(y, false);
        }
        assert!(p.predict(x));
        assert!(!p.predict(y));
    }

    #[test]
    fn components_answer_without_the_target() {
        // Handed the target, btfnt would call this forward branch not
        // taken; the tournament asks it the target-less question its
        // meta counter scores, on both the two-call and the retire path.
        let mut p = Tournament::new(Box::new(AlwaysNotTaken), Box::new(Btfnt), 4);
        let (pc, forward) = (0x1000, 0x1100);
        assert!(p.prefers_b(pc));
        assert!(p.predict_with_target(pc, forward));
        assert!(p.retire(pc, Some(forward), true));
    }

    #[test]
    fn cost_sums_components_and_meta() {
        let p = bimodal_gshare();
        assert_eq!(p.cost().state_bits, 2 * 256 + 2 * 256 + 2 * 256);
        assert_eq!(p.cost().metadata_bits, 8);
    }

    #[test]
    fn counter_ids_offset_by_component() {
        let p = bimodal_gshare();
        assert_eq!(p.num_counters(), 512);
        let id = p.counter_id(0x1000).unwrap();
        assert!(id < 512);
    }

    #[test]
    fn counter_ids_unsupported_when_component_opaque() {
        let p = Tournament::new(Box::new(AlwaysTaken), Box::new(Bimodal::new(4)), 4);
        assert_eq!(p.num_counters(), 0);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut p = bimodal_gshare();
        for i in 0..500u64 {
            p.update(0x1000 + (i % 23) * 4, i % 2 == 0);
        }
        p.reset();
        let fresh = bimodal_gshare();
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
    }
}
