//! Confidence-gated cascade: a staged composition of existing
//! predictors, cheapest first, in the bimodal → tagged → neural shape
//! of the RISCV-Simulator reference (SNIPPETS.md snippet 1).
//!
//! Each stage beyond the first owns a small per-PC *gate* table of
//! two-bit counters trained on "was this stage correct here?". A
//! prediction consults the most advanced stage whose gate is
//! confident, falling back stage by stage to the unconditional first
//! stage — so the expensive components only speak for the PC regions
//! where they have earned trust, and the cheap bimodal front end
//! carries cold start and the easy branches.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::index::{low_bits, pc_word, to_index};
use crate::predictor::Predictor;
use crate::table::CounterTable;

/// log2 of each stage gate table; gates are two-bit counters and count
/// as prediction state on the paper's cost axis.
pub const CASCADE_GATE_BITS: u32 = 6;

/// A confidence-gated cascade over two or more component predictors.
#[derive(Debug)]
pub struct Cascade {
    stages: Vec<Box<dyn Predictor>>,
    /// `gates[i]` gates `stages[i + 1]`; gates start distrusting, so a
    /// cold cascade behaves exactly like its first stage.
    gates: Vec<CounterTable>,
}

impl Clone for Cascade {
    fn clone(&self) -> Self {
        Self {
            stages: self.stages.iter().map(|s| s.clone_box()).collect(),
            gates: self.gates.clone(),
        }
    }
}

impl Cascade {
    /// Builds a cascade over the given stages, first stage the
    /// unconditional fallback.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two stages — a one-stage cascade is just
    /// that stage.
    #[must_use]
    pub fn new(stages: Vec<Box<dyn Predictor>>) -> Self {
        assert!(
            stages.len() >= 2,
            "a cascade wants at least two stages, got {}",
            stages.len()
        );
        let gates = (1..stages.len())
            .map(|_| CounterTable::new(CASCADE_GATE_BITS, Counter2::WEAKLY_NOT_TAKEN))
            .collect();
        Self { stages, gates }
    }

    fn gate_index(pc: u64) -> usize {
        to_index(low_bits(pc_word(pc), CASCADE_GATE_BITS))
    }

    /// The stage a prediction at `pc` would consult right now.
    #[must_use]
    pub fn selected_stage(&self, pc: u64) -> usize {
        let gi = Self::gate_index(pc);
        (1..self.stages.len())
            .rev()
            .find(|&i| self.gates[i - 1].predict(gi))
            .unwrap_or(0)
    }
}

impl Predictor for Cascade {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.stages.iter().map(|s| s.name()).collect();
        format!("cascade({})", names.join("; "))
    }

    fn predict(&self, pc: u64) -> bool {
        self.stages[self.selected_stage(pc)].predict(pc)
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let selected = self.selected_stage(pc);
        let gi = Self::gate_index(pc);
        // Every stage trains on every branch, so a stage is warm by
        // the time its gate starts trusting it. Stages answer without
        // the target, as `predict` consults them.
        let mut answer = self.stages[0].retire(pc, None, taken);
        for (i, (stage, gate)) in self.stages[1..].iter_mut().zip(&mut self.gates).enumerate() {
            // Each gate scores its stage on the pre-update prediction.
            let prediction = stage.retire(pc, None, taken);
            gate.update(gi, prediction == taken);
            if i + 1 == selected {
                answer = prediction;
            }
        }
        answer
    }

    fn cost(&self) -> Cost {
        let mut cost = Cost::default();
        for stage in &self.stages {
            cost = cost.plus(stage.cost());
        }
        for gate in &self.gates {
            cost.state_bits += gate.storage_bits();
        }
        cost
    }

    fn reset(&mut self) {
        for stage in &mut self.stages {
            stage.reset();
        }
        for gate in &mut self.gates {
            gate.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::bimodal::Bimodal;
    use crate::predictors::gshare::Gshare;
    use crate::predictors::statics::AlwaysTaken;

    fn two_stage() -> Cascade {
        Cascade::new(vec![Box::new(Bimodal::new(4)), Box::new(Gshare::new(5, 5))])
    }

    #[test]
    #[should_panic(expected = "at least two stages")]
    fn one_stage_is_rejected() {
        let _ = Cascade::new(vec![Box::new(AlwaysTaken)]);
    }

    #[test]
    fn cold_cascade_is_its_first_stage() {
        let c = two_stage();
        let first = Bimodal::new(4);
        for pc in (0..128u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(c.selected_stage(pc), 0);
            assert_eq!(c.predict(pc), first.predict(pc));
        }
    }

    #[test]
    fn gates_promote_a_stage_that_earns_trust() {
        // A history-dependent alternating branch: bimodal oscillates,
        // gshare nails it; the gate must hand the PC region over.
        let mut c = two_stage();
        let pc = 0x2000;
        for i in 0..500u32 {
            c.update(pc, i % 2 == 0);
        }
        assert_eq!(c.selected_stage(pc), 1, "gshare should have won the gate");
        let mut late_miss = 0;
        for i in 500..1000u32 {
            let taken = i % 2 == 0;
            if c.predict(pc) != taken {
                late_miss += 1;
            }
            c.update(pc, taken);
        }
        assert_eq!(late_miss, 0, "promoted stage must carry the pattern");
    }

    #[test]
    fn most_advanced_confident_stage_wins() {
        let mut c = Cascade::new(vec![
            Box::new(AlwaysTaken),
            Box::new(Bimodal::new(4)),
            Box::new(Gshare::new(5, 5)),
        ]);
        // All-taken stream: every stage is correct, every gate
        // saturates; selection must pick the most advanced stage.
        let pc = 0x3000;
        for _ in 0..50 {
            c.update(pc, true);
        }
        assert_eq!(c.selected_stage(pc), 2);
    }

    #[test]
    fn cost_sums_stages_plus_gate_state() {
        let c = two_stage();
        let stages = Bimodal::new(4).cost().plus(Gshare::new(5, 5).cost());
        let got = c.cost();
        assert_eq!(
            got.state_bits,
            stages.state_bits + 2 * (1 << CASCADE_GATE_BITS)
        );
        assert_eq!(got.metadata_bits, stages.metadata_bits);
    }

    #[test]
    fn reset_restores_power_on() {
        let mut c = two_stage();
        for i in 0..400u64 {
            c.update(0x1000 + (i % 11) * 4, i % 3 == 0);
        }
        c.reset();
        let fresh = two_stage();
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(c.selected_stage(pc), 0);
            assert_eq!(c.predict(pc), fresh.predict(pc));
        }
    }

    #[test]
    fn clone_box_is_independent_deep_state() {
        let mut a = two_stage();
        let mut b = a.clone_box();
        for i in 0..100u32 {
            b.update(0x1000, i % 2 == 0);
        }
        // The original must be untouched by training the clone.
        assert_eq!(a.selected_stage(0x1000), 0);
        a.update(0x1000, true);
    }
}
