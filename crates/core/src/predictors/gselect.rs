//! McFarling's gselect predictor: address and history bits concatenated
//! rather than XOR-ed. Included as the address/history trade-off's other
//! pole in the design-space studies.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::index::gselect_index;
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// A gselect predictor with `2^(a+m)` counters: `a` address bits
/// concatenated above `m` global-history bits.
#[derive(Debug, Clone)]
pub struct Gselect {
    table: CounterTable,
    history: GlobalHistory,
    address_bits: u32,
    history_bits: u32,
}

impl Gselect {
    /// Creates a gselect predictor.
    ///
    /// # Panics
    ///
    /// Panics if `address_bits + history_bits > 30`.
    #[must_use]
    pub fn new(address_bits: u32, history_bits: u32) -> Self {
        assert!(
            u64::from(address_bits) + u64::from(history_bits) <= 30,
            "gselect index must be <= 30 bits, got {address_bits} + {history_bits}"
        );
        Self {
            table: CounterTable::new(address_bits + history_bits, Counter2::WEAKLY_TAKEN),
            history: GlobalHistory::new(history_bits),
            address_bits,
            history_bits,
        }
    }

    /// The table index consulted for `pc` in the current state.
    #[must_use]
    pub fn index(&self, pc: u64) -> usize {
        gselect_index(
            pc,
            self.history.value(),
            self.address_bits,
            self.history_bits,
        )
    }
}

impl Predictor for Gselect {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("gselect(a={},h={})", self.address_bits, self.history_bits)
    }

    fn predict(&self, pc: u64) -> bool {
        self.table.predict(self.index(pc))
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        self.table.update(idx, taken);
        self.history.push(taken);
    }

    fn cost(&self) -> Cost {
        Cost {
            state_bits: self.table.storage_bits(),
            metadata_bits: u64::from(self.history_bits),
        }
    }

    fn reset(&mut self) {
        self.table.reset();
        self.history.reset();
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        Some(self.index(pc))
    }

    fn num_counters(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::two_level::{HistorySource, TwoLevel};

    #[test]
    fn gselect_is_a_gas_in_disguise() {
        // gselect(a, m) and GAs(a, m) compute the same index function and
        // must therefore behave identically on any stream.
        let mut gsel = Gselect::new(3, 5);
        let mut gas = TwoLevel::new(HistorySource::Global, 3, 5);
        for i in 0..500u64 {
            let pc = 0x1000 + (i % 13) * 4;
            let taken = (i * 5) % 7 < 3;
            assert_eq!(gsel.predict(pc), gas.predict(pc), "step {i}");
            assert_eq!(gsel.index(pc), gas.index(pc), "step {i}");
            gsel.update(pc, taken);
            gas.update(pc, taken);
        }
    }

    #[test]
    fn learns_history_patterns_within_one_branch() {
        let mut p = Gselect::new(2, 4);
        let pc = 0x400;
        let mut late_miss = 0;
        for i in 0..400 {
            let taken = i % 4 == 0; // period-4 pattern fits in 4 history bits
            if i >= 100 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert_eq!(late_miss, 0);
    }

    #[test]
    fn cost_and_name() {
        let p = Gselect::new(4, 6);
        assert_eq!(p.cost().state_bits, 2 * 1024);
        assert_eq!(p.name(), "gselect(a=4,h=6)");
        assert_eq!(p.num_counters(), 1024);
    }
}
