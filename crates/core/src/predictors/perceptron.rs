//! Perceptron predictor (Jiménez & Lin, 2001): each branch hashes to a
//! row of signed weights, one per global-history bit; the prediction
//! is the sign of the dot product of weights and history, and training
//! nudges each weight toward agreement with the outcome whenever the
//! prediction was wrong or the margin was below a threshold.
//!
//! Included in the zoo as the neural point on the bi-mode cost axis:
//! its state grows *linearly* with history length where PHT schemes
//! grow exponentially, which is exactly the trade the `zoo.cost`
//! equal-cost sweep interrogates.

use crate::cost::Cost;
use crate::history::{GlobalHistory, MAX_HISTORY_BITS};
use crate::index::{low_bits, pc_word, to_index};
use crate::predictor::Predictor;

/// Signed weight width in bits; i8 weights are the hardware-standard
/// choice and what the cost model charges per (row, history-bit) cell.
pub const WEIGHT_BITS: u32 = 8;

/// A perceptron predictor: `2^rows_bits` rows of `history_bits` signed
/// 8-bit weights (no bias weight, so cost is exactly
/// rows × history bits × 8).
#[derive(Debug, Clone)]
pub struct Perceptron {
    rows: Vec<Vec<i8>>,
    history: GlobalHistory,
    rows_bits: u32,
    history_bits: u32,
    theta: u32,
}

impl Perceptron {
    /// Creates a perceptron table with `2^rows_bits` rows,
    /// `history_bits` of global history and training threshold
    /// `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `rows_bits > 20` or `history_bits` is not 1..=63.
    #[must_use]
    pub fn new(rows_bits: u32, history_bits: u32, theta: u32) -> Self {
        assert!(
            rows_bits <= 20,
            "perceptron row index must be <= 20 bits, got {rows_bits}"
        );
        assert!(
            (1..=MAX_HISTORY_BITS).contains(&history_bits),
            "perceptron history must be 1..=63 bits, got {history_bits}"
        );
        Self {
            rows: vec![vec![0i8; history_bits as usize]; 1usize << rows_bits],
            history: GlobalHistory::new(history_bits),
            rows_bits,
            history_bits,
            theta,
        }
    }

    /// The paper's threshold fit, in integer arithmetic:
    /// `⌊1.93 h + 14⌋`.
    #[must_use]
    pub fn default_theta(history_bits: u32) -> u32 {
        // Saturating, so an out-of-range length read from a spec string
        // yields a value instead of overflowing before it is rejected.
        history_bits.saturating_mul(193).saturating_add(1400) / 100
    }

    fn row_of(&self, pc: u64) -> usize {
        to_index(low_bits(pc_word(pc), self.rows_bits))
    }

    /// The dot product of the row's weights with the ±1-encoded
    /// history (bit i of the register pairs with weight i).
    fn output(&self, pc: u64) -> i32 {
        let h = self.history.value();
        self.rows[self.row_of(pc)]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                if (h >> i) & 1 == 1 {
                    i32::from(w)
                } else {
                    -i32::from(w)
                }
            })
            .sum()
    }
}

impl Predictor for Perceptron {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "perceptron(n={},h={},theta={})",
            self.rows_bits, self.history_bits, self.theta
        )
    }

    fn predict(&self, pc: u64) -> bool {
        self.output(pc) >= 0
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let y = self.output(pc);
        let predicted = y >= 0;
        // Train on any misprediction, and on low-margin correct
        // predictions (|y| <= theta), saturating each weight at the i8
        // rails.
        if predicted != taken || y.unsigned_abs() <= self.theta {
            let h = self.history.value();
            let row = self.row_of(pc);
            for (i, w) in self.rows[row].iter_mut().enumerate() {
                let agrees = ((h >> i) & 1 == 1) == taken;
                *w = if agrees {
                    w.saturating_add(1)
                } else {
                    w.saturating_sub(1)
                };
            }
        }
        self.history.push(taken);
        predicted
    }

    fn cost(&self) -> Cost {
        Cost {
            // The weights are the prediction state: rows × history
            // bits × 8-bit cells on the paper's state axis.
            state_bits: (u64::from(self.history_bits) * u64::from(WEIGHT_BITS)) << self.rows_bits,
            metadata_bits: u64::from(self.history_bits),
        }
    }

    fn reset(&mut self) {
        for row in &mut self.rows {
            row.iter_mut().for_each(|w| *w = 0);
        }
        self.history.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_rows_times_history_times_weight_bits() {
        let p = Perceptron::new(7, 16, 44);
        assert_eq!(p.cost().state_bits, 128 * 16 * 8);
        assert_eq!(p.cost().metadata_bits, 16);
    }

    #[test]
    fn default_theta_matches_the_paper_fit() {
        assert_eq!(Perceptron::default_theta(16), 44); // 1.93*16+14 = 44.88
        assert_eq!(Perceptron::default_theta(32), 75); // 1.93*32+14 = 75.76
        assert_eq!(Perceptron::default_theta(1), 15);
    }

    #[test]
    fn fresh_perceptron_predicts_taken() {
        // All-zero weights give a zero dot product; ties go taken.
        let p = Perceptron::new(4, 8, 29);
        assert!(p.predict(0x1000));
    }

    #[test]
    fn learns_a_linearly_separable_pattern() {
        // taken = history bit 0 (last outcome repeats): one weight
        // carries the whole function, the perceptron's home turf.
        let mut p = Perceptron::new(4, 8, 29);
        let pc = 0x2000;
        let mut last = true;
        let mut late_miss = 0;
        for i in 0..2000u32 {
            let taken = last;
            if i >= 200 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
            last = taken;
        }
        assert_eq!(late_miss, 0, "repeat-last is linearly separable");
    }

    #[test]
    fn learns_parity_of_one_bit_against_bias() {
        // taken = NOT bit 1 of history: weights must go negative.
        let mut p = Perceptron::new(2, 4, 21);
        let pc = 0x3000;
        let mut outcomes = [true, true];
        let mut late_miss = 0;
        for i in 0..3000u32 {
            let taken = !outcomes[0];
            if i >= 500 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
            outcomes = [outcomes[1], taken];
        }
        assert!(late_miss <= 2, "inverted-bit pattern lost ({late_miss})");
    }

    #[test]
    fn weights_saturate_at_the_i8_rails() {
        let mut p = Perceptron::new(1, 2, 1000);
        // theta larger than any margin: every branch trains, and 600
        // same-direction updates drive the weights into saturation
        // (saturating_add, not wraparound — this would panic or flip
        // sign otherwise).
        for _ in 0..600 {
            p.update(0x1000, true);
        }
        assert_eq!(p.rows[0], [127, 127]);
    }

    #[test]
    fn reset_restores_power_on() {
        let mut p = Perceptron::new(3, 6, 25);
        for i in 0..400u64 {
            p.update(0x1000 + (i % 9) * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = Perceptron::new(3, 6, 25);
        for pc in (0..32u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
    }
}
