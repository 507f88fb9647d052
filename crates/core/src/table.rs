//! Power-of-two tables of two-bit counters: the pattern history tables
//! (PHTs) and choice tables all predictors are built from.

use crate::counter::Counter2;

/// A `2^bits`-entry table of [`Counter2`] saturating counters.
///
/// Indices are produced by the functions in [`crate::index`]; the table
/// itself only checks bounds. Out-of-range indices panic rather than wrap,
/// so index-construction bugs surface immediately.
///
/// ```
/// use bpred_core::table::CounterTable;
/// use bpred_core::Counter2;
///
/// let mut pht = CounterTable::new(4, Counter2::WEAKLY_TAKEN);
/// assert_eq!(pht.len(), 16);
/// pht.update(3, false);
/// assert!(!pht.counter(3).predict());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTable {
    counters: Vec<Counter2>,
    init: Counter2,
}

impl CounterTable {
    /// Creates a table of `2^bits` counters, all initialised to `init`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 30`.
    #[must_use]
    pub fn new(bits: u32, init: Counter2) -> Self {
        assert!(
            bits <= 30,
            "counter table index must be <= 30 bits, got {bits}"
        );
        Self {
            counters: vec![init; 1usize << bits],
            init,
        }
    }

    /// Number of counters (always a power of two).
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// log2 of the table size.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.counters.len().trailing_zeros()
    }

    /// Storage in bits: two per counter, the paper's cost unit.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.counters.len() as u64 * 2
    }

    /// Panics at the *caller's* location with a message naming both the
    /// offending index and the table geometry, so an index-construction
    /// bug reports the predictor that computed the index rather than
    /// this module.
    #[inline]
    #[track_caller]
    fn check_index(&self, index: usize) {
        assert!(
            index < self.counters.len(),
            "counter index {index} out of range for table of {len} entries ({bits} index bits)",
            len = self.counters.len(),
            bits = self.index_bits(),
        );
    }

    /// The counter at `index`.
    ///
    /// # Panics
    ///
    /// Panics (at the caller) if `index` is out of range, naming the
    /// index and the table length.
    #[must_use]
    #[track_caller]
    pub fn counter(&self, index: usize) -> Counter2 {
        self.check_index(index);
        self.counters[index]
    }

    /// Mutable access to the counter at `index`.
    ///
    /// # Panics
    ///
    /// Panics (at the caller) if `index` is out of range, naming the
    /// index and the table length.
    #[must_use]
    #[track_caller]
    pub fn counter_mut(&mut self, index: usize) -> &mut Counter2 {
        self.check_index(index);
        &mut self.counters[index]
    }

    /// The predicted direction of the counter at `index`.
    ///
    /// # Panics
    ///
    /// Panics (at the caller) if `index` is out of range, naming the
    /// index and the table length.
    #[must_use]
    #[track_caller]
    pub fn predict(&self, index: usize) -> bool {
        self.check_index(index);
        self.counters[index].predict()
    }

    /// Trains the counter at `index` with an outcome.
    ///
    /// # Panics
    ///
    /// Panics (at the caller) if `index` is out of range, naming the
    /// index and the table length.
    #[track_caller]
    pub fn update(&mut self, index: usize, taken: bool) {
        self.check_index(index);
        self.counters[index].update(taken);
        debug_assert!(
            self.counters[index].state() <= 3,
            "two-bit counter left its state range after an update"
        );
    }

    /// Predicts the counter at `index`, then trains it with `taken`:
    /// one retired branch on one bounds check. Returns the pre-update
    /// prediction, exactly what [`Self::predict`] then [`Self::update`]
    /// observe and leave.
    ///
    /// # Panics
    ///
    /// Panics (at the caller) if `index` is out of range, naming the
    /// index and the table length.
    #[inline]
    #[track_caller]
    pub fn retire(&mut self, index: usize, taken: bool) -> bool {
        self.check_index(index);
        let counter = &mut self.counters[index];
        let predicted = counter.predict();
        counter.update(taken);
        predicted
    }

    /// Restores every counter to the initialisation state.
    pub fn reset(&mut self) {
        let init = self.init;
        for c in &mut self.counters {
            *c = init;
        }
    }

    /// Iterates over the counters in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, Counter2> {
        self.counters.iter()
    }
}

impl<'a> IntoIterator for &'a CounterTable {
    type Item = &'a Counter2;
    type IntoIter = std::slice::Iter<'a, Counter2>;

    fn into_iter(self) -> Self::IntoIter {
        self.counters.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_uniformly_initialised() {
        let t = CounterTable::new(3, Counter2::WEAKLY_NOT_TAKEN);
        assert_eq!(t.len(), 8);
        assert!(t.iter().all(|c| *c == Counter2::WEAKLY_NOT_TAKEN));
    }

    #[test]
    fn updates_are_local_to_one_entry() {
        let mut t = CounterTable::new(2, Counter2::WEAKLY_TAKEN);
        t.update(1, false);
        t.update(1, false);
        assert!(!t.predict(1));
        assert!(t.predict(0));
        assert!(t.predict(2));
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut t = CounterTable::new(2, Counter2::STRONGLY_TAKEN);
        t.update(0, false);
        t.update(3, false);
        t.reset();
        assert!(t.iter().all(|c| *c == Counter2::STRONGLY_TAKEN));
    }

    #[test]
    fn storage_is_two_bits_per_counter() {
        let t = CounterTable::new(10, Counter2::WEAKLY_TAKEN);
        assert_eq!(t.storage_bits(), 2048);
        assert_eq!(t.index_bits(), 10);
    }

    #[test]
    fn zero_bit_table_has_one_entry() {
        let mut t = CounterTable::new(0, Counter2::WEAKLY_TAKEN);
        assert_eq!(t.len(), 1);
        t.update(0, true);
        assert!(t.predict(0));
    }

    #[test]
    fn retire_matches_predict_then_update() {
        // A 64-entry table over a random index/outcome sequence, and a
        // 1-entry table where every branch lands on the same counter.
        for bits in [6u32, 0] {
            let mut fused = CounterTable::new(bits, Counter2::WEAKLY_TAKEN);
            let mut split = fused.clone();
            let mut x = 9u64;
            for _ in 0..2000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let index = (x >> 33) as usize % fused.len();
                let taken = x & 1 == 1;
                let want = split.predict(index);
                split.update(index, taken);
                assert_eq!(fused.retire(index, taken), want, "{bits} index bits");
            }
            assert_eq!(fused, split, "{bits} index bits");
        }
    }

    #[test]
    #[should_panic(expected = "counter index 1 out of range for table of 1 entries")]
    fn retire_checks_the_index() {
        let mut t = CounterTable::new(0, Counter2::WEAKLY_TAKEN);
        let _ = t.retire(1, true);
    }

    #[test]
    #[should_panic(expected = "counter index 4 out of range for table of 4 entries")]
    fn out_of_range_index_panics() {
        let t = CounterTable::new(2, Counter2::WEAKLY_TAKEN);
        let _ = t.counter(4);
    }

    #[test]
    #[should_panic(expected = "counter index 9 out of range for table of 8 entries (3 index bits)")]
    fn out_of_range_mut_index_panics_with_geometry() {
        let mut t = CounterTable::new(3, Counter2::WEAKLY_TAKEN);
        let _ = t.counter_mut(9);
    }

    #[test]
    fn counter_mut_edits_in_place() {
        let mut t = CounterTable::new(2, Counter2::WEAKLY_TAKEN);
        *t.counter_mut(2) = Counter2::STRONGLY_NOT_TAKEN;
        assert_eq!(t.counter(2), Counter2::STRONGLY_NOT_TAKEN);
        assert!(!t.predict(2));
    }

    #[test]
    fn iterator_visits_in_index_order() {
        let mut t = CounterTable::new(2, Counter2::STRONGLY_NOT_TAKEN);
        t.update(2, true);
        let states: Vec<u8> = (&t).into_iter().map(|c| c.state()).collect();
        assert_eq!(states, [0, 0, 1, 0]);
    }
}
