//! TAGE — TAgged GEometric-history predictor (Seznec & Michaud, 2006):
//! the de-aliasing lineage's endpoint. Where bi-mode splits one PHT by
//! bias and YAGS caches exceptions, TAGE keeps a bimodal base and a
//! series of *tagged* tables indexed with geometrically growing
//! history lengths; a tag match makes a table a candidate, the longest
//! matching history provides the prediction, and per-entry useful
//! counters ration allocation on mispredictions.
//!
//! The reproduction question this serves (`repro zoo.cost`): does
//! bi-mode's de-aliasing still buy anything at equal cost once tagging
//! filters the destructive aliases directly?

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::{GlobalHistory, MAX_HISTORY_BITS};
use crate::index::{fold_xor, low_bits, pc_word, to_index};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// Prediction-counter width of a tagged entry (canonical TAGE uses 3).
const CTR_BITS: u32 = 3;
/// Useful-counter width of a tagged entry.
const USEFUL_BITS: u32 = 2;
/// Saturation ceiling of the prediction counter.
const CTR_MAX: u8 = (1 << CTR_BITS) - 1;
/// Weakly-taken midpoint: predictions are taken at or above this.
const CTR_WEAK_TAKEN: u8 = 1 << (CTR_BITS - 1);
/// Saturation ceiling of the useful counter.
const USEFUL_MAX: u8 = (1 << USEFUL_BITS) - 1;

/// One entry of a tagged component table.
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    ctr: u8,
    tag: u16,
    useful: u8,
    valid: bool,
}

impl TagEntry {
    fn empty() -> Self {
        Self {
            ctr: CTR_WEAK_TAKEN,
            tag: 0,
            useful: 0,
            valid: false,
        }
    }

    fn predict(self) -> bool {
        self.ctr >= CTR_WEAK_TAKEN
    }

    /// A newly-allocated (weak counter, never-useful) entry, whose
    /// prediction the altpred overrides.
    fn is_weak(self) -> bool {
        (self.ctr == CTR_WEAK_TAKEN || self.ctr == CTR_WEAK_TAKEN - 1) && self.useful == 0
    }

    fn train(&mut self, taken: bool) {
        if taken {
            if self.ctr < CTR_MAX {
                self.ctr += 1;
            }
        } else if self.ctr > 0 {
            self.ctr -= 1;
        }
    }
}

/// Most tagged components a [`Tage`] may have; sizes a lookup's
/// per-table arrays.
const MAX_TABLES: usize = 16;

/// A folded history register (Seznec & Michaud's CSR): `fold_xor` of
/// the newest `len` history bits to `width` bits, kept up to date on
/// every push so a lookup never re-folds the history.
#[derive(Debug, Clone, Copy)]
struct FoldedHistory {
    value: u64,
    len: u32,
    width: u32,
}

impl FoldedHistory {
    fn new(len: u32, width: u32) -> Self {
        Self {
            value: 0,
            len,
            width,
        }
    }

    /// Shifts `taken` into the window. `history` is the global register
    /// before the push: its bit `len - 1` is the one leaving the window,
    /// and it leaves from fold position `len % width`.
    fn push(&mut self, history: u64, taken: bool) {
        let leaving = (history >> (self.len - 1)) & 1;
        let v = ((self.value << 1) | u64::from(taken)) ^ (leaving << (self.len % self.width));
        // The old top bit, shifted to position `width`, wraps to bit 0.
        self.value = low_bits(v ^ (v >> self.width), self.width);
    }
}

/// One tagged component: `2^entry_bits` entries consulted with a fixed
/// slice of the global history, which it keeps folded to the widths
/// its index and tag hashes read.
#[derive(Debug, Clone)]
struct TaggedTable {
    entries: Vec<TagEntry>,
    history_len: u32,
    /// The slice folded to the index width.
    index_fold: FoldedHistory,
    /// The slice folded to the tag width (CSR1 of `tag_of`).
    tag_fold: FoldedHistory,
    /// The slice folded to one bit less (CSR2); a 1-bit tag has none.
    tag_fold2: Option<FoldedHistory>,
}

impl TaggedTable {
    fn new(history_len: u32, entry_bits: u32, tag_bits: u32) -> Self {
        Self {
            entries: vec![TagEntry::empty(); 1usize << entry_bits],
            history_len,
            index_fold: FoldedHistory::new(history_len, entry_bits),
            tag_fold: FoldedHistory::new(history_len, tag_bits),
            tag_fold2: (tag_bits > 1).then(|| FoldedHistory::new(history_len, tag_bits - 1)),
        }
    }

    /// Shifts `taken` into every fold; `history` is the global register
    /// before the push.
    fn push(&mut self, history: u64, taken: bool) {
        self.index_fold.push(history, taken);
        self.tag_fold.push(history, taken);
        if let Some(fold) = &mut self.tag_fold2 {
            fold.push(history, taken);
        }
    }

    /// Empties every entry and clears the folds with the history.
    fn reset(&mut self) {
        self.entries.fill(TagEntry::empty());
        self.index_fold.value = 0;
        self.tag_fold.value = 0;
        if let Some(fold) = &mut self.tag_fold2 {
            fold.value = 0;
        }
    }
}

/// What one prediction consulted: per-table indices and tags, the
/// provider (longest-history tag match) and its alternate.
struct Lookup {
    indices: [usize; MAX_TABLES],
    tags: [u16; MAX_TABLES],
    provider: Option<usize>,
    alt: Option<usize>,
    base_index: usize,
}

/// A TAGE predictor: a `2^entry_bits` bimodal base plus `tables`
/// tagged components of `2^entry_bits` entries each, with history
/// lengths halving geometrically down from `max_history`.
#[derive(Debug, Clone)]
pub struct Tage {
    base: CounterTable,
    tables: Vec<TaggedTable>,
    history: GlobalHistory,
    num_tables: u32,
    max_history: u32,
    tag_bits: u32,
    entry_bits: u32,
}

impl Tage {
    /// Creates a TAGE predictor with `tables` tagged components,
    /// `max_history` bits of history on the longest one, `tag_bits`-bit
    /// partial tags and `2^entry_bits` entries per table (base
    /// included).
    ///
    /// # Panics
    ///
    /// Panics if `tables` is not 1..=16, `entry_bits` not 1..=20,
    /// `tag_bits` not 1..=16, or `max_history` not 1..=63.
    #[must_use]
    pub fn new(tables: u32, max_history: u32, tag_bits: u32, entry_bits: u32) -> Self {
        assert!(
            (1..=MAX_TABLES).contains(&(tables as usize)),
            "tage wants 1..={MAX_TABLES} tagged tables, got {tables}"
        );
        assert!(
            (1..=20).contains(&entry_bits),
            "tage entry index must be 1..=20 bits, got {entry_bits}"
        );
        assert!(
            (1..=16).contains(&tag_bits),
            "partial tags are 1..=16 bits, got {tag_bits}"
        );
        assert!(
            (1..=MAX_HISTORY_BITS).contains(&max_history),
            "tage history must be 1..=63 bits, got {max_history}"
        );
        let component = |i: u32| {
            let history_len = (max_history >> (tables - 1 - i)).max(1);
            TaggedTable::new(history_len, entry_bits, tag_bits)
        };
        Self {
            base: CounterTable::new(entry_bits, Counter2::WEAKLY_TAKEN),
            tables: (0..tables).map(component).collect(),
            history: GlobalHistory::new(max_history),
            num_tables: tables,
            max_history,
            tag_bits,
            entry_bits,
        }
    }

    /// The geometric history lengths, shortest table first.
    #[must_use]
    pub fn history_lengths(&self) -> Vec<u32> {
        self.tables.iter().map(|t| t.history_len).collect()
    }

    fn index_of(&self, table: &TaggedTable, pc: u64) -> usize {
        let w = pc_word(pc);
        to_index(low_bits(
            w ^ (w >> self.entry_bits) ^ table.index_fold.value ^ u64::from(table.history_len),
            self.entry_bits,
        ))
    }

    fn tag_of(&self, table: &TaggedTable, pc: u64) -> u16 {
        // Two differently-folded history hashes, the canonical
        // CSR1 ^ (CSR2 << 1) construction, so index-aliasing branches
        // rarely tag-alias too.
        let f2 = table.tag_fold2.map_or(0, |fold| fold.value << 1);
        let w = pc_word(pc);
        low_bits(
            w ^ (w >> self.tag_bits) ^ table.tag_fold.value ^ f2,
            self.tag_bits,
        ) as u16
    }

    fn lookup(&self, pc: u64) -> Lookup {
        let mut l = Lookup {
            indices: [0; MAX_TABLES],
            tags: [0; MAX_TABLES],
            provider: None,
            alt: None,
            base_index: to_index(low_bits(pc_word(pc), self.entry_bits)),
        };
        for (i, table) in self.tables.iter().enumerate() {
            let (index, tag) = (self.index_of(table, pc), self.tag_of(table, pc));
            let e = table.entries[index];
            if e.valid && e.tag == tag {
                l.alt = l.provider;
                l.provider = Some(i);
            }
            l.indices[i] = index;
            l.tags[i] = tag;
        }
        l
    }

    /// Shifts an outcome into the history and every table's folds.
    fn push_history(&mut self, taken: bool) {
        let before = self.history.value();
        for table in &mut self.tables {
            table.push(before, taken);
        }
        self.history.push(taken);
        debug_assert!(
            self.folds_are_exact(),
            "a folded history register drifted from fold_xor of its slice"
        );
    }

    /// Whether every table's folds equal `fold_xor` of its history
    /// slice recomputed from scratch.
    fn folds_are_exact(&self) -> bool {
        self.tables.iter().all(|t| {
            let h = self.history.low(t.history_len);
            t.index_fold.value == fold_xor(h, self.entry_bits)
                && t.tag_fold.value == fold_xor(h, self.tag_bits)
                && t.tag_fold2.map_or(self.tag_bits == 1, |fold| {
                    fold.value == fold_xor(h, self.tag_bits - 1)
                })
        })
    }

    fn alt_prediction(&self, l: &Lookup) -> bool {
        match l.alt {
            Some(j) => self.tables[j].entries[l.indices[j]].predict(),
            None => self.base.predict(l.base_index),
        }
    }

    fn prediction(&self, l: &Lookup) -> bool {
        match l.provider {
            Some(i) => {
                let e = self.tables[i].entries[l.indices[i]];
                // use-alt-on-newly-allocated: a weak provider defers to
                // the alternate prediction until it has proven useful.
                if e.is_weak() {
                    self.alt_prediction(l)
                } else {
                    e.predict()
                }
            }
            None => self.base.predict(l.base_index),
        }
    }
}

impl Predictor for Tage {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "tage(t={},h={},tag={},e={})",
            self.num_tables, self.max_history, self.tag_bits, self.entry_bits
        )
    }

    fn predict(&self, pc: u64) -> bool {
        let l = self.lookup(pc);
        self.prediction(&l)
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let l = self.lookup(pc);
        let final_prediction = self.prediction(&l);
        match l.provider {
            Some(i) => {
                let provider_prediction = self.tables[i].entries[l.indices[i]].predict();
                let alt_prediction = self.alt_prediction(&l);
                let e = &mut self.tables[i].entries[l.indices[i]];
                e.train(taken);
                // The useful counter moves only when the provider and
                // its alternate disagreed — that is when the provider's
                // existence changed the prediction.
                if provider_prediction != alt_prediction {
                    if provider_prediction == taken {
                        if e.useful < USEFUL_MAX {
                            e.useful += 1;
                        }
                    } else if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
            None => self.base.update(l.base_index, taken),
        }

        // Allocation on a final misprediction: claim the first
        // not-useful entry in a longer-history table; if every
        // candidate is defending its slot, decay them all instead
        // (the canonical age-on-failed-allocation rule).
        let first_candidate = l.provider.map_or(0, |i| i + 1);
        if final_prediction != taken && first_candidate < self.tables.len() {
            let mut allocated = false;
            for j in first_candidate..self.tables.len() {
                let e = &mut self.tables[j].entries[l.indices[j]];
                if !e.valid || e.useful == 0 {
                    *e = TagEntry {
                        ctr: if taken {
                            CTR_WEAK_TAKEN
                        } else {
                            CTR_WEAK_TAKEN - 1
                        },
                        tag: l.tags[j],
                        useful: 0,
                        valid: true,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for j in first_candidate..self.tables.len() {
                    let e = &mut self.tables[j].entries[l.indices[j]];
                    if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
        }

        self.push_history(taken);
        final_prediction
    }

    fn cost(&self) -> Cost {
        let entries = 1u64 << self.entry_bits;
        Cost {
            // The paper's metric: prediction counters only — the base's
            // two-bit counters plus each tagged entry's 3-bit counter.
            state_bits: self.base.storage_bits()
                + u64::from(self.num_tables) * u64::from(CTR_BITS) * entries,
            // Tags, useful counters, valid bits and the history
            // register are bookkeeping, reported separately.
            metadata_bits: u64::from(self.num_tables)
                * entries
                * u64::from(self.tag_bits + USEFUL_BITS + 1)
                + u64::from(self.max_history),
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        self.tables.iter_mut().for_each(TaggedTable::reset);
        self.history.reset();
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        // Ids: base first, then each tagged table's entries in order.
        let l = self.lookup(pc);
        Some(match l.provider {
            Some(i) => self.base.len() + i * self.tables[i].entries.len() + l.indices[i],
            None => l.base_index,
        })
    }

    fn num_counters(&self) -> usize {
        self.base.len() + self.tables.iter().map(|t| t.entries.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_lengths_halve_geometrically() {
        let p = Tage::new(4, 32, 8, 6);
        assert_eq!(p.history_lengths(), [4, 8, 16, 32]);
        // Short maxima clamp at one bit rather than degenerating to 0.
        let p = Tage::new(3, 2, 4, 2);
        assert_eq!(p.history_lengths(), [1, 1, 2]);
    }

    #[test]
    fn folded_histories_equal_fold_xor_after_every_push() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 1..=MAX_HISTORY_BITS {
            for tag_bits in 1..=16 {
                // One table, so its slice is the whole `len`-bit history;
                // index widths cycle through 1..=12 alongside.
                let mut p = Tage::new(1, len, tag_bits, 1 + (len + tag_bits) % 12);
                assert_eq!(p.tables[0].tag_fold2.is_none(), tag_bits == 1);
                // Enough pushes to wrap the window twice.
                for _ in 0..2 * len + 3 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    p.push_history(x & 1 == 1);
                    assert!(p.folds_are_exact(), "len {len}, tag width {tag_bits}");
                }
            }
        }
    }

    #[test]
    fn cost_counts_counters_as_state_and_tags_as_metadata() {
        let p = Tage::new(4, 32, 8, 10);
        // base 2*1024 + 4 tables * 3*1024 prediction bits
        assert_eq!(p.cost().state_bits, 2 * 1024 + 4 * 3 * 1024);
        // 4 tables * 1024 entries * (8 tag + 2 useful + 1 valid) + 32 history
        assert_eq!(p.cost().metadata_bits, 4 * 1024 * 11 + 32);
    }

    #[test]
    fn fresh_predictor_consults_the_base() {
        let p = Tage::new(4, 16, 8, 6);
        // No tagged entry is valid yet, so the bimodal base (weakly
        // taken) decides.
        assert!(p.predict(0x1000));
        assert!(p.counter_id(0x1000).expect("tage reports counters") < p.base.len());
    }

    #[test]
    fn history_pattern_allocates_and_provides() {
        // A branch alternating on a 2-period pattern defeats the base
        // bimodal but is perfectly predictable from one history bit:
        // TAGE must allocate a tagged entry and converge.
        let mut p = Tage::new(3, 8, 8, 6);
        let pc = 0x2000;
        let mut late_miss = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            if i >= 500 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
        }
        assert!(late_miss <= 4, "tage lost a trivial pattern ({late_miss})");
        assert!(
            p.tables
                .iter()
                .any(|t| t.entries.iter().any(|e| e.valid && e.useful > 0)),
            "the providing entry must have proven useful"
        );
    }

    #[test]
    fn failed_allocation_decays_useful_counters() {
        let mut p = Tage::new(2, 4, 4, 1);
        // Pin every entry above the provider as useful, then force a
        // misprediction with no provider: the allocator must decay.
        for t in &mut p.tables {
            for e in &mut t.entries {
                *e = TagEntry {
                    ctr: CTR_MAX,
                    tag: 0x7, // never matches tag_of under empty history by construction below
                    useful: USEFUL_MAX,
                    valid: true,
                };
            }
        }
        let pc = 0x3000;
        // tag 0x7 must genuinely miss for the decay path to be the one
        // exercised.
        for t in &p.tables {
            assert_ne!(p.tag_of(t, pc), 0x7, "test wants tag misses");
        }
        p.update(pc, false); // base predicts taken -> mispredict, no u==0 slot
        let dropped = p
            .tables
            .iter()
            .any(|t| t.entries.iter().any(|e| e.useful < USEFUL_MAX));
        assert!(dropped, "failed allocation must decay useful counters");
    }

    #[test]
    fn tags_filter_index_aliases() {
        let p = Tage::new(1, 4, 8, 4);
        let table = &p.tables[0];
        // Find two PCs that share an index but differ in tag: the
        // filter the cfa tiering models.
        let pcs: Vec<u64> = (0..512u64).map(|i| 0x1000 + i * 4).collect();
        let mut found = false;
        'outer: for (ai, &a) in pcs.iter().enumerate() {
            for &b in &pcs[ai + 1..] {
                if p.index_of(table, a) == p.index_of(table, b)
                    && p.tag_of(table, a) != p.tag_of(table, b)
                {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "index aliases must be separable by tag");
    }

    #[test]
    fn reset_restores_power_on() {
        let mut p = Tage::new(3, 12, 6, 4);
        for i in 0..500u64 {
            p.update(0x1000 + (i % 13) * 4, i % 3 == 0);
        }
        p.reset();
        let fresh = Tage::new(3, 12, 6, 4);
        for pc in (0..64u64).map(|i| 0x1000 + i * 4) {
            assert_eq!(p.predict(pc), fresh.predict(pc));
        }
        assert!(p.tables.iter().all(|t| t.entries.iter().all(|e| !e.valid)));
        assert!(
            p.folds_are_exact(),
            "reset must clear the folds with the history"
        );
    }

    #[test]
    fn counter_ids_stay_in_range() {
        let mut p = Tage::new(3, 8, 5, 4);
        for i in 0..800u64 {
            let pc = 0x1000 + (i % 37) * 4;
            let id = p.counter_id(pc).expect("tage reports counters");
            assert!(id < p.num_counters());
            p.update(pc, i % 5 != 0);
        }
    }
}
