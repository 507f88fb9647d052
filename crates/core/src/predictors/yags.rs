//! YAGS — "Yet Another Global Scheme" (Eden & Mudge, 1998): the direct
//! successor of the bi-mode predictor from the same group, implementing
//! the paper's stated future-work direction of separating weakly-biased
//! substreams further. The direction banks become small *tagged caches*
//! that store only the exceptions to the choice predictor's bias.

use crate::cost::Cost;
use crate::counter::Counter2;
use crate::history::GlobalHistory;
use crate::index::{gshare_index, low_bits, pc_word};
use crate::predictor::{CounterId, Predictor};
use crate::table::CounterTable;

/// One entry of a YAGS direction cache.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    tag: u16,
    counter: Counter2,
    valid: bool,
}

impl CacheEntry {
    fn empty() -> Self {
        Self {
            tag: 0,
            counter: Counter2::WEAKLY_TAKEN,
            valid: false,
        }
    }
}

/// A tagged exception cache: records branches that deviate from the
/// choice predictor's bias under particular history patterns.
#[derive(Debug, Clone)]
struct DirectionCache {
    entries: Vec<CacheEntry>,
    index_bits: u32,
    tag_bits: u32,
}

impl DirectionCache {
    fn new(index_bits: u32, tag_bits: u32) -> Self {
        Self {
            entries: vec![CacheEntry::empty(); 1usize << index_bits],
            index_bits,
            tag_bits,
        }
    }

    fn tag_of(&self, pc: u64) -> u16 {
        low_bits(pc_word(pc), self.tag_bits) as u16
    }

    fn lookup(&self, pc: u64, history: u64, m: u32) -> (usize, Option<Counter2>) {
        let idx = gshare_index(pc, history, self.index_bits, m.min(self.index_bits));
        let e = self.entries[idx];
        let hit = e.valid && e.tag == self.tag_of(pc);
        (idx, hit.then_some(e.counter))
    }

    fn train(&mut self, idx: usize, pc: u64, taken: bool, allocate: bool) {
        let tag = self.tag_of(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            e.counter.update(taken);
        } else if allocate {
            *e = CacheEntry {
                tag,
                counter: Counter2::from_state(if taken { 2 } else { 1 }),
                valid: true,
            };
        }
    }

    fn storage(&self) -> (u64, u64) {
        let n = self.entries.len() as u64;
        // counters are state; tags and valid bits are metadata
        (2 * n, n * (u64::from(self.tag_bits) + 1))
    }

    fn reset(&mut self) {
        self.entries
            .iter_mut()
            .for_each(|e| *e = CacheEntry::empty());
    }
}

/// A YAGS predictor: a bimodal choice PHT plus two tagged exception
/// caches (one per direction).
#[derive(Debug, Clone)]
pub struct Yags {
    choice: CounterTable,
    caches: [DirectionCache; 2], // [not-taken exceptions, taken exceptions]
    history: GlobalHistory,
    choice_bits: u32,
    cache_bits: u32,
    history_bits: u32,
    tag_bits: u32,
}

impl Yags {
    /// Creates a YAGS predictor with a `2^choice_bits` choice PHT, two
    /// `2^cache_bits` exception caches with `tag_bits`-bit partial tags,
    /// and `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if any width exceeds 30 bits or `tag_bits > 16`.
    #[must_use]
    pub fn new(choice_bits: u32, cache_bits: u32, history_bits: u32, tag_bits: u32) -> Self {
        assert!(
            tag_bits <= 16,
            "partial tags are at most 16 bits, got {tag_bits}"
        );
        assert!(
            cache_bits <= 30,
            "exception cache index must be <= 30 bits, got {cache_bits}"
        );
        Self {
            choice: CounterTable::new(choice_bits, Counter2::WEAKLY_TAKEN),
            caches: [
                DirectionCache::new(cache_bits, tag_bits),
                DirectionCache::new(cache_bits, tag_bits),
            ],
            history: GlobalHistory::new(history_bits),
            choice_bits,
            cache_bits,
            history_bits,
            tag_bits,
        }
    }

    fn choice_index(&self, pc: u64) -> usize {
        low_bits(pc_word(pc), self.choice_bits) as usize
    }

    /// (choice direction, consulted cache index, cache hit counter)
    fn lookup(&self, pc: u64) -> (bool, usize, Option<Counter2>) {
        let bias = self.choice.predict(self.choice_index(pc));
        // A taken bias consults the NOT-taken exception cache (cache 0),
        // and vice versa.
        let cache = usize::from(!bias);
        let (idx, hit) = self.caches[cache].lookup(pc, self.history.value(), self.history_bits);
        (bias, idx, hit)
    }
}

impl Predictor for Yags {
    fn clone_box(&self) -> Box<dyn Predictor> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!(
            "yags(c={},e={},h={},t={})",
            self.choice_bits, self.cache_bits, self.history_bits, self.tag_bits
        )
    }

    fn predict(&self, pc: u64) -> bool {
        let (bias, _idx, hit) = self.lookup(pc);
        match hit {
            Some(counter) => counter.predict(),
            None => bias,
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        self.retire(pc, None, taken);
    }

    fn retire(&mut self, pc: u64, _target: Option<u64>, taken: bool) -> bool {
        let (bias, idx, hit) = self.lookup(pc);
        let prediction = hit.map_or(bias, Counter2::predict);
        let cache = usize::from(!bias);

        // Train the exception cache: always on a hit; allocate when the
        // outcome contradicts the bias (a new exception).
        let allocate = taken != bias;
        if hit.is_some() || allocate {
            self.caches[cache].train(idx, pc, taken, allocate);
        }

        // Choice PHT follows the bi-mode partial-update rule.
        let save = bias != taken && prediction == taken;
        if !save {
            let ci = self.choice_index(pc);
            self.choice.update(ci, taken);
        }

        self.history.push(taken);
        prediction
    }

    fn cost(&self) -> Cost {
        let mut cost = Cost {
            state_bits: self.choice.storage_bits(),
            metadata_bits: u64::from(self.history_bits),
        };
        for c in &self.caches {
            let (state, meta) = c.storage();
            cost.state_bits += state;
            cost.metadata_bits += meta;
        }
        cost
    }

    fn reset(&mut self) {
        self.choice.reset();
        self.caches.iter_mut().for_each(DirectionCache::reset);
        self.history.reset();
    }

    fn counter_id(&self, pc: u64) -> Option<CounterId> {
        // The consulted counter is either a cache entry or the choice
        // counter; ids: [0, 2*cache_len) for caches, then choice.
        let (_bias, idx, hit) = self.lookup(pc);
        let cache_len = self.caches[0].entries.len();
        match hit {
            Some(_) => {
                let (bias, _, _) = self.lookup(pc);
                let cache = usize::from(!bias);
                Some(cache * cache_len + idx)
            }
            None => Some(2 * cache_len + self.choice_index(pc)),
        }
    }

    fn num_counters(&self) -> usize {
        2 * self.caches[0].entries.len() + self.choice.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branch_never_allocates_exceptions() {
        let mut p = Yags::new(8, 6, 6, 6);
        let pc = 0x1000;
        for _ in 0..50 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
        assert!(
            p.caches.iter().all(|c| c.entries.iter().all(|e| !e.valid)),
            "an always-taken branch must not consume exception-cache space"
        );
    }

    #[test]
    fn exception_is_cached_and_predicted() {
        // Branch biased taken except when the last outcome was taken
        // twice in a row: exceptions land in the NT-cache.
        let mut p = Yags::new(8, 8, 8, 6);
        let pc = 0x2000;
        let mut hist2 = (false, false);
        let mut late_miss = 0;
        for i in 0..2000 {
            let taken = !(hist2.0 && hist2.1);
            if i >= 500 && p.predict(pc) != taken {
                late_miss += 1;
            }
            p.update(pc, taken);
            hist2 = (hist2.1, taken);
        }
        assert!(
            late_miss <= 4,
            "yags lost the exception pattern ({late_miss})"
        );
        assert!(
            p.caches[0].entries.iter().any(|e| e.valid),
            "exceptions must have been allocated in the NT cache"
        );
    }

    #[test]
    fn tags_separate_aliasing_exceptions() {
        // Two branches whose exceptions collide in the cache index but
        // differ in tag: the second allocation evicts, but a tag mismatch
        // never returns the wrong branch's counter.
        let p = Yags::new(6, 4, 0, 8);
        let a = 0x1000u64;
        let b = a + (1u64 << (4 + 2)); // same cache index, different tag
        let (ia, _) = p.caches[0].lookup(a, 0, 0);
        let (ib, _) = p.caches[0].lookup(b, 0, 0);
        assert_eq!(ia, ib);
        assert_ne!(p.caches[0].tag_of(a), p.caches[0].tag_of(b));
    }

    #[test]
    fn separates_destructive_aliases() {
        // Same microbenchmark as the bi-mode test: opposite-biased
        // branches sharing PHT slots.
        let mut p = Yags::new(8, 6, 0, 6);
        let a = 0x1000u64;
        let b = a + (1u64 << 8);
        let mut late_miss = 0;
        for i in 0..500 {
            for (pc, t) in [(a, true), (b, false)] {
                if i >= 100 && p.predict(pc) != t {
                    late_miss += 1;
                }
                p.update(pc, t);
            }
        }
        assert_eq!(late_miss, 0, "yags should separate opposite-biased aliases");
    }

    #[test]
    fn cost_counts_tags_as_metadata() {
        let p = Yags::new(10, 8, 8, 6);
        // choice 2*1024 + 2 caches * 2*256 state bits
        assert_eq!(p.cost().state_bits, 2048 + 1024);
        // tags+valid 2*256*7 + history 8
        assert_eq!(p.cost().metadata_bits, 2 * 256 * 7 + 8);
    }

    #[test]
    fn counter_ids_stay_in_range() {
        let mut p = Yags::new(6, 4, 4, 6);
        for i in 0..500u64 {
            let pc = 0x1000 + (i % 37) * 4;
            let id = p.counter_id(pc).unwrap();
            assert!(id < p.num_counters());
            p.update(pc, i % 3 != 0);
        }
    }

    #[test]
    fn reset_clears_caches() {
        let mut p = Yags::new(6, 4, 4, 6);
        for i in 0..200u64 {
            p.update(0x1000 + (i % 7) * 4, i % 2 == 0);
        }
        p.reset();
        assert!(p.caches.iter().all(|c| c.entries.iter().all(|e| !e.valid)));
    }
}
