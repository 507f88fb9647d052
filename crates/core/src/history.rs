//! Branch history registers: the global history used by GAg/GAs/gshare and
//! the bi-mode direction banks, and per-address history tables for PAg/PAs.

use std::fmt;

/// Maximum supported history length in bits.
pub const MAX_HISTORY_BITS: u32 = 63;

/// A global branch history shift register.
///
/// Outcomes are shifted in at bit 0 (`1` = taken), so bit 0 is always the
/// most recent branch. The register keeps `bits` outcomes; older outcomes
/// fall off the top.
///
/// Trace-driven simulation (as in the paper) updates the history with the
/// architectural outcome at `push`.
///
/// ```
/// use bpred_core::GlobalHistory;
///
/// let mut h = GlobalHistory::new(4);
/// h.push(true);
/// h.push(false);
/// h.push(true);
/// assert_eq!(h.value(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalHistory {
    value: u64,
    bits: u32,
}

impl GlobalHistory {
    /// Creates an all-zero (all not-taken) history of the given length.
    ///
    /// A zero-length history is permitted and always reads as `0`; this is
    /// how a gshare degenerates to a bimodal table in the design-space
    /// sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `bits > MAX_HISTORY_BITS`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!(
            bits <= MAX_HISTORY_BITS,
            "history length must be <= {MAX_HISTORY_BITS}, got {bits}"
        );
        Self { value: 0, bits }
    }

    /// The configured history length in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The current history pattern (low `bits` bits are valid).
    #[must_use]
    pub fn value(self) -> u64 {
        self.value
    }

    /// The history truncated to its most recent `n` outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the configured length.
    #[must_use]
    pub fn low(self, n: u32) -> u64 {
        assert!(
            n <= self.bits,
            "requested {n} bits from a {}-bit history",
            self.bits
        );
        if n == 0 {
            0
        } else {
            self.value & ((1u64 << n) - 1)
        }
    }

    /// Shifts in an architectural branch outcome.
    pub fn push(&mut self, taken: bool) {
        if self.bits == 0 {
            return;
        }
        self.value = ((self.value << 1) | u64::from(taken)) & ((1u64 << self.bits) - 1);
        debug_assert!(
            self.bits >= 63 || self.value < (1u64 << self.bits),
            "history register holds bits beyond its configured length"
        );
    }

    /// Clears the register to all not-taken.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits == 0 {
            return f.write_str("-");
        }
        for i in (0..self.bits).rev() {
            f.write_str(if (self.value >> i) & 1 == 1 { "T" } else { "N" })?;
        }
        Ok(())
    }
}

/// A first-level table of per-address branch histories, as used by the
/// Yeh–Patt PAg and PAs schemes.
///
/// The table holds `2^index_bits` shift registers of `history_bits` each,
/// indexed by low branch-address bits; distinct branches mapping to the
/// same entry share (and interfere in) that history.
#[derive(Debug, Clone)]
pub struct PerAddressHistories {
    entries: Vec<GlobalHistory>,
    index_mask: u64,
}

impl PerAddressHistories {
    /// Creates a table of `2^index_bits` histories of `history_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits > 30` or `history_bits > MAX_HISTORY_BITS`.
    #[must_use]
    pub fn new(index_bits: u32, history_bits: u32) -> Self {
        assert!(
            index_bits <= 30,
            "per-address history table index must be <= 30 bits"
        );
        let n = 1usize << index_bits;
        Self {
            entries: vec![GlobalHistory::new(history_bits); n],
            index_mask: (n as u64) - 1,
        }
    }

    /// Number of history registers in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total history storage in bits.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * u64::from(self.entries[0].bits())
    }

    /// The history register for a branch, selected by word-aligned PC bits.
    #[must_use]
    pub fn history(&self, pc: u64) -> GlobalHistory {
        self.entries[self.slot(pc)]
    }

    /// Shifts an outcome into the branch's history register.
    pub fn push(&mut self, pc: u64, taken: bool) {
        let slot = self.slot(pc);
        self.entries[slot].push(taken);
    }

    /// Clears every history register.
    pub fn reset(&mut self) {
        for e in &mut self.entries {
            e.reset();
        }
    }

    fn slot(&self, pc: u64) -> usize {
        let slot = crate::index::to_index(crate::index::pc_word(pc) & self.index_mask);
        debug_assert!(slot < self.entries.len(), "history slot escaped the table");
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_only_configured_bits() {
        let mut h = GlobalHistory::new(3);
        for _ in 0..10 {
            h.push(true);
        }
        assert_eq!(h.value(), 0b111);
        h.push(false);
        assert_eq!(h.value(), 0b110);
    }

    #[test]
    fn zero_length_history_is_inert() {
        let mut h = GlobalHistory::new(0);
        h.push(true);
        h.push(true);
        assert_eq!(h.value(), 0);
        assert_eq!(h.low(0), 0);
        assert_eq!(h.to_string(), "-");
    }

    #[test]
    fn low_truncates_to_most_recent_outcomes() {
        let mut h = GlobalHistory::new(8);
        for &t in &[true, true, false, true] {
            h.push(t);
        }
        assert_eq!(h.value(), 0b1101);
        assert_eq!(h.low(2), 0b01);
        assert_eq!(h.low(3), 0b101);
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn low_rejects_overlong_request() {
        let h = GlobalHistory::new(4);
        let _ = h.low(5);
    }

    #[test]
    fn display_renders_most_recent_last() {
        let mut h = GlobalHistory::new(4);
        h.push(true);
        h.push(false);
        assert_eq!(h.to_string(), "NNTN");
    }

    #[test]
    fn per_address_histories_are_independent() {
        let mut t = PerAddressHistories::new(4, 8);
        // PCs are byte addresses; word-aligned PCs 4 apart use adjacent slots.
        t.push(0x1000, true);
        t.push(0x1004, false);
        t.push(0x1000, true);
        assert_eq!(t.history(0x1000).value(), 0b11);
        assert_eq!(t.history(0x1004).value(), 0b0);
    }

    #[test]
    fn per_address_histories_alias_on_index_wrap() {
        let mut t = PerAddressHistories::new(2, 4);
        // 4 entries: word indices 0 and 4 collide.
        t.push(0x0, true);
        assert_eq!(t.history(0x10).value(), 0b1);
    }

    #[test]
    fn per_address_storage_accounting() {
        let t = PerAddressHistories::new(3, 10);
        assert_eq!(t.len(), 8);
        assert_eq!(t.storage_bits(), 80);
    }
}
