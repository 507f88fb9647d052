//! Streaming content digest for traces: the trace half of a result-store
//! job key.
//!
//! The harness caches measurement results under a key derived from the
//! predictor configuration and the *content* of the trace it was driven
//! over. Two traces with identical records must therefore hash
//! identically regardless of their provenance names, and any change to
//! any record — address, target, direction, or kind — must change the
//! hash. [`TraceDigest`] is a streaming FNV-1a-64 over the record
//! stream; [`Trace::digest`](crate::Trace::digest) folds a whole trace,
//! and [`PackedTrace`](crate::PackedTrace) carries the digest of the
//! trace it was packed from so the scalar and packed execution paths
//! agree on job keys.
//!
//! FNV-1a is not collision-resistant against adversaries, but the key
//! space here is a handful of deterministic workload generators — the
//! same trade the trace cache and the spec fingerprint make, and it
//! keeps the digest dependency-free.

use crate::record::BranchRecord;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k` in `0..=8`: the state change of `k` FNV-1a
/// steps over zero bytes.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// An incremental FNV-1a-64 digest over branch records.
///
/// ```
/// use bpred_trace::{BranchRecord, Trace, TraceDigest};
///
/// let records = [
///     BranchRecord::conditional(0x40, 0x80, true),
///     BranchRecord::unconditional(0x44, 0x40),
/// ];
/// let mut streaming = TraceDigest::new();
/// for r in &records {
///     streaming.update(r);
/// }
/// let whole: Trace = records.into_iter().collect();
/// assert_eq!(streaming.finish(), whole.digest());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    state: u64,
    records: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceDigest {
    /// A digest over the empty stream.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: FNV_OFFSET,
            records: 0,
        }
    }

    /// Folds one record into the digest. Every field that can alter a
    /// measurement participates: `pc` and `target` feed index and BTFNT
    /// logic, `taken` is the outcome, and `kind` decides whether
    /// predictors see the record at all.
    pub fn update(&mut self, record: &BranchRecord) {
        self.fold_u64(record.pc);
        self.fold_u64(record.target);
        self.fold_byte(u8::from(record.taken));
        self.fold_byte(record.kind.tag());
        self.records += 1;
    }

    /// The digest of everything folded so far. Record count is mixed in
    /// last so a prefix and its extension never collide trivially.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut d = *self;
        d.fold_u64(self.records);
        d.state
    }

    /// Folds the eight little-endian bytes of `v`. An FNV step over a
    /// zero byte only multiplies by the prime, so the bytes above the
    /// highest set one fold as one multiply by a power of it: the same
    /// state as eight byte steps, with fewer serial multiplies for the
    /// small addresses traces carry.
    fn fold_u64(&mut self, v: u64) {
        let significant = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        for &b in &v.to_le_bytes()[..significant] {
            self.fold_byte(b);
        }
        self.state = self.state.wrapping_mul(PRIME_POWERS[8 - significant]);
    }

    fn fold_byte(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use proptest::prelude::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.push(BranchRecord::conditional(0x100, 0x80, true));
        t.push(BranchRecord::unconditional(0x104, 0x200));
        t.push(BranchRecord::conditional(0x200, 0x300, false));
        t
    }

    #[test]
    fn digest_is_deterministic_and_name_independent() {
        let a = sample();
        let mut b = sample();
        b.set_name("renamed");
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest(), b.digest(), "name must not affect content");
    }

    #[test]
    fn every_record_field_is_load_bearing() {
        let base = sample();
        let mutate = |f: &dyn Fn(&mut BranchRecord)| {
            let mut records = base.records().to_vec();
            f(&mut records[0]);
            Trace::from_records("sample", records).digest()
        };
        assert_ne!(base.digest(), mutate(&|r| r.pc ^= 4));
        assert_ne!(base.digest(), mutate(&|r| r.target ^= 4));
        assert_ne!(base.digest(), mutate(&|r| r.taken = !r.taken));
        assert_ne!(
            base.digest(),
            mutate(&|r| r.kind = crate::record::BranchKind::Call)
        );
    }

    #[test]
    fn prefix_and_extension_differ() {
        let t = sample();
        assert_ne!(t.digest(), t.truncated(2).digest());
        assert_ne!(Trace::new("a").digest(), t.digest());
        // Empty traces still have a well-defined digest.
        assert_eq!(Trace::new("a").digest(), Trace::new("b").digest());
    }

    /// The byte-at-a-time FNV-1a fold of a record: the digest's
    /// definition, which the zero-byte shortcut must reproduce.
    fn bytewise(state: u64, record: &BranchRecord) -> u64 {
        let mut bytes = record.pc.to_le_bytes().to_vec();
        bytes.extend(record.target.to_le_bytes());
        bytes.push(u8::from(record.taken));
        bytes.push(record.kind.tag());
        bytes
            .into_iter()
            .fold(state, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn prime_powers_are_zero_byte_steps() {
        let mut state = FNV_OFFSET;
        for (k, &power) in PRIME_POWERS.iter().enumerate() {
            assert_eq!(FNV_OFFSET.wrapping_mul(power), state, "k = {k}");
            state = state.wrapping_mul(FNV_PRIME); // a zero byte XORs nothing in
        }
    }

    proptest! {
        /// Folding a record equals the byte-wise definition, for random
        /// addresses of every significant length and the extremes.
        #[test]
        fn folds_equal_the_bytewise_definition(
            seed in any::<u64>(),
            records in prop::collection::vec(
                (any::<u64>(), 0u32..=64, 0u32..=64, 0u8..4),
                1..40,
            ),
        ) {
            let mut digest = TraceDigest::new();
            let mut want = FNV_OFFSET;
            for (bits, pc_len, target_len, pick) in records {
                // Keep `len` low bits of a random word: every count of
                // zero high bytes occurs, 0 and u64::MAX included.
                let keep = |len: u32, v: u64| if len == 64 { v } else { v & ((1u64 << len) - 1) };
                let pc = keep(pc_len, bits ^ seed);
                let target = keep(target_len, bits.rotate_left(17));
                let record = match pick {
                    0 => BranchRecord::conditional(pc, target, bits & 1 == 1),
                    1 => BranchRecord::unconditional(pc, target),
                    2 => BranchRecord::conditional(0, u64::MAX, true),
                    _ => BranchRecord::conditional(u64::MAX, 0, false),
                };
                digest.update(&record);
                want = bytewise(want, &record);
            }
            prop_assert_eq!(digest.state, want);
        }
    }

    #[test]
    fn order_matters() {
        let mut swapped = sample().records().to_vec();
        swapped.swap(0, 2);
        assert_ne!(
            sample().digest(),
            Trace::from_records("sample", swapped).digest()
        );
    }
}
