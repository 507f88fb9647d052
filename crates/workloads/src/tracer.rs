//! The software instrumentation harness: the reproduction's stand-in for
//! ATOM (\[EustaceSrivastava95\]).
//!
//! A workload routes each modelled conditional through
//! [`Tracer::branch`], identified by a [`Site`] whose program counter is
//! a stable compile-time hash of the source location. The recorded
//! stream is exactly what a binary-instrumented run would produce: one
//! `(pc, outcome)` event per dynamic conditional branch, in program
//! order. The tracer keeps nothing itself: it pushes each event into
//! the [`RecordSink`] it was made with, as it happens.

use std::fmt;

use bpred_trace::{BranchKind, BranchRecord, RecordSink};

/// Base byte address of the synthetic text segment sites are hashed
/// into (disjoint from `bpred_sim`'s text base).
pub const SITE_BASE: u64 = 0x0100_0000;

/// Number of addressable site slots (word-aligned) in the segment.
pub const SITE_SLOTS: u64 = 1 << 22;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

const fn fnv_str(mut hash: u64, s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

const fn fnv_u64(mut hash: u64, v: u64) -> u64 {
    let mut i = 0;
    while i < 8 {
        hash ^= (v >> (8 * i)) & 0xFF;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

/// A static branch site: a stable synthetic program counter and taken
/// target.
///
/// Create sites with the [`site!`](crate::site!) macro, which hashes the
/// source location at compile time; fan one site out into a family of
/// sites (modelling macro-expanded or table-generated code) with
/// [`with_index`](Site::with_index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site {
    pc: u64,
    target: u64,
}

impl Site {
    /// Derives a site from a source location. Used by [`crate::site!`];
    /// callable directly (`const`) when a site must be named explicitly.
    #[must_use]
    pub const fn from_location(module: &str, file: &str, line: u32, column: u32) -> Self {
        let mut h = FNV_OFFSET;
        h = fnv_str(h, module);
        h = fnv_str(h, file);
        h = fnv_u64(h, line as u64);
        h = fnv_u64(h, column as u64);
        Self::from_hash(h)
    }

    const fn from_hash(h: u64) -> Self {
        let slot = h % SITE_SLOTS;
        let pc = SITE_BASE + slot * 4;
        // Derive a plausible taken target: a displacement of 1..=256
        // instructions, backwards for roughly a third of sites (loops).
        let disp_words = 1 + ((h >> 23) % 256);
        let backward = (h >> 61).is_multiple_of(3);
        let target = if backward && disp_words * 4 <= pc {
            pc - disp_words * 4
        } else {
            pc + disp_words * 4
        };
        Self { pc, target }
    }

    /// The `k`-th member of a site family: models a block of similar
    /// branches produced by code expansion (large `match` arms, inlined
    /// bodies, generated parsers), which is how real programs like gcc
    /// reach thousands of static branch sites.
    #[must_use]
    pub const fn with_index(self, k: u32) -> Self {
        Self::from_hash(fnv_u64(self.pc ^ FNV_OFFSET, k as u64))
    }

    /// The synthetic byte PC of this site.
    #[must_use]
    pub const fn pc(self) -> u64 {
        self.pc
    }

    /// The synthetic taken-target byte address.
    #[must_use]
    pub const fn target(self) -> u64 {
        self.target
    }
}

/// Derives a [`Site`] from the macro invocation's source location, at
/// compile time.
///
/// ```
/// use bpred_trace::Trace;
/// use bpred_workloads::{site, Tracer};
///
/// let mut trace = Trace::new("doc");
/// let mut t = Tracer::new(&mut trace);
/// let mut count = 0;
/// for i in 0..10 {
///     if t.branch(site!(), i % 3 == 0) {
///         count += 1;
///     }
/// }
/// assert_eq!(count, 4);
/// assert_eq!(trace.len(), 10);
/// ```
#[macro_export]
macro_rules! site {
    () => {{
        const SITE: $crate::tracer::Site =
            $crate::tracer::Site::from_location(module_path!(), file!(), line!(), column!());
        SITE
    }};
}

/// Records the branch events a workload produces into a [`RecordSink`]:
/// a `Trace` to keep them, or a packed-trace builder and a cache file
/// to skip the array-of-structs copy.
pub struct Tracer<'s> {
    sink: &'s mut dyn RecordSink,
}

impl fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl<'s> Tracer<'s> {
    /// Creates a tracer that pushes every event into `sink`.
    #[must_use]
    pub fn new(sink: &'s mut dyn RecordSink) -> Self {
        Self { sink }
    }

    /// Records a conditional branch outcome and returns it, so the call
    /// can sit directly inside an `if` or `while` condition.
    #[inline]
    pub fn branch(&mut self, site: Site, taken: bool) -> bool {
        self.sink.push(BranchRecord {
            pc: site.pc,
            target: site.target,
            taken,
            kind: BranchKind::Conditional,
        });
        taken
    }

    /// Records a call event (not direction-predicted; kept for trace
    /// completeness).
    pub fn call(&mut self, site: Site) {
        self.sink.push(BranchRecord {
            pc: site.pc,
            target: site.target,
            taken: true,
            kind: BranchKind::Call,
        });
    }

    /// Records a return event.
    pub fn ret(&mut self, site: Site) {
        self.sink.push(BranchRecord {
            pc: site.pc,
            target: site.target,
            taken: true,
            kind: BranchKind::Return,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::Trace;

    #[test]
    fn sites_are_stable_per_location_and_distinct_across_locations() {
        let a1 = site!();
        let b = site!();
        // Same line, created twice through a loop: identical.
        let mut pcs = Vec::new();
        for _ in 0..2 {
            pcs.push(site!().pc());
        }
        assert_eq!(pcs[0], pcs[1]);
        assert_ne!(a1.pc(), b.pc());
    }

    #[test]
    fn sites_are_word_aligned_in_segment() {
        for k in 0..100 {
            let s = site!().with_index(k);
            assert_eq!(s.pc() % 4, 0);
            assert!(s.pc() >= SITE_BASE);
            assert!(s.pc() < SITE_BASE + SITE_SLOTS * 4);
        }
    }

    #[test]
    fn with_index_fans_out() {
        let base = site!();
        let family: Vec<u64> = (0..50).map(|k| base.with_index(k).pc()).collect();
        let mut dedup = family.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(
            dedup.len() >= 49,
            "index family should be essentially collision-free"
        );
        // And it is reproducible.
        assert_eq!(base.with_index(7), base.with_index(7));
    }

    #[test]
    fn some_sites_are_backward_branches() {
        let backward = (0..300)
            .filter(|&k| {
                let s = site!().with_index(k);
                s.target() < s.pc()
            })
            .count();
        assert!(
            backward > 50,
            "expected a loop-like share of backward sites, got {backward}"
        );
        assert!(
            backward < 250,
            "not everything should be backward, got {backward}"
        );
    }

    #[test]
    fn branch_returns_its_condition() {
        let mut trace = Trace::default();
        let mut t = Tracer::new(&mut trace);
        assert!(t.branch(site!(), true));
        assert!(!t.branch(site!(), false));
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn call_and_ret_record_kinds() {
        let mut trace = Trace::default();
        let mut t = Tracer::new(&mut trace);
        t.call(site!());
        t.ret(site!());
        assert_eq!(trace.records()[0].kind, BranchKind::Call);
        assert_eq!(trace.records()[1].kind, BranchKind::Return);
        assert_eq!(trace.conditional().count(), 0);
    }

    #[test]
    fn tracer_preserves_program_order() {
        let mut trace = Trace::default();
        let mut t = Tracer::new(&mut trace);
        let s = site!();
        for i in 0..10 {
            t.branch(s, i % 2 == 0);
        }
        let outcomes: Vec<bool> = trace.iter().map(|r| r.taken).collect();
        assert_eq!(
            outcomes,
            [true, false, true, false, true, false, true, false, true, false]
        );
    }
}
