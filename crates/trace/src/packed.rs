//! `PackedTrace`: a cache-friendly structure-of-arrays view of the
//! conditional branches of a [`Trace`].
//!
//! The sweeps behind Figures 2–4 and the exhaustive `gshare.best`
//! search drive the *same* trace once per predictor configuration, so
//! the dominant cost is memory traffic over the 24-byte-per-record
//! array-of-structs [`BranchRecord`] stream (most of which — raw
//! targets, the kind tag, padding — the predictors never look at).
//! `PackedTrace` is built once per trace and keeps only what a
//! trace-driven predictor consumes, in parallel arrays:
//!
//! * a **deduplicated PC table** (`u32` site ids per record, one `u64`
//!   PC per distinct branch site),
//! * a **bit-packed outcome vector** (one taken bit per record),
//! * a **bit-packed backwardness vector** (one `target < pc` bit per
//!   record — the only target-derived information any predictor in
//!   this reproduction uses, via the BTFNT static heuristic),
//! * precomputed [`TraceStats`].
//!
//! The per-record working set shrinks from 24 bytes to 4.25 bytes
//! (~5.6×), so paper-scale traces fit in the last-level cache and a
//! batched sweep (see `bpred-analysis`'s `measure_batch`) re-reads hot
//! lines instead of streaming DRAM.
//!
//! Raw targets are *not* retained: records are replayed with a
//! synthesised target that preserves the `target < pc` predicate
//! exactly ([`PackedRecord::target`]), which keeps every predictor in
//! the workspace bit-identical to a scalar replay of the original
//! trace. A future predictor that hashes raw target bits would need
//! the targets added to the site table first.
//!
//! Traces that never exist whole in memory are packed piecewise with
//! [`PackedTraceBuilder`]: records are appended in arrival order, the
//! per-record columns seal in fixed-size blocks of [`SEAL_RECORDS`]
//! (a sealed block's bytes never change again), and a running
//! [`TraceDigest`] identifies the stream so far. [`PackedTrace::build`]
//! is the same builder fed a whole [`Trace`].

use crate::digest::TraceDigest;
use crate::record::{BranchKind, BranchRecord};
use crate::stats::{SiteSummary, TraceStats};
use crate::trace::Trace;

/// Error produced when a trace cannot be packed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The trace has more than `u32::MAX` distinct conditional branch
    /// sites, so site ids would not fit the packed `u32` id column.
    TooManySites {
        /// Number of distinct sites found before overflowing.
        sites: u64,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::TooManySites { sites } => write!(
                f,
                "trace has {sites} distinct conditional branch sites; \
                 packed site ids are u32 (max {})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for PackError {}

/// One replayed conditional branch, reconstructed from the packed
/// arrays. See [`PackedTrace::records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRecord {
    /// Byte address of the branch instruction.
    pub pc: u64,
    /// Dense site id of the branch (index into [`PackedTrace::site_pcs`]).
    pub site: u32,
    /// Resolved direction (`true` = taken).
    pub taken: bool,
    /// Whether the taken-path target lies below the branch.
    pub backward: bool,
}

impl PackedRecord {
    /// A synthesised target that preserves the `target < pc` predicate
    /// of the original record: `0` for backward branches (below every
    /// positive PC; a backward branch cannot sit at PC 0) and
    /// `u64::MAX` for forward ones (below no PC).
    #[must_use]
    pub fn target(&self) -> u64 {
        if self.backward {
            0
        } else {
            u64::MAX
        }
    }
}

const WORD_BITS: usize = 64;

/// A bit-per-record column (outcomes, backwardness).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct BitColumn {
    words: Vec<u64>,
}

impl BitColumn {
    fn push(&mut self, index: usize, bit: bool) {
        if index.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        if bit {
            self.words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
        }
    }

    #[inline]
    fn get(&self, index: usize) -> bool {
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }
}

/// The packed, conditional-only form of one [`Trace`].
///
/// ```
/// use bpred_trace::{BranchRecord, PackedTrace, Trace};
///
/// let mut trace = Trace::new("demo");
/// trace.push(BranchRecord::conditional(0x1000, 0x0FF0, true));
/// trace.push(BranchRecord::unconditional(0x1004, 0x2000)); // dropped
/// trace.push(BranchRecord::conditional(0x1000, 0x0FF0, false));
/// let packed = PackedTrace::build(&trace).unwrap();
/// assert_eq!(packed.len(), 2);
/// assert_eq!(packed.num_sites(), 1);
/// let first = packed.record(0);
/// assert_eq!(first.pc, 0x1000);
/// assert!(first.taken && first.backward);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTrace {
    name: String,
    /// Per-record dense site ids, program order.
    sites: Vec<u32>,
    /// Per-record taken bits.
    outcomes: BitColumn,
    /// Per-record `target < pc` bits.
    backward: BitColumn,
    /// Site id -> PC, in first-appearance order.
    site_pcs: Vec<u64>,
    /// Stats of the *original* trace, measured once at build time.
    stats: TraceStats,
    /// Content digest of the *source* trace (see [`Trace::digest`]),
    /// captured at build time so packed and scalar measurement paths
    /// key the result store identically.
    digest: u64,
}

impl PackedTrace {
    /// Packs the conditional branches of `trace` through a
    /// [`PackedTraceBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`PackError::TooManySites`] if the trace has more than
    /// `u32::MAX` distinct conditional branch sites.
    pub fn build(trace: &Trace) -> Result<Self, PackError> {
        let mut builder = PackedTraceBuilder::new(trace.name());
        builder.append_all(trace.records())?;
        Ok(builder.finish())
    }

    /// The workload name of the source trace.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of conditional branch records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the packed trace holds no conditional branches.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of distinct conditional branch sites.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.site_pcs.len()
    }

    /// Site id -> PC table, in first-appearance order.
    #[must_use]
    pub fn site_pcs(&self) -> &[u64] {
        &self.site_pcs
    }

    /// Stats of the source trace, precomputed at build time.
    #[must_use]
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Content digest of the source trace, captured at build time.
    /// Equal to [`Trace::digest`] of the trace this was packed from.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Reconstructs record `index` (program order over conditionals).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    #[must_use]
    pub fn record(&self, index: usize) -> PackedRecord {
        let site = self.sites[index];
        PackedRecord {
            pc: self.site_pcs[site as usize], // cast-audited: u32 id widens losslessly
            site,
            taken: self.outcomes.get(index),
            backward: self.backward.get(index),
        }
    }

    /// Iterates the replayed conditional records in program order.
    pub fn records(&self) -> impl Iterator<Item = PackedRecord> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }

    /// Per-site summary table, sorted by PC: the
    /// [`site_table`](crate::site_table) aggregation over the packed
    /// columns, equal to that of the source trace.
    #[must_use]
    pub fn site_table(&self) -> Vec<SiteSummary> {
        crate::stats::tally_sites(self.records().map(|r| (r.pc, r.taken)))
    }

    /// Approximate resident bytes of the packed per-record columns
    /// (site ids + two bit columns), the engine's hot working set.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.sites.len() * std::mem::size_of::<u32>()
            + (self.outcomes.words.len() + self.backward.words.len()) * std::mem::size_of::<u64>()
            + self.site_pcs.len() * std::mem::size_of::<u64>()
    }

    /// Bytes the same records occupy in the array-of-structs [`Trace`]
    /// representation, for reduction reporting.
    #[must_use]
    pub fn unpacked_bytes(&self) -> usize {
        self.sites.len() * std::mem::size_of::<BranchRecord>()
    }
}

/// Conditional records per sealed block of a [`PackedTraceBuilder`]:
/// once a block fills, its slice of the packed columns is immutable
/// (the bit columns only ever append to the final partial word), so
/// consumers may stream sealed blocks while the tail is still open.
pub const SEAL_RECORDS: usize = 4096;

/// Chunked [`PackedTrace`] construction for piecewise trace ingestion.
///
/// The builder accepts records one chunk at a time — from a socket, a
/// file reader, or a generator; [`PackedTrace::build`] feeds it a whole
/// [`Trace`]. It keeps the deduplicated site table, the bit-packed
/// outcome/backwardness columns, per-site outcome tallies (for
/// [`TraceStats`]), and a running [`TraceDigest`] over *every* record
/// seen (all kinds, like [`Trace::digest`], so a streamed trace keys
/// the result store identically to its in-memory twin).
///
/// ```
/// use bpred_trace::{BranchRecord, PackedTrace, PackedTraceBuilder, Trace};
///
/// let records = [
///     BranchRecord::conditional(0x100, 0x80, true),
///     BranchRecord::unconditional(0x104, 0x200),
///     BranchRecord::conditional(0x100, 0x80, false),
/// ];
/// let mut builder = PackedTraceBuilder::new("demo");
/// for r in &records {
///     builder.append(r).unwrap();
/// }
/// let whole = Trace::from_records("demo", records.to_vec());
/// assert_eq!(builder.running_digest(), whole.digest());
/// assert_eq!(builder.finish(), PackedTrace::build(&whole).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct PackedTraceBuilder {
    name: String,
    site_ids: std::collections::HashMap<u64, u32>,
    site_pcs: Vec<u64>,
    sites: Vec<u32>,
    outcomes: BitColumn,
    backward: BitColumn,
    /// Per-site (taken, executions) tallies, indexed by site id, from
    /// which [`Self::finish`] derives the [`TraceStats`].
    site_outcomes: Vec<(u64, u64)>,
    digest: TraceDigest,
    records_seen: u64,
}

impl PackedTraceBuilder {
    /// An empty builder for a trace named `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            site_ids: std::collections::HashMap::new(),
            site_pcs: Vec::new(),
            sites: Vec::new(),
            outcomes: BitColumn::default(),
            backward: BitColumn::default(),
            site_outcomes: Vec::new(),
            digest: TraceDigest::new(),
            records_seen: 0,
        }
    }

    /// Appends one record. Every record (any kind) feeds the running
    /// digest; conditional records are packed and returned in their
    /// replay form, others are dropped from the columns exactly like
    /// [`PackedTrace::build`].
    ///
    /// # Errors
    ///
    /// Returns [`PackError::TooManySites`] when the record would create
    /// a distinct conditional site beyond the `u32` id space.
    pub fn append(&mut self, record: &BranchRecord) -> Result<Option<PackedRecord>, PackError> {
        self.digest.update(record);
        self.records_seen += 1;
        if record.kind != BranchKind::Conditional {
            return Ok(None);
        }
        let id = match self.site_ids.get(&record.pc) {
            Some(&id) => id,
            None => {
                let id =
                    u32::try_from(self.site_pcs.len()).map_err(|_| PackError::TooManySites {
                        sites: self.site_pcs.len() as u64 + 1,
                    })?;
                self.site_ids.insert(record.pc, id);
                self.site_pcs.push(record.pc);
                self.site_outcomes.push((0, 0));
                id
            }
        };
        let index = self.sites.len();
        self.sites.push(id);
        self.outcomes.push(index, record.taken);
        self.backward.push(index, record.is_backward());
        let tally = &mut self.site_outcomes[id as usize]; // cast-audited: u32 id widens losslessly
        tally.0 += u64::from(record.taken);
        tally.1 += 1;
        Ok(Some(PackedRecord {
            pc: record.pc,
            site: id,
            taken: record.taken,
            backward: record.is_backward(),
        }))
    }

    /// Appends a chunk of records, returning how many were conditional
    /// (and therefore packed).
    ///
    /// # Errors
    ///
    /// Returns [`PackError::TooManySites`] as [`Self::append`] does;
    /// records before the failing one stay appended.
    pub fn append_all<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a BranchRecord>,
    ) -> Result<usize, PackError> {
        let mut packed = 0;
        for r in records {
            packed += usize::from(self.append(r)?.is_some());
        }
        Ok(packed)
    }

    /// Conditional records packed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no conditional record has been packed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Records of any kind fed so far (the digest's record count).
    #[must_use]
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Complete, immutable blocks of [`SEAL_RECORDS`] packed records.
    #[must_use]
    pub fn sealed_blocks(&self) -> usize {
        self.len() / SEAL_RECORDS
    }

    /// Packed records in the still-open tail block.
    #[must_use]
    pub fn open_records(&self) -> usize {
        self.len() % SEAL_RECORDS
    }

    /// The [`TraceDigest`] of every record fed so far — equal to
    /// [`Trace::digest`] of the same record sequence, at any point of
    /// the stream.
    #[must_use]
    pub fn running_digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Seals the tail and returns the finished [`PackedTrace`].
    #[must_use]
    pub fn finish(self) -> PackedTrace {
        let sites =
            self.site_pcs
                .iter()
                .zip(&self.site_outcomes)
                .map(|(&pc, &(taken, executions))| SiteSummary {
                    pc,
                    executions,
                    taken,
                });
        let stats = TraceStats::from_sites(self.records_seen, sites);
        PackedTrace {
            name: self.name,
            sites: self.sites,
            outcomes: self.outcomes,
            backward: self.backward,
            site_pcs: self.site_pcs,
            stats,
            digest: self.digest.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.push(BranchRecord::conditional(0x100, 0x80, true)); // backward
        t.push(BranchRecord::unconditional(0x104, 0x200));
        t.push(BranchRecord::conditional(0x200, 0x300, false)); // forward
        t.push(BranchRecord::conditional(0x100, 0x80, false));
        t
    }

    #[test]
    fn packs_conditionals_only_with_deduped_sites() {
        let p = PackedTrace::build(&sample()).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_sites(), 2);
        assert_eq!(p.site_pcs(), [0x100, 0x200]);
        assert_eq!(p.name(), "sample");
        let records: Vec<PackedRecord> = p.records().collect();
        assert_eq!(
            records[0],
            PackedRecord {
                pc: 0x100,
                site: 0,
                taken: true,
                backward: true
            }
        );
        assert_eq!(
            records[1],
            PackedRecord {
                pc: 0x200,
                site: 1,
                taken: false,
                backward: false
            }
        );
        assert_eq!(
            records[2],
            PackedRecord {
                pc: 0x100,
                site: 0,
                taken: false,
                backward: true
            }
        );
    }

    #[test]
    fn empty_and_unconditional_only_traces_pack_to_empty() {
        let p = PackedTrace::build(&Trace::new("empty")).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.num_sites(), 0);
        assert_eq!(p.records().count(), 0);

        let mut t = Trace::new("jumps");
        t.push(BranchRecord::unconditional(0x10, 0x20));
        t.push(BranchRecord::unconditional(0x20, 0x10));
        let p = PackedTrace::build(&t).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.stats().dynamic_total, 2);
        assert_eq!(p.stats().dynamic_conditional, 0);
    }

    #[test]
    fn synthesised_target_preserves_backwardness() {
        let p = PackedTrace::build(&sample()).unwrap();
        for r in p.records() {
            assert_eq!(r.target() < r.pc, r.backward, "record at {:#x}", r.pc);
        }
    }

    #[test]
    fn stats_match_source_trace() {
        let t = sample();
        let p = PackedTrace::build(&t).unwrap();
        assert_eq!(*p.stats(), t.stats());
    }

    #[test]
    fn site_table_matches_source_trace() {
        let t = sample();
        let p = PackedTrace::build(&t).unwrap();
        assert_eq!(p.site_table(), crate::site_table(&t));
        assert!(PackedTrace::build(&Trace::new("e"))
            .unwrap()
            .site_table()
            .is_empty());
    }

    #[test]
    fn digest_is_the_source_traces() {
        let t = sample();
        let p = PackedTrace::build(&t).unwrap();
        assert_eq!(p.digest(), t.digest());
        // Conditional-only filtering changes content, hence the digest:
        // the packed trace carries the *source* identity, not its own.
        assert_ne!(
            PackedTrace::build(&t.conditional_only()).unwrap().digest(),
            p.digest()
        );
    }

    #[test]
    fn outcome_bits_survive_word_boundaries() {
        let mut t = Trace::new("long");
        for i in 0..1000u64 {
            t.push(BranchRecord::conditional(
                0x1000 + (i % 13) * 4,
                0x800,
                i % 3 == 0,
            ));
        }
        let p = PackedTrace::build(&t).unwrap();
        assert_eq!(p.len(), 1000);
        assert_eq!(p.num_sites(), 13);
        for (i, r) in p.records().enumerate() {
            assert_eq!(r.taken, (i as u64).is_multiple_of(3), "record {i}");
            assert!(r.backward);
        }
    }

    #[test]
    fn builder_matches_one_shot_build_field_for_field() {
        let t = sample();
        let mut b = PackedTraceBuilder::new("sample");
        let mut packed_count = 0;
        for r in t.records() {
            packed_count += usize::from(b.append(r).unwrap().is_some());
        }
        assert_eq!(packed_count, 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.records_seen(), 4);
        assert_eq!(b.running_digest(), t.digest());
        assert_eq!(b.finish(), PackedTrace::build(&t).unwrap());
    }

    #[test]
    fn builder_is_chunking_invariant() {
        let mut t = Trace::new("long");
        for i in 0..9000u64 {
            let pc = 0x1000 + (i % 131) * 4;
            t.push(BranchRecord::conditional(pc, 0x800, i % 3 == 0));
            if i % 17 == 0 {
                t.push(BranchRecord::unconditional(pc + 4, 0x1000));
            }
        }
        let want = PackedTrace::build(&t).unwrap();
        for chunk in [1usize, 63, 64, 65, 4096, 4097] {
            let mut b = PackedTraceBuilder::new("long");
            for records in t.records().chunks(chunk) {
                b.append_all(records).unwrap();
            }
            assert_eq!(b.running_digest(), t.digest(), "chunk {chunk}");
            assert_eq!(b.finish(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn builder_replays_records_while_streaming() {
        let t = sample();
        let mut b = PackedTraceBuilder::new("sample");
        let mut streamed = Vec::new();
        for r in t.records() {
            if let Some(p) = b.append(r).unwrap() {
                streamed.push(p);
            }
        }
        let whole: Vec<PackedRecord> = PackedTrace::build(&t).unwrap().records().collect();
        assert_eq!(streamed, whole);
    }

    #[test]
    fn builder_seals_fixed_size_blocks() {
        let mut b = PackedTraceBuilder::new("blocks");
        assert_eq!((b.sealed_blocks(), b.open_records()), (0, 0));
        for i in 0..SEAL_RECORDS as u64 + 5 {
            b.append(&BranchRecord::conditional(0x100 + (i % 9) * 4, 0, true))
                .unwrap();
        }
        assert_eq!(b.sealed_blocks(), 1);
        assert_eq!(b.open_records(), 5);
        assert!(!b.is_empty());
    }

    #[test]
    fn builder_running_digest_tracks_every_prefix() {
        let t = sample();
        let mut b = PackedTraceBuilder::new("sample");
        for (i, r) in t.records().iter().enumerate() {
            b.append(r).unwrap();
            assert_eq!(
                b.running_digest(),
                t.truncated(i + 1).digest(),
                "prefix {}",
                i + 1
            );
        }
    }

    #[test]
    fn empty_builder_finishes_to_the_empty_packed_trace() {
        let b = PackedTraceBuilder::new("empty");
        assert!(b.is_empty());
        assert_eq!(b.running_digest(), Trace::new("empty").digest());
        let p = b.finish();
        assert_eq!(p, PackedTrace::build(&Trace::new("empty")).unwrap());
    }

    #[test]
    fn packed_bytes_report_a_real_reduction() {
        let mut t = Trace::new("big");
        for i in 0..10_000u64 {
            t.push(BranchRecord::conditional(
                0x1000 + (i % 200) * 4,
                0x2000,
                i % 2 == 0,
            ));
        }
        let p = PackedTrace::build(&t).unwrap();
        assert!(
            p.packed_bytes() * 5 < p.unpacked_bytes(),
            "packed {} vs unpacked {}",
            p.packed_bytes(),
            p.unpacked_bytes()
        );
    }
}
