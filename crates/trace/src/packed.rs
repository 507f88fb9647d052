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
//! [`PackedTraceBuilder`]: records are appended in arrival order and a
//! running [`TraceDigest`] identifies the stream so far. The builder is
//! a [`RecordSink`], so a workload generator can push straight into it,
//! and [`PackedTrace::build`] is the same builder fed a whole [`Trace`].
//!
//! A finished trace persists as its columns: [`PackedTrace::write_to`]
//! and [`PackedTrace::read_from`] move them through pieces of at most
//! 64 KiB, little-endian, in this layout:
//!
//! ```text
//! magic    "BPPK"                    4 bytes
//! version  u8                        = 1
//! name     u32 len + UTF-8 bytes     (the reader takes at most 4096)
//! total    u64                       records of any kind (stats.dynamic_total)
//! digest   u64                       the source trace's digest
//! n        u64                       conditional records
//! k        u64                       distinct sites
//! pcs      k × u64                   site id -> PC
//! ids      n × u32                   per-record site ids
//! outcomes ⌈n/64⌉ × u64              taken bits, record i at bit i % 64
//! backward ⌈n/64⌉ × u64              target < pc bits, likewise
//! checksum u64                       over every byte before it
//! ```
//!
//! The checksum folds 8-byte words into four independent lanes, each
//! step a bijection of its lane's state, so any single-bit flip
//! changes it. The reader checks every count against the input's
//! length before it allocates, and recomputes [`TraceStats`] from the
//! columns. The file cannot re-derive the source digest (targets and
//! non-conditional records are not kept), so the stored digest is
//! trusted only under the checksum.

use std::io::{self, Read, Write};

use crate::codec::{malformed, CodecError, MAX_NAME_BYTES};
use crate::digest::TraceDigest;
use crate::record::{BranchKind, BranchRecord};
use crate::sink::RecordSink;
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
        for r in trace.records() {
            builder.append(r)?;
        }
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

    /// Writes the trace's columns in the checksummed file layout of
    /// the [module docs](self), in pieces of at most 64 KiB, so a `File`
    /// needs no `BufWriter`. A `&mut` reference can be
    /// passed for `writer`.
    ///
    /// ```
    /// use bpred_trace::{BranchRecord, PackedTrace, Trace};
    ///
    /// let mut trace = Trace::new("demo");
    /// trace.push(BranchRecord::conditional(0x1000, 0x0FF0, true));
    /// trace.push(BranchRecord::unconditional(0x1004, 0x2000));
    /// let packed = PackedTrace::build(&trace).unwrap();
    /// let mut file = Vec::new();
    /// packed.write_to(&mut file)?;
    /// let back = PackedTrace::read_from(file.as_slice(), file.len() as u64)?;
    /// assert_eq!(back, packed);
    /// # Ok::<(), bpred_trace::CodecError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first write error, or [`io::ErrorKind::InvalidInput`]
    /// for a name longer than the reader accepts (4096 bytes).
    pub fn write_to<W: Write>(&self, writer: W) -> io::Result<()> {
        let name_len = u32::try_from(self.name.len())
            .ok()
            .filter(|_| self.name.len() <= MAX_NAME_BYTES)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "trace name over 4096 bytes")
            })?;
        let mut out = Output {
            writer,
            checksum: Checksum::new(),
            buf: Vec::with_capacity(IO_CHUNK),
        };
        out.put(PACKED_MAGIC)?;
        out.put(&[PACKED_VERSION])?;
        out.put(&name_len.to_le_bytes())?;
        out.put(self.name.as_bytes())?;
        let counts = [
            self.stats.dynamic_total,
            self.digest,
            self.len() as u64,
            self.num_sites() as u64,
        ];
        for word in counts.iter().chain(&self.site_pcs) {
            out.put(&word.to_le_bytes())?;
        }
        for id in &self.sites {
            out.put(&id.to_le_bytes())?;
        }
        for word in self.outcomes.words.iter().chain(&self.backward.words) {
            out.put(&word.to_le_bytes())?;
        }
        out.finish()
    }

    /// Reads a trace [`write_to`](Self::write_to) wrote, from untrusted
    /// bytes. `byte_len` is the input's length (a file's metadata
    /// length): every count in the header is checked against it before
    /// anything is allocated, each column is then allocated once at its
    /// exact size and filled in pieces of at most 64 KiB, and
    /// [`TraceStats`] are recomputed from the columns. A `&mut`
    /// reference can be passed for `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] on read failure and
    /// [`CodecError::Malformed`] when the bytes are not such a file:
    /// a bad magic, version or name, counts that disagree with
    /// `byte_len`, a checksum mismatch, a record total below the
    /// conditional record count, site ids out of first-appearance
    /// order or a site no record uses, set bits past the last record,
    /// or bytes after the checksum.
    pub fn read_from<R: Read>(reader: R, byte_len: u64) -> Result<Self, CodecError> {
        let mut input = Input {
            reader,
            checksum: Checksum::new(),
            buf: Vec::new(),
        };
        let head: [u8; 9] = input.array()?;
        if head[..4] != PACKED_MAGIC[..] {
            return Err(malformed("bad magic"));
        }
        if head[4] != PACKED_VERSION {
            return Err(malformed(format!("unsupported version {}", head[4])));
        }
        let name_len = u32::from_le_bytes([head[5], head[6], head[7], head[8]]);
        let name_len = usize::try_from(name_len).unwrap_or(usize::MAX);
        // magic, version and name length; then total, digest, n and k.
        let header_len = 9 + name_len as u64 + 4 * 8;
        if name_len > MAX_NAME_BYTES || header_len > byte_len {
            return Err(malformed(format!("name length {name_len}")));
        }
        let name = input.take(name_len)?.to_vec();
        let name = String::from_utf8(name).map_err(|_| malformed("name is not UTF-8"))?;
        let [total, digest, n, k] = [input.word()?, input.word()?, input.word()?, input.word()?];
        let words = n.div_ceil(64);
        let file_len = [
            k.checked_mul(8),
            n.checked_mul(4),
            words.checked_mul(16),
            Some(8),
        ]
        .into_iter()
        .try_fold(header_len, |len, part| len.checked_add(part?));
        if file_len != Some(byte_len) {
            return Err(malformed(format!(
                "{n} records and {k} sites do not fit {byte_len} bytes"
            )));
        }
        if total < n {
            return Err(malformed(format!("{total} records hold {n} conditionals")));
        }
        let count = |c: u64| usize::try_from(c).map_err(|_| malformed("count exceeds memory"));
        let (n, k, words) = (count(n)?, count(k)?, count(words)?);
        let site_pcs = input.column(k, u64::from_le_bytes)?;
        let sites = input.column(n, u32::from_le_bytes)?;
        let outcomes = BitColumn {
            words: input.column(words, u64::from_le_bytes)?,
        };
        let backward = BitColumn {
            words: input.column(words, u64::from_le_bytes)?,
        };
        let checksum = input.checksum.finish();
        let mut stored = [0u8; 8];
        input.reader.read_exact(&mut stored)?;
        if u64::from_le_bytes(stored) != checksum {
            return Err(malformed("checksum mismatch"));
        }
        match input.reader.read_exact(&mut [0u8; 1]) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {}
            Err(e) => return Err(e.into()),
            Ok(()) => return Err(malformed("trailing bytes after the checksum")),
        }
        let tail = n % WORD_BITS;
        for column in [&outcomes, &backward] {
            if tail != 0 && column.words.last().is_some_and(|&w| w >> tail != 0) {
                return Err(malformed("bits set past the last record"));
            }
        }
        // The builder assigns ids in first-appearance order, so a record
        // may only name a site already seen or the next new one; with
        // `used == k` at the end, every site has executed at least once.
        let mut tallies = vec![(0u64, 0u64); k];
        let mut used = 0;
        for (index, &id) in sites.iter().enumerate() {
            let site = id as usize; // cast-audited: u32 id widens losslessly
            let tally = tallies
                .get_mut(site)
                .filter(|_| site <= used)
                .ok_or_else(|| {
                    malformed(format!(
                        "record {index}: site id {id} out of range or order"
                    ))
                })?;
            used += usize::from(site == used);
            tally.0 += u64::from(outcomes.get(index));
            tally.1 += 1;
        }
        if used != k {
            return Err(malformed(format!("site {used} of {k} is never used")));
        }
        Ok(PackedTrace {
            name,
            stats: stats_of(total, &site_pcs, &tallies),
            sites,
            outcomes,
            backward,
            site_pcs,
            digest,
        })
    }
}

/// The [`TraceStats`] of `dynamic_total` records whose conditional
/// sites (by id) have the PCs `site_pcs` and (taken, executions)
/// `tallies`.
fn stats_of(dynamic_total: u64, site_pcs: &[u64], tallies: &[(u64, u64)]) -> TraceStats {
    let sites = site_pcs
        .iter()
        .zip(tallies)
        .map(|(&pc, &(taken, executions))| SiteSummary {
            pc,
            executions,
            taken,
        });
    TraceStats::from_sites(dynamic_total, sites)
}

const PACKED_MAGIC: &[u8; 4] = b"BPPK";
const PACKED_VERSION: u8 = 1;

/// The largest piece [`PackedTrace::write_to`] and
/// [`PackedTrace::read_from`] move at once, in bytes.
const IO_CHUNK: usize = 64 * 1024;

/// The write side of the packed file: bytes gather in a buffer of at
/// most [`IO_CHUNK`] bytes, which is checksummed as it is written out.
struct Output<W> {
    writer: W,
    checksum: Checksum,
    buf: Vec<u8>,
}

impl<W: Write> Output<W> {
    /// Appends `bytes` (at most [`IO_CHUNK`]), writing the buffer out
    /// first if they would overflow it.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > IO_CHUNK {
            self.drain()?;
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn drain(&mut self) -> io::Result<()> {
        self.checksum.update(&self.buf);
        self.writer.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Writes the rest, then the checksum of everything, and flushes.
    fn finish(mut self) -> io::Result<()> {
        self.drain()?;
        self.writer
            .write_all(&self.checksum.finish().to_le_bytes())?;
        self.writer.flush()
    }
}

/// The read side of the packed file: every byte read through it is
/// checksummed, in pieces of at most [`IO_CHUNK`] bytes.
struct Input<R> {
    reader: R,
    checksum: Checksum,
    buf: Vec<u8>,
}

impl<R: Read> Input<R> {
    /// The next `len` bytes, `len` at most [`IO_CHUNK`].
    fn take(&mut self, len: usize) -> io::Result<&[u8]> {
        self.buf.resize(len, 0);
        self.reader.read_exact(&mut self.buf)?;
        self.checksum.update(&self.buf);
        Ok(&self.buf)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    fn word(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads `count` little-endian values of `N` bytes each into a
    /// column allocated once at its exact size.
    fn column<T, const N: usize>(
        &mut self,
        count: usize,
        decode: fn([u8; N]) -> T,
    ) -> io::Result<Vec<T>> {
        let mut column = Vec::with_capacity(count);
        while column.len() < count {
            let values = (count - column.len()).min(IO_CHUNK / N);
            let (chunks, _) = self.take(values * N)?.as_chunks::<N>();
            column.extend(chunks.iter().map(|&bytes| decode(bytes)));
        }
        Ok(column)
    }
}

/// Bytes one checksum stripe covers: one 8-byte word per lane.
const STRIPE: usize = 32;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// The packed file's 64-bit checksum, streamed over any chunking of
/// its bytes.
///
/// Word `j` of the input (8 bytes, little-endian) folds into lane
/// `j % 4`, so four independent multiply chains share the work. A
/// lane step, `acc ↦ rotl(acc + word·P2, 31)·P1`, is a bijection of
/// the lane's state for a fixed word and of the word for a fixed state;
/// so is each step that merges the lanes, the trailing whole words and
/// the zero-padded last partial word into the result, and so is the
/// final mix. A single changed word therefore always changes the
/// checksum: no single-bit flip goes unseen.
#[derive(Debug, Clone)]
struct Checksum {
    lanes: [u64; 4],
    /// Bytes of the stripe not yet folded.
    pending: [u8; STRIPE],
    pending_len: usize,
    total: u64,
}

impl Checksum {
    fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; STRIPE],
            pending_len: 0,
            total: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(STRIPE - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let stripe = self.pending;
            self.fold(&stripe);
            self.pending_len = 0;
        }
        let (stripes, rest) = bytes.as_chunks::<STRIPE>();
        for stripe in stripes {
            self.fold(stripe);
        }
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn fold(&mut self, stripe: &[u8; STRIPE]) {
        let (words, _) = stripe.as_chunks::<8>();
        for (lane, &word) in self.lanes.iter_mut().zip(words) {
            *lane = lane_step(*lane, u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        let (words, tail) = self.pending[..self.pending_len].as_chunks::<8>();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let tail_word = (!tail.is_empty()).then_some(u64::from_le_bytes(last));
        let mut h = self.total.wrapping_mul(P3);
        for word in self
            .lanes
            .iter()
            .copied()
            .chain(words.iter().map(|&w| u64::from_le_bytes(w)))
            .chain(tail_word)
        {
            h = (h ^ lane_step(0, word)).wrapping_mul(P1).wrapping_add(P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

fn lane_step(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Records per `FEED` chunk when a client streams a trace to
/// `repro serve`: the chunk size of the harness's serve client and of
/// the benchmark's serve load.
pub const SEAL_RECORDS: usize = 4096;

/// Record-by-record [`PackedTrace`] construction for piecewise trace
/// ingestion.
///
/// The builder accepts records as they arrive — from a serve client's
/// `FEED` chunks or a generator; [`PackedTrace::build`] feeds it a
/// whole [`Trace`]. It keeps the deduplicated site table, the bit-packed
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

    /// The [`TraceDigest`] of every record fed so far — equal to
    /// [`Trace::digest`] of the same record sequence, at any point of
    /// the stream.
    #[must_use]
    pub fn running_digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Returns the finished [`PackedTrace`].
    #[must_use]
    pub fn finish(self) -> PackedTrace {
        PackedTrace {
            name: self.name,
            stats: stats_of(self.records_seen, &self.site_pcs, &self.site_outcomes),
            sites: self.sites,
            outcomes: self.outcomes,
            backward: self.backward,
            site_pcs: self.site_pcs,
            digest: self.digest.finish(),
        }
    }
}

/// Packs each record as it arrives, for generators.
///
/// # Panics
///
/// Panics with [`PackError::TooManySites`] where [`append`] would
/// return it; feed untrusted streams through [`append`] instead.
///
/// [`append`]: PackedTraceBuilder::append
impl RecordSink for PackedTraceBuilder {
    fn push(&mut self, record: BranchRecord) {
        self.append(&record)
            .expect("generated traces have fewer than 2^32 conditional sites"); // panic-audited: the registered workloads have far fewer than 2^32 branch sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
                for r in records {
                    b.append(r).unwrap();
                }
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
        // The packed file (about 4.25 bytes per record) against the
        // binary codec's 17 bytes per record for the same trace.
        let mut t = Trace::new("big");
        for i in 0..10_000u64 {
            t.push(BranchRecord::conditional(
                0x1000 + (i % 200) * 4,
                0x2000,
                i % 2 == 0,
            ));
        }
        let packed = file(&PackedTrace::build(&t).unwrap()).len();
        let mut codec = Vec::new();
        crate::write_binary(&t, &mut codec).unwrap();
        assert!(
            packed * 3 < codec.len(),
            "packed {packed} vs codec {}",
            codec.len()
        );
    }

    fn file(p: &PackedTrace) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.write_to(&mut bytes).unwrap();
        bytes
    }

    fn read(bytes: &[u8]) -> Result<PackedTrace, CodecError> {
        PackedTrace::read_from(bytes, bytes.len() as u64)
    }

    /// Recomputes the trailing checksum of an edited file, so the edit
    /// reaches the structural checks behind it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let mut checksum = Checksum::new();
        checksum.update(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.finish().to_le_bytes());
    }

    /// A trace of `records` records of every kind over `sites` branch
    /// sites, derived from `seed`.
    fn fuzz_trace(records: usize, sites: u64, seed: u64) -> Trace {
        let mut t = Trace::new("fuzz");
        let mut state = seed;
        for _ in 0..records {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pc = 0x1000 + (state >> 33) % sites * 4;
            let target = pc.wrapping_add((state >> 7) % 64).wrapping_sub(32);
            // About three records in ten are not conditional branches.
            let kind = if state % 8 < 3 {
                BranchKind::ALL[(state >> 3) as usize % 5]
            } else {
                BranchKind::Conditional
            };
            t.push(BranchRecord {
                pc,
                target,
                taken: state >> 63 == 1,
                kind,
            });
        }
        t
    }

    #[test]
    fn write_to_lays_out_the_documented_columns() {
        let p = PackedTrace::build(&sample()).unwrap();
        let bytes = file(&p);
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(&bytes[..5], b"BPPK\x01");
        assert_eq!(bytes[5..9], 6u32.to_le_bytes());
        assert_eq!(&bytes[9..15], b"sample");
        let at = 15;
        assert_eq!(word(at), 4, "records of any kind");
        assert_eq!(word(at + 8), p.digest());
        assert_eq!((word(at + 16), word(at + 24)), (3, 2), "n and k");
        assert_eq!((word(at + 32), word(at + 40)), (0x100, 0x200), "site pcs");
        assert_eq!(
            bytes[at + 48..at + 60],
            [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            (word(at + 60), word(at + 68)),
            (0b001, 0b101),
            "taken, backward"
        );
        assert_eq!(bytes.len(), at + 76 + 8);
        let mut checksum = Checksum::new();
        checksum.update(&bytes[..at + 76]);
        assert_eq!(word(at + 76), checksum.finish());
    }

    #[test]
    fn the_checksum_ignores_how_its_input_is_chunked() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        let mut whole = Checksum::new();
        whole.update(&bytes);
        for piece in [1, 7, 8, 31, 32, 33, 100] {
            let mut chunked = Checksum::new();
            for chunk in bytes.chunks(piece) {
                chunked.update(chunk);
            }
            assert_eq!(chunked.finish(), whole.finish(), "pieces of {piece}");
        }
        let mut shorter = Checksum::new();
        shorter.update(&bytes[..299]);
        assert_ne!(shorter.finish(), whole.finish());
    }

    #[test]
    fn columns_larger_than_one_io_chunk_round_trip() {
        let mut t = Trace::new("long");
        for i in 0..(IO_CHUNK / 4 + 100) as u64 {
            t.push(BranchRecord::conditional(
                0x1000 + i % 40 * 4,
                0x1040,
                i % 3 == 0,
            ));
        }
        let p = PackedTrace::build(&t).unwrap();
        assert!(p.len() * 4 > IO_CHUNK, "the id column spans two pieces");
        assert_eq!(read(&file(&p)).unwrap(), p);
    }

    #[test]
    fn trailing_bytes_stray_tail_bits_and_bad_ids_are_errors() {
        let p = PackedTrace::build(&sample()).unwrap();
        let good = file(&p);
        let (n_at, ids_at, outcomes_at) = (31, 63, 75);
        let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            reseal(&mut bytes);
            bytes
        };
        let mut extra = good.clone();
        extra.push(0);
        let cases = [
            ("a trailing byte", "do not fit", read(&extra)),
            (
                "a trailing byte past byte_len",
                "trailing bytes",
                PackedTrace::read_from(extra.as_slice(), good.len() as u64),
            ),
            (
                "a stray taken bit",
                "past the last record",
                read(&edited(&|b| b[outcomes_at] |= 8)),
            ),
            (
                "a stray backward bit",
                "past the last record",
                read(&edited(&|b| b[outcomes_at + 15] |= 0x80)),
            ),
            (
                "an id >= k",
                "site id 2 out of range",
                read(&edited(&|b| b[ids_at + 4] = 2)),
            ),
            (
                "an id before its first use",
                "site id 1 out of",
                read(&edited(&|b| b[ids_at] = 1)),
            ),
            (
                "an unused site",
                "never used",
                read(&edited(&|b| b[ids_at + 4] = 0)),
            ),
            (
                "a total below n",
                "2 records hold 3",
                read(&edited(&|b| {
                    b[n_at - 16..n_at - 8].copy_from_slice(&2u64.to_le_bytes())
                })),
            ),
        ];
        for (case, message, result) in cases {
            assert!(
                matches!(&result, Err(CodecError::Malformed(m)) if m.contains(message)),
                "{case}: {result:?}"
            );
        }
    }

    #[test]
    fn a_name_the_reader_refuses_is_not_written() {
        let mut t = sample();
        t.set_name("x".repeat(MAX_NAME_BYTES + 1));
        let p = PackedTrace::build(&t).unwrap();
        let err = p.write_to(Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    proptest! {
        #[test]
        fn packed_files_round_trip(
            records in 0usize..131,
            sites in 1u64..41,
            seed in any::<u64>(),
        ) {
            let p = PackedTrace::build(&fuzz_trace(records, sites, seed)).unwrap();
            prop_assert_eq!(read(&file(&p)).unwrap(), p);
        }

        #[test]
        fn truncation_at_any_byte_is_an_error(
            records in 0usize..131,
            seed in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let bytes = file(&PackedTrace::build(&fuzz_trace(records, 9, seed)).unwrap());
            let cut = (cut % bytes.len() as u64) as usize;
            prop_assert!(read(&bytes[..cut]).is_err(), "cut at {}", cut);
            prop_assert!(
                PackedTrace::read_from(&bytes[..cut], bytes.len() as u64).is_err(),
                "cut at {} of a claimed full length", cut
            );
        }

        #[test]
        fn any_single_bit_flip_is_an_error(
            records in 0usize..131,
            seed in any::<u64>(),
            bit in any::<u64>(),
        ) {
            let mut bytes = file(&PackedTrace::build(&fuzz_trace(records, 9, seed)).unwrap());
            let bit = (bit % (8 * bytes.len() as u64)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(read(&bytes).is_err(), "bit {}", bit);
        }

        #[test]
        fn counts_larger_than_the_input_allocate_nothing(
            records in 0usize..131,
            seed in any::<u64>(),
            field in 0usize..3,
            claim in any::<u64>(),
        ) {
            let p = PackedTrace::build(&fuzz_trace(records, 9, seed)).unwrap();
            let mut bytes = file(&p);
            // A count the input cannot hold: had the reader sized a
            // column from it, the allocation would abort the test.
            let claim = claim | 1 << 40;
            if field == 2 {
                // A name past the input's end, within the 4096-byte
                // limit or beyond it.
                let len = bytes.len() as u32;
                let name_len = if claim.is_multiple_of(2) {
                    len + claim as u32 % 3000
                } else {
                    claim as u32 | 1 << 31
                };
                bytes[5..9].copy_from_slice(&name_len.to_le_bytes());
            } else {
                let at = 9 + p.name().len() + 16 + 8 * field;
                bytes[at..at + 8].copy_from_slice(&claim.to_le_bytes());
            }
            prop_assert!(read(&bytes).is_err(), "field {} claims {}", field, claim);
        }
    }
}
