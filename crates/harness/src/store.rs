//! Content-addressed result store: the unit-of-work (`Job`) layer that
//! makes repeated runs incremental.
//!
//! Every measured point in the harness — one predictor configuration
//! driven over one trace by one engine revision — is planned as a
//! [`Job`] before it is executed. A job's key is a stable hash of:
//!
//! * the **spec fingerprint** ([`bpred_core::PredictorSpec::fingerprint`]),
//!   covering every cost-bearing parameter of the configuration;
//! * the **trace digest** ([`bpred_trace::Trace::digest`] /
//!   [`bpred_trace::PackedTrace::digest`]), covering the full record
//!   content of the input;
//! * the **measurement kind** and its scalar parameter (flush interval,
//!   update delay, warmup window) — the same (spec, trace) pair means
//!   different things to different measurement families;
//! * the **engine epoch** ([`bpred_analysis::ENGINE_EPOCH`]), bumped
//!   whenever measurement semantics change.
//!
//! Completed results are persisted as small atomically-written files
//! under `<trace cache>/results/`, keyed by the job hash. A later run
//! (or a re-run after an interruption) looks each job up before
//! executing and only fans the misses into the batched engine, so a
//! repeated `repro all` resumes in seconds with bit-identical
//! artefacts: stored payloads are integers (branch and misprediction
//! counts, not floats), so every derived rate is recomputed by the
//! exact expression the live path uses.
//!
//! Hit/miss/insert counters are process-wide and monotone, mirroring
//! the trace-cache counters in [`crate::traces`]; the
//! [`Observer`](crate::observe::Observer) differences snapshots to
//! attribute store activity to experiments, and the run manifest
//! records per-experiment `cached`/`computed` provenance (schema v2).

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::sync::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use bpred_analysis::{AliasReport, Analysis, RunResult, ENGINE_EPOCH};
use bpred_core::PredictorSpec;

use crate::traces;

/// On-disk payload format version; bump on any codec change so stale
/// result files read as misses instead of garbage.
const STORE_VERSION: u32 = 1;

/// Magic header of a result file.
const MAGIC: [u8; 4] = *b"BPRS";

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_byte(mut h: u64, b: u8) -> u64 {
    h ^= u64::from(b);
    h = h.wrapping_mul(FNV_PRIME);
    h
}

/// How the store participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Look results up before computing; persist what was computed.
    Normal,
    /// Never serve cached results, but overwrite them with fresh ones
    /// (`--refresh`).
    Refresh,
    /// Neither read nor write the store (`--no-cache`). Lookups still
    /// count as misses so provenance accounting stays total.
    Disabled,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Normal => "normal",
            Mode::Refresh => "refresh",
            Mode::Disabled => "disabled",
        })
    }
}

const MODE_UNSET: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The store mode in effect. Defaults to [`Mode::Normal`], or
/// [`Mode::Disabled`] when `BPRED_NO_RESULT_STORE` is set in the
/// environment; the CLI overrides it via [`set_mode`].
#[must_use]
pub fn mode() -> Mode {
    // ordering-audited: MODE is a standalone flag set once by the CLI before any lookup; no other memory is published through it, so Relaxed suffices
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Normal,
        1 => Mode::Refresh,
        2 => Mode::Disabled,
        _ => {
            if std::env::var_os("BPRED_NO_RESULT_STORE").is_some() {
                Mode::Disabled
            } else {
                Mode::Normal
            }
        }
    }
}

/// Sets the process-wide store mode (CLI flags `--no-cache` and
/// `--refresh`).
pub fn set_mode(mode: Mode) {
    let v = match mode {
        Mode::Normal => 0,
        Mode::Refresh => 1,
        Mode::Disabled => 2,
    };
    MODE.store(v, Ordering::Relaxed);
    // ordering-audited: see `mode` — a standalone once-set flag, no release/acquire pairing needed
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-wide result-store counters.
///
/// A *hit* is a job served from the store; a *miss* is a planned job
/// whose result had to be computed (including every job of a
/// `--no-cache` or `--refresh` run, so `hits + misses` always equals
/// the number of jobs planned); an *insert* is a result persisted.
/// Counters are monotone; attribute work to a stage by differencing
/// snapshots with [`StoreCounters::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Jobs served from the store.
    pub hits: u64,
    /// Jobs that had to be computed.
    pub misses: u64,
    /// Results persisted to the store.
    pub inserts: u64,
}

impl StoreCounters {
    /// The activity recorded between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        StoreCounters {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
        }
    }

    /// Jobs planned (hits plus misses).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Reads the current result-store counters.
#[must_use]
pub fn counters() -> StoreCounters {
    // Independently monotone statistics counters; snapshots are
    // differenced, never used to synchronize other memory, so Relaxed
    // suffices on every access (model-checked in race/metrics).
    StoreCounters {
        hits: HITS.load(Ordering::Relaxed), // ordering-audited: statistic, see above
        misses: MISSES.load(Ordering::Relaxed), // ordering-audited: statistic, see above
        inserts: INSERTS.load(Ordering::Relaxed), // ordering-audited: statistic, see above
    }
}

/// Measurement families a job can belong to. The tag participates in
/// the key so the same (spec, trace) pair never collides across
/// families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Plain drive: predict/update over the conditional stream.
    Rate = 0,
    /// Drive with periodic predictor flushes (param: interval).
    FlushedRate = 1,
    /// Drive behind an update-delay FIFO (param: depth).
    DelayedRate = 2,
    /// Two-pass substream attribution ([`Analysis`]).
    Twopass = 3,
    /// Alias-pair taxonomy ([`AliasReport`]).
    Alias = 4,
    /// Windowed warmup curve (param: window size).
    Warmup = 5,
    /// Per-kernel dynamic site table for the static/dynamic CFA
    /// cross-check (fingerprint: the program's disassembly digest).
    Cfa = 6,
    /// Per-site misprediction attribution of one predictor over one
    /// trace ([`bpred_analysis::SiteMisses`] rows).
    SiteMisses = 7,
}

/// The configuration half of a job key: measurement kind, spec
/// fingerprint, and the kind's scalar parameter, pre-hashed. Combine
/// with a trace digest via [`JobSpec::job`] to name one unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    half: u64,
}

impl JobSpec {
    fn new(kind: Kind, fingerprint: u64, params: u64) -> Self {
        let mut h = FNV_OFFSET;
        h = fnv_byte(h, kind as u8);
        h = fnv_u64(h, ENGINE_EPOCH);
        h = fnv_u64(h, fingerprint);
        h = fnv_u64(h, params);
        Self { half: h }
    }

    /// A plain misprediction-rate measurement of `spec`.
    #[must_use]
    pub fn rate(spec: &PredictorSpec) -> Self {
        Self::new(Kind::Rate, spec.fingerprint(), 0)
    }

    /// A rate measurement with predictor flushes every `interval`
    /// branches ([`bpred_core::Flushed`]). Every interval keys
    /// separately from [`JobSpec::rate`], even one longer than the
    /// trace; a "never flush" point is a plain rate.
    #[must_use]
    pub fn flushed_rate(spec: &PredictorSpec, interval: u64) -> Self {
        Self::new(Kind::FlushedRate, spec.fingerprint(), interval)
    }

    /// A rate measurement of `inner` behind an update-delay FIFO of
    /// `delay` entries (the `DelayedUpdate` wrapper has no grammar
    /// spec; the inner spec plus the depth identifies it).
    #[must_use]
    pub fn delayed_rate(inner: &PredictorSpec, delay: u64) -> Self {
        Self::new(Kind::DelayedRate, inner.fingerprint(), delay)
    }

    /// A two-pass substream [`Analysis`] of `spec`.
    #[must_use]
    pub fn twopass(spec: &PredictorSpec) -> Self {
        Self::new(Kind::Twopass, spec.fingerprint(), 0)
    }

    /// An [`AliasReport`] taxonomy of `spec`.
    #[must_use]
    pub fn alias(spec: &PredictorSpec) -> Self {
        Self::new(Kind::Alias, spec.fingerprint(), 0)
    }

    /// A warmup curve of `spec` with the given window size.
    #[must_use]
    pub fn warmup(spec: &PredictorSpec, window: u64) -> Self {
        Self::new(Kind::Warmup, spec.fingerprint(), window)
    }

    /// A per-site dynamic summary table for the CFA cross-check. The
    /// fingerprint slot carries the *program's* digest (its canonical
    /// disassembly), so the job key binds the static artefact to the
    /// trace it is compared against.
    #[must_use]
    pub fn cfa(program_digest: u64) -> Self {
        Self::new(Kind::Cfa, program_digest, 0)
    }

    /// A per-site misprediction table of `spec` — where the misses
    /// land, not just how many.
    #[must_use]
    pub fn site_misses(spec: &PredictorSpec) -> Self {
        Self::new(Kind::SiteMisses, spec.fingerprint(), 0)
    }

    /// Binds this configuration to one trace's content digest.
    #[must_use]
    pub fn job(self, trace_digest: u64) -> Job {
        Job {
            key: fnv_u64(self.half, trace_digest),
        }
    }
}

/// One addressed unit of work: (measurement kind + spec fingerprint +
/// parameter + engine epoch + trace digest), collapsed to a 64-bit key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    key: u64,
}

impl Job {
    /// The content-addressed key (also the on-disk file stem).
    #[must_use]
    pub fn key(self) -> u64 {
        self.key
    }
}

/// The store directory, or `None` when on-disk caching is unavailable
/// (shares the trace cache's root and its `BPRED_NO_TRACE_CACHE` /
/// `BPRED_TRACE_CACHE` controls).
#[must_use]
pub fn location() -> Option<PathBuf> {
    let dir = traces::cache_location()?.join("results");
    fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

fn path_of(job: Job) -> Option<PathBuf> {
    location().map(|d| d.join(format!("{:016x}.bpres", job.key())))
}

fn checksum(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, &w| fnv_u64(h, w))
}

fn encode_file(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + words.len() * 8 + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&checksum(words).to_le_bytes());
    out
}

fn decode_file(bytes: &[u8]) -> Option<Vec<u64>> {
    let rest = bytes.strip_prefix(&MAGIC)?;
    let (version, rest) = rest.split_first_chunk::<4>()?;
    if u32::from_le_bytes(*version) != STORE_VERSION {
        return None;
    }
    let (len, rest) = rest.split_first_chunk::<8>()?;
    let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
    if rest.len() != len.checked_mul(8)?.checked_add(8)? {
        return None;
    }
    let words: Vec<u64> = rest[..len * 8]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8-byte chunks"))) // panic-audited: chunks_exact(8) guarantees the width
        .collect();
    let stored = u64::from_le_bytes(rest[len * 8..].try_into().ok()?);
    (checksum(&words) == stored).then_some(words)
}

/// Looks `job` up, honouring [`mode`]. Every call counts exactly one
/// hit or one miss, so a stage's planned-job total is the sum of its
/// hit and miss deltas.
#[must_use]
pub fn lookup(job: Job) -> Option<Vec<u64>> {
    let words = match mode() {
        Mode::Normal => path_of(job).and_then(|path| {
            let bytes = fs::read(&path).ok()?;
            match decode_file(&bytes) {
                Some(words) => Some(words),
                // Corrupt or stale-format entry. Recovery is *not*
                // exclusive: another process may be racing the same
                // delete-and-recompute, or may already have healed the
                // entry with a fresh insert. Re-read once to serve a
                // concurrent heal, and only then drop the entry —
                // tolerating NotFound, because the racing recovery may
                // have deleted it first. (Model-checked in
                // race/store-recovery.)
                None => match fs::read(&path).ok().and_then(|b| decode_file(&b)) {
                    Some(healed) => Some(healed),
                    None => {
                        match fs::remove_file(&path) {
                            Ok(()) => {}
                            // The racing recovery deleted it first.
                            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                            // Transient FS refusal: leave the entry; a
                            // later lookup retries the recovery.
                            Err(_) => {}
                        }
                        None
                    }
                },
            }
        }),
        Mode::Refresh | Mode::Disabled => None,
    };
    match &words {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed), // ordering-audited: statistic, see `counters`
        None => MISSES.fetch_add(1, Ordering::Relaxed), // ordering-audited: statistic, see `counters`
    };
    words
}

/// Persists `words` as `job`'s result (atomic temp-file + rename, like
/// the trace cache: readers never observe partial files, and racing
/// writers of the same job wrote identical bytes). No-op when the
/// store is disabled or has no directory; failure only costs a
/// recompute next run.
pub fn insert(job: Job, words: &[u64]) {
    if mode() == Mode::Disabled {
        return;
    }
    let Some(path) = path_of(job) else { return };
    let bytes = encode_file(words);
    if publish(&path, &bytes) {
        INSERTS.fetch_add(1, Ordering::Relaxed); // ordering-audited: statistic, see `counters`
                                                 // Re-verify after publishing instead of assuming exclusive
                                                 // ownership of the key: a recovery racing on a previously
                                                 // corrupt entry may have read the stale bytes, then deleted
                                                 // the path *after* our rename — silently discarding this fresh
                                                 // write. One re-publish closes the window; a second loss is
                                                 // indistinguishable from a miss and only costs a recompute.
                                                 // (Model-checked in race/store-recovery.)
        let intact = fs::read(&path).ok().and_then(|b| decode_file(&b)).is_some();
        if !intact {
            let _ = publish(&path, &bytes);
        }
    }
}

/// Atomically publishes `bytes` at `path` via a unique temp file and
/// rename; readers never observe a partial file.
fn publish(path: &Path, bytes: &[u8]) -> bool {
    static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed) // ordering-audited: uniqueness needs only RMW atomicity; nothing is published through the counter
    ));
    let written =
        fs::File::create(&tmp).is_ok_and(|mut f| f.write_all(bytes).is_ok() && f.flush().is_ok());
    if written && fs::rename(&tmp, path).is_ok() {
        true
    } else {
        fs::remove_file(&tmp).ok();
        false
    }
}

// ---- typed payload codecs ----
//
// Payloads are integer words only: counts round-trip exactly, and every
// rate or percentage is re-derived by the same floating-point
// expression the uncached path evaluates, keeping artefacts
// bit-identical across cached and computed runs.

fn encode_run(r: &RunResult) -> Vec<u64> {
    vec![r.branches, r.mispredictions]
}

fn decode_run(words: &[u64]) -> Option<RunResult> {
    match *words {
        [branches, mispredictions] => Some(RunResult {
            branches,
            mispredictions,
        }),
        _ => None,
    }
}

fn encode_analysis(a: &Analysis) -> Vec<u64> {
    let mut w = Vec::with_capacity(11 + 3 * a.per_counter.len());
    w.push(a.streams as u64);
    w.push(a.per_counter.len() as u64);
    for c in &a.per_counter {
        w.extend([c.st, c.snt, c.wb]);
    }
    w.extend([
        a.class_changes.dominant,
        a.class_changes.non_dominant,
        a.class_changes.wb,
    ]);
    w.extend([
        a.breakdown.st,
        a.breakdown.snt,
        a.breakdown.wb,
        a.breakdown.branches,
    ]);
    w.extend([a.run.branches, a.run.mispredictions]);
    w
}

fn decode_analysis(words: &[u64]) -> Option<Analysis> {
    let (&streams, rest) = words.split_first()?;
    let (&counters, rest) = rest.split_first()?;
    let counters = usize::try_from(counters).ok()?;
    if rest.len() != counters.checked_mul(3)?.checked_add(9)? {
        return None;
    }
    let (counter_words, rest) = rest.split_at(counters * 3);
    let per_counter = counter_words
        .chunks_exact(3)
        .map(|c| bpred_analysis::CounterBias {
            st: c[0],
            snt: c[1],
            wb: c[2],
        })
        .collect();
    match *rest {
        [dominant, non_dominant, cwb, st, snt, wb, branches, rb, rm] => Some(Analysis {
            per_counter,
            class_changes: bpred_analysis::ClassChanges {
                dominant,
                non_dominant,
                wb: cwb,
            },
            breakdown: bpred_analysis::MispredictionBreakdown {
                st,
                snt,
                wb,
                branches,
            },
            run: RunResult {
                branches: rb,
                mispredictions: rm,
            },
            streams: usize::try_from(streams).ok()?,
        }),
        _ => None,
    }
}

fn encode_alias(a: &AliasReport) -> Vec<u64> {
    vec![
        a.streams as u64,
        a.counters_used as u64,
        a.counters_shared as u64,
        a.harmless_pairs,
        a.destructive_pairs,
        a.neutral_pairs,
        a.harmless_weight,
        a.destructive_weight,
        a.neutral_weight,
    ]
}

fn decode_alias(words: &[u64]) -> Option<AliasReport> {
    match *words {
        [streams, counters_used, counters_shared, harmless_pairs, destructive_pairs, neutral_pairs, harmless_weight, destructive_weight, neutral_weight] => {
            Some(AliasReport {
                streams: usize::try_from(streams).ok()?,
                counters_used: usize::try_from(counters_used).ok()?,
                counters_shared: usize::try_from(counters_shared).ok()?,
                harmless_pairs,
                destructive_pairs,
                neutral_pairs,
                harmless_weight,
                destructive_weight,
                neutral_weight,
            })
        }
        _ => None,
    }
}

fn encode_f64s(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn decode_f64s(words: &[u64]) -> Vec<f64> {
    words.iter().map(|&w| f64::from_bits(w)).collect()
}

/// Looks one drive result up ([`crate::engine::cached_rates`]
/// separates lookup from insert so it can fan all of a trace's misses
/// into one pass).
#[must_use]
pub fn lookup_run(job: Job) -> Option<RunResult> {
    lookup(job).as_deref().and_then(decode_run)
}

/// Persists one drive result.
pub fn insert_run(job: Job, result: &RunResult) {
    insert(job, &encode_run(result));
}

/// Serves a two-pass [`Analysis`] from the store or computes it.
pub fn cached_analysis(job: Job, compute: impl FnOnce() -> Analysis) -> Analysis {
    if let Some(a) = lookup(job).as_deref().and_then(decode_analysis) {
        return a;
    }
    let a = compute();
    insert(job, &encode_analysis(&a));
    a
}

/// Serves an [`AliasReport`] from the store or computes it.
pub fn cached_alias(job: Job, compute: impl FnOnce() -> AliasReport) -> AliasReport {
    if let Some(a) = lookup(job).as_deref().and_then(decode_alias) {
        return a;
    }
    let a = compute();
    insert(job, &encode_alias(&a));
    a
}

fn encode_sites(sites: &[bpred_trace::SiteSummary]) -> Vec<u64> {
    let mut words = Vec::with_capacity(1 + sites.len() * 3);
    words.push(sites.len() as u64);
    for s in sites {
        words.extend_from_slice(&[s.pc, s.executions, s.taken]);
    }
    words
}

fn decode_sites(words: &[u64]) -> Option<Vec<bpred_trace::SiteSummary>> {
    let (&n, rest) = words.split_first()?;
    let n = usize::try_from(n).ok()?;
    if rest.len() != n.checked_mul(3)? {
        return None;
    }
    Some(
        rest.chunks_exact(3)
            .map(|c| bpred_trace::SiteSummary {
                pc: c[0],
                executions: c[1],
                taken: c[2],
            })
            .collect(),
    )
}

/// Serves a per-site summary table (the CFA cross-check's dynamic
/// half) from the store or computes it.
pub fn cached_sites(
    job: Job,
    compute: impl FnOnce() -> Vec<bpred_trace::SiteSummary>,
) -> Vec<bpred_trace::SiteSummary> {
    if let Some(s) = lookup(job).as_deref().and_then(decode_sites) {
        return s;
    }
    let s = compute();
    insert(job, &encode_sites(&s));
    s
}

fn encode_site_misses(sites: &[bpred_analysis::SiteMisses]) -> Vec<u64> {
    let mut words = Vec::with_capacity(1 + sites.len() * 3);
    words.push(sites.len() as u64);
    for s in sites {
        words.extend_from_slice(&[s.pc, s.executions, s.mispredictions]);
    }
    words
}

fn decode_site_misses(words: &[u64]) -> Option<Vec<bpred_analysis::SiteMisses>> {
    let (&n, rest) = words.split_first()?;
    let n = usize::try_from(n).ok()?;
    if rest.len() != n.checked_mul(3)? {
        return None;
    }
    Some(
        rest.chunks_exact(3)
            .map(|c| bpred_analysis::SiteMisses {
                pc: c[0],
                executions: c[1],
                mispredictions: c[2],
            })
            .collect(),
    )
}

/// Serves a per-site misprediction table from the store or computes
/// it.
pub fn cached_site_misses(
    job: Job,
    compute: impl FnOnce() -> Vec<bpred_analysis::SiteMisses>,
) -> Vec<bpred_analysis::SiteMisses> {
    if let Some(s) = lookup(job).as_deref().and_then(decode_site_misses) {
        return s;
    }
    let s = compute();
    insert(job, &encode_site_misses(&s));
    s
}

/// Serves a float series (warmup curve) from the store or computes it.
/// Floats are stored as raw bits, so the round-trip is exact.
pub fn cached_f64s(job: Job, compute: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
    if let Some(words) = lookup(job) {
        return decode_f64s(&words);
    }
    let v = compute();
    insert(job, &encode_f64s(&v));
    v
}

/// On-disk footprint of a directory of cache files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Regular files present.
    pub files: u64,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// Sizes the persisted result store (zero when unavailable).
#[must_use]
pub fn disk_stats() -> DiskStats {
    location().map_or(DiskStats::default(), |dir| dir_stats(&dir))
}

fn dir_stats(dir: &PathBuf) -> DiskStats {
    let mut stats = DiskStats::default();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.filter_map(Result::ok) {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    stats.files += 1;
                    stats.bytes += meta.len();
                }
            }
        }
    }
    stats
}

/// Deletes every persisted result, returning how many files were
/// removed. The directory itself is kept.
pub fn clear() -> u64 {
    let Some(dir) = location() else { return 0 };
    let mut removed = 0;
    if let Ok(entries) = fs::read_dir(&dir) {
        for entry in entries.filter_map(Result::ok) {
            if entry.metadata().map(|m| m.is_file()).unwrap_or(false)
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> PredictorSpec {
        s.parse().expect("valid spec")
    }

    /// A key no other test (or prior run sharing the temp cache dir)
    /// will have written: derived from a random-ish per-process value.
    fn unique_digest(salt: u64) -> u64 {
        fnv_u64(
            fnv_u64(FNV_OFFSET, u64::from(std::process::id())),
            salt ^ 0xD1E5_7E57,
        )
    }

    #[test]
    fn keys_separate_kinds_params_specs_and_traces() {
        let g = spec("gshare:s=8,h=4");
        let b = spec("bimode:d=7");
        let d = unique_digest(1);
        let keys = [
            JobSpec::rate(&g).job(d),
            JobSpec::rate(&b).job(d),
            JobSpec::rate(&g).job(d ^ 1),
            JobSpec::flushed_rate(&g, 1000).job(d),
            JobSpec::flushed_rate(&g, 2000).job(d),
            JobSpec::delayed_rate(&g, 4).job(d),
            JobSpec::twopass(&g).job(d),
            JobSpec::alias(&g).job(d),
            JobSpec::warmup(&g, 512).job(d),
            JobSpec::site_misses(&g).job(d),
            JobSpec::site_misses(&b).job(d),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a.key(), b.key(), "jobs {i} and {j} collide");
                }
            }
        }
        // Deterministic across invocations in one process (and, by
        // construction from stable hashes, across processes).
        assert_eq!(JobSpec::rate(&g).job(d).key(), keys[0].key());
    }

    #[test]
    fn file_codec_round_trips_and_rejects_corruption() {
        let words = vec![1u64, u64::MAX, 0, 42];
        let bytes = encode_file(&words);
        assert_eq!(decode_file(&bytes).as_deref(), Some(&words[..]));
        assert_eq!(decode_file(&encode_file(&[])).as_deref(), Some(&[][..]));
        // Truncations and bit flips at every byte must read as misses,
        // never panic.
        for cut in 0..bytes.len() {
            let _ = decode_file(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_file(&bad), None, "flip at byte {i} accepted");
        }
    }

    #[test]
    fn run_results_round_trip_through_the_store() {
        let job = JobSpec::rate(&spec("gshare:s=6,h=2")).job(unique_digest(2));
        let before = counters();
        let r = RunResult {
            branches: 12345,
            mispredictions: 678,
        };
        let never_inserted = JobSpec::rate(&spec("gshare:s=6,h=1")).job(unique_digest(2));
        assert_eq!(lookup_run(never_inserted), None);
        insert_run(job, &r);
        assert_eq!(lookup_run(job), Some(r));
        let delta = counters().since(&before);
        assert!(delta.misses >= 1 && delta.inserts >= 1, "{delta:?}");
        assert!(delta.hits >= 1, "{delta:?}");
        assert_eq!(delta.total(), delta.hits + delta.misses);
    }

    #[test]
    fn analysis_and_alias_payloads_round_trip() {
        let a = Analysis {
            per_counter: vec![
                bpred_analysis::CounterBias {
                    st: 5,
                    snt: 2,
                    wb: 1,
                },
                bpred_analysis::CounterBias::default(),
            ],
            class_changes: bpred_analysis::ClassChanges {
                dominant: 3,
                non_dominant: 1,
                wb: 2,
            },
            breakdown: bpred_analysis::MispredictionBreakdown {
                st: 10,
                snt: 20,
                wb: 30,
                branches: 1000,
            },
            run: RunResult {
                branches: 1000,
                mispredictions: 60,
            },
            streams: 17,
        };
        let decoded = decode_analysis(&encode_analysis(&a)).expect("round-trip");
        assert_eq!(decoded.per_counter, a.per_counter);
        assert_eq!(decoded.class_changes, a.class_changes);
        assert_eq!(decoded.breakdown, a.breakdown);
        assert_eq!(decoded.run, a.run);
        assert_eq!(decoded.streams, a.streams);
        assert!(decode_analysis(&encode_analysis(&a)[1..]).is_none());

        let r = AliasReport {
            streams: 9,
            counters_used: 8,
            counters_shared: 3,
            harmless_pairs: 4,
            destructive_pairs: 2,
            neutral_pairs: 1,
            harmless_weight: 400,
            destructive_weight: 200,
            neutral_weight: 100,
        };
        assert_eq!(decode_alias(&encode_alias(&r)), Some(r));
        assert_eq!(decode_alias(&[1, 2, 3]), None);
    }

    #[test]
    fn site_miss_tables_round_trip_through_the_store() {
        let rows = vec![
            bpred_analysis::SiteMisses {
                pc: 0x0040_0010,
                executions: 120,
                mispredictions: 7,
            },
            bpred_analysis::SiteMisses {
                pc: 0x0040_0020,
                executions: 64,
                mispredictions: 0,
            },
        ];
        assert_eq!(
            decode_site_misses(&encode_site_misses(&rows)).as_deref(),
            Some(&rows[..])
        );
        assert_eq!(decode_site_misses(&encode_site_misses(&[])), Some(vec![]));
        assert_eq!(decode_site_misses(&[2, 1, 2, 3]), None, "short payload");
        let job = JobSpec::site_misses(&spec("gshare:s=6,h=6")).job(unique_digest(7));
        let first = cached_site_misses(job, || rows.clone());
        let second = cached_site_misses(job, || panic!("must be served from the store"));
        assert_eq!(first, rows);
        assert_eq!(second, rows);
    }

    #[test]
    fn crafted_site_counts_decode_to_none() {
        // A count word whose row total overflows must read as a miss,
        // not panic (debug) or wrap (release).
        let crafted = [u64::MAX / 2, 1, 2];
        assert_eq!(decode_sites(&crafted), None);
        assert_eq!(decode_site_misses(&crafted), None);
    }

    #[test]
    fn f64_series_round_trip_bit_exactly() {
        let v = vec![0.0, -0.0, 0.1, f64::MIN_POSITIVE, 12.5e300];
        let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            decode_f64s(&encode_f64s(&v))
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            bits
        );
        let job = JobSpec::warmup(&spec("bimodal:s=6"), 128).job(unique_digest(3));
        let first = cached_f64s(job, || v.clone());
        let second = cached_f64s(job, || panic!("must hit"));
        assert_eq!(first, v);
        assert_eq!(second.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), bits);
    }

    #[test]
    fn corrupt_store_files_are_dropped_and_recomputed() {
        let job = JobSpec::alias(&spec("bimodal:s=5")).job(unique_digest(4));
        let r = AliasReport {
            streams: 1,
            ..AliasReport::default()
        };
        assert_eq!(cached_alias(job, || r), r);
        let path = path_of(job).expect("store dir available in tests");
        fs::write(&path, b"BPRSgarbage").expect("overwrite with junk");
        let recomputed = cached_alias(job, || AliasReport {
            streams: 2,
            ..AliasReport::default()
        });
        assert_eq!(recomputed.streams, 2, "corrupt entry must not be served");
        // And the recompute healed the entry.
        assert_eq!(
            cached_alias(job, || panic!("healed entry must hit")).streams,
            2
        );
    }

    #[test]
    fn clear_and_disk_stats_agree() {
        // Insert a result, then check it is visible to stats.
        let job = JobSpec::rate(&spec("btfnt")).job(unique_digest(5));
        insert(job, &[7]);
        let stats = disk_stats();
        assert!(stats.files >= 1, "{stats:?}");
        assert!(stats.bytes >= 16, "{stats:?}");
        // `clear` is exercised against a scratch directory rather than
        // the shared one (other tests are writing it concurrently).
        let scratch =
            std::env::temp_dir().join(format!("bpred-store-clear-{}", std::process::id()));
        fs::create_dir_all(&scratch).expect("scratch dir");
        fs::write(scratch.join("a.bpres"), b"x").expect("scratch file");
        assert_eq!(dir_stats(&scratch).files, 1);
        fs::remove_dir_all(&scratch).ok();
    }
}
