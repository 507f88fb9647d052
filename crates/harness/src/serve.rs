//! `repro serve`: a long-lived prediction service over a local TCP
//! socket, built on the incremental engine sessions.
//!
//! # Shape
//!
//! One **acceptor** (the calling thread) hands each client connection
//! to a scoped **reader** thread, which owns the socket protocol. The
//! actual measurement state — one [`PackedTraceBuilder`] plus one
//! engine session per in-flight stream — lives in a fixed pool of
//! **shard workers**; a connection's tenant id picks its shard
//! (`tenant % shards`), so one tenant's chunks are always applied in
//! order by one worker, while different tenants proceed in parallel.
//! Readers talk to workers through a bounded [`Mailbox`]: a full
//! mailbox blocks the reader (and therefore the client's socket) —
//! that is the backpressure policy, clients can never outrun the
//! engines by more than [`MAILBOX_CAPACITY`] chunks per shard.
//!
//! # Protocol (line-oriented, binary chunk bodies)
//!
//! ```text
//! C: PREDICT <spec> <digest16hex>         declare the stream
//! S: HIT <branches> <mispredictions>      served from the result store
//!    -- or --
//! S: SEND                                 stream the trace
//! C: FEED <n>                             n 18-byte records follow
//! C: <n * 18 bytes>                       pc u64le, target u64le, taken u8, kind u8
//! C: ... more FEED chunks ...
//! C: DONE
//! S: DONE <branches> <mispredictions>     measured, now in the store
//!    -- or --
//! S: ERR <message>                        digest mismatch etc.; nothing stored
//! ```
//!
//! A protocol violation — a line longer than 4 KiB, a malformed or
//! oversized `FEED`, anything but `FEED`/`DONE` mid-stream
//! — is answered `ERR <message>` and closes the connection; the stream
//! in flight is dropped and nothing is stored.
//!
//! `STATS` returns a live line-protocol snapshot (`<key> <value>` per
//! line, terminated by `END`) of the PR 3/PR 6 metrics counters —
//! uptime, connections, branches/s, store hits, per-engine drive
//! counters — instead of a post-hoc manifest. `SHUTDOWN` begins a
//! graceful stop: no new connections, in-flight streams drain to
//! completion, workers consume every queued chunk (the mailbox
//! delivers queued items even after close), and [`Server::run`]
//! returns a final [`ServeSummary`].
//!
//! # Why the store stays sound
//!
//! The client *declares* the trace digest up front — that probe is what
//! serves repeats straight from the PR 4 store under the **same**
//! `Kind::Rate` job keys the sweep engines use. On a miss the worker
//! recomputes the digest from the streamed records
//! ([`PackedTraceBuilder::running_digest`]) and refuses to publish
//! unless it matches the declared key: a truncated, reordered, or
//! mislabeled stream gets an `ERR` and the store is untouched, so a
//! store entry is never torn and never keyed by a digest its payload
//! does not hash to. Results are bit-identical to the batch engines
//! (chunk boundaries are unobservable — see the session property
//! tests), which is why serving and sweeping can share one key space
//! with `ENGINE_EPOCH` unchanged.
//!
//! All shared state (mailboxes, totals, the shutdown latch) goes
//! through the [`crate::sync`] facade, so the `lint/sync` rule applies
//! and the mailbox protocol is model-checked in `bpred-race` (the
//! `race/serve-*` verify passes).

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpred_analysis::metrics::{self, EngineSnapshot};
use bpred_analysis::session::{PackedSession, SlicedSession};
use bpred_analysis::sliced::Lane;
use bpred_analysis::RunResult;
use bpred_core::{Predictor, PredictorSpec};
use bpred_trace::{
    BranchKind, BranchRecord, PackedRecord, PackedTraceBuilder, Trace, SEAL_RECORDS,
};

use crate::store::{self, Job, JobSpec, StoreCounters};
use crate::sync::{thread, Mutex};

/// Default listen address of `repro serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4617";

/// Bounded queue depth per shard mailbox. A full mailbox blocks the
/// sending reader — the backpressure that stops clients outrunning the
/// engines.
pub const MAILBOX_CAPACITY: usize = 64;

/// Wire size of one branch record: pc `u64le` + target `u64le` +
/// taken `u8` + kind tag `u8`.
pub const WIRE_RECORD_BYTES: usize = 18;

/// Upper bound on records per `FEED` chunk, bounding per-chunk
/// allocation on the server.
const MAX_FEED_RECORDS: usize = 1 << 20;

/// Longest command or `FEED` line the server reads, newline included.
/// The longest legal line is a `PREDICT` with a spec and a 16-digit hex
/// digest; a longer one is answered `ERR` and the connection closed,
/// so a client that never sends a newline cannot grow a buffer.
const MAX_LINE_BYTES: usize = 4096;

/// Socket read timeout: a stalled peer cannot pin a reader forever.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a reader waits for its shard to finish a stream.
const REPLY_DEADLINE: Duration = Duration::from_secs(300);

// ---------------------------------------------------------------------
// Mailbox: the bounded reader→worker queue.
// ---------------------------------------------------------------------

/// A bounded multi-producer queue with explicit close, built on the
/// [`crate::sync`] facade only (one mutex, no raw atomics) so the
/// model checker can schedule every operation.
///
/// Contract (model-checked as `race/serve-mailbox` / `race/serve-shutdown`):
///
/// * `try_send` never exceeds `capacity` queued items and never
///   enqueues after close;
/// * every accepted item is delivered exactly once, in send order per
///   producer;
/// * after [`close`](Mailbox::close), receivers still **drain** every
///   queued item before seeing the closed state — the pop comes before
///   the closed check, which is what makes graceful shutdown lossless.
#[derive(Debug)]
pub struct Mailbox<T> {
    state: Mutex<MailboxState<T>>,
    capacity: usize,
}

#[derive(Debug)]
struct MailboxState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// Why a [`Mailbox::try_send`] was refused; the item comes back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity — retry later (backpressure).
    Full(T),
    /// The mailbox is closed — the item can never be delivered.
    Closed(T),
}

/// Why a [`Mailbox::try_recv`] returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now; more may arrive.
    Empty,
    /// Closed and fully drained; nothing will ever arrive.
    Closed,
}

impl<T> Mailbox<T> {
    /// An empty open mailbox holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a mailbox needs capacity for at least one item"
        );
        Mailbox {
            state: Mutex::new(MailboxState {
                queue: VecDeque::new(),
                closed: false,
            }),
            capacity,
        }
    }

    /// Enqueues without blocking, or returns the item with the reason.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(TrySendError::Closed(item));
        }
        if state.queue.len() >= self.capacity {
            return Err(TrySendError::Full(item));
        }
        state.queue.push_back(item);
        Ok(())
    }

    /// Enqueues, yielding while the queue is full (backpressure);
    /// returns the item if the mailbox closes before it fits.
    pub fn send(&self, mut item: T) -> Result<(), T> {
        loop {
            match self.try_send(item) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed(i)) => return Err(i),
                Err(TrySendError::Full(i)) => {
                    item = i;
                    thread::yield_now();
                }
            }
        }
    }

    /// Dequeues without blocking. Queued items are still delivered
    /// after close — the drain guarantee.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.state.lock();
        // Pop BEFORE consulting `closed`: anything accepted before the
        // close must still come out.
        if let Some(item) = state.queue.pop_front() {
            return Ok(item);
        }
        if state.closed {
            Err(TryRecvError::Closed)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Dequeues, yielding while empty; `None` once closed **and**
    /// drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            match self.try_recv() {
                Ok(item) => return Some(item),
                Err(TryRecvError::Closed) => return None,
                Err(TryRecvError::Empty) => thread::yield_now(),
            }
        }
    }

    /// Closes the mailbox: senders are refused from now on, receivers
    /// drain what is queued and then see [`TryRecvError::Closed`].
    pub fn close(&self) {
        self.state.lock().closed = true;
    }
}

// ---------------------------------------------------------------------
// Requests, replies, tenant sessions.
// ---------------------------------------------------------------------

/// Single-use reply channel from a shard worker back to a reader.
#[derive(Debug, Default)]
struct ReplySlot {
    value: Mutex<Option<Result<RunResult, String>>>,
}

impl ReplySlot {
    fn put(&self, value: Result<RunResult, String>) {
        *self.value.lock() = Some(value);
    }

    fn wait(&self, deadline: Duration) -> Option<Result<RunResult, String>> {
        let started = Instant::now();
        loop {
            if let Some(value) = self.value.lock().take() {
                return Some(value);
            }
            if started.elapsed() > deadline {
                return None;
            }
            thread::yield_now();
        }
    }
}

/// One reader→worker message.
#[derive(Debug)]
enum Request {
    /// Start a tenant stream: fresh builder + engine session.
    Open {
        tenant: u64,
        spec: PredictorSpec,
        job: Job,
    },
    /// Apply one chunk of replayed records, in stream order.
    Chunk {
        tenant: u64,
        records: Vec<BranchRecord>,
    },
    /// Verify the streamed digest, publish, and reply with the result.
    Finish {
        tenant: u64,
        declared_digest: u64,
        reply: Arc<ReplySlot>,
    },
    /// Drop a stream whose connection died mid-flight.
    Cancel { tenant: u64 },
}

/// The engine half of a tenant stream: a single-lane session for the
/// gshare family and shared-index bi-mode, a boxed packed session for
/// everything else — the same [`Lane::of`] dispatch the sweep path
/// uses.
#[derive(Debug)]
enum TenantEngine {
    Sliced(SlicedSession),
    Packed(PackedSession<Box<dyn Predictor>, dyn Predictor>),
}

impl TenantEngine {
    fn of(spec: &PredictorSpec) -> TenantEngine {
        match Lane::of(spec) {
            Some(lane) => TenantEngine::Sliced(SlicedSession::new(&[lane])),
            None => TenantEngine::Packed(PackedSession::<_, dyn Predictor>::new(spec.build())),
        }
    }

    fn feed(&mut self, records: Vec<PackedRecord>) {
        match self {
            TenantEngine::Sliced(s) => s.feed(records),
            TenantEngine::Packed(s) => s.feed(records),
        }
    }

    fn finish(self) -> RunResult {
        match self {
            TenantEngine::Sliced(s) => s.finish().pop().unwrap_or_default(),
            TenantEngine::Packed(s) => s.finish(),
        }
    }
}

/// One in-flight stream inside a shard worker: the chunked trace
/// builder (running digest + packing) feeding an engine session.
#[derive(Debug)]
struct Tenant {
    job: Job,
    builder: PackedTraceBuilder,
    engine: TenantEngine,
    error: Option<String>,
}

impl Tenant {
    fn open(tenant: u64, spec: &PredictorSpec, job: Job) -> Tenant {
        Tenant {
            job,
            builder: PackedTraceBuilder::new(&format!("serve-tenant-{tenant}")),
            engine: TenantEngine::of(spec),
            error: None,
        }
    }

    fn feed(&mut self, records: &[BranchRecord]) {
        if self.error.is_some() {
            return;
        }
        let mut packed = Vec::with_capacity(records.len());
        for r in records {
            match self.builder.append(r) {
                Ok(Some(p)) => packed.push(p),
                Ok(None) => {}
                Err(e) => {
                    self.error = Some(e.to_string());
                    return;
                }
            }
        }
        self.engine.feed(packed);
    }

    fn finish(self, declared_digest: u64, shared: &Shared) -> Result<RunResult, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let streamed = self.builder.running_digest();
        if streamed != declared_digest {
            // The store key was derived from the declared digest; a
            // stream that hashes differently must never publish under
            // it — that is the no-torn-entry guarantee.
            return Err(format!(
                "digest mismatch: declared {declared_digest:016x}, streamed {streamed:016x}; nothing stored"
            ));
        }
        let result = self.engine.finish();
        store::insert_run(self.job, &result);
        let mut totals = shared.totals.lock();
        totals.streams_finished += 1;
        totals.branches_streamed += result.branches;
        Ok(result)
    }
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    connections: u64,
    streams_finished: u64,
    branches_streamed: u64,
    chunks: u64,
    backpressure_chunks: u64,
}

struct Shared {
    addr: SocketAddr,
    shards: Vec<Mailbox<Request>>,
    totals: Mutex<Totals>,
    shutdown: Mutex<bool>,
    started: Instant,
    base_engines: EngineSnapshot,
    base_store: StoreCounters,
}

/// What a completed serve run did, returned by [`Server::run`] after a
/// graceful shutdown.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Streams measured to completion (store hits not included).
    pub streams_finished: u64,
    /// Conditional branches retired by completed streams.
    pub branches_streamed: u64,
    /// Result-store activity attributable to this serve run.
    pub store: StoreCounters,
    /// The final stats snapshot, in the same line protocol `STATS`
    /// serves live.
    pub stats: String,
}

/// A bound-but-not-yet-running prediction server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shards: usize,
}

impl Server {
    /// Binds `addr` (e.g. [`DEFAULT_ADDR`], or `127.0.0.1:0` for an
    /// ephemeral port) with `shards` worker threads (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, shards: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            shards: shards.max(1),
        })
    }

    /// The bound address (resolves the port when bound to port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop until a client issues `SHUTDOWN`, then
    /// drains: in-flight connections finish, shard mailboxes are
    /// closed and fully consumed, and the final metrics snapshot is
    /// returned.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures; per-connection errors only
    /// terminate their own connection.
    pub fn run(self) -> io::Result<ServeSummary> {
        let shared = Shared {
            addr: self.addr,
            shards: (0..self.shards)
                .map(|_| Mailbox::new(MAILBOX_CAPACITY))
                .collect(),
            totals: Mutex::new(Totals::default()),
            shutdown: Mutex::new(false),
            started: Instant::now(),
            base_engines: metrics::engine_snapshot(),
            base_store: store::counters(),
        };
        let listener = self.listener;
        let accepted: io::Result<()> = thread::scope(|scope| {
            let mut workers = Vec::new();
            for shard in &shared.shards {
                let sh = &shared;
                workers.push(scope.spawn(move || worker(shard, sh)));
            }
            let mut readers = Vec::new();
            let mut tenant = 0u64;
            let result = loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(e),
                };
                if *shared.shutdown.lock() {
                    // The wake-up (or a late) connection: stop taking
                    // work, keep what is in flight.
                    drop(stream);
                    break Ok(());
                }
                tenant += 1;
                shared.totals.lock().connections += 1;
                let sh = &shared;
                readers.push(scope.spawn(move || {
                    // Per-connection protocol errors end that
                    // connection only; the server keeps serving.
                    let _ = handle_connection(stream, tenant, sh);
                }));
            };
            // Graceful drain, in dependency order: readers first (they
            // may still be queueing chunks), then close the mailboxes,
            // then the workers (recv drains queued items after close).
            for reader in readers {
                let _ = reader.join();
            }
            for shard in &shared.shards {
                shard.close();
            }
            for w in workers {
                let _ = w.join();
            }
            result
        });
        accepted?;
        let totals = *shared.totals.lock();
        Ok(ServeSummary {
            connections: totals.connections,
            streams_finished: totals.streams_finished,
            branches_streamed: totals.branches_streamed,
            store: store::counters().since(&shared.base_store),
            stats: stats_text(&shared),
        })
    }
}

/// Shard worker: owns this shard's tenant sessions; applies requests
/// strictly in mailbox order, which is stream order per tenant.
fn worker(mailbox: &Mailbox<Request>, shared: &Shared) {
    let mut tenants: HashMap<u64, Tenant> = HashMap::new();
    while let Some(request) = mailbox.recv() {
        match request {
            Request::Open { tenant, spec, job } => {
                tenants.insert(tenant, Tenant::open(tenant, &spec, job));
            }
            Request::Chunk { tenant, records } => {
                if let Some(t) = tenants.get_mut(&tenant) {
                    t.feed(&records);
                }
            }
            Request::Finish {
                tenant,
                declared_digest,
                reply,
            } => {
                let outcome = match tenants.remove(&tenant) {
                    Some(t) => t.finish(declared_digest, shared),
                    None => Err("unknown tenant stream".to_owned()),
                };
                reply.put(outcome);
            }
            Request::Cancel { tenant } => {
                tenants.remove(&tenant);
            }
        }
    }
    // recv() returned None: closed AND drained. Streams still open here
    // were abandoned by their clients; their state is dropped without
    // ever touching the store.
}

fn handle_connection(stream: TcpStream, tenant: u64, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let served = serve_commands(&mut reader, &mut writer, tenant, shared);
    if let Err(e) = &served {
        if e.kind() == io::ErrorKind::InvalidData {
            // A protocol violation closes the connection; say why first.
            let _ = writeln!(writer, "ERR {e}");
        }
    }
    served
}

fn serve_commands(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    tenant: u64,
    shared: &Shared,
) -> io::Result<()> {
    while let Some(line) = read_line_bounded(reader)? {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["PREDICT", spec, digest] => {
                handle_predict(spec, digest, tenant, reader, writer, shared)?;
            }
            ["STATS"] => writer.write_all(stats_text(shared).as_bytes())?,
            ["SHUTDOWN"] => {
                *shared.shutdown.lock() = true;
                writer.write_all(b"OK\n")?;
                // Wake the acceptor so it observes the latch.
                let _ = TcpStream::connect(shared.addr);
                return Ok(());
            }
            [] => {}
            _ => writeln!(writer, "ERR unknown command `{}`", line.trim())?,
        }
    }
    Ok(()) // client closed
}

/// Reads one protocol line of at most [`MAX_LINE_BYTES`] bytes: `None`
/// at end of input, an [`io::ErrorKind::InvalidData`] error for a
/// longer line or one that is not UTF-8.
fn read_line_bounded(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.len() == MAX_LINE_BYTES && !line.ends_with(b"\n") {
        return Err(invalid(format!("line longer than {MAX_LINE_BYTES} bytes")));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| invalid("line is not UTF-8"))
}

fn handle_predict(
    spec: &str,
    digest: &str,
    tenant: u64,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
) -> io::Result<()> {
    let spec: PredictorSpec = match spec.parse() {
        Ok(spec) => spec,
        Err(e) => return writeln!(writer, "ERR {e}"),
    };
    let declared_digest = match u64::from_str_radix(digest, 16) {
        Ok(d) => d,
        Err(_) => return writeln!(writer, "ERR bad digest `{digest}` (want hex)"),
    };
    let job = JobSpec::rate(&spec).job(declared_digest);
    if let Some(result) = store::lookup_run(job) {
        // Repeated digest: replay the stored counts, no recomputation,
        // no streaming.
        return writeln!(writer, "HIT {} {}", result.branches, result.mispredictions);
    }
    writeln!(writer, "SEND")?;
    let shard_index = usize::try_from(tenant).unwrap_or(usize::MAX) % shared.shards.len();
    let shard = &shared.shards[shard_index];
    if shard.send(Request::Open { tenant, spec, job }).is_err() {
        return writeln!(writer, "ERR server is shutting down");
    }
    match stream_chunks(reader, tenant, declared_digest, shard, shared) {
        Ok(Ok(result)) => writeln!(writer, "DONE {} {}", result.branches, result.mispredictions),
        Ok(Err(message)) => writeln!(writer, "ERR {message}"),
        Err(e) => {
            // The connection died mid-stream: free the shard's state.
            let _ = shard.send(Request::Cancel { tenant });
            Err(e)
        }
    }
}

/// Reads `FEED`/`DONE` for one declared stream, forwarding chunks to
/// the shard with backpressure; returns the shard's final verdict.
fn stream_chunks(
    reader: &mut BufReader<TcpStream>,
    tenant: u64,
    declared_digest: u64,
    shard: &Mailbox<Request>,
    shared: &Shared,
) -> io::Result<Result<RunResult, String>> {
    loop {
        let line = read_line_bounded(reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "client closed mid-stream")
        })?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["FEED", count] => {
                let count: usize = count
                    .parse()
                    .map_err(|_| invalid(format!("bad FEED count `{count}`")))?;
                if count > MAX_FEED_RECORDS {
                    return Err(invalid(format!(
                        "FEED of {count} records exceeds the {MAX_FEED_RECORDS} cap"
                    )));
                }
                let mut buf = vec![0u8; count * WIRE_RECORD_BYTES];
                reader.read_exact(&mut buf)?;
                let records = decode_records(&buf).map_err(invalid)?;
                let mut item = Request::Chunk { tenant, records };
                let mut waited = false;
                loop {
                    match shard.try_send(item) {
                        Ok(()) => break,
                        Err(TrySendError::Full(back)) => {
                            // Backpressure: hold the client's socket
                            // until the shard catches up.
                            item = back;
                            waited = true;
                            thread::yield_now();
                        }
                        Err(TrySendError::Closed(_)) => {
                            return Ok(Err("server is shutting down".to_owned()));
                        }
                    }
                }
                let mut totals = shared.totals.lock();
                totals.chunks += 1;
                if waited {
                    totals.backpressure_chunks += 1;
                }
            }
            ["DONE"] => {
                let reply = Arc::new(ReplySlot::default());
                if shard
                    .send(Request::Finish {
                        tenant,
                        declared_digest,
                        reply: Arc::clone(&reply),
                    })
                    .is_err()
                {
                    return Ok(Err("server is shutting down".to_owned()));
                }
                return Ok(reply
                    .wait(REPLY_DEADLINE)
                    .unwrap_or_else(|| Err("timed out waiting for the shard result".to_owned())));
            }
            _ => {
                return Err(invalid(format!(
                    "expected FEED or DONE, got `{}`",
                    line.trim()
                )))
            }
        }
    }
}

fn stats_text(shared: &Shared) -> String {
    let totals = *shared.totals.lock();
    let uptime = shared.started.elapsed().as_secs_f64().max(1e-9);
    let engines = metrics::engine_snapshot().since(&shared.base_engines);
    let store = store::counters().since(&shared.base_store);
    let mut out = String::new();
    let _ = writeln!(out, "serve_uptime_seconds {uptime:.3}");
    let _ = writeln!(out, "serve_shards {}", shared.shards.len());
    let _ = writeln!(out, "serve_connections_total {}", totals.connections);
    let _ = writeln!(out, "serve_streams_finished {}", totals.streams_finished);
    let _ = writeln!(out, "serve_chunks_total {}", totals.chunks);
    let _ = writeln!(
        out,
        "serve_backpressure_chunks {}",
        totals.backpressure_chunks
    );
    let _ = writeln!(out, "serve_branches_streamed {}", totals.branches_streamed);
    let _ = writeln!(
        out,
        "serve_branches_per_sec {:.0}",
        totals.branches_streamed as f64 / uptime
    );
    let _ = writeln!(out, "store_hits {}", store.hits);
    let _ = writeln!(out, "store_misses {}", store.misses);
    let _ = writeln!(out, "store_inserts {}", store.inserts);
    for (engine, drive) in engines.iter() {
        let _ = writeln!(out, "engine_{}_branches {}", engine.label(), drive.branches);
        let _ = writeln!(
            out,
            "engine_{}_mbranches_per_sec {:.3}",
            engine.label(),
            drive.mbranches_per_sec()
        );
    }
    out.push_str("END\n");
    out
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn decode_records(buf: &[u8]) -> Result<Vec<BranchRecord>, String> {
    let mut out = Vec::with_capacity(buf.len() / WIRE_RECORD_BYTES);
    for frame in buf.chunks_exact(WIRE_RECORD_BYTES) {
        let pc = u64::from_le_bytes(frame[0..8].try_into().expect("frame is 18 bytes")); // panic-audited: chunks_exact yields exact frames
        let target = u64::from_le_bytes(frame[8..16].try_into().expect("frame is 18 bytes")); // panic-audited: chunks_exact yields exact frames
        let kind = BranchKind::from_tag(frame[17])
            .ok_or_else(|| format!("bad branch-kind tag {}", frame[17]))?;
        out.push(BranchRecord {
            pc,
            target,
            taken: frame[16] != 0,
            kind,
        });
    }
    Ok(out)
}

fn encode_records(records: &[BranchRecord]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(records.len() * WIRE_RECORD_BYTES);
    for r in records {
        buf.extend_from_slice(&r.pc.to_le_bytes());
        buf.extend_from_slice(&r.target.to_le_bytes());
        buf.push(u8::from(r.taken));
        buf.push(r.kind.tag());
    }
    buf
}

// ---------------------------------------------------------------------
// Client helpers (used by examples/serve_client.rs, the CI smoke job
// and the tests below).
// ---------------------------------------------------------------------

/// A served prediction result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReply {
    /// Branch and misprediction counts, bit-identical to a local
    /// one-shot measurement of the same trace.
    pub result: RunResult,
    /// Whether the server answered from the result store without
    /// streaming (`HIT`) rather than measuring (`DONE`).
    pub store_served: bool,
}

/// Declares `trace` under `spec`, streams it if the server misses, and
/// returns the measured (or store-served) result.
///
/// # Errors
///
/// Fails on connect/protocol errors or a server-side `ERR` verdict.
pub fn client_run(addr: &str, spec: &PredictorSpec, trace: &Trace) -> io::Result<ClientReply> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_DEADLINE))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writeln!(writer, "PREDICT {} {:016x}", spec, trace.digest())?;
    let line = read_reply_line(&mut reader)?;
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        ["HIT", branches, missed] => {
            return Ok(ClientReply {
                result: parse_counts(branches, missed)?,
                store_served: true,
            })
        }
        ["SEND"] => {}
        _ => return Err(invalid(format!("unexpected reply `{line}`"))),
    }
    for chunk in trace.records().chunks(SEAL_RECORDS) {
        writeln!(writer, "FEED {}", chunk.len())?;
        writer.write_all(&encode_records(chunk))?;
    }
    writeln!(writer, "DONE")?;
    let line = read_reply_line(&mut reader)?;
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        ["DONE", branches, missed] => Ok(ClientReply {
            result: parse_counts(branches, missed)?,
            store_served: false,
        }),
        _ => Err(invalid(format!("unexpected reply `{line}`"))),
    }
}

/// Fetches the live stats snapshot (up to and including the `END`
/// terminator line).
///
/// # Errors
///
/// Fails on connect or protocol errors.
pub fn client_stats(addr: &str) -> io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writeln!(writer, "STATS")?;
    let mut out = String::new();
    loop {
        let line = read_reply_line(&mut reader)?;
        out.push_str(&line);
        out.push('\n');
        if line == "END" {
            return Ok(out);
        }
    }
}

/// Asks the server to shut down gracefully.
///
/// # Errors
///
/// Fails on connect or protocol errors.
pub fn client_shutdown(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writeln!(writer, "SHUTDOWN")?;
    let line = read_reply_line(&mut reader)?;
    if line == "OK" {
        Ok(())
    } else {
        Err(invalid(format!("unexpected reply `{line}`")))
    }
}

fn read_reply_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(line.trim_end().to_owned())
}

fn parse_counts(branches: &str, missed: &str) -> io::Result<RunResult> {
    Ok(RunResult {
        branches: branches
            .parse()
            .map_err(|_| invalid(format!("bad count `{branches}`")))?,
        mispredictions: missed
            .parse()
            .map_err(|_| invalid(format!("bad count `{missed}`")))?,
    })
}

/// Parses a stats snapshot into key/value pairs, validating the line
/// protocol (every line `<key> <numeric value>`, terminated by `END`).
///
/// # Errors
///
/// Returns a message naming the malformed line.
pub fn parse_stats(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut terminated = false;
    for line in text.lines() {
        if terminated {
            return Err(format!("content after END: `{line}`"));
        }
        if line == "END" {
            terminated = true;
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed stats line `{line}`"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("non-numeric stats value in `{line}`"))?;
        if !value.is_finite() {
            return Err(format!("non-finite stats value in `{line}`"));
        }
        out.push((key.to_owned(), value));
    }
    if terminated {
        Ok(out)
    } else {
        Err("stats snapshot missing the END terminator".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::PackedTrace;

    fn lcg_trace(name: &str, seed: u64, len: u64) -> Trace {
        let mut t = Trace::new(name);
        let mut x = seed | 1;
        for i in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x9000 + (x % 33) * 4;
            let target = if x.is_multiple_of(3) {
                pc - 0x60
            } else {
                pc + 0x60
            };
            t.push(BranchRecord::conditional(pc, target, (x >> 22) & 1 == 1));
            if i % 17 == 0 {
                t.push(BranchRecord::unconditional(pc + 4, 0x9000));
            }
        }
        t
    }

    fn unique_seed(tag: u64) -> u64 {
        tag ^ (u64::from(std::process::id()) << 20)
    }

    fn local_reference(trace: &Trace, spec: &PredictorSpec) -> RunResult {
        let packed = PackedTrace::build(trace).expect("sites fit");
        bpred_analysis::measure_packed(&packed, spec.build().as_mut())
    }

    fn start_server(shards: usize) -> (String, std::thread::JoinHandle<io::Result<ServeSummary>>) {
        let server = Server::bind("127.0.0.1:0", shards).expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    #[test]
    fn mailbox_backpressure_close_and_drain() {
        let mb: Mailbox<u32> = Mailbox::new(2);
        assert_eq!(mb.try_send(1), Ok(()));
        assert_eq!(mb.try_send(2), Ok(()));
        assert_eq!(mb.try_send(3), Err(TrySendError::Full(3)));
        mb.close();
        assert_eq!(mb.try_send(4), Err(TrySendError::Closed(4)));
        // Drain guarantee: both accepted items come out after close,
        // in order, and only then the closed state.
        assert_eq!(mb.try_recv(), Ok(1));
        assert_eq!(mb.recv(), Some(2));
        assert_eq!(mb.try_recv(), Err(TryRecvError::Closed));
        assert_eq!(mb.recv(), None);
    }

    #[test]
    fn wire_codec_roundtrips_every_kind() {
        let records = vec![
            BranchRecord::conditional(0x1234, 0x1000, true),
            BranchRecord::conditional(u64::MAX, 0, false),
            BranchRecord::unconditional(0x2000, 0x3000),
            BranchRecord {
                pc: 7,
                target: 9,
                taken: true,
                kind: BranchKind::Return,
            },
        ];
        let decoded = decode_records(&encode_records(&records)).expect("round-trips");
        assert_eq!(decoded, records);
        assert!(decode_records(&[0u8; 17])
            .expect("short tail ignored by chunks_exact")
            .is_empty());
        let mut bad = encode_records(&records[..1]);
        bad[17] = 9;
        assert!(decode_records(&bad).is_err(), "bad kind tag must refuse");
    }

    #[test]
    fn stats_parser_accepts_the_protocol_and_rejects_garbage() {
        let ok = "a 1\nb 2.5\nEND\n";
        let parsed = parse_stats(ok).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert!(parse_stats("a 1\n").is_err(), "missing END");
        assert!(parse_stats("a one\nEND\n").is_err(), "non-numeric");
        assert!(parse_stats("noval\nEND\n").is_err(), "no value");
        assert!(parse_stats("a 1\nEND\nb 2\n").is_err(), "after END");
    }

    #[test]
    fn serves_concurrent_clients_with_store_hits_and_live_stats() {
        let (addr, handle) = start_server(2);
        let specs = [
            "gshare:s=7,h=7",
            "bimodal:s=6",
            "bimode:d=5",
            "gshare:s=6,h=2",
        ];
        let traces: Vec<Trace> = (0..4)
            .map(|i| {
                lcg_trace(
                    &format!("serve-{i}"),
                    unique_seed(0x5E41 + i),
                    3000 + 500 * i,
                )
            })
            .collect();
        // >= 4 concurrent clients, each streaming its own tenant.
        let replies: Vec<ClientReply> = std::thread::scope(|s| {
            let handles: Vec<_> = specs
                .iter()
                .zip(&traces)
                .map(|(spec, trace)| {
                    let addr = addr.clone();
                    s.spawn(move || {
                        let spec: PredictorSpec = spec.parse().expect("parses");
                        client_run(&addr, &spec, trace).expect("serve roundtrip")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for ((spec, trace), reply) in specs.iter().zip(&traces).zip(&replies) {
            let spec: PredictorSpec = spec.parse().expect("parses");
            assert_eq!(
                reply.result,
                local_reference(trace, &spec),
                "served result must be bit-identical for {spec}"
            );
        }
        // A repeated digest must be served from the store, without
        // recomputation, with identical counts.
        let spec: PredictorSpec = specs[0].parse().expect("parses");
        let again = client_run(&addr, &spec, &traces[0]).expect("repeat roundtrip");
        assert!(again.store_served, "repeated digest must hit the store");
        assert_eq!(again.result, replies[0].result);
        // Live stats must parse and report the traffic.
        let stats = client_stats(&addr).expect("stats");
        let parsed = parse_stats(&stats).expect("stats parse");
        let get = |key: &str| -> f64 {
            parsed
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("stats missing `{key}`:\n{stats}"))
                .1
        };
        assert!(get("serve_connections_total") >= 5.0);
        assert!(get("serve_streams_finished") >= 4.0);
        assert!(get("serve_branches_streamed") >= 3000.0);
        assert!(get("store_hits") >= 1.0);
        assert!(get("store_inserts") >= 4.0);
        assert!(get("serve_branches_per_sec") >= 0.0);
        client_shutdown(&addr).expect("shutdown");
        let summary = handle.join().expect("server thread").expect("clean exit");
        assert!(summary.connections >= 6, "got {summary:?}");
        assert!(summary.streams_finished >= 4, "got {summary:?}");
        assert!(summary.store.hits >= 1, "got {summary:?}");
        parse_stats(&summary.stats).expect("final snapshot parses");
    }

    #[test]
    fn shutdown_drains_an_in_flight_stream_to_completion() {
        let (addr, handle) = start_server(1);
        let spec: PredictorSpec = "gshare:s=6,h=6".parse().expect("parses");
        let trace = lcg_trace("drain", unique_seed(0xD7A1), 2000);
        let records = trace.records();
        let split = records.len() / 2;

        // Open a stream and feed only the first half...
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, "PREDICT {} {:016x}", spec, trace.digest()).expect("send");
        assert_eq!(read_reply_line(&mut reader).expect("reply"), "SEND");
        writeln!(writer, "FEED {split}").expect("send");
        writer
            .write_all(&encode_records(&records[..split]))
            .expect("send");

        // ... request shutdown from a second client mid-stream ...
        client_shutdown(&addr).expect("shutdown");

        // ... then finish the stream: it must drain to a full result.
        writeln!(writer, "FEED {}", records.len() - split).expect("send");
        writer
            .write_all(&encode_records(&records[split..]))
            .expect("send");
        writeln!(writer, "DONE").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        let parts: Vec<&str> = line.split_whitespace().collect();
        let got = match parts.as_slice() {
            ["DONE", b, m] => parse_counts(b, m).expect("counts"),
            _ => panic!("expected DONE, got `{line}`"),
        };
        assert_eq!(got, local_reference(&trace, &spec), "drained result intact");
        drop(writer);
        drop(reader);
        let summary = handle.join().expect("server thread").expect("clean exit");
        assert!(
            summary.streams_finished >= 1,
            "drained stream must be counted: {summary:?}"
        );
        // The drained result must have been published, not torn.
        let job = JobSpec::rate(&spec).job(trace.digest());
        assert_eq!(store::lookup_run(job), Some(got));
    }

    #[test]
    fn digest_mismatch_is_refused_and_never_stored() {
        let (addr, handle) = start_server(1);
        let spec: PredictorSpec = "bimodal:s=5".parse().expect("parses");
        let trace = lcg_trace("mismatch", unique_seed(0xBAD), 600);
        let lying_digest = trace.digest() ^ 0xDEAD_BEEF;

        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, "PREDICT {spec} {lying_digest:016x}").expect("send");
        assert_eq!(read_reply_line(&mut reader).expect("reply"), "SEND");
        let records = trace.records();
        writeln!(writer, "FEED {}", records.len()).expect("send");
        writer.write_all(&encode_records(records)).expect("send");
        writeln!(writer, "DONE").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        assert!(
            line.starts_with("ERR") && line.contains("digest mismatch"),
            "got `{line}`"
        );
        drop(writer);
        drop(reader);
        client_shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean exit");
        // Neither the lying key nor the true key may have an entry.
        assert_eq!(
            store::lookup_run(JobSpec::rate(&spec).job(lying_digest)),
            None,
            "a mismatched stream must never publish"
        );
    }

    /// A seed no earlier run can have used (the store outlives test
    /// processes, and process ids repeat), so a stream of its trace
    /// always misses the store.
    fn fresh_seed(tag: u64) -> u64 {
        let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
        unique_seed(tag) ^ now.map_or(0, |d| d.as_nanos() as u64)
    }

    /// Opens a stream of `trace` under `spec` on a fresh connection and
    /// returns it once the server has answered `SEND`.
    fn open_stream(
        addr: &str,
        spec: &PredictorSpec,
        trace: &Trace,
    ) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, "PREDICT {spec} {:016x}", trace.digest()).expect("send");
        assert_eq!(read_reply_line(&mut reader).expect("reply"), "SEND");
        (reader, writer)
    }

    /// After a refused or abandoned stream of `trace`, nothing is stored
    /// for it and the (single) shard still measures a new connection's
    /// stream of the same trace.
    fn shard_serves_after_an_abandoned_stream(
        addr: &str,
        spec: &PredictorSpec,
        trace: &Trace,
        handle: std::thread::JoinHandle<io::Result<ServeSummary>>,
    ) {
        let again = client_run(addr, spec, trace).expect("a new connection is served");
        assert!(!again.store_served, "the abandoned stream stored nothing");
        assert_eq!(again.result, local_reference(trace, spec));
        client_shutdown(addr).expect("shutdown");
        let summary = handle.join().expect("server thread").expect("clean exit");
        assert_eq!(summary.streams_finished, 1, "got {summary:?}");
    }

    #[test]
    fn a_feed_above_the_record_cap_is_refused_and_the_shard_keeps_serving() {
        let (addr, handle) = start_server(1);
        let spec: PredictorSpec = "gshare:s=6,h=4".parse().expect("parses");
        let trace = lcg_trace("over-cap", fresh_seed(0xCA9), 900);
        let (mut reader, mut writer) = open_stream(&addr, &spec, &trace);
        writeln!(writer, "FEED {}", MAX_FEED_RECORDS + 1).expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        assert!(
            line.starts_with("ERR") && line.contains(&MAX_FEED_RECORDS.to_string()),
            "got `{line}`"
        );
        assert!(
            read_reply_line(&mut reader).is_err(),
            "the connection closes"
        );
        shard_serves_after_an_abandoned_stream(&addr, &spec, &trace, handle);
    }

    #[test]
    fn a_client_that_disconnects_mid_feed_stores_nothing() {
        let (addr, handle) = start_server(1);
        let spec: PredictorSpec = "bimode:d=5".parse().expect("parses");
        let trace = lcg_trace("mid-feed", fresh_seed(0xD15C), 900);
        let (reader, mut writer) = open_stream(&addr, &spec, &trace);
        let records = trace.records();
        writeln!(writer, "FEED {}", records.len()).expect("send");
        let bytes = encode_records(records);
        writer.write_all(&bytes[..bytes.len() / 2]).expect("send");
        drop(writer);
        drop(reader);
        shard_serves_after_an_abandoned_stream(&addr, &spec, &trace, handle);
    }

    #[test]
    fn an_over_long_line_is_refused_and_the_connection_closes() {
        let (addr, handle) = start_server(1);
        let spec: PredictorSpec = "bimodal:s=6".parse().expect("parses");
        let trace = lcg_trace("over-long", fresh_seed(0x10E6), 900);
        let (mut reader, mut writer) = open_stream(&addr, &spec, &trace);
        // A FEED line padded to the bound with no newline: the server
        // reads exactly what was sent and refuses it.
        let line = format!("{:<width$}", "FEED 1", width = MAX_LINE_BYTES);
        writer.write_all(line.as_bytes()).expect("send");
        let reply = read_reply_line(&mut reader).expect("reply");
        assert_eq!(
            reply,
            format!("ERR line longer than {MAX_LINE_BYTES} bytes")
        );
        assert!(
            read_reply_line(&mut reader).is_err(),
            "the connection closes"
        );
        shard_serves_after_an_abandoned_stream(&addr, &spec, &trace, handle);
    }

    #[test]
    fn lines_up_to_the_bound_are_read_whole() {
        let fits = format!("{:<width$}\n", "STATS", width = MAX_LINE_BYTES - 1);
        let mut reader = io::Cursor::new(fits.clone() + "DONE");
        assert_eq!(read_line_bounded(&mut reader).expect("fits"), Some(fits));
        assert_eq!(
            read_line_bounded(&mut reader).expect("tail"),
            Some("DONE".to_owned())
        );
        assert_eq!(read_line_bounded(&mut reader).expect("end"), None);
        let over = "x".repeat(MAX_LINE_BYTES + 1);
        let err = read_line_bounded(&mut io::Cursor::new(over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let bad = read_line_bounded(&mut io::Cursor::new(b"\xff\n".to_vec())).unwrap_err();
        assert_eq!(bad.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn an_unbuildable_spec_is_refused_before_send_and_the_shard_keeps_serving() {
        let (addr, handle) = start_server(2);
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        // Grammatical, but gshare's history may not exceed its index.
        writeln!(writer, "PREDICT gshare:s=4,h=9 0123456789abcdef").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        assert!(
            line.starts_with("ERR") && line.contains("`h` = 9"),
            "got `{line}`"
        );
        // The same connection is the same tenant, so the same shard: it
        // must still measure a valid stream.
        let spec: PredictorSpec = "gshare:s=6,h=6".parse().expect("parses");
        let trace = lcg_trace("after-refusal", unique_seed(0x5AFE), 800);
        writeln!(writer, "PREDICT {spec} {:016x}", trace.digest()).expect("send");
        assert_eq!(read_reply_line(&mut reader).expect("reply"), "SEND");
        let records = trace.records();
        writeln!(writer, "FEED {}", records.len()).expect("send");
        writer.write_all(&encode_records(records)).expect("send");
        writeln!(writer, "DONE").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        let parts: Vec<&str> = line.split_whitespace().collect();
        let got = match parts.as_slice() {
            ["DONE", b, m] => parse_counts(b, m).expect("counts"),
            _ => panic!("expected DONE, got `{line}`"),
        };
        assert_eq!(got, local_reference(&trace, &spec));
        drop(writer);
        drop(reader);
        client_shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn protocol_errors_name_the_problem() {
        let (addr, handle) = start_server(1);
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, "PREDICT nosuchpredictor 00").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        assert!(line.starts_with("ERR"), "got `{line}`");
        assert!(line.contains("unknown predictor"), "got `{line}`");
        writeln!(writer, "PREDICT gshare:s=5,h=5 nothex").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        assert!(line.starts_with("ERR bad digest"), "got `{line}`");
        writeln!(writer, "FROBNICATE").expect("send");
        let line = read_reply_line(&mut reader).expect("reply");
        assert!(line.starts_with("ERR unknown command"), "got `{line}`");
        drop(writer);
        drop(reader);
        client_shutdown(&addr).expect("shutdown");
        handle.join().expect("server thread").expect("clean exit");
    }
}
