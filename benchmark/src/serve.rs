//! The serve-stream workload: a seeded closed loop over two connections
//! against `repro serve`'s [`Server`], running in a worker process of its
//! own so that its CPU time and memory are the server's alone. Each
//! connection sends its next request as soon as it has the reply to the
//! previous one, independently of the other.
//!
//! The load generator speaks the documented line protocol itself, with
//! every trace's digest and `FEED` frames encoded in set-up, so a timed
//! request costs the client one write and one read; the harness's
//! `client_run` re-hashes the trace on every call and would time the
//! client instead of the server.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use bpred_analysis::{measure_packed, RunResult};
use bpred_core::PredictorSpec;
use bpred_harness::manifest::Json;
use bpred_harness::serve::{parse_stats, Server};
use bpred_harness::{parallel, serve};
use bpred_trace::{PackedTrace, Trace, SEAL_RECORDS};
use bpred_workloads::{Rng, Scale, Suite, Workload};

use crate::host::{self, Worker};
use crate::repro::{one_line, JOBS};

/// Store-served repeats per connection per repetition: one request in
/// five is a `HIT`.
const HITS_PER_CONNECTION: usize = 7;

/// Client connections (= client threads) of the closed loop.
pub const CONNECTIONS: usize = 2;

/// How long a client waits for any one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// One trace as the load generator sends it.
#[derive(Debug)]
struct Input {
    digest: u64,
    /// Every `FEED` frame of the trace followed by `DONE`, ready to write.
    stream: Vec<u8>,
    /// The packed trace, for checking replies after the timed window.
    packed: PackedTrace,
}

/// One request of the seeded sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index of the trace.
    pub trace: usize,
    /// Predictor spec in grammar form.
    pub spec: String,
    /// Whether it repeats a pair this connection already completed, so
    /// the store must serve it (`HIT`).
    pub hit: bool,
}

/// Everything the load needs, prepared before timing starts.
#[derive(Debug)]
pub struct Load {
    inputs: Vec<Input>,
    seed: u64,
}

/// Encodes a trace as the wire protocol's `FEED` frames (18-byte
/// records: pc and target `u64le`, taken `u8`, kind tag `u8`), one frame
/// per sealed block, followed by `DONE`.
fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * serve::WIRE_RECORD_BYTES + 64);
    for chunk in trace.records().chunks(SEAL_RECORDS) {
        out.extend_from_slice(format!("FEED {}\n", chunk.len()).as_bytes());
        for r in chunk {
            out.extend_from_slice(&r.pc.to_le_bytes());
            out.extend_from_slice(&r.target.to_le_bytes());
            out.push(u8::from(r.taken));
            out.push(r.kind.tag());
        }
    }
    out.extend_from_slice(b"DONE\n");
    out
}

/// Predictor families of the load: gshare and bimodal run on the sliced
/// engine's single-lane sessions, bi-mode and TAGE on packed sessions.
const FAMILIES: usize = 4;

/// A spec of `family`, sized by `rng` within a narrow band: seeds vary
/// the tables, not the work per request.
fn spec(family: usize, rng: &mut Rng) -> String {
    match family {
        0 => {
            let s = rng.range(11, 14);
            format!("gshare:s={s},h={}", rng.range(s - 4, s + 1))
        }
        1 => format!("bimodal:s={}", rng.range(10, 15)),
        2 => {
            let d = rng.range(10, 13);
            format!("bimode:d={d},c={d},h={d}")
        }
        _ => format!("tage:t=4,h=63,tag=8,e={}", rng.range(9, 11)),
    }
}

/// The request sequence of one repetition over `traces` traces, drawn
/// from `seed`: every trace once with each family, shuffled and dealt
/// to the connections in turn, then [`HITS_PER_CONNECTION`] repeats per
/// connection, each placed after the request it repeats. Every sequence
/// carries the same work, so seeds move the order, the dealing and the
/// table sizes.
#[must_use]
pub fn sequence(seed: u64, traces: usize) -> [Vec<Request>; CONNECTIONS] {
    let mut rng = Rng::new(seed);
    let mut first: Vec<Request> = (0..traces)
        .flat_map(|trace| (0..FAMILIES).map(move |family| (trace, family)))
        .map(|(trace, family)| Request {
            trace,
            spec: spec(family, &mut rng),
            hit: false,
        })
        .collect();
    rng.shuffle(&mut first);
    let mut connections: [Vec<Request>; CONNECTIONS] = Default::default();
    for (i, request) in first.into_iter().enumerate() {
        connections[i % CONNECTIONS].push(request);
    }
    for requests in &mut connections {
        for _ in 0..HITS_PER_CONNECTION {
            let original = rng.below(requests.len() as u64) as usize;
            let at = rng.range(original as u64 + 1, requests.len() as u64 + 1) as usize;
            let repeat = Request {
                hit: true,
                ..requests[original].clone()
            };
            requests.insert(at, repeat);
        }
    }
    connections
}

impl Load {
    /// Generates the SPEC and IBS traces at smoke scale and encodes them
    /// for the run seeded with `seed`.
    #[must_use]
    pub fn prepare(seed: u64) -> Load {
        let mut workloads = Workload::suite_workloads(Suite::SpecInt95);
        workloads.extend(Workload::suite_workloads(Suite::IbsUltrix));
        let inputs = parallel::map(workloads, Some(JOBS), |w| {
            let trace = w.trace(Scale::Smoke);
            Input {
                digest: trace.digest(),
                stream: encode(&trace),
                packed: PackedTrace::build(&trace).expect("workload site tables fit 32-bit ids"),
            }
        });
        Load { inputs, seed }
    }

    /// The request sequence of repetition `rep`. Each repetition draws
    /// its own, so a run's samples span many orders and dealings instead
    /// of repeating one.
    #[must_use]
    pub fn sequence(&self, rep: u64) -> [Vec<Request>; CONNECTIONS] {
        sequence(
            self.seed.wrapping_mul(1_000_003).wrapping_add(rep),
            self.inputs.len(),
        )
    }
}

/// Requests per repetition.
pub const REQUESTS_PER_REP: usize = CONNECTIONS * HITS_PER_CONNECTION + 14 * FAMILIES;

/// What the server answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Served from the store without streaming.
    Hit(RunResult),
    /// Streamed and measured.
    Done(RunResult),
    /// Anything else: the reply line.
    Error(String),
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `PREDICT` sent to final reply read, in seconds.
    pub latency: f64,
    /// `PREDICT` sent to `HIT`/`SEND` read.
    pub probe: f64,
    /// Writing the frames (streamed requests only).
    pub send: f64,
    /// Frames written to `DONE` read (streamed requests only).
    pub finish: f64,
    /// The reply.
    pub reply: Reply,
}

/// One repetition: a fresh server process driven through the whole
/// sequence.
#[derive(Debug)]
pub struct Rep {
    /// Seconds from spawning the server to its ready line.
    pub setup_s: f64,
    /// First request sent to last reply read.
    pub wall_s: f64,
    /// The server's CPU seconds while serving.
    pub cpu_s: f64,
    /// The server's peak resident set.
    pub rss_mb: f64,
    /// The requests each connection sent.
    pub requests: [Vec<Request>; CONNECTIONS],
    /// Samples per connection, in request order.
    pub samples: [Vec<Sample>; CONNECTIONS],
    /// The server's final `STATS` snapshot.
    pub stats: BTreeMap<String, f64>,
}

/// The worker side: `worker serve`. Binds an ephemeral local port with
/// [`JOBS`] shards, reports `ready <addr>`, serves until a client sends
/// `SHUTDOWN`, then prints one JSON line with its CPU time, peak memory
/// and final stats.
///
/// # Errors
///
/// Returns a message if binding or serving fails.
pub fn worker() -> Result<(), String> {
    let server = Server::bind("127.0.0.1:0", JOBS).map_err(|e| e.to_string())?;
    println!("ready {}", server.addr());
    let cpu = host::cpu_seconds();
    let summary = server.run().map_err(|e| e.to_string())?;
    let cpu = host::cpu_seconds() - cpu;
    let stats = parse_stats(&summary.stats)?;
    let result = Json::Obj(vec![
        ("cpu_s".to_owned(), Json::Num(cpu)),
        ("rss_mb".to_owned(), Json::Num(host::peak_rss_mb())),
        (
            "stats".to_owned(),
            Json::Obj(stats.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
    ]);
    println!("{}", one_line(&result));
    Ok(())
}

fn read_reply(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(line.trim_end().to_owned())
}

fn counts(line: &str, word: &str) -> Option<RunResult> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(word) {
        return None;
    }
    let branches = parts.next()?.parse().ok()?;
    let mispredictions = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some(RunResult {
        branches,
        mispredictions,
    })
}

/// An open client connection.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: &str) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Issues one request and times its phases.
    fn request(&mut self, request: &Request, input: &Input) -> io::Result<Sample> {
        let started = Instant::now();
        writeln!(
            self.writer,
            "PREDICT {} {:016x}",
            request.spec, input.digest
        )?;
        let line = read_reply(&mut self.reader)?;
        let probe = started.elapsed().as_secs_f64();
        let mut sample = Sample {
            latency: probe,
            probe,
            send: 0.0,
            finish: 0.0,
            reply: Reply::Error(line.clone()),
        };
        if let Some(result) = counts(&line, "HIT") {
            sample.reply = Reply::Hit(result);
        } else if line == "SEND" {
            self.writer.write_all(&input.stream)?;
            let sent = started.elapsed().as_secs_f64();
            let line = read_reply(&mut self.reader)?;
            sample.latency = started.elapsed().as_secs_f64();
            sample.send = sent - probe;
            sample.finish = sample.latency - sent;
            sample.reply = counts(&line, "DONE").map_or(Reply::Error(line), Reply::Done);
        }
        Ok(sample)
    }
}

/// Runs repetition `rep` of the load against a fresh server whose result
/// store lives under `cache`.
///
/// # Errors
///
/// Fails on any process, connection or protocol-framing failure; wrong
/// answers are recorded in the samples and judged by [`verify`].
pub fn run(exe: &Path, load: &Load, rep: u64, cache: &Path) -> io::Result<Rep> {
    let requests = load.sequence(rep);
    let (worker, addr, setup_s) = Worker::start(exe, &["serve"], cache)?;
    let started = Instant::now();
    let driven: Vec<io::Result<(Connection, Vec<Sample>)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = requests
            .iter()
            .map(|requests| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut connection = Connection::open(addr)?;
                    let samples = requests
                        .iter()
                        .map(|r| connection.request(r, &load.inputs[r.trace]))
                        .collect::<io::Result<Vec<_>>>()?;
                    Ok((connection, samples))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut connections = Vec::new();
    let mut samples: [Vec<Sample>; CONNECTIONS] = Default::default();
    for (slot, result) in samples.iter_mut().zip(driven) {
        let (connection, s) = result?;
        connections.push(connection);
        *slot = s;
    }
    // Close every connection but one, and stop the server over that
    // one: the load never opens more than its connections.
    let mut control = connections.swap_remove(0);
    drop(connections);
    writeln!(control.writer, "SHUTDOWN")?;
    let ok = read_reply(&mut control.reader)?;
    drop(control);
    if ok != "OK" {
        return Err(io::Error::other(format!("SHUTDOWN answered `{ok}`")));
    }
    let line = worker.finish()?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {line}"));
    let json = Json::parse(&line).map_err(|e| bad(&e))?;
    let number = |key: &str| json.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
    let stats = match json.get("stats") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect(),
        _ => return Err(bad("server result without stats")),
    };
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s: number("cpu_s")?,
        rss_mb: number("rss_mb")?,
        requests,
        samples,
        stats,
    })
}

/// Checks every reply after the timed window: each `DONE` against a
/// local packed-engine run of the same (trace, spec), each `HIT`
/// against the `DONE` its connection got earlier for the pair. Returns
/// (checks made, descriptions of the failures).
#[must_use]
pub fn verify(load: &Load, reps: &[Rep]) -> (u64, Vec<String>) {
    let mut pairs: Vec<(usize, &str)> = reps
        .iter()
        .flat_map(|rep| rep.requests.iter().flatten())
        .filter(|r| !r.hit)
        .map(|r| (r.trace, r.spec.as_str()))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let results = parallel::map(pairs.clone(), Some(JOBS), |&(trace, spec)| {
        local(&load.inputs[trace].packed, spec)
    });
    let expected: BTreeMap<(usize, &str), RunResult> = pairs.into_iter().zip(results).collect();
    let mut checked = 0;
    let mut failures = Vec::new();
    for rep in reps {
        for (requests, samples) in rep.requests.iter().zip(&rep.samples) {
            let mut done: Vec<(&Request, RunResult)> = Vec::new();
            for (request, sample) in requests.iter().zip(samples) {
                checked += 1;
                let ok = match (&sample.reply, request.hit) {
                    (Reply::Done(got), false) => {
                        done.push((request, *got));
                        expected.get(&(request.trace, request.spec.as_str())) == Some(got)
                    }
                    (Reply::Hit(got), true) => done
                        .iter()
                        .find(|(r, _)| r.trace == request.trace && r.spec == request.spec)
                        .is_some_and(|(_, earlier)| earlier == got),
                    _ => false,
                };
                if !ok {
                    failures.push(format!(
                        "{} on trace {} (expected {}): {:?}",
                        request.spec,
                        request.trace,
                        if request.hit { "HIT" } else { "DONE" },
                        sample.reply
                    ));
                }
            }
        }
    }
    (checked, failures)
}

fn local(packed: &PackedTrace, spec: &str) -> RunResult {
    spec.parse::<PredictorSpec>().map_or_else(
        |_| RunResult::default(),
        |s| measure_packed(packed, s.build().as_mut()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sequence_is_seeded_complete_and_hits_follow_their_originals() {
        let a = sequence(7, 14);
        assert_eq!(a, sequence(7, 14), "same seed, same inputs");
        assert_ne!(a, sequence(8, 14), "another seed, another sequence");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), REQUESTS_PER_REP);
        for requests in &a {
            for (i, r) in requests.iter().enumerate().filter(|(_, r)| r.hit) {
                assert!(
                    requests[..i]
                        .iter()
                        .any(|o| !o.hit && o.trace == r.trace && o.spec == r.spec),
                    "a HIT repeats a pair its connection completed before"
                );
            }
        }
        // Every trace is requested once with each family, whatever the
        // seed.
        let mut first: Vec<(usize, &str)> = a
            .iter()
            .flatten()
            .filter(|r| !r.hit)
            .map(|r| (r.trace, r.spec.split(':').next().unwrap_or_default()))
            .collect();
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), 14 * FAMILIES);
        assert_eq!(
            a.iter().flatten().filter(|r| r.hit).count(),
            CONNECTIONS * HITS_PER_CONNECTION
        );
        for r in a.iter().flatten() {
            let spec: PredictorSpec = r.spec.parse().expect("generated specs parse");
            assert_eq!(spec.to_string(), r.spec, "specs are written canonically");
        }
    }

    #[test]
    fn frames_follow_the_wire_protocol() {
        let mut trace = Trace::new("t");
        trace.push(bpred_trace::BranchRecord::conditional(0x40, 0x80, true));
        trace.push(bpred_trace::BranchRecord::unconditional(0x44, 0x10));
        let bytes = encode(&trace);
        let header = b"FEED 2\n";
        assert_eq!(&bytes[..header.len()], header);
        assert_eq!(
            bytes.len(),
            header.len() + 2 * serve::WIRE_RECORD_BYTES + b"DONE\n".len()
        );
        assert_eq!(
            &bytes[header.len()..header.len() + 8],
            &0x40u64.to_le_bytes()
        );
        assert_eq!(bytes[header.len() + 16], 1, "taken flag");
        assert!(bytes.ends_with(b"DONE\n"));
        assert_eq!(
            counts("DONE 10 3", "DONE"),
            Some(RunResult {
                branches: 10,
                mispredictions: 3
            })
        );
        assert_eq!(counts("DONE 10", "DONE"), None);
        assert_eq!(counts("HIT 1 2 3", "HIT"), None);
    }
}
