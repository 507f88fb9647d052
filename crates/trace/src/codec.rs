//! Trace persistence: a compact little-endian binary format and a
//! line-oriented text format.
//!
//! Binary layout (version 1):
//!
//! ```text
//! magic   "BPTR"            4 bytes
//! version u8                = 1
//! name    u32 len + UTF-8 bytes (the reader takes at most 4096)
//! count   u64
//! records count * { pc: u64, target: u64, flags: u8 }
//!           flags bit 0 = taken, bits 1..4 = kind tag
//! ```
//!
//! [`write_binary`] encodes a whole [`Trace`]. [`BinaryWriter`] encodes
//! records as a generator pushes them (it is a [`RecordSink`]): it
//! writes the header with a placeholder count of 0 and patches the real
//! count in when it finishes, so its bytes equal [`write_binary`]'s.
//! [`stream_binary`] decodes record by record and [`read_binary`]
//! collects that stream. The decoder takes the count as a claim to
//! check, not a size: nothing is allocated from it, a file that ends
//! early is truncated, and bytes after the last counted record are
//! trailing garbage. Both are [`CodecError::Malformed`], so any change
//! to the count field fails to decode, and a header whose count was
//! never patched cannot pass for an empty trace.
//!
//! Text format: a `# trace: <name>` header line, then one record per
//! line: `<pc-hex> <target-hex> <T|N> <kind>`.

use std::fmt;
use std::io::{self, BufRead, Read, Seek, SeekFrom, Write};

use crate::record::{BranchKind, BranchRecord};
use crate::sink::RecordSink;
use crate::trace::Trace;

const MAGIC: &[u8; 4] = b"BPTR";
const VERSION: u8 = 1;
/// Longest trace name the reader accepts, in bytes.
const MAX_NAME_BYTES: usize = 4096;
/// Header bytes before the name: magic, version, name length.
const NAME_AT: u64 = 4 + 1 + 4;
/// Bytes per encoded record: pc, target, flags.
const RECORD_BYTES: usize = 17;

/// Error produced by the trace codecs.
#[derive(Debug)]
pub enum CodecError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input is not a valid trace in the expected format.
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "trace i/o error: {e}"),
            CodecError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> CodecError {
    CodecError::Malformed(msg.into())
}

/// Writes the binary header of a trace named `name` holding `count`
/// records.
fn write_header<W: Write>(writer: &mut W, name: &str, count: u64) -> io::Result<()> {
    writer.write_all(MAGIC)?;
    writer.write_all(&[VERSION])?;
    writer.write_all(&(name.len() as u32).to_le_bytes())?;
    writer.write_all(name.as_bytes())?;
    writer.write_all(&count.to_le_bytes())
}

fn encode_record(r: &BranchRecord) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..8].copy_from_slice(&r.pc.to_le_bytes());
    rec[8..16].copy_from_slice(&r.target.to_le_bytes());
    rec[16] = u8::from(r.taken) | (r.kind.tag() << 1);
    rec
}

/// Writes a trace in the binary format.
///
/// A `&mut` reference can be passed for `writer`.
///
/// # Errors
///
/// Returns [`CodecError::Io`] on write failure.
pub fn write_binary<W: Write>(trace: &Trace, mut writer: W) -> Result<(), CodecError> {
    write_header(&mut writer, trace.name(), trace.len() as u64)?;
    for r in trace.iter() {
        writer.write_all(&encode_record(r))?;
    }
    Ok(())
}

/// Writes the binary format one record at a time, as a generator
/// pushes them, so the trace never has to exist whole in memory.
///
/// [`BinaryWriter::new`] writes the header with a placeholder record
/// count of 0; [`BinaryWriter::finish`] seeks back, patches in the
/// number of records pushed, and returns to the end. The finished bytes
/// equal [`write_binary`]'s for the same name and records. Until the
/// patch, the header's 0 followed by records decodes as malformed
/// (trailing bytes), never as an empty trace.
///
/// ```
/// use std::io::Cursor;
/// use bpred_trace::{write_binary, BinaryWriter, BranchRecord, RecordSink, Trace};
///
/// let mut trace = Trace::new("demo");
/// let mut writer = BinaryWriter::new(Cursor::new(Vec::new()), "demo")?;
/// for i in 0..3 {
///     let r = BranchRecord::conditional(0x40, 0x20, i != 1);
///     trace.push(r);
///     writer.push(r);
/// }
/// let streamed = writer.finish()?.into_inner();
/// let mut whole = Vec::new();
/// write_binary(&trace, &mut whole)?;
/// assert_eq!(streamed, whole);
/// # Ok::<(), bpred_trace::CodecError>(())
/// ```
#[derive(Debug)]
pub struct BinaryWriter<W> {
    writer: W,
    /// Stream position of the header's count field.
    count_at: u64,
    count: u64,
    /// The first failed record write; later records are dropped and
    /// [`BinaryWriter::finish`] returns it.
    error: Option<io::Error>,
}

impl<W: Write + Seek> BinaryWriter<W> {
    /// Writes the header of a trace named `name`, with a placeholder
    /// record count, at the writer's current position.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] if the header cannot be written.
    pub fn new(mut writer: W, name: &str) -> Result<Self, CodecError> {
        let start = writer.stream_position()?;
        write_header(&mut writer, name, 0)?;
        Ok(Self {
            writer,
            count_at: start + NAME_AT + name.len() as u64,
            count: 0,
            error: None,
        })
    }

    /// Patches the record count into the header and flushes, returning
    /// the writer positioned after the last record.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] for the first record that failed to
    /// write, or if the patch or the flush fails.
    pub fn finish(mut self) -> Result<W, CodecError> {
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        let end = self.writer.stream_position()?;
        self.writer.seek(SeekFrom::Start(self.count_at))?;
        self.writer.write_all(&self.count.to_le_bytes())?;
        self.writer.seek(SeekFrom::Start(end))?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> RecordSink for BinaryWriter<W> {
    fn push(&mut self, record: BranchRecord) {
        if self.error.is_none() {
            if let Err(e) = self.writer.write_all(&encode_record(&record)) {
                self.error = Some(e);
            }
        }
        self.count += 1;
    }
}

/// Reads a trace in the binary format: [`stream_binary`], collected.
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`CodecError::Io`] on read failure and
/// [`CodecError::Malformed`] when the bytes are not a valid trace.
pub fn read_binary<R: Read>(reader: R) -> Result<Trace, CodecError> {
    let stream = stream_binary(reader)?;
    let name = stream.name().to_owned();
    let records = stream.collect::<Result<Vec<_>, _>>()?;
    Ok(Trace::from_records(name, records))
}

/// Writes a trace in the human-readable text format.
///
/// A `&mut` reference can be passed for `writer`.
///
/// # Errors
///
/// Returns [`CodecError::Io`] on write failure.
pub fn write_text<W: Write>(trace: &Trace, mut writer: W) -> Result<(), CodecError> {
    writeln!(writer, "# trace: {}", trace.name())?;
    for r in trace.iter() {
        writeln!(
            writer,
            "{:x} {:x} {} {}",
            r.pc,
            r.target,
            if r.taken { "T" } else { "N" },
            r.kind
        )?;
    }
    Ok(())
}

/// Reads a trace in the text format.
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`CodecError::Io`] on read failure and
/// [`CodecError::Malformed`] on syntax errors.
pub fn read_text<R: BufRead>(reader: R) -> Result<Trace, CodecError> {
    let mut trace = Trace::new("");
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(name) = rest.trim().strip_prefix("trace:") {
                trace.set_name(name.trim());
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| malformed(format!("line {}: {what}", lineno + 1));
        let pc = u64::from_str_radix(parts.next().ok_or_else(|| err("missing pc"))?, 16)
            .map_err(|_| err("bad pc"))?;
        let target = u64::from_str_radix(parts.next().ok_or_else(|| err("missing target"))?, 16)
            .map_err(|_| err("bad target"))?;
        let taken = match parts.next().ok_or_else(|| err("missing direction"))? {
            "T" => true,
            "N" => false,
            other => return Err(err(&format!("bad direction `{other}`"))),
        };
        let kind = match parts.next().ok_or_else(|| err("missing kind"))? {
            "cond" => BranchKind::Conditional,
            "jump" => BranchKind::Unconditional,
            "call" => BranchKind::Call,
            "ret" => BranchKind::Return,
            "ijmp" => BranchKind::Indirect,
            other => return Err(err(&format!("bad kind `{other}`"))),
        };
        trace.push(BranchRecord {
            pc,
            target,
            taken,
            kind,
        });
    }
    Ok(trace)
}

/// A streaming reader over a binary trace: yields records one at a
/// time without materialising the whole trace in memory — the way to
/// consume `--scale full` traces from disk.
///
/// Construct with [`stream_binary`]; iterate to get
/// `Result<BranchRecord, CodecError>` items. The trace name is
/// available from [`BinaryStream::name`] after construction. After the
/// last counted record the stream checks that the input ends there: a
/// trailing byte yields one final [`CodecError::Malformed`]. The first
/// error ends the stream.
#[derive(Debug)]
pub struct BinaryStream<R> {
    reader: R,
    name: String,
    remaining: u64,
    index: u64,
    done: bool,
}

impl<R: Read> BinaryStream<R> {
    /// The trace's provenance name from the header.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records the header says are left to read.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

/// Opens a binary trace for streaming: reads and validates the header,
/// then returns an iterator over the records.
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`CodecError::Io`] on read failure and
/// [`CodecError::Malformed`] if the header is not a valid trace
/// header.
pub fn stream_binary<R: Read>(mut reader: R) -> Result<BinaryStream<R>, CodecError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(malformed("bad magic"));
    }
    let mut version = [0u8; 1];
    reader.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(malformed(format!("unsupported version {}", version[0])));
    }
    let mut len4 = [0u8; 4];
    reader.read_exact(&mut len4)?;
    let name_len = u32::from_le_bytes(len4) as usize;
    if name_len > MAX_NAME_BYTES {
        return Err(malformed("unreasonable name length"));
    }
    let mut name = vec![0u8; name_len];
    reader.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| malformed("name is not UTF-8"))?;
    let mut len8 = [0u8; 8];
    reader.read_exact(&mut len8)?;
    Ok(BinaryStream {
        reader,
        name,
        remaining: u64::from_le_bytes(len8),
        index: 0,
        done: false,
    })
}

impl<R: Read> Iterator for BinaryStream<R> {
    type Item = Result<BranchRecord, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.remaining == 0 {
            self.done = true;
            return match self.reader.read_exact(&mut [0u8; 1]) {
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => None,
                Err(e) => Some(Err(e.into())),
                Ok(()) => Some(Err(malformed(format!(
                    "trailing bytes after record {}",
                    self.index
                )))),
            };
        }
        let mut rec = [0u8; RECORD_BYTES];
        if let Err(e) = self.reader.read_exact(&mut rec) {
            self.done = true;
            return Some(Err(malformed(format!(
                "truncated at record {}: {e}",
                self.index
            ))));
        }
        self.remaining -= 1;
        self.index += 1;
        let pc = u64::from_le_bytes(rec[0..8].try_into().expect("slice is 8 bytes")); // panic-audited: try_into of a fixed 8-byte subslice cannot fail
        let target = u64::from_le_bytes(rec[8..16].try_into().expect("slice is 8 bytes")); // panic-audited: try_into of a fixed 8-byte subslice cannot fail
        let flags = rec[16];
        let taken = flags & 1 == 1;
        match BranchKind::from_tag(flags >> 1) {
            Some(kind) => Some(Ok(BranchRecord {
                pc,
                target,
                taken,
                kind,
            })),
            None => {
                self.done = true;
                Some(Err(malformed(format!("bad kind tag {}", flags >> 1))))
            }
        }
    }

    /// The header's count is a claim, not a size, so the lower bound is
    /// 0. The upper bound is the records it claims plus the end-of-input
    /// check's possible trailing-bytes error.
    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            let upper = usize::try_from(self.remaining)
                .ok()
                .and_then(|n| n.checked_add(1));
            (0, upper)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn sample() -> Trace {
        let mut t = Trace::new("roundtrip");
        t.push(BranchRecord::conditional(0x1000, 0x1040, true));
        t.push(BranchRecord::conditional(0x1008, 0x0FF0, false));
        t.push(BranchRecord::unconditional(0x1010, 0x2000));
        t.push(BranchRecord {
            pc: 0x2000,
            target: 0x3000,
            taken: true,
            kind: BranchKind::Call,
        });
        t.push(BranchRecord {
            pc: 0x3010,
            target: 0x2004,
            taken: true,
            kind: BranchKind::Return,
        });
        t.push(BranchRecord {
            pc: 0x2008,
            target: 0x4000,
            taken: true,
            kind: BranchKind::Indirect,
        });
        t
    }

    fn encoded(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(t, &mut buf).unwrap();
        buf
    }

    /// Byte offset of the record count in `t`'s encoding.
    fn count_at(t: &Trace) -> usize {
        NAME_AT as usize + t.name().len()
    }

    #[test]
    fn streaming_matches_bulk_read() {
        let t = sample();
        let buf = encoded(&t);
        let stream = stream_binary(Cursor::new(&buf)).unwrap();
        assert_eq!(stream.name(), "roundtrip");
        assert_eq!(stream.remaining(), t.len() as u64);
        let records: Vec<BranchRecord> = stream.map(|r| r.expect("valid record")).collect();
        assert_eq!(records, t.records());
    }

    #[test]
    fn streaming_size_hint_never_trusts_the_count() {
        let buf = encoded(&sample());
        let mut stream = stream_binary(Cursor::new(&buf)).unwrap();
        assert_eq!(stream.size_hint(), (0, Some(7)));
        stream.next();
        assert_eq!(stream.size_hint(), (0, Some(6)));
        assert_eq!(stream.by_ref().count(), 5);
        assert_eq!(stream.size_hint(), (0, Some(0)));
    }

    #[test]
    fn a_lying_count_allocates_nothing() {
        // 40 bytes whose header claims 2^40 records: collecting must
        // fail on the missing bytes, not size a Vec from the claim.
        let mut buf = encoded(&Trace::new("liar"));
        let at = count_at(&Trace::new("liar"));
        buf[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        buf.resize(40, 0);
        let stream = stream_binary(Cursor::new(&buf)).unwrap();
        let err = stream.collect::<Vec<_>>().pop().unwrap().unwrap_err();
        assert!(err.to_string().contains("truncated at record 1"), "{err}");
        let err = read_binary(Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn streaming_reports_truncation_once_then_stops() {
        let mut buf = encoded(&sample());
        buf.truncate(buf.len() - 3);
        let stream = stream_binary(Cursor::new(&buf)).unwrap();
        let results: Vec<Result<BranchRecord, CodecError>> = stream.collect();
        assert_eq!(results.len(), 6, "5 good records + 1 error");
        assert!(results[..5].iter().all(Result::is_ok));
        assert!(results[5].as_ref().is_err());
    }

    #[test]
    fn streaming_rejects_bad_header() {
        assert!(stream_binary(Cursor::new(b"NOPE\x01")).is_err());
    }

    #[test]
    fn bytes_after_the_last_counted_record_are_malformed() {
        let t = sample();
        let at = count_at(&t);
        let mut extra = encoded(&t);
        extra.push(0);
        let mut lowered = encoded(&t);
        lowered[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
        let mut unpatched = encoded(&t);
        unpatched[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        for (case, bytes) in [
            ("extra byte", extra),
            ("count lowered", lowered),
            ("count 0 with records", unpatched),
        ] {
            let err = read_binary(Cursor::new(&bytes)).unwrap_err();
            assert!(
                matches!(&err, CodecError::Malformed(m) if m.contains("trailing bytes")),
                "{case}: {err}"
            );
        }
    }

    #[test]
    fn binary_writer_matches_write_binary() {
        for t in [sample(), Trace::new("")] {
            let mut writer = BinaryWriter::new(Cursor::new(Vec::new()), t.name()).unwrap();
            for &r in t.records() {
                writer.push(r);
            }
            let streamed = writer.finish().unwrap();
            assert_eq!(streamed.position(), streamed.get_ref().len() as u64);
            assert_eq!(streamed.into_inner(), encoded(&t), "{:?}", t.name());
        }
    }

    #[test]
    fn binary_writer_appends_after_existing_bytes() {
        let t = sample();
        let mut out = Cursor::new(b"prefix".to_vec());
        out.seek(SeekFrom::End(0)).unwrap();
        let mut writer = BinaryWriter::new(out, t.name()).unwrap();
        for &r in t.records() {
            writer.push(r);
        }
        let bytes = writer.finish().unwrap().into_inner();
        assert_eq!(&bytes[..6], b"prefix");
        assert_eq!(bytes[6..], encoded(&t));
    }

    #[test]
    fn binary_writer_reports_the_first_failed_write() {
        /// Accepts `room` bytes, then fails every write.
        #[derive(Debug)]
        struct Full {
            inner: Cursor<Vec<u8>>,
            room: usize,
        }
        impl Write for Full {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.inner.get_ref().len() + buf.len() > self.room {
                    return Err(io::Error::other("disk full"));
                }
                self.inner.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl Seek for Full {
            fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
                self.inner.seek(pos)
            }
        }
        let t = sample();
        let sink = Full {
            inner: Cursor::new(Vec::new()),
            room: count_at(&t) + 8 + 2 * RECORD_BYTES,
        };
        let mut writer = BinaryWriter::new(sink, t.name()).unwrap();
        for &r in t.records() {
            writer.push(r);
        }
        let err = writer.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let t = sample();
        let back = read_binary(Cursor::new(&encoded(&t))).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(Cursor::new(&buf)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(Cursor::new(b"NOPE\x01")).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn binary_rejects_bad_version() {
        let mut buf = encoded(&sample());
        buf[4] = 99;
        let err = read_binary(Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("unsupported version"));
    }

    #[test]
    fn binary_rejects_truncation() {
        let mut buf = encoded(&sample());
        buf.truncate(buf.len() - 3);
        let err = read_binary(Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn binary_rejects_bad_kind_tag() {
        let mut t = Trace::new("x");
        t.push(BranchRecord::conditional(0, 0, false));
        let mut buf = encoded(&t);
        let flags_pos = buf.len() - 1;
        buf[flags_pos] = 5 << 1;
        let err = read_binary(Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("bad kind tag"));
    }

    #[test]
    fn text_tolerates_blank_lines_and_comments() {
        let input = "# trace: demo\n\n# a comment\n1000 1040 T cond\n";
        let t = read_text(Cursor::new(input)).unwrap();
        assert_eq!(t.name(), "demo");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn text_reports_line_numbers_on_errors() {
        let input = "# trace: demo\n1000 1040 X cond\n";
        let err = read_text(Cursor::new(input)).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty");
        assert_eq!(read_binary(Cursor::new(encoded(&t))).unwrap(), t);
        let mut txt = Vec::new();
        write_text(&t, &mut txt).unwrap();
        assert_eq!(read_text(Cursor::new(&txt)).unwrap(), t);
    }

    /// Decodes `bytes`: the properties below hold when every input
    /// gives a trace or a typed error (a panic or an abort fails them).
    fn decode(bytes: &[u8]) -> Result<Trace, CodecError> {
        read_binary(Cursor::new(bytes))
    }

    /// A trace of `records` records derived from `seed`, its kinds
    /// drawn from every tag.
    fn fuzz_trace(records: usize, seed: u64) -> Trace {
        let mut t = Trace::new("fuzz");
        for i in 0..records as u64 {
            let kind = BranchKind::ALL[((seed >> i) % 5) as usize];
            t.push(BranchRecord {
                pc: (seed ^ i).wrapping_mul(4),
                target: seed.rotate_left(i as u32),
                taken: (seed >> (i % 64)) & 1 == 1,
                kind,
            });
        }
        t
    }

    proptest! {
        #[test]
        fn truncation_at_any_byte_is_an_error(
            records in 0usize..6,
            seed in any::<u64>(),
            cut in any::<u64>(),
        ) {
            let good = encoded(&fuzz_trace(records, seed));
            let cut = (cut % good.len() as u64) as usize;
            prop_assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }

        #[test]
        fn a_single_bit_flip_decodes_or_errors(
            records in 0usize..6,
            seed in any::<u64>(),
            bit in any::<u64>(),
        ) {
            let t = fuzz_trace(records, seed);
            let mut bytes = encoded(&t);
            let bit = (bit % (8 * bytes.len() as u64)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            let at = count_at(&t);
            let in_count = (at..at + 8).contains(&(bit / 8));
            if decode(&bytes).is_ok() {
                prop_assert!(!in_count, "a changed count decoded: bit {bit}");
            }
        }

        #[test]
        fn any_changed_count_is_an_error(
            records in 0usize..6,
            seed in any::<u64>(),
            count in any::<u64>(),
        ) {
            let t = fuzz_trace(records, seed);
            let len = t.len() as u64;
            // Anything, slightly more, or fewer (0 included).
            let count = match count % 3 {
                0 => count,
                1 => len + 1 + count % 4,
                _ => count % len.max(1),
            };
            let count = if count == len { len + 1 } else { count };
            let mut bytes = encoded(&t);
            let at = count_at(&t);
            bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            prop_assert!(decode(&bytes).is_err(), "count {count}");
        }

        #[test]
        fn an_oversized_name_length_is_an_error(
            len in any::<u32>(),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let len = len.max(MAX_NAME_BYTES as u32 + 1);
            let mut bytes = b"BPTR\x01".to_vec();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&tail);
            let err = decode(&bytes).unwrap_err();
            prop_assert!(err.to_string().contains("name length"), "{err}");
        }
    }
}
