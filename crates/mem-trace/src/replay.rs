//! Seekless file-backed trace record/replay.
//!
//! A recorded trace is a single forward-written, forward-read binary file —
//! no seeking, no index — so traces can be recorded straight out of a
//! streaming generator and replayed with bounded memory:
//!
//! ```text
//! header:  magic "DSMTRC01" | name_len u32 | name bytes (UTF-8)
//!          | nodes u16 | procs_per_node u16
//! events:  repeated  proc u16 | tag u8 | payload
//!          tag 0 read   : addr u64      tag 3 barrier : id u32
//!          tag 1 write  : addr u64      tag 4 lock    : id u32
//!          tag 2 compute: cycles u32    tag 5 unlock  : id u32
//!          tag 6 end-of-stream (no payload; the processor emits nothing
//!                further — written the moment the recorder observes the
//!                stream end)
//! ```
//!
//! All integers are little-endian.  End of file is end of trace.
//!
//! [`record`] drains a [`TraceSource`] *round-robin* across processors
//! (one event per non-exhausted processor per sweep).  Only each
//! processor's own event order matters for replay correctness, and the
//! fair interleaving bounds [`ReplaySource`]'s demultiplexing buffers to
//! roughly one event per processor regardless of how the original
//! generator phased its emission.  The per-processor end markers let
//! replay answer "is this processor done?" without reading ahead, even
//! for traces whose processors finish at very different points.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::access::{MemRef, TraceEvent};
use crate::addr::{GlobalAddr, ProcId, Topology};
use std::collections::VecDeque;

use crate::source::{default_window_cap, TraceSource};
use crate::trace::{StatsAccumulator, TraceError, TraceStats};

/// File magic: format name + version.
pub const TRACE_MAGIC: &[u8; 8] = b"DSMTRC01";

fn encode_event(out: &mut Vec<u8>, proc: u16, ev: &TraceEvent) {
    out.extend_from_slice(&proc.to_le_bytes());
    match ev {
        TraceEvent::Access(m) => {
            out.push(if m.kind.is_write() { 1 } else { 0 });
            out.extend_from_slice(&m.addr.0.to_le_bytes());
        }
        TraceEvent::Compute(c) => {
            out.push(2);
            out.extend_from_slice(&c.to_le_bytes());
        }
        TraceEvent::Barrier(id) => {
            out.push(3);
            out.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::Lock(id) => {
            out.push(4);
            out.extend_from_slice(&id.to_le_bytes());
        }
        TraceEvent::Unlock(id) => {
            out.push(5);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

/// Drain `source` into `out` in the format above.
///
/// Processors are drained round-robin, one event per sweep, so the file's
/// interleaving is fair regardless of the source's own emission order.
pub fn record(source: &mut dyn TraceSource, out: &mut dyn Write) -> io::Result<()> {
    let topology = source.topology();
    let name = source.name().as_bytes().to_vec();
    out.write_all(TRACE_MAGIC)?;
    out.write_all(&(name.len() as u32).to_le_bytes())?;
    out.write_all(&name)?;
    out.write_all(&topology.nodes.to_le_bytes())?;
    out.write_all(&topology.procs_per_node.to_le_bytes())?;

    let procs = topology.total_procs();
    let mut live: Vec<bool> = vec![true; procs];
    let mut remaining = procs;
    let mut buf = Vec::with_capacity(16 * 1024);
    while remaining > 0 {
        for (p, alive) in live.iter_mut().enumerate() {
            if !*alive {
                continue;
            }
            match source.next_event(ProcId(p as u16)) {
                Some(ev) => encode_event(&mut buf, p as u16, &ev),
                None => {
                    // Explicit end-of-stream marker so replay never has to
                    // read ahead to learn a processor is done.
                    buf.extend_from_slice(&(p as u16).to_le_bytes());
                    buf.push(6);
                    *alive = false;
                    remaining -= 1;
                }
            }
        }
        if buf.len() >= 8 * 1024 {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    out.flush()
}

/// [`record`] into a freshly created (or truncated) file.
pub fn record_to_file(source: &mut dyn TraceSource, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    record(source, &mut w)
}

fn corrupt(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt trace file: {detail}"),
    )
}

/// The demultiplexing state of a [`ReplaySource`]: a trace file interleaves
/// every processor's records, and per-processor pull cursors over it need
/// small per-processor queues, per-processor end-of-stream flags, the
/// incremental statistics every *pulled* event flows through, and the hard
/// window cap on what is parked.
///
/// A burst pull leaves a buffer as at most two slice copies.  Each pulled
/// event still goes through the statistics one at a time; what keeps that
/// cheap is the accumulator's per-processor page memo, which skips the page
/// interner while a processor stays on one page.  A processor's buffer is
/// freed once its stream has ended and drained, so a finished source holds
/// no high-water storage.
#[derive(Debug)]
struct Demux {
    buffers: Vec<VecDeque<TraceEvent>>,
    ended: Vec<bool>,
    stats: StatsAccumulator,
    /// Total parked events across all buffers.
    buffered: usize,
    window_cap: usize,
    poisoned: Option<TraceError>,
}

impl Demux {
    fn new(topology: Topology) -> Self {
        Demux {
            buffers: vec![VecDeque::new(); topology.total_procs()],
            ended: vec![false; topology.total_procs()],
            stats: StatsAccumulator::new(topology),
            buffered: 0,
            window_cap: default_window_cap(topology),
            poisoned: None,
        }
    }

    fn set_window_cap(&mut self, cap: usize) {
        self.window_cap = cap.max(1);
    }

    /// Park one demultiplexed event for `proc`.  On window overflow the
    /// demux poisons itself: the backlog is dropped, every stream reports
    /// ended, and the error waits in [`Demux::take_error`].
    #[inline]
    fn push(&mut self, proc: ProcId, ev: TraceEvent) {
        if self.poisoned.is_some() {
            return;
        }
        if self.buffered >= self.window_cap {
            self.poisoned = Some(TraceError::StreamWindowExceeded {
                buffered: self.buffered,
                cap: self.window_cap,
            });
            for buf in &mut self.buffers {
                *buf = VecDeque::new();
            }
            self.buffered = 0;
            self.ended.fill(true);
            return;
        }
        self.buffered += 1;
        self.buffers[proc.index()].push_back(ev);
    }

    /// Record that `proc`'s stream has no further events (an explicit
    /// end-of-stream marker, or overall end of the underlying stream).
    fn end(&mut self, proc: ProcId) {
        let p = proc.index();
        self.ended[p] = true;
        self.release_if_done(p);
    }

    /// Mark every processor ended (overall end of the underlying stream).
    fn end_all(&mut self) {
        self.ended.fill(true);
        for p in 0..self.buffers.len() {
            self.release_if_done(p);
        }
    }

    /// Free processor `p`'s buffer storage once its stream has ended and
    /// every parked event was pulled: nothing will ever be parked there
    /// again.
    #[inline]
    fn release_if_done(&mut self, p: usize) {
        if self.ended[p] && self.buffers[p].is_empty() {
            self.buffers[p] = VecDeque::new();
        }
    }

    fn pop(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let p = proc.index();
        let ev = self.buffers[p].pop_front()?;
        self.buffered -= 1;
        self.stats.observe(proc, &ev);
        self.release_if_done(p);
        Some(ev)
    }

    /// Pop up to `max` already-parked events for `proc` into `out`: the
    /// buffer's (at most two) contiguous runs are copied as slices, then
    /// each event is observed by the statistics.  Deliberately does *not*
    /// trigger any upstream pumping — burst pulls take only what the serial
    /// pump sequence has already produced, so window-cap behavior is
    /// position-identical under either pull API.
    fn pop_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let p = proc.index();
        let buf = &mut self.buffers[p];
        let take = buf.len().min(max);
        if take == 0 {
            return 0;
        }
        let (front, back) = buf.as_slices();
        let split = take.min(front.len());
        for run in [&front[..split], &back[..take - split]] {
            out.extend_from_slice(run);
            for ev in run {
                self.stats.observe(proc, ev);
            }
        }
        buf.drain(..take);
        self.buffered -= take;
        self.release_if_done(p);
        take
    }

    fn has_buffered(&self, proc: ProcId) -> bool {
        !self.buffers[proc.index()].is_empty()
    }

    fn is_ended(&self, proc: ProcId) -> bool {
        self.ended[proc.index()]
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.poisoned.take()
    }

    fn buffered_events(&self) -> usize {
        self.buffered
    }

    fn stats(&self) -> TraceStats {
        self.stats.snapshot()
    }
}

/// One demultiplexed record of a trace file.
enum Record {
    Event(u16, TraceEvent),
    EndOfStream(u16),
    EndOfFile,
}

/// Bytes read from the file per refill of a [`ReplaySource`]'s chunk.
const CHUNK_BYTES: usize = 64 * 1024;

/// The longest record: processor, tag and an eight-byte address.
const MAX_RECORD_BYTES: usize = 11;

/// A [`TraceSource`] replaying a recorded trace file.
///
/// The file is read strictly forward, in 64 KB chunks that
/// records are decoded from in memory; events for processors other than
/// the one currently being pulled are parked in small per-processor queues.
/// With the fair interleaving [`record`] writes, those queues stay at about
/// one event per processor, and the per-processor end markers answer
/// exhaustion queries without reading ahead: the chunk reads bytes ahead,
/// but records are only decoded (and parked) up to the first one that
/// concerns the processor being pulled.
pub struct ReplaySource<R: Read> {
    name: String,
    topology: Topology,
    /// `None` once the file ended (or the window cap poisoned the demux).
    reader: Option<R>,
    /// Bytes read but not yet decoded are `chunk[pos..len]`.
    chunk: Box<[u8]>,
    pos: usize,
    len: usize,
    demux: Demux,
}

impl ReplaySource<File> {
    /// Open a recorded trace file for replay.  The source reads the file in
    /// its own chunks, so the file is not wrapped in a `BufReader`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_reader(File::open(path)?)
    }
}

impl<R: Read> ReplaySource<R> {
    /// Start replaying from any forward reader (header is parsed eagerly).
    pub fn from_reader(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != TRACE_MAGIC {
            return Err(corrupt(
                "bad magic (not a recorded trace, or wrong version)",
            ));
        }
        let mut len4 = [0u8; 4];
        reader.read_exact(&mut len4)?;
        let name_len = u32::from_le_bytes(len4) as usize;
        if name_len > 4096 {
            return Err(corrupt("unreasonable workload-name length"));
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| corrupt("workload name not UTF-8"))?;
        let mut n2 = [0u8; 2];
        reader.read_exact(&mut n2)?;
        let nodes = u16::from_le_bytes(n2);
        reader.read_exact(&mut n2)?;
        let procs_per_node = u16::from_le_bytes(n2);
        if nodes == 0 || procs_per_node == 0 {
            return Err(corrupt("topology with a zero dimension"));
        }
        // ProcIds are u16: anything past 65536 processors cannot appear in
        // event records, so a bigger header is corruption — reject it before
        // sizing the demux by it.
        if nodes as u64 * procs_per_node as u64 > u64::from(u16::MAX) + 1 {
            return Err(corrupt("topology larger than the processor id space"));
        }
        let topology = Topology::new(nodes, procs_per_node);
        Ok(ReplaySource {
            name,
            topology,
            reader: Some(reader),
            chunk: vec![0; CHUNK_BYTES].into_boxed_slice(),
            pos: 0,
            len: 0,
            demux: Demux::new(topology),
        })
    }

    /// Replace the parked-event window cap (default
    /// [`crate::source::default_window_cap`] for the trace's topology).
    pub fn with_window_cap(mut self, cap: usize) -> Self {
        self.demux.set_window_cap(cap);
        self
    }

    /// Make at least `need` undecoded bytes available, reading more of the
    /// file as required.  Returns how many are available, which is fewer
    /// than `need` only at end of file.
    fn fill(&mut self, need: usize) -> io::Result<usize> {
        let Some(reader) = &mut self.reader else {
            return Ok(self.len - self.pos);
        };
        if self.len - self.pos >= need {
            return Ok(self.len - self.pos);
        }
        self.chunk.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
        self.pos = 0;
        while self.len < need {
            match reader.read(&mut self.chunk[self.len..]) {
                Ok(0) => break,
                Ok(n) => self.len += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.len)
    }

    /// Decode the next record from the chunk.
    #[inline]
    fn read_record(&mut self) -> io::Result<Record> {
        if self.len - self.pos < MAX_RECORD_BYTES {
            // Near the end of the chunk: top it up so the record is whole.
            // Distinguish clean EOF (no bytes of a record) from truncation.
            let available = self.fill(MAX_RECORD_BYTES)?;
            if available == 0 {
                return Ok(Record::EndOfFile);
            }
            if available < 3 {
                return Err(truncated());
            }
        }
        let bytes = &self.chunk[self.pos..self.len];
        let proc = u16::from_le_bytes([bytes[0], bytes[1]]);
        let tag = bytes[2];
        let payload = match tag {
            0 | 1 => 8,
            2..=5 => 4,
            6 => 0,
            _ => return Err(corrupt("unknown event tag")),
        };
        let Some(body) = bytes.get(3..3 + payload) else {
            return Err(truncated());
        };
        let record = match tag {
            0 | 1 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(body);
                let addr = GlobalAddr(u64::from_le_bytes(b));
                Record::Event(
                    proc,
                    TraceEvent::Access(if tag == 1 {
                        MemRef::write(addr)
                    } else {
                        MemRef::read(addr)
                    }),
                )
            }
            2..=5 => {
                let v = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
                Record::Event(
                    proc,
                    match tag {
                        2 => TraceEvent::Compute(v),
                        3 => TraceEvent::Barrier(v),
                        4 => TraceEvent::Lock(v),
                        _ => TraceEvent::Unlock(v),
                    },
                )
            }
            _ => Record::EndOfStream(proc),
        };
        self.pos += 3 + payload;
        Ok(record)
    }

    /// Advance the file into the demux buffers up to and including the
    /// first record that concerns `want` (an event or its end marker) —
    /// exactly the records a record-at-a-time reader would have parked
    /// before `want` could be answered.  Returns `false` at end of file.
    ///
    /// # Panics
    /// Panics if the file is truncated or corrupt past the header — the
    /// format is self-produced, so this indicates a damaged file, and the
    /// pull-based [`TraceSource`] API has no error channel.
    fn pump(&mut self, want: ProcId) -> bool {
        if self.reader.is_none() {
            return false;
        }
        let procs = self.topology.total_procs();
        loop {
            match self.read_record() {
                Ok(Record::Event(p, ev)) if (p as usize) < procs => {
                    self.demux.push(ProcId(p), ev);
                    if self.demux.is_poisoned() {
                        self.reader = None;
                        return false;
                    }
                    if p == want.0 {
                        return true;
                    }
                }
                Ok(Record::EndOfStream(p)) if (p as usize) < procs => {
                    self.demux.end(ProcId(p));
                    if p == want.0 {
                        return true;
                    }
                }
                Ok(Record::Event(p, _)) | Ok(Record::EndOfStream(p)) => {
                    // dsm-lint: allow(panic-path, TraceSource::next_event has no error channel; corrupt replay files are CLI operator input — the service cannot construct Replay workloads — and fail fast by design)
                    panic!("corrupt trace file: record for processor {p} outside the topology");
                }
                Ok(Record::EndOfFile) => {
                    self.reader = None;
                    self.demux.end_all();
                    return false;
                }
                // dsm-lint: allow(panic-path, TraceSource::next_event has no error channel; corrupt replay files are CLI operator input — the service cannot construct Replay workloads — and fail fast by design)
                Err(e) => panic!("replaying trace {}: {e}", self.name),
            }
        }
    }
}

fn truncated() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "corrupt trace file: truncated record",
    )
}

impl<R: Read> TraceSource for ReplaySource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        loop {
            if let Some(ev) = self.demux.pop(proc) {
                return Some(ev);
            }
            if self.demux.is_ended(proc) || !self.pump(proc) {
                return None;
            }
        }
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        loop {
            if self.demux.has_buffered(proc) {
                return false;
            }
            if self.demux.is_ended(proc) || !self.pump(proc) {
                return true;
            }
        }
    }

    /// Burst pull: read records only until `proc` has a first event, then
    /// drain what the demux already parked for it (the position contract of
    /// [`TraceSource::next_burst`]).
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        loop {
            let n = self.demux.pop_burst(proc, out, max);
            if n > 0 {
                return n;
            }
            if self.demux.is_ended(proc) || !self.pump(proc) {
                return 0;
            }
        }
    }

    fn stats_so_far(&self) -> TraceStats {
        self.demux.stats()
    }

    fn buffered_events(&self) -> usize {
        self.demux.buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.demux.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::trace::ProgramTrace;

    fn toy_trace() -> ProgramTrace {
        let topo = Topology::new(2, 2);
        let mut b = TraceBuilder::new("toy", topo).with_think_cycles(1);
        b.read(ProcId(0), GlobalAddr(0));
        b.write(ProcId(3), GlobalAddr(64));
        b.barrier_all();
        b.lock(ProcId(2), 5);
        b.compute(ProcId(2), 123);
        b.unlock(ProcId(2), 5);
        b.barrier_all();
        b.build()
    }

    #[test]
    fn record_replay_round_trips_every_event() {
        let trace = toy_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();

        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        assert_eq!(replay.name(), "toy");
        assert_eq!(replay.topology(), trace.topology);
        for p in trace.topology.proc_ids() {
            let mut got = Vec::new();
            while let Some(ev) = replay.next_event(p) {
                got.push(ev);
            }
            assert_eq!(got, trace.per_proc[p.index()], "stream of {p:?}");
            assert!(replay.exhausted(p));
        }
        assert_eq!(replay.stats_so_far(), trace.stats());
    }

    #[test]
    fn replay_supports_adversarial_pull_order() {
        let trace = toy_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        // Pull the *last* processor first: demux must park other procs'
        // events without losing them.
        let mut got3 = Vec::new();
        while let Some(ev) = replay.next_event(ProcId(3)) {
            got3.push(ev);
        }
        assert_eq!(got3, trace.per_proc[3]);
        assert!(!replay.exhausted(ProcId(0)));
        let mut got0 = Vec::new();
        while let Some(ev) = replay.next_event(ProcId(0)) {
            got0.push(ev);
        }
        assert_eq!(got0, trace.per_proc[0]);
    }

    #[test]
    fn end_markers_answer_exhaustion_without_reading_ahead() {
        // Proc 1 emits one event and stops; proc 0 keeps going for 1000
        // more.  The recorded end marker for proc 1 lands within the first
        // few records (round-robin), so draining proc 1 and asking if it is
        // exhausted must NOT force the rest of the file through the demux.
        let topo = Topology::new(2, 1);
        let mut b = TraceBuilder::new("uneven", topo);
        b.read(ProcId(1), GlobalAddr(0));
        for i in 0..1000u64 {
            b.read(ProcId(0), GlobalAddr(i * 64));
        }
        let trace = b.build();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();

        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        assert!(replay.next_event(ProcId(1)).is_some());
        assert!(replay.next_event(ProcId(1)).is_none());
        assert!(replay.exhausted(ProcId(1)));
        // Only the handful of records up to proc 1's end marker were read
        // (stats count *pulled* events, so the parked window is what proves
        // nothing was read ahead).
        assert!(
            replay.buffered_events() < 10,
            "exhaustion query dragged the whole file through the demux: {} parked",
            replay.buffered_events()
        );
        // The rest still replays intact.
        let mut got0 = 0usize;
        while replay.next_event(ProcId(0)).is_some() {
            got0 += 1;
        }
        assert_eq!(got0, trace.per_proc[0].len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = b"NOTATRACE_______".to_vec();
        assert!(ReplaySource::from_reader(&bytes[..]).is_err());
    }

    #[test]
    fn oversized_topology_header_is_rejected() {
        // Valid magic and name, then a corrupt topology of 65535x65535
        // processors: must be rejected at open, not allocated.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(TRACE_MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"xx");
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        let err = match ReplaySource::from_reader(&bytes[..]) {
            Err(e) => e,
            Ok(_) => panic!("oversized topology accepted"),
        };
        assert!(err.to_string().contains("processor id space"), "{err}");
    }

    /// A header for a `nodes` x `procs_per_node` trace named `"t"`.
    fn header(nodes: u16, procs_per_node: u16) -> Vec<u8> {
        let mut bytes = TRACE_MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b't');
        bytes.extend_from_slice(&nodes.to_le_bytes());
        bytes.extend_from_slice(&procs_per_node.to_le_bytes());
        bytes
    }

    /// A reader handing out at most three bytes per `read` call, so every
    /// record straddles read boundaries at every possible offset.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(3).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Every event kind, on processors that finish at different points.
    fn mixed_trace() -> ProgramTrace {
        let topo = Topology::new(3, 2);
        let mut b = TraceBuilder::new("mixed", topo).with_think_cycles(3);
        for i in 0..200u64 {
            let p = ProcId((i % 6) as u16);
            if i % 3 == 0 {
                b.write(p, GlobalAddr(i * 72));
            } else {
                b.read(p, GlobalAddr(u64::MAX - i * 4096));
            }
            if i % 50 == 7 {
                b.lock(p, i as u32);
                b.compute(p, u32::MAX - i as u32);
                b.unlock(p, i as u32);
            }
            if i % 64 == 63 {
                b.barrier_all();
            }
        }
        for i in 0..300u64 {
            b.read(ProcId(4), GlobalAddr(i * 64));
        }
        b.build()
    }

    /// Drain `replay` in bursts of `burst`, cycling over the processors.
    fn drain_in_bursts<R: Read>(
        replay: &mut ReplaySource<R>,
        burst: usize,
    ) -> Vec<Vec<TraceEvent>> {
        let procs = replay.topology().total_procs();
        let mut got = vec![Vec::new(); procs];
        let mut live = procs;
        while live > 0 {
            live = 0;
            for (p, events) in got.iter_mut().enumerate() {
                if replay.next_burst(ProcId(p as u16), events, burst) > 0 {
                    live += 1;
                }
            }
        }
        got
    }

    #[test]
    fn replay_through_a_dribbling_reader_is_bit_identical() {
        let trace = mixed_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();
        for burst in [1, 5, 128] {
            let mut plain = ReplaySource::from_reader(&bytes[..]).unwrap();
            let mut dribbled = ReplaySource::from_reader(Dribble(&bytes)).unwrap();
            let a = drain_in_bursts(&mut plain, burst);
            let b = drain_in_bursts(&mut dribbled, burst);
            assert_eq!(a, b, "burst {burst}");
            assert_eq!(a, trace.per_proc, "burst {burst}");
            assert_eq!(plain.stats_so_far(), dribbled.stats_so_far());
            assert_eq!(dribbled.stats_so_far(), trace.stats());
        }
        // Pull order with parking: the last processor first, one event at a
        // time, with exhaustion probes in between.
        let mut dribbled = ReplaySource::from_reader(Dribble(&bytes)).unwrap();
        for p in (0..trace.topology.total_procs() as u16).rev().map(ProcId) {
            let mut got = Vec::new();
            while !dribbled.exhausted(p) {
                got.push(dribbled.next_event(p).unwrap());
            }
            assert_eq!(got, trace.per_proc[p.index()], "stream of {p:?}");
        }
        assert_eq!(dribbled.buffered_events(), 0);
    }

    #[test]
    #[should_panic(expected = "replaying trace")]
    fn file_cut_mid_record_panics() {
        let mut bytes = header(2, 1);
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&[1, 2, 3, 4]); // half an address
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        replay.next_event(ProcId(0));
    }

    #[test]
    #[should_panic(expected = "replaying trace")]
    fn file_cut_inside_a_record_head_panics() {
        let trace = toy_trace();
        let mut bytes = Vec::new();
        record(&mut trace.source(), &mut bytes).unwrap();
        bytes.pop(); // the last end marker loses its tag byte
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        for p in trace.topology.proc_ids() {
            while replay.next_event(p).is_some() {}
        }
    }

    #[test]
    #[should_panic(expected = "unknown event tag")]
    fn unknown_tag_is_reported() {
        let mut bytes = header(2, 1);
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(9);
        bytes.extend_from_slice(&[0; 8]);
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        replay.exhausted(ProcId(0));
    }

    #[test]
    #[should_panic(expected = "outside the topology")]
    fn record_for_a_processor_outside_the_topology_is_rejected() {
        let mut bytes = header(2, 1);
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.push(2);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        replay.next_event(ProcId(0));
    }

    #[test]
    fn clean_end_of_file_ends_every_stream() {
        // Records without any end marker: end of file ends every stream.
        let mut bytes = header(2, 2);
        for p in [3u16, 0, 3] {
            bytes.extend_from_slice(&p.to_le_bytes());
            bytes.push(2);
            bytes.extend_from_slice(&u32::from(p + 10).to_le_bytes());
        }
        let mut replay = ReplaySource::from_reader(&bytes[..]).unwrap();
        assert_eq!(replay.next_event(ProcId(0)), Some(TraceEvent::Compute(10)));
        assert!(replay.exhausted(ProcId(1)));
        for p in 0..4u16 {
            let expected = if p == 3 { 2 } else { 0 };
            let mut n = 0;
            while replay.next_event(ProcId(p)).is_some() {
                n += 1;
            }
            assert_eq!(n, expected, "proc {p}");
            assert!(replay.exhausted(ProcId(p)));
        }
        assert!(replay.take_error().is_none());
        // A header with no records at all is an empty trace.
        let bare = header(1, 1);
        let mut empty = ReplaySource::from_reader(&bare[..]).unwrap();
        assert!(empty.exhausted(ProcId(0)));
        assert_eq!(empty.next_event(ProcId(0)), None);
    }

    #[test]
    fn window_cap_poisons_instead_of_growing() {
        // Every record of proc 0 comes before proc 1's end marker: pulling
        // proc 1 first must stop at the cap, not park proc 0's stream.
        let mut bytes = header(2, 1);
        for i in 0..100_000u64 {
            bytes.extend_from_slice(&0u16.to_le_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&(i * 64).to_le_bytes());
        }
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(6);
        let mut replay = ReplaySource::from_reader(&bytes[..])
            .unwrap()
            .with_window_cap(10_000);
        assert!(replay.next_event(ProcId(1)).is_none());
        assert!(replay.buffered_events() <= 10_000);
        assert!(matches!(
            replay.take_error(),
            Some(TraceError::StreamWindowExceeded { cap: 10_000, .. })
        ));
        // Poisoned: everything reports exhausted.
        assert!(replay.exhausted(ProcId(0)));
        assert_eq!(replay.next_burst(ProcId(0), &mut Vec::new(), 8), 0);
    }

    #[test]
    fn file_round_trip() {
        let trace = toy_trace();
        let path = std::env::temp_dir().join("dsm-repro-replay-test.trc");
        record_to_file(&mut trace.source(), &path).unwrap();
        let mut replay = ReplaySource::open(&path).unwrap();
        let mut events = 0usize;
        for p in trace.topology.proc_ids() {
            while replay.next_event(p).is_some() {
                events += 1;
            }
        }
        assert_eq!(events, trace.total_events());
        std::fs::remove_file(&path).ok();
    }
}
