//! The load generator: one thread, one nonblocking connection, sending
//! pre-encoded frames flat-out or on an open-loop schedule, and reading
//! verdicts as they arrive.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use iustitia_corpus::FileClass;
use iustitia_serve::proto::write_frame;
use iustitia_serve::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use iustitia_serve::{FrameAssembler, Request, Response, Stage, StatsSnapshot};

use crate::workload::{Pace, Prepared};

/// How long the client waits for the server before calling the run a
/// transport failure.
const STALL: Duration = Duration::from_secs(60);

/// A flat-out client keeps at most this many packets in flight: sent
/// but not yet processed by a shard. Without a bound the backlog, and
/// with it verdict latency and memory, depends on how far the kernel
/// grows the socket buffers and how long a shard thread waits for a
/// CPU in a given run.
const FLAT_WINDOW: usize = 4096;
/// It learns the shards' progress from `Stats` replies, asking after
/// every this many packets sent...
const PROBE_EVERY: usize = 512;
/// ...and, while the window is full and every reply is in, again after
/// this many nanoseconds.
const PROBE_GAP_NS: u64 = 250_000;

/// One verdict as the client received it.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    /// Flow index (from the verdict's tuple).
    pub flow: u32,
    /// Assigned label.
    pub label: FileClass,
    /// Bytes buffered at the verdict.
    pub buffered_bytes: u32,
    /// Arrival, in nanoseconds since the first send.
    pub at_ns: u64,
}

/// Everything one pass of the trace through the server produced.
pub struct Pass {
    /// Verdicts in arrival order.
    pub verdicts: Vec<Received>,
    /// `Busy` replies.
    pub busy: u64,
    /// When each packet was due (paced) or handed to the socket (flat),
    /// in nanoseconds since the first send.
    pub due_ns: Vec<u64>,
    /// How late the generator sent each burst (paced), or how long each
    /// write waited for the socket (flat), in nanoseconds.
    pub lag_ns: Vec<u64>,
    /// First send to `DrainComplete`, in seconds.
    pub wall_s: f64,
    /// Stats replies received (mid-stream samples, then the final one).
    pub stats_replies: usize,
    /// Largest pending-flow count and resident feature bytes any reply
    /// showed.
    pub peak_pending: u64,
    /// See `peak_pending`.
    pub peak_resident: u64,
    /// The latest Stats reply.
    pub last_stats: Option<Box<StatsSnapshot>>,
    /// Packets before the first data packet the shards had not yet
    /// processed, as of the latest Stats reply.
    pub processed: usize,
}

impl Pass {
    /// An empty pass with its buffers already resident, so that filling
    /// them does not count towards the server's peak memory.
    pub fn with_room(prepared: &Prepared) -> Pass {
        fn touched<T: Clone>(len: usize, fill: T) -> Vec<T> {
            let mut v = vec![fill; len];
            v.clear();
            v
        }
        let n = prepared.packets();
        let flows = prepared.truth.len();
        let none = Received { flow: 0, label: FileClass::Text, buffered_bytes: 0, at_ns: 0 };
        Pass {
            verdicts: touched(flows + flows / 4, none),
            busy: 0,
            due_ns: touched(n, 0),
            lag_ns: touched(n, 0),
            wall_s: 0.0,
            stats_replies: 0,
            peak_pending: 0,
            peak_resident: 0,
            last_stats: None,
            processed: 0,
        }
    }
}

/// Reads every complete response frame available without blocking.
struct Reader {
    asm: FrameAssembler,
    scratch: Vec<u8>,
    pass: Pass,
    drained: bool,
}

impl Reader {
    /// Drains the socket; returns whether any bytes arrived.
    fn pump(
        &mut self,
        stream: &mut TcpStream,
        prepared: &Prepared,
        t0: Instant,
    ) -> Result<bool, String> {
        let mut progressed = false;
        let mut closed = false;
        loop {
            match self.asm.fill_from(stream, &mut self.scratch) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(_) => progressed = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        if progressed {
            let at_ns = t0.elapsed().as_nanos() as u64;
            while let Some((t, body)) = self.asm.next_frame().map_err(|e| format!("frame: {e}"))? {
                match Response::decode(t, &body).map_err(|e| format!("decode: {e}"))? {
                    Response::FlowVerdict(v) => {
                        let flow = *prepared
                            .flow_of
                            .get(&v.tuple)
                            .ok_or_else(|| format!("verdict for unknown tuple {:?}", v.tuple))?;
                        self.pass.verdicts.push(Received {
                            flow,
                            label: v.label,
                            buffered_bytes: v.buffered_bytes,
                            at_ns,
                        });
                    }
                    Response::Busy(_) => self.pass.busy += 1,
                    Response::Stats(s) => {
                        self.pass.stats_replies += 1;
                        // Shards record one stage sample per data packet.
                        let done: u64 = [Stage::CdbLookup, Stage::BufferFill, Stage::Classify]
                            .iter()
                            .map(|&stage| s.stage(stage).count())
                            .sum();
                        self.pass.processed = prepared
                            .data_packets
                            .get(done as usize)
                            .map_or(prepared.packets(), |&i| i as usize);
                        self.pass.peak_pending = self.pass.peak_pending.max(s.pending_flows());
                        self.pass.peak_resident =
                            self.pass.peak_resident.max(s.resident_feature_bytes());
                        self.pass.last_stats = Some(s);
                    }
                    Response::DrainComplete(_) => self.drained = true,
                    Response::Error(msg) => return Err(format!("server error: {msg}")),
                    other => return Err(format!("unexpected reply {other:?}")),
                }
            }
        }
        if closed {
            return Err("server closed the connection".into());
        }
        Ok(progressed)
    }
}

/// Waits up to 10 ms for the socket to become readable, or also
/// writable when `write` is set.
fn wait(epoll: &Epoll, stream: &TcpStream, write: bool) -> Result<(), String> {
    let interest = if write { EPOLLIN | EPOLLOUT } else { EPOLLIN };
    epoll.modify(stream.as_raw_fd(), 0, interest).map_err(|e| format!("epoll: {e}"))?;
    let mut events = [EpollEvent { events: 0, token: 0 }; 4];
    epoll.wait(&mut events, 10).map_err(|e| format!("epoll: {e}"))?;
    Ok(())
}

/// Writes all of `bytes`, pumping replies while the socket is full.
fn write_all(
    stream: &mut TcpStream,
    epoll: &Epoll,
    reader: &mut Reader,
    prepared: &Prepared,
    t0: Instant,
    mut bytes: &[u8],
) -> Result<(), String> {
    let mut stalled_since: Option<Instant> = None;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(n) => {
                bytes = &bytes[n..];
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if !reader.pump(stream, prepared, t0)? {
                    wait(epoll, stream, true)?;
                }
                if stalled_since.get_or_insert_with(Instant::now).elapsed() > STALL {
                    return Err("server stopped reading".into());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// Sends the prepared trace to the server at `addr`, then `Drain`, then
/// `Stats`, and collects every reply into `pass`. With `sample_every`,
/// a paced client also sends a `Stats` request every that many packets
/// (a flat-out client always probes, see [`FLAT_WINDOW`]).
///
/// # Errors
///
/// A transport or protocol failure, or a server that stops answering.
pub fn run_pass(
    addr: SocketAddr,
    prepared: &Prepared,
    pace: Pace,
    sample_every: Option<usize>,
    pass: Pass,
) -> Result<Pass, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    let epoll = Epoll::new().map_err(|e| format!("epoll: {e}"))?;
    epoll.add(stream.as_raw_fd(), 0, EPOLLIN).map_err(|e| format!("epoll: {e}"))?;

    let n = prepared.packets();
    let mut reader =
        Reader { asm: FrameAssembler::new(), scratch: vec![0u8; 1 << 16], pass, drained: false };
    let frames = &prepared.frames;
    let mut stats_frame = Vec::new();
    let (t, body) = Request::Stats.encode().map_err(|e| e.to_string())?;
    write_frame(&mut stats_frame, t, &body).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    match pace {
        Pace::Flat => {
            // Hand the kernel as much as the window allows per write;
            // stamp each packet with the moment its whole frame was
            // accepted.
            let mut off = 0usize;
            let mut probes = 0usize;
            let mut probed_at = 0usize;
            let mut probed_ns = 0u64;
            let mut blocked_at: Option<u64> = None;
            let mut stalled_since: Option<Instant> = None;
            while off < frames.len() {
                let now = t0.elapsed().as_nanos() as u64;
                let sent = reader.pass.due_ns.len();
                let allowed = n.min(reader.pass.processed + FLAT_WINDOW);
                let full = sent >= allowed;
                let idle = probes == reader.pass.stats_replies;
                // A probe must not split a packet's frame.
                let at_boundary = off == if sent == 0 { 0 } else { prepared.ends[sent - 1] };
                let due = sent - probed_at >= PROBE_EVERY
                    || (idle && full && now >= probed_ns + PROBE_GAP_NS);
                if at_boundary && due {
                    probes += 1;
                    probed_at = sent;
                    probed_ns = now;
                    write_all(&mut stream, &epoll, &mut reader, prepared, t0, &stats_frame)?;
                    continue;
                }
                if full && at_boundary {
                    blocked_at.get_or_insert(now);
                    if idle {
                        // Let the shards work before asking again.
                        std::thread::sleep(Duration::from_nanos(
                            (probed_ns + PROBE_GAP_NS).saturating_sub(now),
                        ));
                    } else if !reader.pump(&mut stream, prepared, t0)? {
                        wait(&epoll, &stream, false)?;
                    }
                    if stalled_since.get_or_insert_with(Instant::now).elapsed() > STALL {
                        return Err("server stopped processing".into());
                    }
                    continue;
                }
                let limit = prepared.ends[allowed.max(sent + 1) - 1];
                match stream.write(&frames[off..limit]) {
                    Ok(k) => {
                        off += k;
                        let now = t0.elapsed().as_nanos() as u64;
                        if let Some(since) = blocked_at.take() {
                            reader.pass.lag_ns.push(now - since);
                        }
                        let newly = prepared.ends[sent..].partition_point(|&end| end <= off);
                        reader.pass.due_ns.extend(std::iter::repeat_n(now, newly));
                        stalled_since = None;
                        reader.pump(&mut stream, prepared, t0)?;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        blocked_at.get_or_insert(now);
                        if !reader.pump(&mut stream, prepared, t0)? {
                            wait(&epoll, &stream, true)?;
                        }
                        if stalled_since.get_or_insert_with(Instant::now).elapsed() > STALL {
                            return Err("server stopped reading".into());
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
        }
        Pace::Rate(rate) => {
            // Send every packet that is due, then sleep until the next
            // one is: bursts of a few packets per wake-up.
            let interval_ns = 1e9 / rate;
            let due = |i: usize| (i as f64 * interval_ns) as u64;
            let mut next_sample = sample_every;
            let mut i = 0usize;
            while i < n {
                let now = t0.elapsed().as_nanos() as u64;
                let mut end = i;
                while end < n && due(end) <= now {
                    end += 1;
                }
                if end > i {
                    let start = if i == 0 { 0 } else { prepared.ends[i - 1] };
                    for k in i..end {
                        reader.pass.due_ns.push(due(k));
                        reader.pass.lag_ns.push(now - due(k));
                    }
                    let burst = &frames[start..prepared.ends[end - 1]];
                    write_all(&mut stream, &epoll, &mut reader, prepared, t0, burst)?;
                    i = end;
                    if next_sample.is_some_and(|k| i >= k) {
                        next_sample = next_sample.map(|k| k + sample_every.unwrap_or(k));
                        write_all(&mut stream, &epoll, &mut reader, prepared, t0, &stats_frame)?;
                    }
                }
                reader.pump(&mut stream, prepared, t0)?;
                if i < n {
                    let now = t0.elapsed().as_nanos() as u64;
                    if due(i) > now {
                        std::thread::sleep(Duration::from_nanos(due(i) - now));
                    }
                }
            }
        }
    }

    let mut control = Vec::new();
    let (t, body) = Request::Drain.encode().map_err(|e| e.to_string())?;
    write_frame(&mut control, t, &body).map_err(|e| e.to_string())?;
    write_all(&mut stream, &epoll, &mut reader, prepared, t0, &control)?;
    wait_for(&mut stream, &epoll, &mut reader, prepared, t0, |r| r.drained)?;
    reader.pass.wall_s = t0.elapsed().as_secs_f64();

    let expected = reader.pass.stats_replies + 1;
    control.clear();
    let (t, body) = Request::Stats.encode().map_err(|e| e.to_string())?;
    write_frame(&mut control, t, &body).map_err(|e| e.to_string())?;
    write_all(&mut stream, &epoll, &mut reader, prepared, t0, &control)?;
    wait_for(&mut stream, &epoll, &mut reader, prepared, t0, |r| r.pass.stats_replies >= expected)?;
    Ok(reader.pass)
}

/// Pumps replies until `done` holds.
fn wait_for(
    stream: &mut TcpStream,
    epoll: &Epoll,
    reader: &mut Reader,
    prepared: &Prepared,
    t0: Instant,
    done: impl Fn(&Reader) -> bool,
) -> Result<(), String> {
    let start = Instant::now();
    while !done(reader) {
        if !reader.pump(stream, prepared, t0)? {
            if start.elapsed() > STALL {
                return Err("no reply from the server".into());
            }
            wait(epoll, stream, false)?;
        }
    }
    Ok(())
}
