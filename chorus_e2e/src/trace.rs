//! The traced run: spans recorded from outside the crates.
//!
//! Two sources feed one event log. A bench-owned [`SpanLayer`] (the
//! public `chorus_core::Layer` trait) sits on both endpoints and stamps
//! every message at the four points where it crosses the session API;
//! the driver stamps the calls it makes itself (`session_with_id`,
//! `epp_and_run`, `unwrap` + check). Events carry the session id, which
//! is the op id, so the spans of one op share an identifier.
//!
//! Events go to per-thread buffers allocated once, and are only
//! collected, analysed and written out after the measured loop ends.

use chorus_core::{Layer, MessageCtx};
use std::cell::RefCell;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The points of one op's life, in the order a blocking op meets them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Point {
    /// Driver: about to open the session (blocking) or spawn (pooled).
    OpStart = 0,
    /// Driver: `session_with_id` returned.
    SessionOpened = 1,
    /// Layer, client endpoint: request enters the transport.
    ClientSend = 2,
    /// Layer, server endpoint: request popped from the mailbox.
    ServerRecv = 3,
    /// Layer, server endpoint: response enters the transport.
    ServerSend = 4,
    /// Layer, client endpoint: response popped from the mailbox.
    ClientRecv = 5,
    /// Driver: `epp_and_run` returned.
    EppDone = 6,
    /// Driver: reply unwrapped and checked (pooled: program resolved).
    OpEnd = 7,
}

const POINTS: usize = 8;

#[derive(Clone, Copy)]
struct Event {
    t_ns: u64,
    /// `session << 8 | point`.
    tag: u64,
}

/// Events one thread may record before further ones are dropped (and
/// counted): 32 MiB per recording thread.
const THREAD_CAPACITY: usize = 2 << 20;

#[derive(Default)]
struct ThreadBuf {
    events: Vec<Event>,
    dropped: u64,
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    REGISTRY.get_or_init(Default::default)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static BUF: RefCell<Option<Arc<Mutex<ThreadBuf>>>> = const { RefCell::new(None) };
}

/// Allocates the calling thread's buffer. Recording does this on first
/// use; threads the driver owns call it before the timed loop.
pub fn init_thread() {
    epoch();
    BUF.with(|slot| {
        slot.borrow_mut().get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf {
                events: Vec::with_capacity(THREAD_CAPACITY),
                dropped: 0,
            }));
            registry().lock().expect("trace registry poisoned").push(Arc::clone(&buf));
            buf
        });
    });
}

/// Stamps `point` of op `session` on the calling thread.
pub fn record(point: Point, session: u64) {
    init_thread();
    let t_ns = epoch().elapsed().as_nanos() as u64;
    BUF.with(|slot| {
        let slot = slot.borrow();
        // Uncontended: only this thread locks it until collection.
        let mut buf = slot.as_ref().expect("initialised above").lock().expect("trace buffer");
        if buf.events.len() < THREAD_CAPACITY {
            buf.events.push(Event { t_ns, tag: session << 8 | point as u64 });
        } else {
            buf.dropped += 1;
        }
    });
}

/// Which endpoint a [`SpanLayer`] is installed on.
#[derive(Clone, Copy)]
pub enum Side {
    Client,
    Server,
}

/// The bench-owned layer: one event per message per endpoint.
pub struct SpanLayer(pub Side);

impl Layer for SpanLayer {
    fn on_send(&self, ctx: &MessageCtx<'_>, _payload: &[u8]) {
        let point = match self.0 {
            Side::Client => Point::ClientSend,
            Side::Server => Point::ServerSend,
        };
        record(point, ctx.session);
    }

    fn on_receive(&self, ctx: &MessageCtx<'_>, _payload: &[u8]) {
        let point = match self.0 {
            Side::Client => Point::ClientRecv,
            Side::Server => Point::ServerRecv,
        };
        record(point, ctx.session);
    }
}

/// Per-op medians of the five segments that partition an op, plus the
/// counts taken at the same boundaries.
#[derive(Default, Clone)]
pub struct TraceSummary {
    pub ops: u64,
    pub events: u64,
    pub dropped: u64,
    pub client_pre_send_ns: f64,
    pub req_transit_ns: f64,
    pub server_handle_ns: f64,
    pub resp_transit_ns: f64,
    pub client_post_recv_ns: f64,
}

/// One op's timestamps by [`Point`]; `None` where the point was not
/// recorded (pooled ops have no `SessionOpened`/`EppDone`).
type OpPoints = [Option<u64>; POINTS];

/// Drains every thread's buffer into per-op point tables, ordered by
/// session id. Ops outside `sessions` (warm-up) are discarded.
fn collect(sessions: std::ops::Range<u64>) -> (Vec<(u64, OpPoints)>, u64, u64) {
    let mut events = Vec::new();
    let mut dropped = 0;
    for buf in registry().lock().expect("trace registry poisoned").iter() {
        let mut buf = buf.lock().expect("trace buffer");
        events.append(&mut buf.events);
        dropped += std::mem::take(&mut buf.dropped);
    }
    events.retain(|e| sessions.contains(&(e.tag >> 8)));
    events.sort_unstable_by_key(|e| (e.tag >> 8, e.t_ns));
    let total = events.len() as u64;
    let mut ops: Vec<(u64, OpPoints)> = Vec::new();
    for event in events {
        let session = event.tag >> 8;
        if ops.last().map(|(s, _)| *s) != Some(session) {
            ops.push((session, [None; POINTS]));
        }
        let (_, points) = ops.last_mut().expect("pushed above");
        points[(event.tag & 0xff) as usize].get_or_insert(event.t_ns);
    }
    (ops, total, dropped)
}

fn segment_median(ops: &[(u64, OpPoints)], from: Point, to: Point) -> f64 {
    let mut spans: Vec<u64> = ops
        .iter()
        .filter_map(|(_, p)| Some(p[to as usize]?.saturating_sub(p[from as usize]?)))
        .collect();
    spans.sort_unstable();
    crate::stats::percentile(&spans, 0.5) as f64
}

/// Collects the events of ops `sessions`, appends their spans to
/// `out` (at most `max_ops_written` ops) and returns the summary.
pub fn finish(
    workload: &str,
    sessions: std::ops::Range<u64>,
    out: &mut std::io::BufWriter<std::fs::File>,
    max_ops_written: usize,
) -> std::io::Result<TraceSummary> {
    let (ops, events, dropped) = collect(sessions);
    let summary = TraceSummary {
        ops: ops.len() as u64,
        events,
        dropped,
        client_pre_send_ns: segment_median(&ops, Point::OpStart, Point::ClientSend),
        req_transit_ns: segment_median(&ops, Point::ClientSend, Point::ServerRecv),
        server_handle_ns: segment_median(&ops, Point::ServerRecv, Point::ServerSend),
        resp_transit_ns: segment_median(&ops, Point::ServerSend, Point::ClientRecv),
        client_post_recv_ns: segment_median(&ops, Point::ClientRecv, Point::OpEnd),
    };
    for (session, points) in ops.iter().take(max_ops_written) {
        write_op_spans(out, workload, *session, points)?;
    }
    Ok(summary)
}

/// The span tree of one op: name, parent, start point, end point.
/// `epp_and_run`'s self time (its span minus the three children) is the
/// client-side projection, serialization and deserialization.
const SPAN_TREE: [(&str, Option<&str>, Point, Point); 7] = [
    ("op", None, Point::OpStart, Point::OpEnd),
    ("session_open", Some("op"), Point::OpStart, Point::SessionOpened),
    ("epp_and_run", Some("op"), Point::SessionOpened, Point::EppDone),
    ("req_transit", Some("epp_and_run"), Point::ClientSend, Point::ServerRecv),
    ("server_handle", Some("epp_and_run"), Point::ServerRecv, Point::ServerSend),
    ("resp_transit", Some("epp_and_run"), Point::ServerSend, Point::ClientRecv),
    ("unwrap_check", Some("op"), Point::EppDone, Point::OpEnd),
];

fn write_op_spans(
    out: &mut impl std::io::Write,
    workload: &str,
    session: u64,
    points: &OpPoints,
) -> std::io::Result<()> {
    // Pooled ops have no driver-side session/epp boundaries: their
    // transit and handle spans hang directly off the op.
    let pooled = points[Point::SessionOpened as usize].is_none();
    for (name, parent, from, to) in SPAN_TREE {
        let (Some(start), Some(end)) = (points[from as usize], points[to as usize]) else {
            continue;
        };
        let parent = match parent {
            Some("epp_and_run") if pooled => Some("op"),
            other => other,
        };
        let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{session},\"span\":\"{name}\",\
             \"parent\":{parent},\"start_ns\":{start},\"end_ns\":{end}}}"
        )?;
    }
    Ok(())
}

/// Opens the trace file and writes its header line.
pub fn create(path: &str, seed: u64) -> std::io::Result<std::io::BufWriter<std::fs::File>> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"meta\":\"chorus_e2e trace\",\"seed\":{seed},\"clock\":\"ns since first event\",\
         \"note\":\"one line per span; spans of one op share workload+op; self time = span minus children\"}}"
    )?;
    Ok(out)
}
