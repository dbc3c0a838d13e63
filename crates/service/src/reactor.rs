//! The connection reactor: a small fixed pool of I/O threads that owns
//! every accepted socket and runs a per-connection state machine over
//! non-blocking reads and writes, so thousands of idle keep-alive
//! connections cost bookkeeping, not parked OS threads.
//!
//! This is the paper's own argument applied to the service front end:
//! latency (here, a client that is mostly *waiting*) is tolerated by
//! overlapping it with useful work, and a blocked thread overlaps
//! nothing. The previous thread-per-connection front end parked one
//! stack per idle client, capping concurrent keep-alive clients at
//! spawnable-thread count; the reactor caps *threads* at
//! `--io-threads` (default 2) and lets connection count grow until file
//! descriptors run out.
//!
//! ## State machine
//!
//! Each connection moves through the [`ConnPhase`] gauges:
//!
//! ```text
//!  accept → Idle ⇄ Reading → (inline answer) → Writing ─┐
//!                     │                                  │ keep-alive
//!                     └──→ Dispatched ──→ Writing ───────┴──→ Idle
//! ```
//!
//! * **Idle/Reading** — bytes are fed to the resumable
//!   [`RequestParser`]; a complete request is routed through the
//!   server's route table (`server::route`). Inline endpoints (healthz,
//!   metrics, cluster introspection, hint delivery, and the 404/405 of a
//!   table miss) are answered on the reactor thread; blocking ones
//!   (solves waiting on deadlines, cluster forwards) and any request
//!   with injected latency are offloaded to the elastic handler pool.
//! * **Dispatched** — a handler thread owns the request. The reactor
//!   keeps watching the socket for EOF (half-close: the response is
//!   still delivered) and for pipelined bytes, which buffer up to the
//!   parser's pipeline cap; past it, reads defer so a client flooding
//!   bytes behind a slow solve meets TCP backpressure instead of
//!   growing an in-process buffer for the dispatch duration.
//! * **Writing** — the serialized response drains on writability; a
//!   keep-alive connection then returns to Idle (or straight to parsing
//!   buffered pipelined bytes).
//!
//! ## Wakeup mechanism
//!
//! Reactor threads sleep in `recv_timeout` on their shard's message
//! channel, so the channel doubles as the wakeup path (the no-deps
//! stand-in for a self-pipe): registering a socket or delivering a
//! completed response wakes the shard immediately; otherwise it wakes
//! on an adaptive poll timeout — zero after a round that made progress,
//! then 20 µs, doubling up to 1 ms while any connection was active in
//! the last 100 ms and up to 5 ms when every connection is quiet. A
//! client's next keep-alive request is read on one of those polls, so
//! the short first step is what keeps a request/response loop fast.
//! Long-idle connections are swept on a slower cadence than recently
//! active ones, bounding the per-round syscall cost of thousands of
//! parked sockets. The `reactor.wakeups` counter tracks the channel
//! wakeups.
//!
//! ## Timeouts
//!
//! The reactor enforces the idle timeout without blocking on any
//! socket: an Idle connection past the limit is closed silently (the
//! keep-alive contract, unchanged from the thread-per-connection
//! front end's read timeout); a connection stalled *mid-request*
//! (slow-loris headers, a dribbled body) is answered with a structured
//! `408` and closed; a Writing peer that stops reading is closed.
//! Dispatched connections are exempt — the handler's own request
//! deadline (already capped) bounds them, with a generous hard cap as
//! the safety net, and an abandoned dispatch answers `503` through
//! `Completion`'s drop guard rather than leaking the connection.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::ApiError;
use crate::http::{ParseStatus, RequestParser, Response};
use crate::metrics::ConnPhase;
use crate::server::{route, Routed, ServiceState};
use crate::sync::lock_ok;

/// Longest the adaptive poll sleeps when recently-active connections
/// exist (bounds added latency on a hot keep-alive connection).
const HOT_POLL_CAP: Duration = Duration::from_millis(1);
/// Longest the adaptive poll sleeps when every connection is quiet.
const IDLE_POLL_CAP: Duration = Duration::from_millis(5);
/// Shortest non-zero poll sleep (first step of the backoff). A
/// keep-alive client's next request lands within a few tens of
/// microseconds of its response, and no socket readiness wakes the
/// shard, so this step bounds how long that request waits to be read.
const MIN_POLL: Duration = Duration::from_micros(20);
/// Connections active within this window are polled every round; older
/// ones wait for the cold sweep.
const HOT_WINDOW: Duration = Duration::from_millis(100);
/// How often long-idle connections are swept for new bytes, EOF, and
/// idle-timeout expiry.
const COLD_SWEEP_EVERY: Duration = Duration::from_millis(10);
/// How long a draining shard waits for in-flight responses at shutdown.
const DRAIN_WAIT: Duration = Duration::from_secs(5);
/// Most reads one connection gets per pump, so a firehose client cannot
/// starve its shard-mates.
const READS_PER_PUMP: usize = 8;
/// Safety net for a Dispatched connection whose completion never
/// arrives: past every permissible request deadline, so it only fires
/// if the drop-guard path itself was lost.
const DISPATCH_HARD_CAP: Duration = Duration::from_secs(630);

/// Messages a reactor shard wakes up for.
pub(crate) enum ReactorMsg {
    /// A freshly accepted socket to own.
    Register(TcpStream),
    /// A handler finished the request on connection `token`.
    Complete {
        /// Slot/generation token minted at dispatch time.
        token: u64,
        /// The response, ready to serialize.
        resp: Response,
    },
    /// Drain and exit.
    Shutdown,
}

/// One request's reply path back to its reactor shard. Delivering is a
/// channel send (which wakes the shard); *dropping* without delivering
/// answers a structured `503`, so a request abandoned anywhere — a
/// handler panic, a job dropped by a closed queue, a failed thread
/// spawn — degrades into a refusal instead of a hung connection.
pub(crate) struct Completion {
    tx: Sender<ReactorMsg>,
    token: u64,
    sent: bool,
}

impl Completion {
    /// Send the response back to the reactor.
    pub(crate) fn deliver(mut self, resp: Response) {
        self.sent = true;
        // lt-lint: allow(LT07, best effort: the shard only disappears during shutdown, when the connection is already gone)
        let _ = self.tx.send(ReactorMsg::Complete {
            token: self.token,
            resp,
        });
    }

    /// Consume the handle without responding (the caller answered — or
    /// deliberately closed the connection — through another path).
    pub(crate) fn cancel(mut self) {
        self.sent = true;
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        let err = ApiError::unavailable("request was dropped before a handler could run it");
        // lt-lint: allow(LT07, best effort: the shard only disappears during shutdown, when the connection is already gone)
        let _ = self.tx.send(ReactorMsg::Complete {
            token: self.token,
            resp: Response::from(err).with_close(),
        });
    }
}

/// Handle to the reactor shards; owned by the server alongside the
/// accept loop.
pub(crate) struct Reactor {
    shards: Vec<Sender<ReactorMsg>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
}

impl Reactor {
    /// Spawn `io_threads` reactor shards (clamped to 1..=64).
    pub(crate) fn start(state: &Arc<ServiceState>, io_threads: usize) -> Arc<Reactor> {
        let io_threads = io_threads.clamp(1, 64);
        let mut shards = Vec::with_capacity(io_threads);
        let mut handles = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let (tx, rx) = channel::<ReactorMsg>();
            let shard_tx = tx.clone();
            let state = Arc::clone(state);
            let handle = std::thread::Builder::new()
                .name(format!("latencyd-io-{i}"))
                .spawn(move || shard_loop(&state, &rx, &shard_tx))
                // lt-lint: allow(LT01, startup fail-fast: a server that cannot spawn its I/O threads cannot serve at all)
                .expect("spawn reactor thread");
            shards.push(tx);
            handles.push(handle);
        }
        Arc::new(Reactor {
            shards,
            handles: Mutex::new(handles),
            next: AtomicUsize::new(0),
        })
    }

    /// Hand an accepted socket to a shard (round-robin). On failure the
    /// socket comes back so the accept loop can refuse it with a
    /// structured `503` instead of a silent drop.
    pub(crate) fn register(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        match self.shards[i].send(ReactorMsg::Register(stream)) {
            Ok(()) => Ok(()),
            Err(e) => {
                if let ReactorMsg::Register(stream) = e.0 {
                    Err(stream)
                } else {
                    // send() hands back the exact message we put in,
                    // and this function only ever sends Register.
                    // lt-lint: allow(LT01, invariant: send returns the message it was given, and this arm only ever sends Register)
                    unreachable!("register() only sends Register")
                }
            }
        }
    }

    /// Signal every shard to drain and join them. Each shard flushes
    /// in-flight responses bounded by [`DRAIN_WAIT`], so the joins are
    /// bounded too.
    pub(crate) fn shutdown(&self) {
        for tx in &self.shards {
            // lt-lint: allow(LT07, best effort: a shard that already exited needs no shutdown message)
            let _ = tx.send(ReactorMsg::Shutdown);
        }
        for h in lock_ok(&self.handles).drain(..) {
            // lt-lint: allow(LT07, best effort: a panicked shard has nothing left to report at join)
            // lt-lint: allow(LT10, bounded: shards drain within DRAIN_WAIT of the Shutdown message sent above)
            let _ = h.join();
        }
    }
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    phase: ConnPhase,
    /// Bumped when the slot is reused; stale completions are discarded.
    generation: u32,
    last_activity: Instant,
    /// When the first byte of the in-progress request arrived; the
    /// whole request must complete within the idle timeout of this.
    request_started: Option<Instant>,
    /// When the current request was handed to a handler.
    dispatch_started: Option<Instant>,
    /// Close after the current response (client asked, or shutdown).
    close_after_write: bool,
    /// The response being written says `Connection: close`.
    closing: bool,
    /// The peer half-closed; serve the pending response, then close.
    peer_eof: bool,
    write_buf: Vec<u8>,
    written: usize,
}

/// What a connection pump decided.
enum Step {
    /// Keep the connection.
    Keep,
    /// Close it and free the slot.
    Close,
}

fn token_of(slot: usize, generation: u32) -> u64 {
    ((slot as u64) << 32) | u64::from(generation)
}

fn shard_loop(state: &Arc<ServiceState>, rx: &Receiver<ReactorMsg>, tx: &Sender<ReactorMsg>) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    // Free slots, each carrying the generation its next occupant gets
    // (so a stale completion can never hit a successor connection).
    let mut free: Vec<(usize, u32)> = Vec::new();
    let mut scratch = [0u8; 8 * 1024];
    let mut backoff = Duration::ZERO;
    let mut last_cold_sweep = Instant::now();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // 1. Message pump: sleep here when quiet — a registration or a
        // completion is the wakeup.
        let mut wakeups: u64 = 0;
        let mut progress = false;
        match rx.recv_timeout(backoff) {
            Ok(msg) => {
                wakeups += 1;
                progress |= handle_msg(state, &mut conns, &mut free, msg, &mut drain_deadline);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_WAIT);
            }
        }
        while let Ok(msg) = rx.try_recv() {
            wakeups += 1;
            progress |= handle_msg(state, &mut conns, &mut free, msg, &mut drain_deadline);
        }
        state.metrics.record_reactor_wakeups(wakeups);

        // 2. Poll connections: hot ones every round, the long-idle herd
        // only on the cold-sweep cadence.
        let now = Instant::now();
        let cold_sweep = now.duration_since(last_cold_sweep) >= COLD_SWEEP_EVERY;
        if cold_sweep {
            last_cold_sweep = now;
        }
        let mut any_hot = false;
        for slot in 0..conns.len() {
            let (step, changed) = {
                let Some(conn) = conns[slot].as_mut() else {
                    continue;
                };
                let hot = now.duration_since(conn.last_activity) < HOT_WINDOW;
                any_hot |= hot && conn.phase != ConnPhase::Dispatched;
                if !hot && !cold_sweep {
                    continue;
                }
                let before = (conn.last_activity, conn.phase);
                let step = pump_conn(
                    state,
                    tx,
                    conn,
                    slot,
                    &mut scratch,
                    drain_deadline.is_some(),
                );
                let changed = (conn.last_activity, conn.phase) != before;
                (step, changed)
            };
            match step {
                Step::Close => {
                    close_conn(state, &mut conns, &mut free, slot);
                    progress = true;
                }
                Step::Keep => progress |= changed,
            }
        }

        // 3. Shutdown drain: exit once nothing is mid-flight (or the
        // drain deadline passes).
        if let Some(deadline) = drain_deadline {
            let in_flight = conns.iter().flatten().count();
            if in_flight == 0 || Instant::now() >= deadline {
                for slot in 0..conns.len() {
                    if conns[slot].is_some() {
                        close_conn(state, &mut conns, &mut free, slot);
                    }
                }
                return;
            }
        }

        // 4. Adaptive sleep.
        backoff = next_backoff(backoff, progress, any_hot);
    }
}

/// The poll sleep after a round: zero after progress (spin again at
/// once), otherwise [`MIN_POLL`] and then doubling, up to
/// [`HOT_POLL_CAP`] while recently active connections exist and
/// [`IDLE_POLL_CAP`] when every connection is quiet.
fn next_backoff(backoff: Duration, progress: bool, any_hot: bool) -> Duration {
    if progress {
        return Duration::ZERO;
    }
    let cap = if any_hot { HOT_POLL_CAP } else { IDLE_POLL_CAP };
    if backoff < MIN_POLL {
        MIN_POLL
    } else {
        (backoff * 2).min(cap)
    }
}

/// Apply one channel message. Returns whether it changed anything.
fn handle_msg(
    state: &Arc<ServiceState>,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<(usize, u32)>,
    msg: ReactorMsg,
    drain_deadline: &mut Option<Instant>,
) -> bool {
    match msg {
        ReactorMsg::Register(stream) => {
            if drain_deadline.is_some() {
                // Shutting down: the accept loop has already stopped;
                // anything still in the pipe just closes.
                return false;
            }
            register_conn(state, conns, free, stream)
        }
        ReactorMsg::Complete { token, resp } => {
            let slot = (token >> 32) as usize;
            let generation = token as u32;
            let step = {
                let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return false; // the connection died while the handler ran
                };
                if conn.generation != generation || conn.phase != ConnPhase::Dispatched {
                    return false; // stale completion for a reused slot
                }
                conn.dispatch_started = None;
                begin_write(state, conn, resp);
                pump_conn_write(state, conn)
            };
            if let Step::Close = step {
                close_conn(state, conns, free, slot);
            }
            // Pipelined bytes buffered during the dispatch are picked up
            // by the poll pass that follows this message pump: the write
            // above refreshed `last_activity`, so the connection is hot.
            true
        }
        ReactorMsg::Shutdown => {
            drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_WAIT);
            true
        }
    }
}

/// Take ownership of a freshly accepted socket.
fn register_conn(
    state: &Arc<ServiceState>,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<(usize, u32)>,
    stream: TcpStream,
) -> bool {
    if stream.set_nonblocking(true).is_err() {
        // A socket that cannot go non-blocking would hang the shard on
        // its first read; refuse it instead.
        state.metrics.record_accept_error();
        return false;
    }
    // lt-lint: allow(LT07, best effort: without nodelay the responses are merely slower, not wrong)
    let _ = stream.set_nodelay(true);
    let (generation, slot) = match free.pop() {
        Some((slot, generation)) => (generation, Some(slot)),
        None => (0, None),
    };
    let conn = Conn {
        stream,
        parser: RequestParser::new(state.max_body_bytes()),
        phase: ConnPhase::Idle,
        generation,
        last_activity: Instant::now(),
        request_started: None,
        dispatch_started: None,
        close_after_write: false,
        closing: false,
        peer_eof: false,
        write_buf: Vec::new(),
        written: 0,
    };
    state.metrics.conn_transition(None, Some(ConnPhase::Idle));
    match slot {
        Some(slot) => conns[slot] = Some(conn),
        None => conns.push(Some(conn)),
    }
    true
}

fn close_conn(
    state: &ServiceState,
    conns: &mut [Option<Conn>],
    free: &mut Vec<(usize, u32)>,
    slot: usize,
) {
    if let Some(conn) = conns[slot].take() {
        state.metrics.conn_transition(Some(conn.phase), None);
        free.push((slot, conn.generation.wrapping_add(1)));
        drop(conn); // closes the socket
    }
}

fn set_phase(state: &ServiceState, conn: &mut Conn, phase: ConnPhase) {
    if conn.phase != phase {
        state.metrics.conn_transition(Some(conn.phase), Some(phase));
        conn.phase = phase;
    }
}

/// Advance one connection as far as readiness allows.
fn pump_conn(
    state: &Arc<ServiceState>,
    tx: &Sender<ReactorMsg>,
    conn: &mut Conn,
    slot: usize,
    scratch: &mut [u8],
    draining: bool,
) -> Step {
    let now = Instant::now();
    match conn.phase {
        ConnPhase::Idle | ConnPhase::Reading => {
            if draining && !conn.parser.mid_request() {
                return Step::Close;
            }
            // Mid-request stall (slow-loris headers, dribbled body):
            // structured 408, never a parked thread.
            if let Some(started) = conn.request_started {
                if now.duration_since(started) > state.idle_timeout() {
                    return reject(state, conn, ApiError::stalled(state.idle_timeout()));
                }
            } else if now.duration_since(conn.last_activity) > state.idle_timeout() {
                // A quiet keep-alive connection past its welcome closes
                // silently, exactly like the old per-thread read timeout.
                return Step::Close;
            }
            match pump_read(state, conn, scratch) {
                Step::Close => Step::Close,
                Step::Keep => advance_requests(state, tx, conn, slot),
            }
        }
        ConnPhase::Dispatched => {
            // The handler owns the deadline; the hard cap only catches a
            // lost completion. Keep reading so a half-close is observed
            // (the response is still delivered) and pipelined bytes
            // buffer for later — but only up to the parser's pipeline
            // cap: nothing drains the parser while the request is
            // dispatched, so past the cap reads defer and TCP
            // backpressure holds further bytes in the kernel (the same
            // place the blocking front end left them). A firehose client
            // therefore buffers O(max_body) here, not O(bandwidth ×
            // dispatch time); deferred bytes (and a deferred EOF) are
            // picked up when the completion moves the connection on.
            if let Some(started) = conn.dispatch_started {
                if now.duration_since(started) > DISPATCH_HARD_CAP {
                    return Step::Close;
                }
            }
            if conn.peer_eof || conn.parser.buffered_len() >= conn.parser.pipeline_cap() {
                Step::Keep
            } else {
                pump_read(state, conn, scratch)
            }
        }
        ConnPhase::Writing => {
            if now.duration_since(conn.last_activity) > state.idle_timeout() {
                return Step::Close; // the peer stopped reading
            }
            match pump_conn_write(state, conn) {
                Step::Close => Step::Close,
                Step::Keep => {
                    if conn.phase == ConnPhase::Idle {
                        // Fully flushed; pipelined bytes may already
                        // hold the next request.
                        advance_requests(state, tx, conn, slot)
                    } else {
                        Step::Keep
                    }
                }
            }
        }
    }
}

/// Drain readable bytes into the parser (bounded per pump for
/// fairness). Returns `Close` only for a dead transport; EOF just sets
/// `peer_eof` — the buffered bytes may still hold a complete request
/// (a half-closed client awaiting its answer), so the verdict belongs
/// to [`advance_requests`], after the parser has seen everything.
fn pump_read(state: &ServiceState, conn: &mut Conn, scratch: &mut [u8]) -> Step {
    let mut reads = 0;
    loop {
        if reads >= READS_PER_PUMP {
            return Step::Keep;
        }
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                return Step::Keep;
            }
            Ok(n) => {
                reads += 1;
                conn.parser.feed(&scratch[..n]);
                conn.last_activity = Instant::now();
                if conn.request_started.is_none() && conn.phase != ConnPhase::Dispatched {
                    conn.request_started = Some(conn.last_activity);
                }
                if conn.phase == ConnPhase::Idle {
                    set_phase(state, conn, ConnPhase::Reading);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Step::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Step::Close,
        }
    }
}

/// Parse-and-route loop: serve as many buffered requests as possible
/// (responses permitting) from this connection.
fn advance_requests(
    state: &Arc<ServiceState>,
    tx: &Sender<ReactorMsg>,
    conn: &mut Conn,
    slot: usize,
) -> Step {
    loop {
        if conn.phase != ConnPhase::Idle && conn.phase != ConnPhase::Reading {
            return Step::Keep; // Dispatched/Writing: wait for readiness
        }
        match conn.parser.poll() {
            ParseStatus::Pending => {
                if conn.peer_eof {
                    if conn.parser.mid_request() {
                        // The peer vanished mid-request: make the refusal
                        // visible before closing.
                        return reject(state, conn, ApiError::bad_request("truncated request"));
                    }
                    // No complete request is coming anymore.
                    return Step::Close;
                }
                if conn.parser.mid_request() {
                    // Pipelined partial bytes restart the request clock.
                    if conn.request_started.is_none() {
                        conn.request_started = Some(Instant::now());
                    }
                    set_phase(state, conn, ConnPhase::Reading);
                } else {
                    conn.request_started = None;
                    set_phase(state, conn, ConnPhase::Idle);
                }
                return Step::Keep;
            }
            ParseStatus::Ready(req) => {
                conn.request_started = None;
                conn.close_after_write = !req.keep_alive() || state.shutting_down_flag();
                let done = Completion {
                    tx: tx.clone(),
                    token: token_of(slot, conn.generation),
                    sent: false,
                };
                match route(state, req, done) {
                    Routed::Respond(resp) => {
                        begin_write(state, conn, resp);
                        if let Step::Close = pump_conn_write(state, conn) {
                            return Step::Close;
                        }
                        // A fully-flushed keep-alive write loops back to
                        // serve pipelined follow-ups; a partial write
                        // returns Keep at the top of the loop.
                    }
                    Routed::Dispatched => {
                        conn.dispatch_started = Some(Instant::now());
                        set_phase(state, conn, ConnPhase::Dispatched);
                        return Step::Keep;
                    }
                    Routed::Drop => return Step::Close,
                }
            }
            ParseStatus::Bad { status, message } => {
                return reject(state, conn, ApiError::rejected(status, message));
            }
        }
    }
}

/// Answer a request the reactor refuses itself (stalled, truncated, or
/// malformed) with a structured error, counted by kind, then close.
fn reject(state: &ServiceState, conn: &mut Conn, err: ApiError) -> Step {
    state.metrics.record_error("", &err.kind);
    begin_write(state, conn, Response::from(err).with_close());
    pump_conn_write(state, conn)
}

/// Serialize `resp` into the connection's write buffer and enter the
/// Writing phase.
fn begin_write(state: &ServiceState, conn: &mut Conn, resp: Response) {
    let mut resp = resp;
    if conn.close_after_write || conn.peer_eof {
        resp = resp.with_close();
    }
    conn.closing = resp.close;
    conn.write_buf.clear();
    conn.written = 0;
    // lt-lint: allow(LT07, infallible: the sink is an in-memory Vec)
    let _ = resp.write_to(&mut conn.write_buf);
    set_phase(state, conn, ConnPhase::Writing);
    conn.last_activity = Instant::now();
}

/// Flush as much of the pending response as the socket accepts. On
/// completion the connection closes (if the response said so) or
/// returns to Idle.
fn pump_conn_write(state: &ServiceState, conn: &mut Conn) -> Step {
    while conn.written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return Step::Close,
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Step::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Step::Close,
        }
    }
    if conn.closing || conn.peer_eof {
        return Step::Close;
    }
    conn.write_buf.clear();
    conn.written = 0;
    set_phase(state, conn, ConnPhase::Idle);
    Step::Keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_restarts_after_progress_and_doubles_to_each_cap() {
        let hot = [20, 40, 80, 160, 320, 640, 1000, 1000];
        let idle = [20, 40, 80, 160, 320, 640, 1280, 2560, 5000, 5000];
        for (any_hot, want) in [(true, &hot[..]), (false, &idle[..])] {
            let mut backoff = next_backoff(Duration::from_micros(700), true, any_hot);
            assert_eq!(backoff, Duration::ZERO, "progress spins again at once");
            for &us in want {
                backoff = next_backoff(backoff, false, any_hot);
                assert_eq!(backoff, Duration::from_micros(us), "any_hot = {any_hot}");
            }
        }
        // A connection turning hot pulls an idle-length sleep down to the
        // hot cap on the next step.
        assert_eq!(next_backoff(IDLE_POLL_CAP, false, true), HOT_POLL_CAP);
    }
}
