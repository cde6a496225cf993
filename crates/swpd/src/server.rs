//! The daemon itself: accept loop, per-connection threads, dispatch,
//! and the drain protocol.
//!
//! # Connection model
//!
//! One thread accepts; each connection gets a reader thread (this one)
//! plus a writer thread fed by an mpsc channel of replies, so slow
//! solves never block the read side and replies stream out in
//! completion order (clients correlate by `id`). The first bytes decide
//! the transport: `POST ` / `GET ` means HTTP/1.1 (one request per
//! connection, `Connection: close`), anything else is raw JSONL with
//! pipelining.
//!
//! # Disconnect → cancellation
//!
//! The reader owns a clone of every cancel token it enqueued. EOF or a
//! read error fires them all; in-flight solves for that connection stop
//! at their next budget check and classify as `cancelled`. Finished
//! tokens are inert, so firing the whole list is harmless.
//!
//! # Drain
//!
//! `shutdown` (request or [`DaemonHandle::shutdown`]) latches
//! `draining`: admission starts refusing (`overloaded`), the acceptor
//! is unblocked by a connect-to-self and exits, workers run the queue
//! dry and return. A grace timer then latches `hard_drain` and fires
//! every in-flight token, bounding the drain by `drain_grace` even if a
//! solve would run for hours. Joining the handle flushes nothing extra:
//! the artifact was flushed per record all along (crash-only design).

use crate::proto::{Reply, ReplyStatus, Request};
use crate::session;
use crate::state::{DaemonConfig, Job, Shared};
use crate::worker::worker_loop;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;
use swp_milp::CancelToken;

/// Largest HTTP request body the daemon reads. A request carries one
/// problem as regression-file text, a few KiB even for the largest
/// corpus loops; the cap bounds what a client's `Content-Length` can
/// make the daemon allocate, since a failed allocation aborts the
/// process where `catch_unwind` cannot see it.
const MAX_HTTP_BODY_BYTES: usize = 1 << 20;

/// Factory for running daemons.
#[derive(Debug)]
pub struct Daemon;

/// A running daemon. Dropping the handle does *not* stop the daemon;
/// call [`shutdown`](DaemonHandle::shutdown) (or send a `shutdown`
/// request) and then [`wait`](DaemonHandle::wait).
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, replays the artifact if resuming, and starts the worker
    /// pool and accept loop.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener or opening the artifact.
    pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config)?);

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("swpd-worker-{i}"))
                    .spawn(move || worker_loop(shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("swpd-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared, addr))?
        };

        Ok(DaemonHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl DaemonHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A local (not over-the-wire) telemetry snapshot.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Begins a graceful drain, waits for it to complete, and returns
    /// the final counters.
    pub fn shutdown(mut self) -> crate::stats::StatsSnapshot {
        begin_drain(&self.shared, self.addr);
        self.join()
    }

    /// Waits for a drain begun elsewhere (e.g. a remote `shutdown`
    /// request) to complete, and returns the final counters.
    pub fn wait(mut self) -> crate::stats::StatsSnapshot {
        self.join()
    }

    fn join(&mut self) -> crate::stats::StatsSnapshot {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats.snapshot()
    }
}

/// Latches the drain flags (idempotently), wakes every sleeping worker,
/// unblocks the acceptor, and arms the hard-cancel grace timer.
pub(crate) fn begin_drain(shared: &Arc<Shared>, addr: SocketAddr) {
    if shared.draining.swap(true, Ordering::Relaxed) {
        return; // someone already started the drain
    }
    shared.stats.set_draining();
    shared.queue_cv.notify_all();
    // Unblock `accept()` — no signals available (and none wanted: the
    // protocol is the only control surface), so connect to ourselves.
    let _ = TcpStream::connect(addr);
    let shared = Arc::clone(shared);
    let _ = thread::Builder::new()
        .name("swpd-drain-grace".to_string())
        .spawn(move || {
            thread::sleep(shared.config.drain_grace);
            shared.hard_drain.store(true, Ordering::Relaxed);
            shared.cancel_all_inflight();
            shared.queue_cv.notify_all();
        });
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, addr: SocketAddr) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("swpd-conn".to_string())
                    .spawn(move || handle_conn(&shared, stream, addr));
                if let Err(e) = spawned {
                    eprintln!("swpd: failed to spawn connection thread: {e}");
                }
            }
            Err(e) => {
                eprintln!("swpd: accept failed: {e}");
                // A transient accept error must not spin-loop hot.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream, addr: SocketAddr) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swpd: connection clone failed: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut first = String::new();
    if reader.read_line(&mut first).unwrap_or(0) == 0 {
        return; // immediate EOF (e.g. the drain's self-connect)
    }
    if first.starts_with("POST ") || first.starts_with("GET ") {
        handle_http(shared, stream, reader, &first, addr);
    } else {
        handle_jsonl(shared, stream, reader, first, addr);
    }
}

/// Raw JSONL: pipelined requests in, completion-ordered replies out.
fn handle_jsonl(
    shared: &Arc<Shared>,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    first: String,
    addr: SocketAddr,
) {
    let (tx, rx) = channel::<Reply>();
    let writer = thread::Builder::new()
        .name("swpd-conn-writer".to_string())
        .spawn(move || jsonl_writer(stream, &rx));
    let mut tokens: Vec<CancelToken> = Vec::new();

    let mut lines = std::iter::once(Ok(first)).chain(reader.lines());
    loop {
        let line = match lines.next() {
            Some(Ok(l)) => l,
            _ => break, // EOF or read error: client gone
        };
        if line.trim().is_empty() {
            continue;
        }
        dispatch(shared, line.trim(), &tx, &mut tokens, addr);
    }
    // Disconnect: cancel everything this connection still has in
    // flight. Completed solves' tokens are inert.
    for t in &tokens {
        t.cancel();
    }
    drop(tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

fn jsonl_writer(stream: TcpStream, rx: &Receiver<Reply>) {
    let mut out = io::BufWriter::new(stream);
    while let Ok(reply) = rx.recv() {
        let line = reply.to_json_line();
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_err()
        {
            return; // peer gone; replies are already classified
        }
    }
}

/// Routes one request line. Solve requests are enqueued (their reply
/// arrives later through `tx`); everything else is answered inline.
fn dispatch(
    shared: &Arc<Shared>,
    line: &str,
    tx: &Sender<Reply>,
    tokens: &mut Vec<CancelToken>,
    addr: SocketAddr,
) {
    dispatch_parsed(shared, Request::from_json_line(line), tx, tokens, addr);
}

/// Routes one already-parsed (or parse-failed) request. Split from
/// [`dispatch`] so the HTTP front door can inject the op and session
/// handle its path already names.
fn dispatch_parsed(
    shared: &Arc<Shared>,
    req: Result<Request, String>,
    tx: &Sender<Reply>,
    tokens: &mut Vec<CancelToken>,
    addr: SocketAddr,
) {
    shared.stats.count_request();
    let req = match req {
        Ok(r) => r,
        Err(why) => {
            shared.finish(tx, Reply::error("", ReplyStatus::BadRequest, why));
            return;
        }
    };
    match req {
        Request::Ping { id } => shared.finish(tx, Reply::status(id, ReplyStatus::Ok)),
        Request::Stats { id } => {
            // Classify this request *before* snapshotting so the
            // returned counters satisfy `requests == classified_total`
            // at idle (the snapshot must include itself).
            shared.stats.count_reply(ReplyStatus::Ok);
            let mut r = Reply::status(id, ReplyStatus::Ok);
            r.counters = Some(shared.stats.snapshot());
            let _ = tx.send(r);
        }
        Request::Shutdown { id } => {
            shared.finish(tx, Reply::status(id, ReplyStatus::Ok));
            begin_drain(shared, addr);
        }
        Request::SessionOpen { id, case } => {
            shared.finish(tx, session::open(shared, &id, &case));
        }
        Request::SessionEdit {
            id,
            session: handle,
            edit,
        } => {
            shared.finish(tx, session::edit(shared, &id, handle, &edit));
        }
        Request::SessionSolve {
            id,
            session: handle,
            ticks,
            timeout_ms,
        } => {
            // Runs inline on this thread (session ops are causally
            // ordered per client), but registers a cancel token so a
            // drain hard-stop still interrupts it.
            let cancel = CancelToken::new();
            tokens.push(cancel.clone());
            shared.finish(
                tx,
                session::solve(shared, &id, handle, ticks, timeout_ms, &cancel),
            );
        }
        Request::SessionClose {
            id,
            session: handle,
        } => {
            shared.finish(tx, session::close(shared, &id, handle));
        }
        Request::Solve(solve) => {
            if solve.inject_panic && !shared.config.allow_fault_injection {
                shared.finish(
                    tx,
                    Reply::error(
                        solve.id,
                        ReplyStatus::BadRequest,
                        "fault injection is disabled on this daemon",
                    ),
                );
                return;
            }
            let cancel = CancelToken::new();
            let job = Job {
                seq: shared.alloc_seq(),
                req: solve,
                reply_to: tx.clone(),
                cancel: cancel.clone(),
            };
            match shared.enqueue(job) {
                Ok(()) => tokens.push(cancel),
                Err(refusal) => shared.finish(tx, refusal),
            }
        }
    }
}

/// Minimal HTTP/1.1 front door: one request per connection.
///
/// Routes: `POST /solve` (body = the JSON request object, `op`
/// optional), `POST /session`, `POST /session/{id}/edit`,
/// `POST /session/{id}/solve`, `POST /session/{id}/close`,
/// `POST /shutdown`, `GET /stats`, `GET /health`. Status
/// codes follow [`ReplyStatus::http_code`] — notably `429` for
/// `overloaded`, which is what off-the-shelf HTTP clients expect from
/// load shedding.
fn handle_http(
    shared: &Arc<Shared>,
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    request_line: &str,
    addr: SocketAddr,
) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    // Headers: only Content-Length matters to us.
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return;
        }
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    if content_length > MAX_HTTP_BODY_BYTES {
        shared.stats.count_request();
        let r = Reply::error(
            "",
            ReplyStatus::BadRequest,
            format!(
                "request body of {content_length} bytes exceeds the \
                 {MAX_HTTP_BODY_BYTES}-byte limit"
            ),
        );
        shared.stats.count_reply(r.status);
        write_http_reply(stream, &r);
        return;
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();

    let reply = match (method, path) {
        ("GET", "/health") => {
            shared.stats.count_request();
            let mut r = Reply::status("health", ReplyStatus::Ok);
            shared.stats.count_reply(r.status);
            r.error = None;
            r
        }
        ("GET", "/stats") => {
            shared.stats.count_request();
            // Classified before snapshotting — see the JSONL stats path.
            shared.stats.count_reply(ReplyStatus::Ok);
            let mut r = Reply::status("stats", ReplyStatus::Ok);
            r.counters = Some(shared.stats.snapshot());
            r
        }
        ("POST", "/shutdown") => {
            shared.stats.count_request();
            let r = Reply::status("shutdown", ReplyStatus::Ok);
            shared.stats.count_reply(r.status);
            begin_drain(shared, addr);
            r
        }
        ("POST", "/solve") => {
            let (tx, rx) = channel::<Reply>();
            let mut tokens = Vec::new();
            dispatch(shared, &body, &tx, &mut tokens, addr);
            wait_for_reply(&rx, &stream, &tokens)
        }
        ("POST", p) if p == "/session" || p.starts_with("/session/") => {
            let (tx, rx) = channel::<Reply>();
            let mut tokens = Vec::new();
            let body = if body.trim().is_empty() {
                "{}".to_string()
            } else {
                body
            };
            let req = route_session(p, &body);
            dispatch_parsed(shared, req, &tx, &mut tokens, addr);
            wait_for_reply(&rx, &stream, &tokens)
        }
        _ => {
            shared.stats.count_request();
            let r = Reply::error(
                "",
                ReplyStatus::BadRequest,
                format!("no route {method} {path}"),
            );
            shared.stats.count_reply(r.status);
            r
        }
    };
    write_http_reply(stream, &reply);
}

/// Writes `reply` as a one-shot `Connection: close` HTTP response.
fn write_http_reply(mut stream: TcpStream, reply: &Reply) {
    let body = reply.to_json_line();
    let code = reply.status.http_code();
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}\n",
        body.len() + 1
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Maps a `/session[/{id}/{action}]` path plus body to a parsed
/// request: `POST /session` opens, `POST /session/{id}/edit` edits,
/// `POST /session/{id}/solve` solves, `POST /session/{id}/close`
/// closes. The path supplies the op and session handle; the body
/// supplies the rest.
fn route_session(path: &str, body: &str) -> Result<Request, String> {
    if path == "/session" {
        return Request::from_json_line_with(body, "session_open", None);
    }
    let rest = path.trim_start_matches("/session/");
    let mut parts = rest.split('/');
    let handle: u64 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad session id in path `{path}`"))?;
    let op = match parts.next() {
        Some("edit") => "session_edit",
        Some("solve") => "session_solve",
        Some("close") => "session_close",
        _ => return Err(format!("no route POST {path}")),
    };
    Request::from_json_line_with(body, op, Some(handle))
}

/// Waits for the solve reply while watching the socket for a client
/// disconnect, which fires the request's cancel token. The solve always
/// replies (classification is total), so this loop always terminates.
fn wait_for_reply(rx: &Receiver<Reply>, stream: &TcpStream, tokens: &[CancelToken]) -> Reply {
    let mut probe = [0u8; 1];
    let mut watch = stream.try_clone().ok();
    if let Some(s) = &watch {
        let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(reply) => return reply,
            Err(RecvTimeoutError::Disconnected) => {
                // Refused at admission: dispatch already sent through tx
                // before dropping it — can't happen after Ok, but keep a
                // total answer.
                return Reply::error("", ReplyStatus::InternalError, "reply channel closed");
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(s) = &mut watch {
                    match s.read(&mut probe) {
                        Ok(0) => {
                            // EOF: the client hung up mid-solve.
                            for t in tokens {
                                t.cancel();
                            }
                            watch = None; // stop probing; just await the reply
                        }
                        Ok(_) => {} // pipelined garbage; ignore
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        Err(_) => {
                            for t in tokens {
                                t.cancel();
                            }
                            watch = None;
                        }
                    }
                }
            }
        }
    }
}
