//! The daemon: connection acceptance, line framing and request dispatch.
//!
//! A [`Server`] owns one `Scheduler` and its worker pool. Each
//! connection — a real `TcpStream` via [`Server::serve`] or an
//! in-memory [`pipe`] pair via [`Server::connect`] —
//! gets two threads:
//!
//! - a **reader** that frames newline-delimited requests (with a hard
//!   per-line byte cap and resynchronization after an overlong line),
//!   validates UTF-8 and protocol shape, and dispatches into the
//!   scheduler. Malformed input produces a typed `error` response on
//!   that connection; it never panics the daemon and never kills the
//!   connection.
//! - a **writer** that drains the connection's response channel in
//!   order. Responses from concurrent campaigns of one tenant interleave
//!   at line granularity but never tear.
//!
//! Reader EOF (client disconnect) cancels every in-flight campaign of
//! the tenant — the disconnect-cancellation contract the deadline tests
//! pin down.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;

use atpg_easy_obs::SharedSink;
use atpg_easy_syncx::atomic::{AtomicU64, Ordering};
use atpg_easy_syncx::{thread, Arc};

use crate::clock::{Clock, SystemClock};
use crate::pipe::{pipe, PipeReader, PipeWriter};
use crate::proto::{ErrorCode, ProtoError, Request, Response};
use crate::sched::{send_line, Scheduler, ServeConfig};

/// A running ATPG campaign daemon: worker pool + scheduler, accepting
/// any number of connections.
pub struct Server {
    sched: Arc<Scheduler>,
    workers: Vec<thread::JoinHandle<()>>,
    next_tenant: AtomicU64,
}

impl Server {
    /// Starts a server with the real clock and no telemetry sink.
    pub fn start(config: ServeConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Starts a server on an injected clock (deadline tests pass a
    /// [`FakeClock`](crate::FakeClock) here).
    pub fn with_clock(config: ServeConfig, clock: Arc<dyn Clock>) -> Self {
        Self::with_clock_and_sink(config, clock, None)
    }

    /// Starts a server with an injected clock and a shared telemetry
    /// sink that receives request-scoped `CampaignMeta` gauges and (for
    /// `trace:true` requests) per-instance rows.
    pub fn with_clock_and_sink(
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        sink: Option<SharedSink>,
    ) -> Self {
        let sched = Arc::new(Scheduler::new(config, clock, sink));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let sched = Arc::clone(&sched);
                thread::spawn(move || sched.worker_loop())
            })
            .collect();
        Server {
            sched,
            workers,
            next_tenant: AtomicU64::new(0),
        }
    }

    /// The server's tuning knobs.
    pub fn config(&self) -> ServeConfig {
        self.sched.config
    }

    /// A live stats snapshot (same numbers a `stats` request returns).
    pub fn stats(&self) -> crate::proto::StatsSnapshot {
        self.sched.snapshot()
    }

    /// Opens an in-process connection: the returned writer feeds the
    /// server's reader thread, the returned reader yields the server's
    /// responses. Dropping the writer is a client disconnect.
    pub fn connect(&self) -> (PipeWriter, PipeReader) {
        let (client_tx, server_rx) = pipe();
        let (server_tx, client_rx) = pipe();
        self.attach(server_rx, server_tx);
        (client_tx, client_rx)
    }

    /// Attaches one connection: spawns its reader and writer threads.
    /// Generic over the transport so TCP and in-memory pipes share every
    /// line of framing and dispatch logic.
    pub fn attach<R, W>(&self, read: R, write: W)
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        // ORDERING: Relaxed — tenant ids only need uniqueness.
        let tenant = self.next_tenant.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel::<String>();
        let sched = Arc::clone(&self.sched);
        let _writer = thread::spawn(move || {
            // Channel messages arrive newline-terminated (a worker may
            // batch a whole quantum of lines into one message).
            let mut write = write;
            let mut batch = String::new();
            while let Ok(msg) = reply_rx.recv() {
                batch.clear();
                batch.push_str(&msg);
                // Coalesce whatever else is already queued into one
                // write: a verdict stream costs a syscall per batch,
                // not per line. Bounded so one flush cannot balloon.
                while batch.len() < 64 * 1024 {
                    match reply_rx.try_recv() {
                        Ok(msg) => batch.push_str(&msg),
                        Err(_) => break,
                    }
                }
                if write.write_all(batch.as_bytes()).is_err() {
                    // Client side is gone; draining further lines would
                    // go nowhere. Senders see the closed channel.
                    return;
                }
                let _ = write.flush();
            }
        });
        let _reader = thread::spawn(move || {
            read_loop(&sched, tenant, read, &reply_tx);
            // EOF or transport error: the tenant is gone. Cancel its
            // campaigns so workers stop spending solver time on them.
            sched.cancel_tenant(tenant);
        });
    }

    /// Serves connections from a bound TCP listener until accept fails
    /// (i.e. the listener is shut down). Each connection runs on its own
    /// reader/writer threads.
    pub fn serve(&self, listener: &TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let write = stream.try_clone()?;
            self.attach(stream, write);
        }
        Ok(())
    }

    /// Stops the worker pool and joins it. In-flight campaigns finish
    /// their current slice and are not resumed.
    pub fn shutdown(mut self) {
        self.sched.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.sched.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.sched.config)
            .finish_non_exhaustive()
    }
}

/// One framed line, or why there isn't one.
enum Frame {
    Line(Vec<u8>),
    /// The line exceeded the cap; `true` if the stream resynchronized at
    /// the next newline (the connection survives), `false` on EOF.
    Overlong(bool),
    Eof,
    TransportError,
}

/// Reads one `\n`-terminated line with a byte cap. On an overlong line
/// the remainder is discarded up to the next newline so one huge line
/// cannot wedge the framing for subsequent requests.
fn read_frame(reader: &mut impl BufRead, cap: usize) -> Frame {
    let mut line = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Frame::TransportError,
        };
        if chunk.is_empty() {
            return if line.is_empty() {
                Frame::Eof
            } else {
                // A final unterminated line still frames: truncated-input
                // robustness (the proptests feed exactly this).
                Frame::Line(line)
            };
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if line.len() > cap {
                return Frame::Overlong(true);
            }
            return Frame::Line(line);
        }
        let take = chunk.len();
        line.extend_from_slice(chunk);
        reader.consume(take);
        if line.len() > cap {
            // Discard to the next newline, then report.
            loop {
                let chunk = match reader.fill_buf() {
                    Ok(c) => c,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Frame::Overlong(false),
                };
                if chunk.is_empty() {
                    return Frame::Overlong(false);
                }
                if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                    reader.consume(pos + 1);
                    return Frame::Overlong(true);
                }
                let take = chunk.len();
                reader.consume(take);
            }
        }
    }
}

/// The reader-thread body: frame, validate, dispatch, reply — until EOF.
fn read_loop(sched: &Scheduler, tenant: u64, read: impl Read, reply: &mpsc::Sender<String>) {
    let mut reader = BufReader::new(read);
    let cap = sched.config.max_line_bytes;
    loop {
        let line = match read_frame(&mut reader, cap) {
            Frame::Eof | Frame::TransportError => return,
            Frame::Overlong(resynced) => {
                let err = Response::Error {
                    id: None,
                    code: ErrorCode::LineTooLong,
                    msg: format!("request line exceeds {cap} bytes"),
                };
                if !send_line(reply, &err) || !resynced {
                    return;
                }
                continue;
            }
            Frame::Line(bytes) => bytes,
        };
        if line.is_empty() {
            continue; // blank keep-alive lines are fine
        }
        let text = match std::str::from_utf8(&line) {
            Ok(t) => t,
            Err(e) => {
                let err = Response::Error {
                    id: None,
                    code: ErrorCode::Utf8,
                    msg: format!("request line is not UTF-8: {e}"),
                };
                if !send_line(reply, &err) {
                    return;
                }
                continue;
            }
        };
        let response = match Request::parse(text) {
            Err(ProtoError { code, msg }) => Response::Error {
                id: None,
                code,
                msg,
            },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => Response::Stats(sched.snapshot()),
            Ok(Request::Cancel { id }) => {
                if sched.cancel(tenant, &id) {
                    // The cancelled campaign's own `done status=cancelled`
                    // is the acknowledgement; no extra line here.
                    continue;
                }
                Response::Error {
                    id: Some(id),
                    code: ErrorCode::UnknownId,
                    msg: "no such campaign in flight on this connection".into(),
                }
            }
            Ok(Request::Campaign {
                id,
                netlist,
                options,
            }) => match sched.try_admit(tenant, id, netlist, options, reply.clone()) {
                // Admitted: the `accepted` line is already in the reply
                // queue, ordered ahead of the campaign's stream.
                None => continue,
                Some(refusal) => refusal,
            },
        };
        if !send_line(reply, &response) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_split_on_newlines_and_keep_final_fragment() {
        let mut r = BufReader::new(Cursor::new(b"ab\ncd\nef".to_vec()));
        assert!(matches!(read_frame(&mut r, 64), Frame::Line(l) if l == b"ab"));
        assert!(matches!(read_frame(&mut r, 64), Frame::Line(l) if l == b"cd"));
        assert!(matches!(read_frame(&mut r, 64), Frame::Line(l) if l == b"ef"));
        assert!(matches!(read_frame(&mut r, 64), Frame::Eof));
    }

    #[test]
    fn overlong_line_resyncs_at_next_newline() {
        let mut data = vec![b'x'; 100];
        data.extend_from_slice(b"\n{\"ok\":1}\n");
        let mut r = BufReader::new(Cursor::new(data));
        assert!(matches!(read_frame(&mut r, 8), Frame::Overlong(true)));
        assert!(matches!(read_frame(&mut r, 64), Frame::Line(l) if l == b"{\"ok\":1}"));
    }

    #[test]
    fn overlong_line_at_eof_reports_no_resync() {
        let mut r = BufReader::new(Cursor::new(vec![b'x'; 100]));
        assert!(matches!(read_frame(&mut r, 8), Frame::Overlong(false)));
    }
}
