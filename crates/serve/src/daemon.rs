//! The long-running socket daemon: listeners, worker pool, lifecycle.
//!
//! Plain blocking `std::net` — no async runtime. Accept loops run on
//! their own threads and enqueue connections into a shared injector
//! queue; a fixed pool of workers pops connections and services each for
//! one **read slice** (a short socket read timeout), then requeues it.
//! A stalled or malicious client therefore costs the pool at most one
//! slice per visit — it cannot capture a worker, and it cannot starve
//! the other connections.
//!
//! Failure containment per connection:
//!
//! - an undecodable payload in a well-framed request ⇒
//!   [`Response::Error`], connection stays usable;
//! - an unframeable length prefix ⇒ the connection is poisoned: one
//!   final error response, then closed;
//! - a client that stops reading its responses hits the write timeout
//!   and is dropped;
//! - a client idle past the idle timeout is dropped;
//! - connections past [`DaemonConfig::max_connections`] are answered
//!   with one [`Response::Shed`] and closed at accept time, bounding the
//!   fleet's per-connection buffering (each connection holds its
//!   [`FrameLoop`]: a reassembly buffer of up to one maximum frame and
//!   one answer buffer) independently of the session-table budget.
//!
//! None of these touch any other connection or session. Shutdown stops
//! the listeners, parks the workers, and drains every live session to
//! snapshots so a restarted daemon can recover them.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::ServeEngine;
use crate::protocol::{FrameBuf, RequestView, Response};
use crate::session::ServeConfig;

/// Where and how the daemon listens.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// TCP listen address (e.g. `127.0.0.1:0`), if any.
    pub tcp_addr: Option<String>,
    /// Unix socket path, if any (removed and rebound on start).
    pub unix_path: Option<PathBuf>,
    /// Connection worker threads.
    pub workers: usize,
    /// Per-visit socket read timeout; the scheduling quantum.
    pub read_slice: Duration,
    /// Drop a connection silent for this long.
    pub idle_timeout: Duration,
    /// Drop a connection that will not accept responses for this long.
    pub write_timeout: Duration,
    /// Concurrent-connection cap across all listeners. A connection
    /// holds two buffers and nothing else: its reassembly buffer, which
    /// can reach one maximum frame plus a header and one read, and its
    /// answer buffer, which keeps the capacity of the largest answer sent
    /// on it (a session report, a few KB). So this bounds worst-case
    /// connection memory at about `max_connections * MAX_FRAME_LEN`;
    /// excess clients are answered with a shed and closed at accept.
    pub max_connections: usize,
    /// Session-table limits and layout.
    pub session: ServeConfig,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            unix_path: None,
            workers: 2,
            read_slice: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            max_connections: 256,
            session: ServeConfig::default(),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn set_timeouts(&self, read: Duration, write: Duration) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
            Stream::Unix(s) => {
                s.set_read_timeout(Some(read))?;
                s.set_write_timeout(Some(write))
            }
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One occupied slot under the connection cap; freed on drop, whichever
/// path (close, idle, poison, shutdown queue clear) drops the [`Conn`].
struct ConnSlot {
    count: Arc<AtomicUsize>,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
    }
}

struct Conn {
    stream: Stream,
    frames: FrameLoop,
    last_activity: Instant,
    _slot: ConnSlot,
}

/// One connection's frame loop: its reassembly buffer and its answer
/// buffer, the only memory a connection holds.
///
/// Each frame is decoded where the reassembly buffer holds it
/// ([`RequestView`]) and answered through
/// [`ServeEngine::handle_view`], so no payload is copied between the
/// socket read and the parser; every answer is encoded into the one
/// answer buffer, cleared for each. The daemon's workers run one per
/// connection; a test can drive one without a socket.
#[derive(Debug, Default)]
pub struct FrameLoop {
    frames: FrameBuf,
    answer: Vec<u8>,
}

impl FrameLoop {
    /// A loop with empty buffers; they grow only as frames arrive.
    pub fn new() -> FrameLoop {
        FrameLoop::default()
    }

    /// Takes `bytes` read from the connection and writes to `out` one
    /// answer for every frame they complete. False when the connection
    /// must close: an answer could not be written, or the framing is lost
    /// (after one last diagnostic). Only this connection suffers.
    pub fn serve(&mut self, engine: &ServeEngine, bytes: &[u8], out: &mut impl Write) -> bool {
        self.frames.push(bytes);
        loop {
            let (resp, keep) = match self.frames.next_frame() {
                Ok(Some((kind, payload))) => match RequestView::decode(kind, payload) {
                    Ok(req) => (engine.handle_view(req), true),
                    Err(e) => {
                        engine.note_frame_error();
                        let msg = format!("bad frame: {e}");
                        (Response::Error { msg }, true)
                    }
                },
                Ok(None) => return true,
                Err(e) => {
                    engine.note_frame_error();
                    (Response::Error { msg: e.to_string() }, false)
                }
            };
            self.answer.clear();
            resp.encode_into(&mut self.answer);
            if out.write_all(&self.answer).is_err() || !keep {
                return false;
            }
        }
    }
}

#[derive(Default)]
struct Injector {
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
}

impl Injector {
    fn push(&self, conn: Conn) {
        self.queue.lock().expect("injector lock").push_back(conn);
        self.ready.notify_one();
    }
}

/// A running daemon; dropping it without [`shutdown`](Daemon::shutdown)
/// leaves threads running, so call shutdown.
pub struct Daemon {
    engine: Arc<ServeEngine>,
    shutdown: Arc<AtomicBool>,
    injector: Arc<Injector>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Daemon {
    /// Binds the configured listeners, recovers spilled sessions from the
    /// snapshot directory, and starts the worker pool.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let engine = Arc::new(ServeEngine::new(cfg.session.clone()));
        engine.recover();
        let shutdown = Arc::new(AtomicBool::new(false));
        let injector = Arc::new(Injector::default());
        let conn_count = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();

        let mut tcp_addr = None;
        if let Some(addr) = &cfg.tcp_addr {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            threads.push(spawn_acceptor(
                move || listener.accept().map(|(s, _)| Stream::Tcp(s)),
                &cfg,
                &injector,
                &shutdown,
                &conn_count,
            ));
        }
        let mut unix_path = None;
        if let Some(path) = &cfg.unix_path {
            std::fs::remove_file(path).ok();
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            threads.push(spawn_acceptor(
                move || listener.accept().map(|(s, _)| Stream::Unix(s)),
                &cfg,
                &injector,
                &shutdown,
                &conn_count,
            ));
        }

        for _ in 0..cfg.workers.max(1) {
            let engine = Arc::clone(&engine);
            let injector = Arc::clone(&injector);
            let shutdown = Arc::clone(&shutdown);
            let idle = cfg.idle_timeout;
            threads.push(std::thread::spawn(move || {
                worker_loop(&engine, &injector, &shutdown, idle)
            }));
        }

        Ok(Daemon {
            engine,
            shutdown,
            injector,
            threads,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The request engine, for in-process queries and metrics.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Graceful shutdown: stop accepting, park the workers, drop every
    /// connection, and drain all live sessions to snapshots. Returns how
    /// many sessions were spilled.
    pub fn shutdown(mut self) -> usize {
        self.shutdown.store(true, Ordering::SeqCst);
        self.injector.ready.notify_all();
        for t in self.threads.drain(..) {
            t.join().ok();
        }
        self.injector.queue.lock().expect("injector lock").clear();
        if let Some(path) = &self.unix_path {
            std::fs::remove_file(path).ok();
        }
        self.engine.drain()
    }
}

fn spawn_acceptor(
    mut accept: impl FnMut() -> std::io::Result<Stream> + Send + 'static,
    cfg: &DaemonConfig,
    injector: &Arc<Injector>,
    shutdown: &Arc<AtomicBool>,
    conn_count: &Arc<AtomicUsize>,
) -> JoinHandle<()> {
    let injector = Arc::clone(injector);
    let shutdown = Arc::clone(shutdown);
    let conn_count = Arc::clone(conn_count);
    let read_slice = cfg.read_slice;
    let write_timeout = cfg.write_timeout;
    let max_connections = cfg.max_connections.max(1);
    std::thread::spawn(move || {
        while !shutdown.load(Ordering::SeqCst) {
            match accept() {
                Ok(mut stream) => {
                    if stream.set_timeouts(read_slice, write_timeout).is_err() {
                        continue;
                    }
                    let slot = ConnSlot {
                        count: Arc::clone(&conn_count),
                    };
                    if conn_count.fetch_add(1, Ordering::Relaxed) >= max_connections {
                        // At capacity: one explicit shed, then close.
                        // The slot guard rolls the count back on drop.
                        let bye = Response::Shed {
                            reason: format!("connection limit {max_connections} reached"),
                        };
                        stream.write_all(&bye.encode()).ok();
                        continue;
                    }
                    injector.push(Conn {
                        stream,
                        frames: FrameLoop::new(),
                        last_activity: Instant::now(),
                        _slot: slot,
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    })
}

fn worker_loop(
    engine: &ServeEngine,
    injector: &Injector,
    shutdown: &AtomicBool,
    idle_timeout: Duration,
) {
    loop {
        let conn = {
            let mut queue = injector.queue.lock().expect("injector lock");
            loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(conn) = queue.pop_front() {
                    break conn;
                }
                let (guard, _) = injector
                    .ready
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("injector lock");
                queue = guard;
            }
        };
        let mut conn = conn;
        if service_slice(engine, &mut conn, idle_timeout) {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            injector.push(conn);
        }
        // else: the connection is dropped here (closed, idle, or poisoned).
    }
}

/// Services one connection for one read slice. True to keep it.
fn service_slice(engine: &ServeEngine, conn: &mut Conn, idle_timeout: Duration) -> bool {
    let mut buf = [0u8; 16 * 1024];
    match conn.stream.read(&mut buf) {
        Ok(0) => false, // peer closed
        Ok(n) => {
            conn.last_activity = Instant::now();
            conn.frames.serve(engine, &buf[..n], &mut conn.stream)
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            conn.last_activity.elapsed() < idle_timeout
        }
        Err(_) => false,
    }
}
