//! The socket layer: every socket the serve layer touches goes through
//! this module. The server (`lintra serve`) and the router (`lintra route`)
//! each bind one `Listener` and run the one `accept_loop` and the one
//! `serve_connection` over it. [`read_line`] is the one newline framer,
//! and `send_and_read` the one "send a line, read a line" exchange on an
//! open connection. [`round_trip`] runs it on a fresh connection for
//! status and peer queries, the [`crate::Client`] and `lintra
//! cluster-status`; the router's forwards run it on connections they
//! keep open.
//!
//! Outbound connects go through the [`Transport`] trait and reads time
//! out on a [`Clock`], so the [`crate::Client`] runs unmodified over the
//! simulator's scripted network and virtual clock (`lintra-sim`). The
//! server and the router use [`TcpTransport`] and
//! [`crate::SystemClock`]; the simulator drives their sans-IO cores
//! instead.
//!
//! Byte streams carry explicit, classified errors ([`NetError`]) and
//! per-call read budgets.

use std::fmt::Debug;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use lintra::{ErrorClass, LintraError};
use lintra_bench::wire::{WireFailure, WireResponse};

use crate::clock::Clock;

/// How often an empty accept poll or a blocked read re-checks the drain
/// flag.
pub(crate) const POLL: Duration = Duration::from_millis(20);

/// Hard ceiling on one newline-delimited frame. A peer that streams
/// more than this without a `\n` is not speaking the protocol; letting
/// [`read_line`] keep buffering would turn one connection into an
/// unbounded allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a transport operation failed — the outcomes protocol code
/// genuinely branches on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The wait budget elapsed with nothing to show. Retryable; the
    /// connection itself is still usable.
    Timeout,
    /// The peer closed the stream (clean EOF) or the link is gone
    /// (reset, broken pipe). The connection is dead.
    Closed,
    /// The peer sent more than [`MAX_FRAME_BYTES`] without a newline.
    /// The buffered bytes are poisoned; the caller must answer
    /// `VAL-FRAME-TOO-LARGE` (if it answers at all) and close.
    FrameTooLarge,
    /// Everything else: refused connect, failed resolution, socket
    /// configuration errors. Carries the description.
    Failed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout => write!(f, "timed out"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::FrameTooLarge => {
                write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes without a newline")
            }
            NetError::Failed(detail) => write!(f, "{detail}"),
        }
    }
}

/// One established bidirectional byte stream.
pub trait Conn: Send {
    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the peer is gone, [`NetError::Failed`]
    /// for other socket failures.
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError>;

    /// Reads some bytes, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when nothing arrived within the budget,
    /// [`NetError::Closed`] on EOF, [`NetError::Failed`] otherwise.
    /// Never returns `Ok(0)`.
    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError>;
}

/// Dials out: the one seam a caller substitutes (the simulator hands
/// the [`crate::Client`] a scripted network).
pub trait Transport: Send + Sync + Debug {
    /// Connects to `addr` within `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::Failed`] describing the resolution or connect
    /// failure.
    fn connect(&self, addr: &str, timeout: Duration) -> Result<Box<dyn Conn>, NetError>;
}

/// Reads one newline-terminated line from `conn` under `timeout`,
/// buffering partial reads in `buf` across calls. `Ok(None)` is EOF.
/// Reads are sliced into `poll`-sized waits so a caller loop can keep
/// observing shutdown flags between slices.
///
/// # Errors
///
/// [`NetError::Timeout`] when no full line arrived within the budget;
/// [`NetError::FrameTooLarge`] when more than [`MAX_FRAME_BYTES`]
/// accumulated without a newline; [`NetError::Failed`] for socket
/// failures.
pub fn read_line(
    conn: &mut dyn Conn,
    buf: &mut Vec<u8>,
    timeout: Duration,
    poll: Duration,
    clock: &dyn Clock,
) -> Result<Option<String>, NetError> {
    let deadline = clock.deadline(timeout);
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            return Ok(Some(String::from_utf8_lossy(&line).trim_end().to_string()));
        }
        if buf.len() > MAX_FRAME_BYTES {
            return Err(NetError::FrameTooLarge);
        }
        let left = deadline.saturating_sub(clock.now());
        if left.is_zero() {
            return Err(NetError::Timeout);
        }
        let mut chunk = [0u8; 4096];
        match conn.recv(&mut chunk, left.min(poll)) {
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(NetError::Timeout) => {}
            Err(NetError::Closed) => return Ok(None),
            Err(e) => return Err(e),
        }
    }
}

/// Why [`send_and_read`] got no reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NoReply {
    /// The step that failed: the send, or a reply that never came, was
    /// cut off or overran [`MAX_FRAME_BYTES`].
    pub(crate) reason: String,
    /// No byte of a reply arrived because the connection was gone: the
    /// send failed, or the peer closed it (EOF, reset) with nothing read.
    /// A timeout or a partial reply is never stale: the peer may have
    /// read the line and acted on it.
    pub(crate) stale: bool,
}

/// One request/reply exchange on an open connection: sends `line`
/// (newline-terminated here) and waits up to `reply` for one line back.
/// Bytes that arrive past the reply line stay in `buf`.
///
/// # Errors
///
/// A [`NoReply`] naming the step that failed.
pub(crate) fn send_and_read(
    conn: &mut dyn Conn,
    buf: &mut Vec<u8>,
    clock: &dyn Clock,
    line: &str,
    reply: Duration,
) -> Result<String, NoReply> {
    let mut framed = line.trim_end().to_string();
    framed.push('\n');
    if let Err(e) = conn.send(framed.as_bytes()) {
        let reason = format!("sending: {e}");
        return Err(NoReply {
            reason,
            stale: true,
        });
    }
    let read = read_line(conn, buf, reply, reply, clock);
    let stale = matches!(read, Ok(None)) && buf.is_empty();
    let reason = match read {
        Ok(Some(answer)) => return Ok(answer),
        Ok(None) => "connection closed before a response".to_string(),
        Err(NetError::Timeout) => format!("no response within {} ms", reply.as_millis()),
        Err(e) => format!("reading response: {e}"),
    };
    Err(NoReply { reason, stale })
}

/// One request/reply exchange on a fresh connection: connects to `addr`
/// within `connect`, then `send_and_read` with `reply`.
///
/// # Errors
///
/// A description of the step that failed: the connect, the send, or a
/// reply that never came, was cut off or overran [`MAX_FRAME_BYTES`].
pub fn round_trip(
    transport: &dyn Transport,
    clock: &dyn Clock,
    addr: &str,
    line: &str,
    connect: Duration,
    reply: Duration,
) -> Result<String, String> {
    let mut conn = transport
        .connect(addr, connect)
        .map_err(|e| e.to_string())?;
    send_and_read(conn.as_mut(), &mut Vec::new(), clock, line, reply).map_err(|e| e.reason)
}

// --- production impls -----------------------------------------------------

/// The production transport: real TCP with `TCP_NODELAY` and per-call
/// read timeouts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn connect(&self, addr: &str, timeout: Duration) -> Result<Box<dyn Conn>, NetError> {
        let sock = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Failed(format!("resolving {addr}: {e}")))?
            .next()
            .ok_or_else(|| NetError::Failed(format!("{addr} resolves to no address")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)
            .map_err(|e| NetError::Failed(format!("connecting to {sock}: {e}")))?;
        let _ = stream.set_nodelay(true);
        // Bound outbound writes by the same budget: a peer that stops
        // draining its socket errors the send instead of pinning the
        // sender forever (the caller's failure handling reconnects).
        let _ = stream.set_write_timeout(Some(timeout.max(Duration::from_millis(1))));
        Ok(Box::new(TcpConn::new(stream)))
    }
}

/// The link is gone: the peer reset or closed it. A read can see a
/// broken pipe too, when the peer's reset answers a send to a closed
/// socket.
fn is_gone(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
    )
}

/// A [`Conn`] over one `TcpStream`. The read timeout is a socket
/// attribute; it is re-set only when a call's budget differs from the
/// last one, so tight poll loops cost one syscall per read, not two.
struct TcpConn {
    stream: TcpStream,
    read_timeout: Option<Duration>,
}

impl TcpConn {
    fn new(stream: TcpStream) -> TcpConn {
        TcpConn {
            stream,
            read_timeout: None,
        }
    }
}

impl Conn for TcpConn {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(bytes).map_err(|e| match e.kind() {
            kind if is_gone(kind) => NetError::Closed,
            _ => NetError::Failed(format!("sending: {e}")),
        })
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        // A zero socket timeout means "block forever"; clamp up.
        let timeout = timeout.max(Duration::from_millis(1));
        if self.read_timeout != Some(timeout) {
            self.stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| NetError::Failed(format!("configuring socket: {e}")))?;
            self.read_timeout = Some(timeout);
        }
        match self.stream.read(buf) {
            Ok(0) => Err(NetError::Closed),
            Ok(n) => Ok(n),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(NetError::Timeout)
            }
            Err(e) if is_gone(e.kind()) => Err(NetError::Closed),
            Err(e) => Err(NetError::Failed(format!("reading: {e}"))),
        }
    }
}

// --- serving: one listener, one accept loop, one connection loop ---------

/// A bound, non-blocking TCP listener: the server and the router each
/// accept on one.
pub(crate) struct Listener {
    inner: TcpListener,
    /// The bound address, with an OS-assigned port resolved.
    pub(crate) addr: SocketAddr,
}

impl Listener {
    /// Binds `addr` (port `0` lets the OS pick).
    ///
    /// # Errors
    ///
    /// `IO-FAILURE` describing the bind failure.
    pub(crate) fn bind(addr: &str) -> Result<Listener, LintraError> {
        let failed = |e: std::io::Error| {
            LintraError::new(ErrorClass::Io, "IO-FAILURE", format!("binding {addr}: {e}"))
        };
        let inner = TcpListener::bind(addr).map_err(failed)?;
        inner.set_nonblocking(true).map_err(failed)?;
        let addr = inner.local_addr().map_err(failed)?;
        Ok(Listener { inner, addr })
    }

    /// One pending connection, without blocking: `None` when none is
    /// waiting or the accept failed (the caller polls again).
    pub(crate) fn accept(&self) -> Option<Box<dyn Conn>> {
        let (stream, _peer) = self.inner.accept().ok()?;
        // The accepted stream must not inherit non-blocking mode: reads
        // wait on per-call timeouts.
        stream.set_nonblocking(false).ok()?;
        let _ = stream.set_nodelay(true);
        Some(Box::new(TcpConn::new(stream)))
    }
}

/// Accepts on `listener` until `draining` is set, sleeping [`POLL`]
/// whenever no connection waits, and runs `serve` on a thread per
/// connection. Finished threads are joined as new ones start; once
/// draining, the listener closes and every connection still open is
/// joined before this returns.
pub(crate) fn accept_loop(
    listener: Listener,
    draining: &AtomicBool,
    clock: &dyn Clock,
    serve: impl Fn(Box<dyn Conn>) + Clone + Send + 'static,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !draining.load(Ordering::SeqCst) {
        let Some(conn) = listener.accept() else {
            clock.sleep(POLL);
            continue;
        };
        for done in conns.extract_if(.., |t| t.is_finished()) {
            let _ = done.join();
        }
        let serve = serve.clone();
        conns.push(thread::spawn(move || serve(conn)));
    }
    drop(listener);
    for t in conns {
        let _ = t.join();
    }
}

/// Serves one connection: frames its bytes into lines and hands each to
/// `on_line`, which answers on the connection itself and returns `false`
/// to close it. The connection closes once `draining` is set and no line
/// is in hand.
///
/// Two guards close a connection that is not speaking the protocol, each
/// after one failure line. A frame past [`MAX_FRAME_BYTES`] without a
/// newline is answered `VAL-FRAME-TOO-LARGE` at once, before it can grow
/// the buffer without bound. A partial frame still unfinished after
/// `partial_deadline` (a slow loris) is answered `RES-DEADLINE`, so it
/// cannot pin the thread; idle connections (nothing buffered) stay
/// open. Returns true when a guard refused a frame.
pub(crate) fn serve_connection(
    conn: &mut dyn Conn,
    clock: &dyn Clock,
    draining: &AtomicBool,
    partial_deadline: Duration,
    mut on_line: impl FnMut(&mut dyn Conn, &str) -> bool,
) -> bool {
    let mut buf = Vec::new();
    // When the loop first found the unfinished frame now buffered.
    let mut partial_since = None;
    while !draining.load(Ordering::SeqCst) {
        let (class, code, message) = match read_line(conn, &mut buf, POLL, POLL, clock) {
            Ok(Some(line)) => {
                if !on_line(conn, &line) {
                    return false;
                }
                partial_since = None;
                continue;
            }
            Err(NetError::Timeout) if buf.is_empty() => {
                partial_since = None;
                continue;
            }
            Err(NetError::Timeout) => {
                let since = *partial_since.get_or_insert_with(|| clock.now());
                if clock.now().saturating_sub(since) <= partial_deadline {
                    continue;
                }
                let ms = partial_deadline.as_millis();
                let message = format!("request frame incomplete after {ms} ms");
                (ErrorClass::Resource, "RES-DEADLINE", message)
            }
            Err(NetError::FrameTooLarge) => {
                let message =
                    format!("request frame exceeds {MAX_FRAME_BYTES} bytes without a newline");
                (ErrorClass::Validation, "VAL-FRAME-TOO-LARGE", message)
            }
            // EOF (a partial line dies with its client) or a torn link.
            Ok(None) | Err(_) => return false,
        };
        let failure = WireFailure {
            class,
            code: code.to_string(),
            message: format!("{message}; closing the connection"),
        };
        let _ = conn.send(WireResponse::err("", failure).render_line().as_bytes());
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SystemClock;

    #[test]
    fn tcp_transport_round_trips_a_line_through_a_bound_acceptor() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.addr.to_string();
        let mut client = TcpTransport
            .connect(&addr, Duration::from_secs(2))
            .expect("connect");
        client.send(b"hello over the seam\n").expect("send");
        let clock = SystemClock::new();
        let deadline = clock.deadline(Duration::from_secs(5));
        let mut server = loop {
            if let Some(conn) = listener.accept() {
                break conn;
            }
            assert!(!clock.expired(deadline), "accept timed out");
            clock.sleep(Duration::from_millis(5));
        };
        let mut buf = Vec::new();
        let line = read_line(
            server.as_mut(),
            &mut buf,
            Duration::from_secs(2),
            Duration::from_millis(20),
            &clock,
        )
        .expect("read")
        .expect("not EOF");
        assert_eq!(line, "hello over the seam");
        // Dropping the client surfaces EOF, not an error.
        drop(client);
        let eof = read_line(
            server.as_mut(),
            &mut buf,
            Duration::from_secs(2),
            Duration::from_millis(20),
            &clock,
        )
        .expect("read after close");
        assert_eq!(eof, None);
    }

    #[test]
    fn connect_to_a_dead_port_is_a_classified_failure() {
        match TcpTransport.connect("127.0.0.1:1", Duration::from_millis(200)) {
            Ok(_) => panic!("port 1 refuses"),
            Err(err) => assert!(matches!(err, NetError::Failed(_)), "{err:?}"),
        }
    }

    #[test]
    fn a_newline_free_stream_past_the_cap_is_frame_too_large() {
        struct Firehose;
        impl Conn for Firehose {
            fn send(&mut self, _bytes: &[u8]) -> Result<(), NetError> {
                Ok(())
            }
            fn recv(&mut self, buf: &mut [u8], _timeout: Duration) -> Result<usize, NetError> {
                buf.fill(b'x'); // never a newline
                Ok(buf.len())
            }
        }
        let clock = SystemClock::new();
        let mut buf = Vec::new();
        let err = read_line(
            &mut Firehose,
            &mut buf,
            Duration::from_secs(5),
            Duration::from_millis(20),
            &clock,
        )
        .expect_err("a boundless frame must be rejected");
        assert_eq!(err, NetError::FrameTooLarge);
        // The reject fires just past the cap, not megabytes later.
        assert!(
            buf.len() <= MAX_FRAME_BYTES + 4096,
            "buffered {}",
            buf.len()
        );
    }

    /// A connection that takes every send (or fails them all), replays
    /// `reads`, and then reports `then`.
    struct Scripted {
        send_fails: bool,
        reads: Vec<&'static str>,
        then: NetError,
    }

    impl Conn for Scripted {
        fn send(&mut self, _bytes: &[u8]) -> Result<(), NetError> {
            if self.send_fails {
                return Err(NetError::Closed);
            }
            Ok(())
        }
        fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
            if self.reads.is_empty() {
                if self.then == NetError::Timeout {
                    std::thread::sleep(timeout);
                }
                return Err(self.then.clone());
            }
            let bytes = self.reads.remove(0).as_bytes();
            buf[..bytes.len()].copy_from_slice(bytes);
            Ok(bytes.len())
        }
    }

    #[test]
    fn only_a_connection_gone_before_any_reply_byte_is_stale() {
        let clock = SystemClock::new();
        let run = |send_fails, reads: &[&'static str], then| {
            let reads = reads.to_vec();
            let mut conn = Scripted {
                send_fails,
                reads,
                then,
            };
            let mut buf = Vec::new();
            let reply = Duration::from_millis(30);
            let answer = send_and_read(&mut conn, &mut buf, &clock, "ask", reply);
            (answer, buf)
        };
        let stale = |send_fails, reads, then| run(send_fails, reads, then).0.map_err(|e| e.stale);
        assert_eq!(stale(true, &[], NetError::Closed), Err(true), "send");
        assert_eq!(stale(false, &[], NetError::Closed), Err(true), "EOF");
        assert_eq!(
            stale(false, &["par"], NetError::Closed),
            Err(false),
            "partial"
        );
        assert_eq!(stale(false, &[], NetError::Timeout), Err(false), "timeout");
        // A complete reply leaves whatever came past it in the buffer.
        let (answer, buf) = run(false, &["one\ntw"], NetError::Closed);
        assert_eq!(answer, Ok("one".to_string()));
        assert_eq!(buf, b"tw");
    }

    #[test]
    fn read_budget_expiry_is_a_timeout() {
        let listener = Listener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.addr.to_string();
        let _client = TcpTransport
            .connect(&addr, Duration::from_secs(2))
            .expect("connect");
        let clock = SystemClock::new();
        let mut server = loop {
            if let Some(conn) = listener.accept() {
                break conn;
            }
            clock.sleep(Duration::from_millis(5));
        };
        let mut buf = Vec::new();
        let err = read_line(
            server.as_mut(),
            &mut buf,
            Duration::from_millis(60),
            Duration::from_millis(20),
            &clock,
        )
        .expect_err("nothing was sent");
        assert_eq!(err, NetError::Timeout);
    }
}
