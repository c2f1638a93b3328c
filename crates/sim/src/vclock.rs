//! Simulated implementations of the two seams of [`lintra_serve::Client`]:
//! a virtual [`Clock`] whose `sleep` advances a counter instead of
//! blocking, and a scripted in-memory [`Transport`] that answers wire
//! lines without a socket. Together they run the *real* client —
//! retries, backoff, endpoint walk and all — single-threadedly under
//! virtual time: a test that would spend seconds sleeping finishes in
//! microseconds and is bit-reproducible.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lintra_serve::clock::Clock;
use lintra_serve::transport::{Conn, NetError, Transport};

/// Virtual monotonic time: a nanosecond counter that only moves when
/// someone sleeps on it (or advances it explicitly). Shared between the
/// code under test and the harness via `Arc`.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A clock starting at t = 0.
    pub fn new() -> Arc<SimClock> {
        Arc::new(SimClock::default())
    }

    /// Moves virtual time forward by `d`.
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.now_ns.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        // Sleeping IS advancing: the sleeper is the only runnable work.
        self.advance(d);
    }
}

/// What a scripted endpoint does with one received line.
pub enum Reply {
    /// Answer with this line (newline appended) after the given virtual
    /// delay.
    LineAfter(String, Duration),
    /// Swallow the line; the caller's read budget will expire.
    Silence,
    /// Close the connection without answering.
    Close,
}

type Responder = Box<dyn FnMut(&str) -> Reply + Send>;

#[derive(Default)]
struct NetInner {
    servers: HashMap<String, Responder>,
    /// Virtual cost of a refused/accepted connect and of delivery.
    latency: Duration,
}

/// A scripted in-memory network implementing the serve [`Transport`].
/// Endpoints are registered with [`ScriptedNet::serve`]; everything else
/// refuses connections like a dead port.
#[derive(Clone)]
pub struct ScriptedNet {
    clock: Arc<SimClock>,
    inner: Arc<Mutex<NetInner>>,
}

impl std::fmt::Debug for ScriptedNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedNet").finish_non_exhaustive()
    }
}

impl ScriptedNet {
    /// An empty network on the given clock with a 1 ms hop latency.
    pub fn new(clock: Arc<SimClock>) -> ScriptedNet {
        ScriptedNet {
            clock,
            inner: Arc::new(Mutex::new(NetInner {
                servers: HashMap::new(),
                latency: Duration::from_millis(1),
            })),
        }
    }

    /// Registers (or replaces) the responder behind `addr`.
    pub fn serve(
        &self,
        addr: impl Into<String>,
        responder: impl FnMut(&str) -> Reply + Send + 'static,
    ) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.servers.insert(addr.into(), Box::new(responder));
        }
    }
}

impl Transport for ScriptedNet {
    fn connect(&self, addr: &str, _timeout: Duration) -> Result<Box<dyn Conn>, NetError> {
        let (known, latency) = match self.inner.lock() {
            Ok(inner) => (inner.servers.contains_key(addr), inner.latency),
            Err(_) => return Err(NetError::Failed("scripted net poisoned".to_string())),
        };
        // Even a refused connect costs a round trip of virtual time.
        self.clock.advance(latency);
        if !known {
            return Err(NetError::Failed(format!("connecting to {addr}: refused")));
        }
        Ok(Box::new(ScriptedConn {
            addr: addr.to_string(),
            clock: Arc::clone(&self.clock),
            inner: Arc::clone(&self.inner),
            inbox: VecDeque::new(),
            partial: Vec::new(),
            closed_at: None,
        }))
    }
}

struct ScriptedConn {
    addr: String,
    clock: Arc<SimClock>,
    inner: Arc<Mutex<NetInner>>,
    /// Queued response bytes with the virtual instant they become
    /// readable.
    inbox: VecDeque<(Duration, Vec<u8>)>,
    /// Unterminated tail of sent bytes, waiting for its newline.
    partial: Vec<u8>,
    /// Set once the scripted peer closed; reads past the queue EOF.
    closed_at: Option<Duration>,
}

impl Conn for ScriptedConn {
    fn send(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        if self.closed_at.is_some() {
            return Err(NetError::Closed);
        }
        self.partial.extend_from_slice(bytes);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line).trim_end().to_string();
            let mut inner = self
                .inner
                .lock()
                .map_err(|_| NetError::Failed("scripted net poisoned".to_string()))?;
            let latency = inner.latency;
            let now = self.clock.now();
            match inner.servers.get_mut(&self.addr) {
                None => return Err(NetError::Closed), // endpoint died mid-conversation
                Some(responder) => match responder(&line) {
                    Reply::LineAfter(mut text, after) => {
                        text.push('\n');
                        self.inbox
                            .push_back((now + latency + after, text.into_bytes()));
                    }
                    Reply::Silence => {}
                    Reply::Close => self.closed_at = Some(now + latency),
                },
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> Result<usize, NetError> {
        let now = self.clock.now();
        let deadline = now + timeout;
        if let Some((ready, _)) = self.inbox.front() {
            let ready = *ready;
            if ready <= deadline {
                if ready > now {
                    self.clock.advance(ready - now);
                }
                let (_, bytes) = match self.inbox.pop_front() {
                    Some(entry) => entry,
                    None => return Err(NetError::Timeout),
                };
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.inbox.push_front((ready, bytes[n..].to_vec()));
                }
                return Ok(n);
            }
        }
        if let Some(closed) = self.closed_at {
            if closed <= deadline {
                if closed > now {
                    self.clock.advance(closed - now);
                }
                return Err(NetError::Closed);
            }
        }
        self.clock.advance(timeout);
        Err(NetError::Timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_only_on_sleep() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_secs(3600));
        assert_eq!(clock.now(), Duration::from_secs(3600));
    }

    #[test]
    fn scripted_net_round_trips_and_refuses_unknown_endpoints() {
        let clock = SimClock::new();
        let net = ScriptedNet::new(Arc::clone(&clock));
        net.serve("alpha:1", |line| {
            Reply::LineAfter(format!("echo {line}"), Duration::from_millis(5))
        });
        let mut conn = net
            .connect("alpha:1", Duration::from_secs(1))
            .expect("registered endpoint accepts");
        conn.send(b"hello\n").expect("send");
        let mut buf = [0u8; 64];
        let n = conn.recv(&mut buf, Duration::from_secs(1)).expect("reply");
        assert_eq!(&buf[..n], b"echo hello\n");
        assert!(net.connect("dead:1", Duration::from_secs(1)).is_err());
    }
}
