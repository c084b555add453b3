//! The coordinator side of one connection: a blocking request →
//! response client over TCP, plus the typed [`NetError`] every
//! client- and coordinator-level failure funnels into.

use std::fmt;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hycim_core::ShardError;
use hycim_obs::Snapshot;
use hycim_service::DisposeOutcome;

use crate::frame::{FrameError, MessageReceiver, MessageSender};
use crate::proto::{ErrorCode, JobSpec, ProtoError, Request, Response, WireSolution};
use crate::worker::{set_up_stream, MAX_WAIT};

/// Any failure of the networked path, every variant typed — the
/// coordinator never surfaces a hang or a corrupted merge, it
/// surfaces one of these.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, or the peer closed
    /// mid-conversation).
    Io(std::io::Error),
    /// A configured deadline elapsed: the peer accepted the
    /// connection (or the connect itself stalled) but did not answer
    /// within [`WorkerClient::set_timeout`] /
    /// [`WorkerClient::connect_timeout`]. Distinct from [`Io`](Self::Io)
    /// so retry loops can treat a hung peer as retriable-elsewhere.
    Timeout,
    /// A frame could not be read.
    Frame(FrameError),
    /// A frame decoded but violated the protocol.
    Proto(ProtoError),
    /// The peer answered with a different reply than the verb allows.
    UnexpectedReply {
        /// What the sent verb allows.
        expected: &'static str,
        /// What arrived instead.
        got: String,
    },
    /// The worker answered with a typed protocol error.
    Remote {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail from the worker.
        message: String,
    },
    /// Shard results could not be merged (a coordinator-side bug or a
    /// worker returning the wrong count).
    Shard(ShardError),
    /// A shard ran out of workers to retry on (and, when local
    /// fallback is enabled, the coordinator host could not solve it
    /// either).
    ShardExhausted {
        /// Flat-grid start of the failed shard.
        start: usize,
        /// Flat-grid end of the failed shard.
        end: usize,
        /// Dispatch attempts made.
        attempts: usize,
        /// Every per-attempt failure message, oldest first — the full
        /// diagnostic chain, so operators can see which worker or
        /// fault killed each attempt. The final entry is the failure
        /// that exhausted the shard.
        chain: Vec<String>,
    },
    /// The coordinator was given no worker addresses.
    NoWorkers,
    /// A coordinator or client knob was configured with an invalid
    /// value (e.g. a zero attempt bound).
    Config(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Timeout => write!(f, "peer deadline elapsed"),
            NetError::Frame(e) => write!(f, "framing: {e}"),
            NetError::Proto(e) => write!(f, "{e}"),
            NetError::UnexpectedReply { expected, got } => {
                write!(f, "expected a {expected} reply, got {got}")
            }
            NetError::Remote { code, message } => write!(f, "worker error [{code}]: {message}"),
            NetError::Shard(e) => write!(f, "merge: {e}"),
            NetError::ShardExhausted {
                start,
                end,
                attempts,
                chain,
            } => {
                write!(f, "shard [{start}, {end}) failed after {attempts} attempts")?;
                if chain.is_empty() {
                    write!(f, " (never attempted)")
                } else {
                    write!(f, "; failure chain:")?;
                    for (i, failure) in chain.iter().enumerate() {
                        write!(f, " [{}] {failure}", i + 1)?;
                    }
                    Ok(())
                }
            }
            NetError::NoWorkers => write!(f, "no worker addresses given"),
            NetError::Config(message) => write!(f, "invalid configuration: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            NetError::Proto(e) => Some(e),
            NetError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

/// The error kinds a blocking socket read reports when its configured
/// read timeout elapses (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        if is_timeout(e.kind()) {
            NetError::Timeout
        } else {
            NetError::Io(e)
        }
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) if is_timeout(io.kind()) => NetError::Timeout,
            other => NetError::Frame(other),
        }
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

/// A connection to one worker. Each public method is one request →
/// reply round trip; jobs themselves run asynchronously on the worker,
/// so a client submits many jobs and waits on them through the same
/// connection. The coordinator pipelines: it writes several requests
/// before reading their replies, which come back in write order.
pub struct WorkerClient {
    sender: MessageSender<TcpStream>,
    receiver: MessageReceiver<BufReader<TcpStream>>,
}

impl WorkerClient {
    /// Connects to a worker.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects to a worker with a bound on the connect itself: an
    /// unreachable or black-holing address turns into
    /// [`NetError::Timeout`] after `timeout` instead of the
    /// platform's (often minutes-long) default.
    ///
    /// # Errors
    ///
    /// Transport failures; [`NetError::Timeout`] when the deadline
    /// elapses on every resolved address.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, NetError> {
        let mut last: Option<NetError> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) => last = Some(e.into()),
            }
        }
        Err(last.unwrap_or(NetError::Io(std::io::Error::other(
            "address resolved to nothing",
        ))))
    }

    fn from_stream(stream: TcpStream) -> Result<Self, NetError> {
        set_up_stream(&stream);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            sender: MessageSender::new(stream),
            receiver: MessageReceiver::new(reader),
        })
    }

    /// Sets a read timeout so a silent peer turns into a typed
    /// [`NetError::Timeout`] instead of a hang.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.receiver_stream().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sets a write deadline: a peer that accepts the connection but
    /// stops draining its receive buffer (a stalled reader) turns a
    /// large request into [`NetError::Timeout`] once the socket
    /// buffers fill, instead of blocking the coordinator forever.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.receiver_stream().set_write_timeout(timeout)?;
        Ok(())
    }

    fn receiver_stream(&self) -> &TcpStream {
        // The receiver wraps a clone of the sender's stream. Clones
        // share the underlying socket, so options set here govern the
        // sending half too.
        self.receiver_ref().get_ref()
    }

    fn receiver_ref(&self) -> &BufReader<TcpStream> {
        self.receiver.inner_ref()
    }

    /// Sends one request and reads its reply; a typed error reply
    /// becomes [`NetError::Remote`].
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request without reading its reply. The worker
    /// answers a connection's requests strictly in order, so several
    /// requests may be written before their replies are read with
    /// [`recv`](Self::recv), one each, in write order.
    pub(crate) fn send(&mut self, request: &Request) -> Result<(), NetError> {
        self.sender.send(&request.to_value())?;
        Ok(())
    }

    /// Reads the reply to the oldest request not yet answered; a typed
    /// error reply becomes [`NetError::Remote`].
    pub(crate) fn recv(&mut self) -> Result<Response, NetError> {
        let frame = self
            .receiver
            .recv()?
            .ok_or_else(|| NetError::Io(std::io::Error::other("worker closed the connection")))?;
        match Response::from_value(&frame)? {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Ok(other),
        }
    }

    /// Submits a shard spec; returns the worker-local job id.
    ///
    /// # Errors
    ///
    /// Any [`NetError`]; a full worker queue is
    /// [`NetError::Remote`] with [`ErrorCode::Backpressure`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, NetError> {
        submitted(self.call(&Request::Submit(spec.clone()))?)
    }

    /// Blocks until the job turns terminal, for at most `timeout`
    /// (the worker clamps it to [`MAX_WAIT`]). A terminal job is
    /// delivered in the same round trip: `Some(solutions)`, or a typed
    /// error, and either way the entry is consumed. `None` means the
    /// job was still queued or running when the deadline passed. Keep
    /// `timeout` below the read timeout, or a slow job reads as
    /// [`NetError::Timeout`].
    ///
    /// # Errors
    ///
    /// Any [`NetError`]; a panicked solve is [`NetError::Remote`] with
    /// [`ErrorCode::JobFailed`], an untracked (or already delivered)
    /// job one with [`ErrorCode::UnknownJob`].
    pub fn wait(
        &mut self,
        job: u64,
        timeout: Duration,
    ) -> Result<Option<Vec<WireSolution>>, NetError> {
        waited(self.call(&wait_request(job, timeout))?)
    }

    /// Cancels / disposes a job at whatever stage it is in.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn cancel(&mut self, job: u64) -> Result<DisposeOutcome, NetError> {
        match self.call(&Request::Cancel { job })? {
            Response::Cancelled { outcome, .. } => Ok(outcome),
            other => Err(unexpected("cancelled", &other)),
        }
    }

    /// Scrapes the worker's metrics registry: wire counters
    /// (`net.*`), its job service (`service.*`), and whatever the
    /// engines published — one [`Snapshot`] for the whole worker.
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn stats(&mut self) -> Result<Snapshot, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Waits until the job turns terminal and takes its solutions —
    /// the blocking convenience for single-worker callers. Each `wait`
    /// carries half this connection's read timeout as its deadline,
    /// capped at [`MAX_WAIT`].
    ///
    /// # Errors
    ///
    /// Any [`NetError`].
    pub fn wait_fetch(&mut self, job: u64) -> Result<Vec<WireSolution>, NetError> {
        let deadline = wait_deadline(self.receiver_stream().read_timeout()?);
        loop {
            if let Some(solutions) = self.wait(job, deadline)? {
                return Ok(solutions);
            }
        }
    }
}

/// The `wait` deadline for a connection with the given read timeout:
/// half of it, capped at [`MAX_WAIT`] ([`MAX_WAIT`] without one), so
/// the worker always answers before the client gives up on the read.
pub(crate) fn wait_deadline(read_timeout: Option<Duration>) -> Duration {
    read_timeout.map_or(MAX_WAIT, |timeout| (timeout / 2).min(MAX_WAIT))
}

/// The `wait` request for `job` with a `timeout` deadline.
pub(crate) fn wait_request(job: u64, timeout: Duration) -> Request {
    let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
    Request::Wait { job, timeout_ms }
}

/// Decodes the reply to a `submit`: the worker-local job id.
pub(crate) fn submitted(reply: Response) -> Result<u64, NetError> {
    match reply {
        Response::Submitted { job } => Ok(job),
        other => Err(unexpected("submitted", &other)),
    }
}

/// Decodes the reply to a `wait`: `Some(solutions)` for a delivered
/// job, `None` for one still queued or running at the deadline.
pub(crate) fn waited(reply: Response) -> Result<Option<Vec<WireSolution>>, NetError> {
    match reply {
        Response::Solutions { solutions, .. } => Ok(Some(solutions)),
        Response::Status { .. } => Ok(None),
        other => Err(unexpected("solutions or status", &other)),
    }
}

fn unexpected(expected: &'static str, got: &Response) -> NetError {
    NetError::UnexpectedReply {
        expected,
        got: reply_name(got).to_string(),
    }
}

fn reply_name(response: &Response) -> &'static str {
    match response {
        Response::Submitted { .. } => "submitted",
        Response::Status { .. } => "status",
        Response::Solutions { .. } => "solutions",
        Response::Cancelled { .. } => "cancelled",
        Response::Stats { .. } => "stats",
        Response::Error { .. } => "error",
    }
}
