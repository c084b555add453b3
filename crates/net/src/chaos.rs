//! Deterministic fault injection at the transport: a TCP forwarder
//! that sits between a coordinator and a worker and misbehaves on
//! schedule.
//!
//! Every accepted connection gets a connection index (0, 1, 2, … in
//! accept order) and looks its fault up in a [`FaultPlan`]: either an
//! explicitly scripted entry, or a seeded draw (splitmix64 over the
//! connection index), so a chaos scenario is a *reproducible script*
//! — the same plan injects the same faults in the same places on
//! every run. Faults cover the transport failure modes the resilience
//! layer must absorb: refused connections, mid-run drops, mid-frame
//! byte truncation, partial (chunked) writes, stalls past the read
//! deadline, and delayed responses.
//!
//! The proxy is frame-aware only in the loosest sense: responses are
//! newline-terminated lines (the [`frame`](crate::frame) grammar), so
//! counting newlines on the worker→client direction is enough to cut
//! a stream "after the n-th response" or "5 bytes into a frame"
//! without parsing anything.
//!
//! This module is compiled unconditionally (it is inert unless
//! spawned) so the fault suite, the bench chaos tests, and the
//! `chaos_demo` example all exercise the exact production client and
//! coordinator code paths through it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::worker::set_up_stream;

/// SplitMix64 finalizer (the same mixer `replica_seed` builds on) —
/// the plan's per-connection draw.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one proxied connection does to its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Forward everything faithfully.
    Clean,
    /// Close the accepted socket immediately, without ever dialing
    /// the worker — the client sees a refused conversation.
    Refuse,
    /// Forward `responses` complete response frames, then sever both
    /// directions abruptly — the "worker died mid-run" drop.
    CloseAfterResponses {
        /// Complete worker→client frames forwarded before the cut.
        responses: usize,
    },
    /// Forward `responses` complete response frames, then exactly
    /// `bytes` bytes of the next frame, then close — a mid-frame
    /// truncation the client must surface as a framing error, never
    /// as a short result.
    TruncateResponse {
        /// Complete frames forwarded before the truncated one.
        responses: usize,
        /// Bytes of the truncated frame that still get through.
        bytes: usize,
    },
    /// Forward `responses` complete response frames, then go silent
    /// while holding the connection open — the stall a read deadline
    /// exists for. Requests keep flowing to the worker; answers stop.
    Stall {
        /// Complete frames forwarded before the silence.
        responses: usize,
    },
    /// Forward faithfully, but sleep `millis` before relaying each
    /// response frame — a slow but correct worker.
    Delay {
        /// Per-response delay in milliseconds.
        millis: u64,
    },
    /// Forward faithfully, but write each response in `chunk`-byte
    /// partial writes with a flush between each — exercises reassembly
    /// on the client side.
    Chunked {
        /// Bytes per partial write (minimum 1).
        chunk: usize,
    },
}

impl ConnFault {
    /// True when the fault perturbs traffic at all (everything except
    /// [`Clean`](Self::Clean)).
    fn is_fault(&self) -> bool {
        *self != ConnFault::Clean
    }
}

/// A deterministic schedule of per-connection faults.
///
/// Lookup order for connection `i`: an explicit
/// [`script`](Self::script) entry wins; otherwise, if a random mode
/// is configured, a splitmix64 draw over `seed ^ i` decides whether
/// (and which) menu fault fires; otherwise the connection is clean.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rate_percent: u64,
    menu: Vec<ConnFault>,
    script: Vec<(usize, ConnFault)>,
}

impl FaultPlan {
    /// A plan that injects nothing (the baseline every scenario
    /// starts from).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            rate_percent: 0,
            menu: Vec::new(),
            script: Vec::new(),
        }
    }

    /// Scripts an exact fault for one connection index (overrides any
    /// random draw).
    pub fn script(mut self, connection: usize, fault: ConnFault) -> Self {
        self.script.push((connection, fault));
        self
    }

    /// Enables seeded random injection: each unscripted connection
    /// faults with probability `rate_percent`/100, picking uniformly
    /// from `menu` — both decisions taken from the splitmix64 stream
    /// over the connection index, so the schedule depends only on
    /// (seed, index).
    pub fn with_random(mut self, rate_percent: u64, menu: Vec<ConnFault>) -> Self {
        self.rate_percent = rate_percent.min(100);
        self.menu = menu;
        self
    }

    /// The fault connection `connection` gets under this plan.
    fn fault_for(&self, connection: usize) -> ConnFault {
        if let Some((_, fault)) = self.script.iter().rev().find(|(idx, _)| *idx == connection) {
            return *fault;
        }
        if self.rate_percent == 0 || self.menu.is_empty() {
            return ConnFault::Clean;
        }
        let draw = splitmix64(self.seed ^ splitmix64(connection as u64));
        if draw % 100 < self.rate_percent {
            self.menu[(draw >> 32) as usize % self.menu.len()]
        } else {
            ConnFault::Clean
        }
    }

    /// The seed the random mode draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

struct ProxyShared {
    upstream: String,
    plan: FaultPlan,
    stop: AtomicBool,
    accepted: AtomicUsize,
    injected: AtomicUsize,
    /// Live socket pairs by connection index, severed on stop so pump
    /// threads unblock. A connection removes its entry when its
    /// response pump ends.
    conns: Mutex<HashMap<usize, Vec<TcpStream>>>,
}

/// A running fault-injection proxy: connect clients to
/// [`addr`](Self::addr) and it forwards to the upstream worker,
/// misbehaving per its [`FaultPlan`].
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and starts forwarding to
    /// `upstream` (a worker's address) under `plan`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(upstream: impl Into<String>, plan: FaultPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream: upstream.into(),
            plan,
            stop: AtomicBool::new(false),
            accepted: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("hycim-chaos-{}", addr.port()))
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn chaos accept thread")
        };
        Ok(Self {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The proxy's listening address — hand this to the coordinator
    /// in place of the worker's.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (the next connection gets this
    /// index).
    pub fn connections(&self) -> usize {
        self.shared.accepted.load(Ordering::SeqCst)
    }

    /// Connections whose plan entry was an actual fault.
    pub fn faults_injected(&self) -> usize {
        self.shared.injected.load(Ordering::SeqCst)
    }

    /// Stops accepting, severs every proxied connection, and joins
    /// the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        // This runs from `Drop`, so a poisoned table is taken as it is:
        // each insert or remove leaves it whole.
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in conns.into_values().flatten() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    loop {
        let Ok((client, _)) = listener.accept() else {
            return;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let index = shared.accepted.fetch_add(1, Ordering::SeqCst);
        let fault = shared.plan.fault_for(index);
        if fault.is_fault() {
            shared.injected.fetch_add(1, Ordering::SeqCst);
        }
        if fault == ConnFault::Refuse {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let Ok(worker) = TcpStream::connect(shared.upstream.as_str()) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        set_up_stream(&client);
        set_up_stream(&worker);
        let pair = [&client, &worker]
            .iter()
            .filter_map(|s| s.try_clone().ok())
            .collect();
        shared
            .conns
            .lock()
            .expect("chaos conn lock")
            .insert(index, pair);
        // Upstream pump: client → worker, always faithful (faults act
        // on the response direction, where the coordinator's fate is
        // decided).
        if let (Ok(mut from), Ok(mut to)) = (client.try_clone(), worker.try_clone()) {
            let _ = std::thread::Builder::new()
                .name("hycim-chaos-up".to_string())
                .spawn(move || {
                    pump_faithful(&mut from, &mut to);
                });
        }
        // Downstream pump: worker → client, through the fault.
        let shared_down = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("hycim-chaos-down".to_string())
            .spawn(move || {
                pump_faulted(worker, client, fault, &shared_down);
                shared_down
                    .conns
                    .lock()
                    .expect("chaos conn lock")
                    .remove(&index);
            });
    }
}

/// Byte-for-byte relay until either side dies.
fn pump_faithful(from: &mut TcpStream, to: &mut TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Relays worker → client under a fault, counting newline-terminated
/// response frames to know where to cut, stall, or delay.
fn pump_faulted(mut worker: TcpStream, client: TcpStream, fault: ConnFault, shared: &ProxyShared) {
    let mut writer = match client.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut responses_done = 0usize;
    let mut bytes_into_frame = 0usize;
    let mut buf = [0u8; 4096];
    'pump: loop {
        let n = match worker.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut start = 0usize;
        while start < n {
            // The next piece runs to the end of the current frame or
            // of the buffer, whichever is first.
            let rel_newline = buf[start..n].iter().position(|&b| b == b'\n');
            let end = rel_newline.map_or(n, |p| start + p + 1);
            let piece = &buf[start..end];
            match fault {
                ConnFault::CloseAfterResponses { responses } if responses_done >= responses => {
                    break 'pump;
                }
                ConnFault::Stall { responses } if responses_done >= responses => {
                    // Hold both sockets open, forward nothing more;
                    // the client's read deadline is the only way out.
                    while !shared.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    return;
                }
                ConnFault::TruncateResponse { responses, bytes } if responses_done >= responses => {
                    let keep = bytes.saturating_sub(bytes_into_frame).min(piece.len());
                    let _ = writer.write_all(&piece[..keep]);
                    break 'pump;
                }
                ConnFault::Delay { millis } => {
                    if bytes_into_frame == 0 {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    if writer.write_all(piece).is_err() {
                        break 'pump;
                    }
                }
                ConnFault::Chunked { chunk } => {
                    for part in piece.chunks(chunk.max(1)) {
                        if writer.write_all(part).is_err() || writer.flush().is_err() {
                            break 'pump;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                _ => {
                    if writer.write_all(piece).is_err() {
                        break 'pump;
                    }
                }
            }
            if rel_newline.is_some() {
                responses_done += 1;
                bytes_into_frame = 0;
            } else {
                bytes_into_frame += piece.len();
            }
            start = end;
        }
    }
    // Sever both directions so client and worker observe the cut.
    let _ = writer.shutdown(Shutdown::Both);
    let _ = worker.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_in_seed_and_index() {
        let menu = vec![
            ConnFault::Refuse,
            ConnFault::Stall { responses: 0 },
            ConnFault::Delay { millis: 1 },
        ];
        let a = FaultPlan::clean(42).with_random(50, menu.clone());
        let b = FaultPlan::clean(42).with_random(50, menu.clone());
        let c = FaultPlan::clean(43).with_random(50, menu);
        let draws_a: Vec<ConnFault> = (0..64).map(|i| a.fault_for(i)).collect();
        let draws_b: Vec<ConnFault> = (0..64).map(|i| b.fault_for(i)).collect();
        let draws_c: Vec<ConnFault> = (0..64).map(|i| c.fault_for(i)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same schedule");
        assert_ne!(draws_a, draws_c, "different seed, different schedule");
        // Roughly half the connections fault at a 50% rate.
        let faults = draws_a.iter().filter(|f| f.is_fault()).count();
        assert!((10..=54).contains(&faults), "{faults} faults of 64");
    }

    #[test]
    fn script_overrides_the_random_draw() {
        let plan = FaultPlan::clean(7)
            .with_random(100, vec![ConnFault::Refuse])
            .script(3, ConnFault::Clean)
            .script(5, ConnFault::Stall { responses: 2 });
        assert_eq!(plan.fault_for(0), ConnFault::Refuse);
        assert_eq!(plan.fault_for(3), ConnFault::Clean);
        assert_eq!(plan.fault_for(5), ConnFault::Stall { responses: 2 });
        // The latest script entry for an index wins.
        let plan = plan.script(5, ConnFault::Clean);
        assert_eq!(plan.fault_for(5), ConnFault::Clean);
    }

    #[test]
    fn ended_connections_leave_the_proxy_connection_table() {
        use crate::client::WorkerClient;
        use crate::worker::{WorkerConfig, WorkerServer};

        let worker = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
            .expect("bind")
            .spawn();
        let proxy =
            ChaosProxy::spawn(worker.addr().to_string(), FaultPlan::clean(0)).expect("spawn proxy");
        for _ in 0..20 {
            let mut client = WorkerClient::connect(proxy.addr()).expect("connect");
            client.stats().expect("stats through the proxy");
            // Both sides of a live proxied connection have Nagle off.
            let nodelay: Vec<bool> = proxy
                .shared
                .conns
                .lock()
                .expect("chaos conn lock")
                .values()
                .flatten()
                .map(|s| s.nodelay().expect("query"))
                .collect();
            assert!(nodelay.iter().all(|&on| on), "{nodelay:?}");
        }
        let tracked = || proxy.shared.conns.lock().expect("chaos conn lock").len();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while tracked() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "{} proxied connections still tracked",
                tracked()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        proxy.stop();
        worker.stop();
    }

    #[test]
    fn clean_plan_injects_nothing() {
        let plan = FaultPlan::clean(0);
        assert!((0..256).all(|i| plan.fault_for(i) == ConnFault::Clean));
        assert!(!ConnFault::Clean.is_fault());
        assert!(ConnFault::Refuse.is_fault());
    }
}
