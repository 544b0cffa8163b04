//! The live cluster: one OS thread per process, one loopback TCP connection
//! per ordered link, wall timers, and a fault filter in every link's reader.
//!
//! ## Topology
//!
//! For `n` processes the cluster opens `n` listeners, one per process.
//! Process `i`'s outbound channel to `j` is a TCP connection straight to
//! `j`'s listener; the first frame on it is a hello naming the sender, so
//! receivers demultiplex anonymous loopback connections into `(from, msg)`
//! deliveries. The reader thread that owns the link on `j`'s side applies
//! the link's [`LinkFault`] schedule (drop, hold-back reorder, fixed or
//! ramping delay — all until the link's GST, clean afterwards) between the
//! socket and `j`'s inbox: one hop per frame, and a serial per-link delay
//! line, because the reader handles one frame at a time.
//!
//! A handler invocation's frames leave with one `write` per destination:
//! they are encoded into that link's buffer and flushed together when the
//! handler returns.
//!
//! ## Threads
//!
//! Everything runs on scoped threads from [`dinefd_sim::pool`]: `n` process
//! workers (the event loops) and `n·(n-1)` reader workers (one per inbound
//! link, filtering and decoding frames into the owner's inbox channel).
//! All of them drain naturally at the horizon: processes exit, their
//! sockets close, readers see end-of-stream, and the pool joins every
//! thread before [`LiveCluster::run_to_horizon`] returns — no detached
//! state survives a run. [`LiveStats::listeners`] and
//! [`LiveStats::worker_threads`] count what a run actually bound and joined.
//!
//! ## Time
//!
//! One virtual tick = one millisecond of wall clock, measured on a shared
//! [`MonotonicClock`] whose origin is the moment the run starts. Nodes
//! never read the wall clock directly: exactly as under the simulator they
//! see only their own timer firings and the `now` stamped into their
//! [`Context`] — which is what lets the identical logic core run on both
//! substrates.
//!
//! ## Crashes
//!
//! A crash schedule entry `(p, t)` makes `p`'s event loop return at wall
//! time `t` ms: its streams drop, peers observe end-of-stream, and `p`
//! takes no further steps — fail-stop, no recovery, exactly the paper's
//! fault model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dinefd_runtime::{
    Clock, Context, MonotonicClock, Node, ObsRecord, ProcessId, Runtime, SplitMix64, Time, Wire,
};
use dinefd_sim::pool::{self, WorkerFn};

use crate::fault::LinkFault;
use crate::frame;

/// Configuration of one live run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Seed for node-local randomness and fault draws.
    pub seed: u64,
    /// Crash schedule: `(process, wall ms since start)`.
    pub crashes: Vec<(ProcessId, u64)>,
    /// Fault schedule applied to every ordered link.
    pub fault: LinkFault,
}

impl LiveConfig {
    /// Fault-free configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        LiveConfig { seed, crashes: Vec::new(), fault: LinkFault::clean() }
    }

    /// Adds a crash of `pid` at `at_ms`.
    pub fn crash(mut self, pid: ProcessId, at_ms: u64) -> Self {
        self.crashes.push((pid, at_ms));
        self
    }

    /// Sets the per-link fault schedule.
    pub fn fault(mut self, fault: LinkFault) -> Self {
        self.fault = fault;
        self
    }
}

/// Transport-level counters from one live run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveStats {
    /// Messages decoded and handed to inboxes (past the fault filter).
    pub frames_delivered: u64,
    /// Frames the link readers' fault filters let through.
    pub frames_forwarded: u64,
    /// Frames the link readers' fault filters dropped (pre-GST loss).
    pub frames_dropped: u64,
    /// Messages the process event loops emitted.
    pub messages_sent: u64,
    /// Wall-clock length of the run.
    pub wall: Duration,
    /// TCP listeners the run bound: one per process.
    pub listeners: usize,
    /// Worker threads the run spawned and joined: `n` processes plus
    /// `n·(n-1)` link readers.
    pub worker_threads: usize,
}

/// A set of nodes bound to the live loopback-TCP runtime.
///
/// Construct with [`LiveCluster::new`], drive with the [`Runtime`] trait's
/// `run_to_horizon` (the horizon is in ms), then inspect final node state
/// via [`LiveCluster::node`] and transport counters via
/// [`LiveCluster::stats`].
#[derive(Debug)]
pub struct LiveCluster<N: Node> {
    nodes: Option<Vec<N>>,
    cfg: LiveConfig,
    stats: LiveStats,
}

impl<N: Node> LiveCluster<N> {
    /// A cluster over `nodes` (process `i` is `nodes[i]`).
    pub fn new(nodes: Vec<N>, cfg: LiveConfig) -> Self {
        LiveCluster { nodes: Some(nodes), cfg, stats: LiveStats::default() }
    }

    /// Final state of process `pid` (valid after a run; crashed processes
    /// are frozen at their crash instant).
    pub fn node(&self, pid: ProcessId) -> &N {
        &self.nodes.as_ref().expect("cluster is between runs")[pid.index()]
    }

    /// Transport counters of the last run.
    pub fn stats(&self) -> &LiveStats {
        &self.stats
    }
}

impl<N> Runtime<N> for LiveCluster<N>
where
    N: Node + Send,
    N::Msg: Wire + Send,
    N::Obs: Send,
{
    fn run_to_horizon(&mut self, horizon: Time) -> Vec<ObsRecord<N::Obs>> {
        let nodes = self.nodes.take().expect("live cluster can only be mid-run on its own thread");
        let (nodes, obs, stats) = run_live(nodes, &self.cfg, horizon.0);
        self.nodes = Some(nodes);
        self.stats = stats;
        obs
    }
}

/// What one worker thread hands back at join time.
enum LiveOut<N: Node> {
    Proc { slot: usize, node: N, obs: Vec<ObsRecord<N::Obs>>, sent: u64 },
    Reader { delivered: u64, forwarded: u64, dropped: u64 },
}

/// Polls `accept` without blocking forever: gives up once the shared clock
/// passes `deadline_ms`. A worker stranded by a peer that never connects
/// (its process crashed at t=0, or an earlier setup step failed) must not
/// hang the join.
fn accept_with_deadline(
    listener: &TcpListener,
    clock: &dyn Clock,
    deadline_ms: u64,
) -> Option<TcpStream> {
    listener.set_nonblocking(true).ok()?;
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).ok()?;
                return Some(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if clock.elapsed_millis() > deadline_ms {
                    return None;
                }
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return None,
        }
    }
}

fn run_live<N>(
    nodes: Vec<N>,
    cfg: &LiveConfig,
    horizon_ms: u64,
) -> (Vec<N>, Vec<ObsRecord<N::Obs>>, LiveStats)
where
    N: Node + Send,
    N::Msg: Wire + Send,
    N::Obs: Send,
{
    let n = nodes.len();
    assert!(n >= 1, "a cluster needs at least one process");
    // Setup grace on top of the horizon before accept loops give up.
    let accept_deadline = horizon_ms + 5_000;

    // Bind every listener up front so all ports are known before any
    // thread starts connecting.
    let bind = || TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
    let proc_listeners: Vec<TcpListener> = (0..n).map(|_| bind()).collect();
    let proc_ports: Vec<u16> =
        proc_listeners.iter().map(|l| l.local_addr().expect("local addr").port()).collect();

    // One inbox per process; readers clone the sender, the process keeps
    // one clone for self-sends (so the receiver never disconnects).
    let mut inbox_txs = Vec::with_capacity(n);
    let mut inbox_rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = mpsc::channel::<(ProcessId, N::Msg)>();
        inbox_txs.push(tx);
        inbox_rxs.push(rx);
    }

    let mut crash_at: Vec<Option<u64>> = vec![None; n];
    for &(pid, at) in &cfg.crashes {
        assert!(pid.index() < n, "crash schedule names unknown process {pid}");
        let slot = &mut crash_at[pid.index()];
        *slot = Some(slot.map_or(at, |prev| prev.min(at)));
    }

    // The shared run clock: origin = now. Everything downstream measures
    // ms since this instant; Time(t) on this runtime means t ms.
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());

    let mut workers: Vec<WorkerFn<'_, LiveOut<N>>> = Vec::new();

    // Process event loops.
    for (slot, mut node) in nodes.into_iter().enumerate() {
        let me = ProcessId::from_index(slot);
        let rx = inbox_rxs.remove(0);
        let self_tx = inbox_txs[slot].clone();
        let clock = Arc::clone(&clock);
        let proc_ports = &proc_ports;
        let crash = crash_at[slot];
        let mut rng = SplitMix64::new(cfg.seed ^ 0x9E37_79B9).fork_nth(slot);
        workers.push(Box::new(move || {
            // Connect every outbound link and say hello. Connections are
            // established even for a t=0 crash so peers' accept loops are
            // never stranded. Each link carries the buffer its frames are
            // batched in between flushes.
            let mut outs: Vec<Option<(TcpStream, Vec<u8>)>> = (0..n).map(|_| None).collect();
            for (j, &port) in proc_ports.iter().enumerate() {
                if j == slot {
                    continue;
                }
                if let Ok(mut s) = TcpStream::connect(("127.0.0.1", port)) {
                    let _ = s.set_nodelay(true);
                    if frame::write_hello(&mut s, me).is_ok() {
                        outs[j] = Some((s, Vec::new()));
                    }
                }
            }
            let mut heap: BinaryHeap<Reverse<(u64, u64, dinefd_runtime::TimerId)>> =
                BinaryHeap::new();
            let mut timer_seq = 0u64;
            let mut sends: Vec<(ProcessId, N::Msg)> = Vec::new();
            let mut timers: Vec<(u64, dinefd_runtime::TimerId)> = Vec::new();
            let mut obs_buf: Vec<N::Obs> = Vec::new();
            let mut obs_out: Vec<ObsRecord<N::Obs>> = Vec::new();
            let mut sent = 0u64;
            let dead = |now: u64| crash.is_some_and(|c| now >= c);

            // One macro instead of a closure: the effect routing borrows
            // `outs`/`heap`/`obs_out` mutably alongside `node`, which a
            // closure could not hold across the handler call.
            macro_rules! dispatch {
                (|$ctx:ident| $body:expr) => {{
                    let t = Time(clock.elapsed_millis());
                    {
                        let mut $ctx =
                            Context::new(me, t, &mut sends, &mut timers, &mut obs_buf, &mut rng);
                        $body;
                    }
                    for (to, msg) in sends.drain(..) {
                        sent += 1;
                        if to == me {
                            let _ = self_tx.send((me, msg));
                            continue;
                        }
                        if let Some((_, buf)) = outs[to.index()].as_mut() {
                            if frame::push_frame(buf, &msg.to_bytes()).is_err() {
                                // Unencodable: close the link, as a failed
                                // write does.
                                outs[to.index()] = None;
                            }
                        }
                    }
                    // One write per destination this step touched.
                    for out in outs.iter_mut() {
                        let Some((s, buf)) = out else { continue };
                        if buf.is_empty() {
                            continue;
                        }
                        if s.write_all(buf).is_err() {
                            // Peer is gone; stop writing.
                            *out = None;
                        } else {
                            buf.clear();
                        }
                    }
                    for (delay, id) in timers.drain(..) {
                        timer_seq += 1;
                        heap.push(Reverse((t.0 + delay, timer_seq, id)));
                    }
                    for obs in obs_buf.drain(..) {
                        obs_out.push(ObsRecord { at: t, who: me, obs });
                    }
                }};
            }

            if !dead(clock.elapsed_millis()) {
                dispatch!(|ctx| node.on_start(&mut ctx));
            }
            loop {
                let now = clock.elapsed_millis();
                if dead(now) || now >= horizon_ms {
                    break;
                }
                // Fire every due timer before sleeping again.
                if let Some(&Reverse((deadline, _, id))) = heap.peek() {
                    if deadline <= now {
                        heap.pop();
                        dispatch!(|ctx| node.on_timer(&mut ctx, id));
                        continue;
                    }
                }
                let mut wake = horizon_ms.min(crash.unwrap_or(u64::MAX));
                if let Some(&Reverse((deadline, _, _))) = heap.peek() {
                    wake = wake.min(deadline);
                }
                match rx.recv_timeout(Duration::from_millis(wake.saturating_sub(now).max(1))) {
                    Ok((from, msg)) => {
                        if !dead(clock.elapsed_millis()) {
                            dispatch!(|ctx| node.on_message(&mut ctx, from, msg));
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // Unreachable while `self_tx` lives, but harmless.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            LiveOut::Proc { slot, node, obs: obs_out, sent }
        }));
    }

    // Readers: one per inbound link of each process. Any reader of `j` can
    // serve any peer — the hello says who connected, and with it which
    // link's fault stream to draw from.
    for j in 0..n {
        for _ in 0..n.saturating_sub(1) {
            let listener = &proc_listeners[j];
            let tx = inbox_txs[j].clone();
            let clock = Arc::clone(&clock);
            let fault = cfg.fault;
            workers.push(Box::new(move || {
                let (mut delivered, mut forwarded, mut dropped) = (0u64, 0u64, 0u64);
                let Some(conn) = accept_with_deadline(listener, clock.as_ref(), accept_deadline)
                else {
                    return LiveOut::Reader { delivered, forwarded, dropped };
                };
                let mut r = BufReader::new(conn);
                // The hello is exempt from the fault schedule: it must
                // arrive first, intact, and promptly.
                let from = match frame::read_hello(&mut r) {
                    Ok(from) if from.index() < n && from.index() != j => from,
                    _ => return LiveOut::Reader { delivered, forwarded, dropped },
                };
                let mut rng =
                    SplitMix64::new(cfg.seed).fork_nth(n + link_index(n, from.index(), j));
                let mut deliver = |payload: Vec<u8>| {
                    forwarded += 1;
                    if let Ok(msg) = N::Msg::from_bytes(&payload) {
                        delivered += 1;
                        // A dead receiver means the owner crashed; keep
                        // draining so the remote writer is never blocked
                        // by backpressure.
                        let _ = tx.send((from, msg));
                    }
                };
                let mut held: Option<Vec<u8>> = None;
                while let Ok(Some(payload)) = frame::read_frame(&mut r) {
                    let now = clock.elapsed_millis();
                    if fault.drops(now, &mut rng) {
                        dropped += 1;
                        continue;
                    }
                    if held.is_none() && fault.reorders(now, &mut rng) {
                        held = Some(payload);
                        continue;
                    }
                    let delay = fault.delay_at(now);
                    if !delay.is_zero() {
                        thread::sleep(delay);
                    }
                    deliver(payload);
                    // Release the held-back frame after its successor: a
                    // one-slot reordering.
                    if let Some(h) = held.take() {
                        deliver(h);
                    }
                }
                if let Some(h) = held {
                    deliver(h);
                }
                LiveOut::Reader { delivered, forwarded, dropped }
            }));
        }
    }

    let (listeners, worker_threads) = (proc_listeners.len(), workers.len());
    let results = pool::run_each(workers);
    let wall = clock.elapsed();

    let mut stats = LiveStats { wall, listeners, worker_threads, ..LiveStats::default() };
    let mut slots: Vec<Option<N>> = (0..n).map(|_| None).collect();
    let mut obs: Vec<ObsRecord<N::Obs>> = Vec::new();
    for out in results {
        match out {
            LiveOut::Proc { slot, node, obs: o, sent } => {
                slots[slot] = Some(node);
                obs.extend(o);
                stats.messages_sent += sent;
            }
            LiveOut::Reader { delivered, forwarded, dropped } => {
                stats.frames_delivered += delivered;
                stats.frames_forwarded += forwarded;
                stats.frames_dropped += dropped;
            }
        }
    }
    // Stable sort: ties keep per-process emission order.
    obs.sort_by_key(|r| (r.at, r.who));
    let nodes: Vec<N> =
        slots.into_iter().map(|s| s.expect("every process worker returns its node")).collect();
    (nodes, obs, stats)
}

/// Position of the ordered link `(i → j)`, `i ≠ j`, in row-major order:
/// the index its fault stream is forked at.
fn link_index(n: usize, i: usize, j: usize) -> usize {
    i * (n - 1) + if j > i { j - 1 } else { j }
}

/// Deterministically forks the `k`-th substream of a generator.
trait ForkNth {
    fn fork_nth(self, k: usize) -> SplitMix64;
}

impl ForkNth for SplitMix64 {
    fn fork_nth(mut self, k: usize) -> SplitMix64 {
        let mut child = self.fork();
        for _ in 0..k {
            child = self.fork();
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinefd_fd::{HeartbeatConfig, HeartbeatFd};
    use dinefd_runtime::TimerId;

    fn heartbeat_nodes(n: usize) -> Vec<HeartbeatFd> {
        (0..n).map(|_| HeartbeatFd::new(HeartbeatConfig::new(n))).collect()
    }

    /// What a [`Probe`] saw: its own timer firing, or its peer's `k`-th
    /// message arriving.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Tick,
        Got(ProcessId, u64),
    }

    /// One of a pair: sends its peer a counter every `period` ms, `limit`
    /// times, and records every firing and every arrival — the transport
    /// seen from a node.
    struct Probe {
        period: u64,
        limit: u64,
        sent: u64,
    }

    impl Node for Probe {
        type Msg = u64;
        type Obs = Seen;

        fn on_start(&mut self, ctx: &mut Context<'_, u64, Seen>) {
            ctx.set_timer(self.period, TimerId(0));
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u64, Seen>, from: ProcessId, msg: u64) {
            ctx.observe(Seen::Got(from, msg));
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u64, Seen>, id: TimerId) {
            if self.sent == self.limit {
                return;
            }
            self.sent += 1;
            ctx.observe(Seen::Tick);
            ctx.send(ProcessId(1 - ctx.me().0), self.sent);
            ctx.set_timer(self.period, id);
        }
    }

    /// Two probes under `fault`, run for `horizon` ms.
    fn probe_pair(
        fault: LinkFault,
        period: u64,
        limit: u64,
        horizon: u64,
    ) -> (Vec<ObsRecord<Seen>>, LiveStats) {
        let nodes = (0..2).map(|_| Probe { period, limit, sent: 0 }).collect();
        let mut cluster = LiveCluster::new(nodes, LiveConfig::new(5).fault(fault));
        let obs = cluster.run_to_horizon(Time(horizon));
        (obs, *cluster.stats())
    }

    fn arrivals(obs: &[ObsRecord<Seen>]) -> impl Iterator<Item = &ObsRecord<Seen>> {
        obs.iter().filter(|r| matches!(r.obs, Seen::Got(..)))
    }

    #[test]
    fn clean_two_node_run_stays_mutually_trusting() {
        let mut cluster = LiveCluster::new(heartbeat_nodes(2), LiveConfig::new(1));
        let _ = cluster.run_to_horizon(Time(300));
        assert!(!cluster.node(ProcessId(0)).suspects(ProcessId(1)));
        assert!(!cluster.node(ProcessId(1)).suspects(ProcessId(0)));
        let stats = cluster.stats();
        assert!(stats.frames_delivered > 0, "heartbeats must actually flow: {stats:?}");
        assert!(stats.frames_forwarded > 0, "link readers must let frames through: {stats:?}");
        assert_eq!(stats.frames_dropped, 0, "clean links drop nothing");
        assert_eq!(
            stats.frames_forwarded, stats.frames_delivered,
            "every frame a clean link lets through decodes: {stats:?}"
        );
    }

    #[test]
    fn crash_is_detected_by_every_correct_watcher() {
        let cfg = LiveConfig::new(2).crash(ProcessId(2), 100);
        let mut cluster = LiveCluster::new(heartbeat_nodes(3), cfg);
        let obs = cluster.run_to_horizon(Time(500));
        for w in [ProcessId(0), ProcessId(1)] {
            assert!(cluster.node(w).suspects(ProcessId(2)), "{w} must suspect the crashed peer");
        }
        assert!(!cluster.node(ProcessId(0)).suspects(ProcessId(1)));
        assert!(!cluster.node(ProcessId(1)).suspects(ProcessId(0)));
        assert!(
            obs.iter().any(|r| r.obs.subject == ProcessId(2) && r.obs.suspected),
            "the suspicion must appear in the observation stream"
        );
        // One hop: a listener per process, a thread per process and per
        // ordered link, and nothing else.
        let stats = cluster.stats();
        assert_eq!(stats.listeners, 3, "{stats:?}");
        assert_eq!(stats.worker_threads, 3 + 3 * 2, "{stats:?}");
    }

    #[test]
    fn observations_come_back_time_sorted() {
        let cfg = LiveConfig::new(3).crash(ProcessId(0), 80);
        let mut cluster = LiveCluster::new(heartbeat_nodes(3), cfg);
        let obs = cluster.run_to_horizon(Time(400));
        assert!(obs.windows(2).all(|w| w[0].at <= w[1].at), "merged stream must be sorted");
    }

    #[test]
    fn crash_at_time_zero_is_a_process_that_never_speaks() {
        let cfg = LiveConfig::new(4).crash(ProcessId(1), 0);
        let mut cluster = LiveCluster::new(heartbeat_nodes(2), cfg);
        let _ = cluster.run_to_horizon(Time(300));
        assert!(
            cluster.node(ProcessId(0)).suspects(ProcessId(1)),
            "a never-heard peer must be suspected"
        );
    }

    #[test]
    fn link_index_is_row_major_over_ordered_links() {
        let n = 5;
        let links = (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)));
        for (l, (i, j)) in links.enumerate() {
            assert_eq!(link_index(n, i, j), l, "link ({i} → {j})");
        }
    }

    #[test]
    fn total_loss_until_gst_delivers_nothing_before_it() {
        let gst = 120;
        let fault = LinkFault { gst_ms: gst, drop_per_mille: 1000, ..LinkFault::clean() };
        let (obs, stats) = probe_pair(fault, 5, u64::MAX, 300);
        assert!(stats.frames_dropped > 0, "pre-GST frames must be dropped: {stats:?}");
        assert!(arrivals(&obs).all(|r| r.at.0 >= gst), "a frame got through before GST: {obs:?}");
        assert!(arrivals(&obs).count() > 0, "deliveries must resume after GST: {stats:?}");
        assert_eq!(stats.frames_forwarded + stats.frames_dropped, stats.messages_sent);
    }

    #[test]
    fn held_back_frame_is_flushed_at_end_of_stream() {
        // Three frames a link, every one eligible for hold-back: the first
        // is held and released behind the second, the third is still held
        // when the sender exits and must come out at end-of-stream.
        let fault = LinkFault { gst_ms: u64::MAX, reorder_per_mille: 1000, ..LinkFault::clean() };
        let (obs, stats) = probe_pair(fault, 5, 3, 150);
        assert_eq!(stats.messages_sent, 6, "{stats:?}");
        assert_eq!(stats.frames_forwarded + stats.frames_dropped, 6, "a frame was lost: {stats:?}");
        assert_eq!(stats.frames_delivered, 6, "{stats:?}");
        for me in [ProcessId(0), ProcessId(1)] {
            let got: Vec<Seen> = arrivals(&obs).filter(|r| r.who == me).map(|r| r.obs).collect();
            let peer = ProcessId(1 - me.0);
            // The third may still make it in if the peer exits first.
            let swapped = [Seen::Got(peer, 2), Seen::Got(peer, 1), Seen::Got(peer, 3)];
            assert!(got.len() >= 2 && swapped.starts_with(&got), "{me} received {got:?}");
        }
    }

    #[test]
    fn pre_gst_delay_holds_the_inbox_not_the_senders_timers() {
        let (gst, delay, period, horizon) = (200, 40, 5, 320);
        let (obs, stats) =
            probe_pair(LinkFault::fixed_delay(gst, delay), period, u64::MAX, horizon);
        for me in [ProcessId(0), ProcessId(1)] {
            // The link is a serial delay line: the k-th pre-GST arrival is
            // no earlier than k·delay.
            let early = arrivals(&obs).filter(|r| r.who == me && r.at.0 < gst);
            for (k, r) in early.enumerate() {
                assert!(r.at.0 >= (k as u64 + 1) * delay, "arrival {k} at {me} came at {}", r.at);
            }
            // A sender blocked behind its own link would fire gst/delay
            // times before GST; unblocked it fires every period.
            let ticks = obs.iter().filter(|r| r.who == me && r.obs == Seen::Tick && r.at.0 < gst);
            assert!(ticks.count() as u64 > 2 * (gst / delay), "{me}'s timers were held up");
        }
        assert_eq!(stats.frames_dropped, 0);
        assert!(
            stats.frames_delivered > gst / delay * 2,
            "the backlog drains after GST: {stats:?}"
        );
    }
}
