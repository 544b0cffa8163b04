//! The live cluster: one OS thread per process, each an event loop over its
//! own non-blocking loopback TCP connections, with wall timers and a fault
//! filter on every link's receiving end.
//!
//! ## Topology
//!
//! `n` listeners and one connection per unordered pair: the lower id
//! connects and its first frame, a hello, names it. A connection whose
//! hello names no lower peer still missing is closed, and only it.
//!
//! ## Threads
//!
//! `n` scoped threads from [`dinefd_sim::pool`], joined before
//! [`LiveCluster::run_to_horizon`] returns. A pass of a loop fires the due
//! timers, runs the self-sends, reads every stream until it would block,
//! passes the complete frames through their link's [`LinkFault`] filter and
//! hands the node what the filters release, then writes the pass's frames
//! per destination without blocking (what a full socket refuses waits). A
//! pass that handled anything is followed by another; an idle one sleeps to
//! the next tick boundary, as every timer, release, crash and horizon falls
//! on a whole tick.
//!
//! ## Time
//!
//! One virtual tick = one millisecond of wall clock on a shared
//! [`MonotonicClock`]. As under the simulator, nodes see only their timer
//! firings and the `now` in their [`Context`] (their pass's tick), which
//! lets the identical logic core run on both substrates.
//!
//! ## Crashes
//!
//! A crash `(p, t)` makes `p`'s loop return at `t` ms and drop its streams;
//! peers see end of stream or a write error and close the link — fail-stop,
//! no recovery, exactly the paper's fault model.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use dinefd_runtime::{
    Clock, Context, MonotonicClock, Node, ObsRecord, ProcessId, Runtime, SplitMix64, Time, TimerId,
    Wire,
};
use dinefd_sim::pool::{self, WorkerFn};

use crate::fault::{LinkFault, LinkFilter};
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
    /// Frames handed to a live node's `on_message` (self-sends are not
    /// frames).
    pub frames_delivered: u64,
    /// Frames the fault filters let through, a held frame released at end
    /// of stream or of run included.
    pub frames_forwarded: u64,
    /// Frames the fault filters dropped (pre-GST loss).
    pub frames_dropped: u64,
    /// Messages the process event loops emitted.
    pub messages_sent: u64,
    /// Wall-clock length of the run.
    pub wall: Duration,
    /// TCP listeners the run bound: one per process.
    pub listeners: usize,
    /// Worker threads the run spawned and joined: one loop per process.
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
    nodes: Vec<N>,
    cfg: LiveConfig,
    stats: LiveStats,
}

impl<N: Node> LiveCluster<N> {
    /// A cluster over `nodes` (process `i` is `nodes[i]`).
    pub fn new(nodes: Vec<N>, cfg: LiveConfig) -> Self {
        LiveCluster { nodes, cfg, stats: LiveStats::default() }
    }

    /// Final state of process `pid` (valid after a run; crashed processes
    /// are frozen at their crash instant).
    pub fn node(&self, pid: ProcessId) -> &N {
        &self.nodes[pid.index()]
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
        let nodes = std::mem::take(&mut self.nodes);
        let bind = || TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        let listeners = nodes.iter().map(|_| bind()).collect();
        let (nodes, obs, stats) = run_live(listeners, nodes, &self.cfg, horizon.0);
        self.nodes = nodes;
        self.stats = stats;
        obs
    }
}

/// What the process loops of a run share (`i` accepts on `listeners[i]`).
struct Run<'a> {
    listeners: Vec<TcpListener>,
    cfg: &'a LiveConfig,
    clock: MonotonicClock,
    horizon_ms: u64,
}

/// Runs `nodes` to `horizon_ms`, process `i` accepting on `listeners[i]`.
fn run_live<N: Node<Msg: Wire + Send, Obs: Send> + Send>(
    listeners: Vec<TcpListener>,
    nodes: Vec<N>,
    cfg: &LiveConfig,
    horizon_ms: u64,
) -> (Vec<N>, Vec<ObsRecord<N::Obs>>, LiveStats) {
    let n = nodes.len();
    assert!(n >= 1, "a cluster needs at least one process");
    assert!(cfg.crashes.iter().all(|(p, _)| p.index() < n), "crash of an unknown process");
    let mut stats = LiveStats { listeners: listeners.len(), ..LiveStats::default() };
    // The shared run clock: Time(t) on this runtime means t ms since now.
    let run = &Run { listeners, cfg, clock: MonotonicClock::new(), horizon_ms };
    let workers: Vec<WorkerFn<'_, _>> = (nodes.into_iter().enumerate())
        .map(|(i, node)| Box::new(move || run_process(ProcessId::from_index(i), node, run)) as _)
        .collect();
    stats.worker_threads = workers.len();
    let (mut nodes, mut obs) = (Vec::with_capacity(n), Vec::<ObsRecord<N::Obs>>::new());
    // `run_each` returns in input order: process order.
    for (node, o, s) in pool::run_each::<ProcOut<N>>(workers) {
        nodes.push(node);
        obs.extend(o);
        stats.frames_delivered += s.frames_delivered;
        stats.frames_forwarded += s.frames_forwarded;
        stats.frames_dropped += s.frames_dropped;
        stats.messages_sent += s.messages_sent;
    }
    stats.wall = run.clock.elapsed();
    // Stable sort: ties keep per-process emission order.
    obs.sort_by_key(|r| (r.at, r.who));
    (nodes, obs, stats)
}

/// What a process loop hands back: its node, observations and counters.
type ProcOut<N> = (N, Vec<ObsRecord<<N as Node>::Obs>>, LiveStats);

/// One peer's end of a pair connection as a process loop holds it: the
/// stream (`None` once closed), bytes read but not yet cut into frames,
/// frames waiting to be written, and the filter of the link from the peer.
struct Link<M> {
    stream: Option<TcpStream>,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    filter: LinkFilter<M>,
}

impl<M: Wire> Link<M> {
    /// Reads until the stream would block (a blocking one: until it ends)
    /// and admits every complete frame at `now`. End of stream, an error or
    /// a frame that does not parse closes the link.
    fn read(&mut self, now: u64) {
        let Some(s) = self.stream.as_mut() else { return };
        let read = s.read_to_end(&mut self.inbuf);
        let open = matches!(read, Err(e) if e.kind() == ErrorKind::WouldBlock);
        let mut rest = &self.inbuf[..];
        let intact = loop {
            match frame::split_frame(rest).map(|f| f.map(|(p, tail)| (M::from_bytes(p), tail))) {
                Ok(None) => break true,
                Ok(Some((Ok(msg), tail))) => {
                    self.filter.admit(now, msg);
                    rest = tail;
                }
                _ => break false,
            }
        };
        self.inbuf.drain(..self.inbuf.len() - rest.len());
        if !(open && intact) {
            self.close(now);
        }
    }

    /// Writes what is pending without blocking, keeping what the socket
    /// refuses; a write error closes the link.
    fn flush(&mut self, now: u64) {
        let Some(s) = self.stream.as_mut() else { return self.out.clear() };
        while !self.out.is_empty() {
            match s.write(&self.out) {
                Ok(k) if k > 0 => drop(self.out.drain(..k)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                _ => return self.close(now),
            }
        }
    }

    fn close(&mut self, now: u64) {
        self.stream = None;
        self.filter.end(now);
    }
}

/// Opens `me`'s end of every pair: connects to each higher id and says
/// hello, then accepts one connection from each lower id, which its hello
/// names. Accepting, and waiting for a hello, give up at `deadline_ms`, so
/// a peer that never connects cannot hang the run.
fn open_links(me: ProcessId, run: &Run<'_>) -> Vec<Option<TcpStream>> {
    let (clock, deadline_ms) = (&run.clock, run.horizon_ms + 5_000);
    let mut streams: Vec<Option<TcpStream>> = run.listeners.iter().map(|_| None).collect();
    for (j, peer) in run.listeners.iter().enumerate().skip(me.index() + 1) {
        let s = peer.local_addr().and_then(TcpStream::connect);
        streams[j] = s.ok().filter(|mut s| frame::write_hello(&mut s, me).is_ok());
    }
    let listener = &run.listeners[me.index()];
    let mut missing = me.index();
    let _ = listener.set_nonblocking(true);
    while missing > 0 && clock.elapsed_millis() <= deadline_ms {
        let mut s = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(_) => break,
        };
        let left = Duration::from_millis(deadline_ms.saturating_sub(clock.elapsed_millis()) + 1);
        if s.set_nonblocking(false).and_then(|()| s.set_read_timeout(Some(left))).is_err() {
            continue;
        }
        // The hello is exempt from the fault schedule. Any other connection
        // is dropped here, which closes it and nothing else.
        match frame::read_hello(&mut s) {
            Ok(from) if from < me && streams[from.index()].is_none() => {
                streams[from.index()] = Some(s);
                missing -= 1;
            }
            _ => {}
        }
    }
    streams
}

/// Process `me`'s event loop, from opening its links to its horizon or crash.
fn run_process<N: Node<Msg: Wire>>(me: ProcessId, mut node: N, run: &Run<'_>) -> ProcOut<N> {
    let (n, cfg, clock, horizon_ms) = (run.listeners.len(), run.cfg, &run.clock, run.horizon_ms);
    let crash = cfg.crashes.iter().filter(|(p, _)| *p == me).map(|&(_, at)| at).min();
    let dead = |now: u64| crash.is_some_and(|c| now >= c);
    // Links open even for a t=0 crash, so no peer waits on them.
    let mut links: Vec<Option<Link<N::Msg>>> = open_links(me, run)
        .into_iter()
        .enumerate()
        .map(|(j, s)| {
            let s = s.filter(|s| s.set_nodelay(true).and(s.set_nonblocking(true)).is_ok())?;
            let rng = fork_nth(SplitMix64::new(cfg.seed), n + link_index(n, j, me.index()));
            let filter = LinkFilter::new(cfg.fault, rng);
            Some(Link { stream: Some(s), inbuf: Vec::new(), out: Vec::new(), filter })
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<(u64, u64, TimerId)>> = BinaryHeap::new();
    // Timers fire in deadline order, ties in the order they were set.
    let (mut timer_seq, mut handled) = (0u64, 0u64);
    let (mut sends, mut timers, mut obs_buf) = (Vec::new(), Vec::new(), Vec::new());
    let (mut self_sends, mut obs_out) = (Vec::new(), Vec::new());
    let mut stats = LiveStats::default();
    let mut rng = fork_nth(SplitMix64::new(cfg.seed ^ 0x9E37_79B9), me.index());

    // A macro, as a closure could not borrow `links`, `heap` and `obs_out`
    // alongside `node` across the handler call. Frames are only queued here.
    macro_rules! dispatch {
        ($now:expr, |$ctx:ident| $body:expr) => {{
            let t = Time($now);
            handled += 1;
            {
                let mut $ctx = Context::new(me, t, &mut sends, &mut timers, &mut obs_buf, &mut rng);
                $body;
            }
            for (to, msg) in sends.drain(..) {
                stats.messages_sent += 1;
                if to == me {
                    self_sends.push(msg);
                } else if let Some(link) = links.get_mut(to.index()).and_then(Option::as_mut) {
                    // Unencodable: close the link, as a failed write does.
                    if frame::push_frame(&mut link.out, &msg.to_bytes()).is_err() {
                        link.close(t.0);
                    }
                }
            }
            for (delay, id) in timers.drain(..) {
                timer_seq += 1;
                heap.push(Reverse((t.0 + delay, timer_seq, id)));
            }
            obs_out.extend(obs_buf.drain(..).map(|obs| ObsRecord { at: t, who: me, obs }));
        }};
    }

    let start = clock.elapsed_millis();
    if !dead(start) {
        dispatch!(start, |ctx| node.on_start(&mut ctx));
    }
    loop {
        let now = clock.elapsed_millis();
        if dead(now) {
            break;
        }
        // The pass that finds the horizon reached is the last. It runs in
        // the run's last tick, whose arrivals no pass has seen yet.
        let (last, now) = (now >= horizon_ms, now.min(horizon_ms.saturating_sub(1)));
        let idle = handled;
        while let Some(&Reverse((_, _, id))) = heap.peek().filter(|&&Reverse((at, ..))| at <= now) {
            heap.pop();
            dispatch!(now, |ctx| node.on_timer(&mut ctx, id));
        }
        // The self-sends queued before this pass; theirs wait for the next.
        for msg in std::mem::take(&mut self_sends) {
            dispatch!(now, |ctx| node.on_message(&mut ctx, me, msg));
        }
        links.iter_mut().flatten().for_each(|link| link.read(now));
        for j in 0..n {
            while let Some(msg) = links[j].as_mut().and_then(|l| l.filter.release(now)) {
                stats.frames_delivered += 1;
                dispatch!(now, |ctx| node.on_message(&mut ctx, ProcessId::from_index(j), msg));
            }
        }
        links.iter_mut().flatten().for_each(|link| link.flush(now));
        if last {
            drain(&mut links, now);
            break;
        }
        if handled == idle {
            let now = clock.elapsed();
            thread::sleep(Duration::from_millis(now.as_millis() as u64 + 1) - now);
        }
    }
    for link in links.iter().flatten() {
        stats.frames_forwarded += link.filter.forwarded;
        stats.frames_dropped += link.filter.dropped;
    }
    (node, obs_out, stats)
}

/// The horizon: writes what the sockets take and ends every outbound
/// stream, then reads every inbound one to its end (blocking, without the
/// hello's timeout) through its filter, so each frame still in flight
/// counts as forwarded or dropped.
fn drain<M: Wire>(links: &mut [Option<Link<M>>], now: u64) {
    for link in links.iter_mut().flatten() {
        link.flush(now);
        if let Some(s) = &link.stream {
            let _ = s.shutdown(Shutdown::Write).and(s.set_nonblocking(false));
            let _ = s.set_read_timeout(None);
        }
    }
    links.iter_mut().flatten().for_each(|link| link.read(now));
}

/// Position of the ordered link `(i → j)`, `i ≠ j`, in row-major order:
/// the index its fault stream is forked at.
fn link_index(n: usize, i: usize, j: usize) -> usize {
    i * (n - 1) + if j > i { j - 1 } else { j }
}

/// The `k`-th substream forked off `rng`.
fn fork_nth(mut rng: SplitMix64, k: usize) -> SplitMix64 {
    (0..k).fold(rng.fork(), |_, _| rng.fork())
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

    /// Sends `to` a counter every `period` ms, `limit` times, and records
    /// every firing and every arrival — the transport seen from a node.
    struct Probe {
        period: u64,
        limit: u64,
        sent: u64,
        to: ProcessId,
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
            ctx.send(self.to, self.sent);
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
        let nodes =
            (0..2).map(|i| Probe { period, limit, sent: 0, to: ProcessId(1 - i) }).collect();
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
        // One loop per process: a listener and a thread per process, and
        // nothing else.
        let stats = cluster.stats();
        assert_eq!(stats.listeners, 3, "{stats:?}");
        assert_eq!(stats.worker_threads, 3, "{stats:?}");
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
        assert_eq!(stats.frames_delivered as usize, arrivals(&obs).count(), "{stats:?}");
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

    #[test]
    fn one_links_delay_line_does_not_hold_another() {
        // Two senders, one receiver, 40 ms per frame on each link until GST:
        // each link is its own delay line, so each delivers a frame every
        // 40 ms. A loop that slept per frame would serve them in turn.
        let (gst, delay) = (200, 40);
        let limit = |i| if i < 2 { u64::MAX } else { 0 };
        let nodes = (0..3)
            .map(|i| Probe { period: 5, limit: limit(i), sent: 0, to: ProcessId(2) })
            .collect();
        let cfg = LiveConfig::new(6).fault(LinkFault::fixed_delay(gst, delay));
        let obs = LiveCluster::new(nodes, cfg).run_to_horizon(Time(260));
        for from in [ProcessId(0), ProcessId(1)] {
            let early = arrivals(&obs)
                .filter(|r| matches!(r.obs, Seen::Got(f, _) if f == from) && r.at.0 < gst)
                .count();
            assert!(early >= 4, "{from}'s link delivered {early} frames before GST");
        }
    }

    #[test]
    fn frames_delivered_counts_only_what_a_live_node_handled() {
        // Process 1 crashes at 50 ms; process 0 goes on sending to it.
        let nodes =
            (0..2).map(|i| Probe { period: 5, limit: u64::MAX, sent: 0, to: ProcessId(1 - i) });
        let cfg = LiveConfig::new(7).crash(ProcessId(1), 50);
        let mut cluster = LiveCluster::new(nodes.collect(), cfg);
        let obs = cluster.run_to_horizon(Time(200));
        let stats = cluster.stats();
        assert_eq!(stats.frames_delivered as usize, arrivals(&obs).count(), "{stats:?}");
        assert!(
            stats.frames_delivered < stats.messages_sent / 2,
            "frames sent to the crashed process were counted: {stats:?}"
        );
    }

    #[test]
    fn a_bad_peer_closes_only_its_own_connection() {
        let n = 3;
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap()).collect();
        let port = listeners[2].local_addr().unwrap().port();
        // Ahead of the real peers in process 2's accept queue: garbage, and
        // hellos naming an unknown process, process 2 itself and a higher
        // id — none of which may connect.
        let hello = |payload: &[u8]| {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            frame::write_frame(&mut s, payload).unwrap();
            s
        };
        let bad = [
            hello(b"garbage"),
            hello(&ProcessId(9).to_bytes()),
            hello(&ProcessId(2).to_bytes()),
            hello(&ProcessId(3).to_bytes()),
        ];
        let (nodes, _, stats) = run_live(listeners, heartbeat_nodes(n), &LiveConfig::new(8), 300);
        for w in ProcessId::all(n) {
            for q in ProcessId::all(n).filter(|&q| q != w) {
                assert!(!nodes[w.index()].suspects(q), "{w} suspects {q}: a link stayed down");
            }
        }
        assert!(stats.frames_delivered > 0, "{stats:?}");
        for mut s in bad {
            let mut byte = [0u8; 1];
            assert!(matches!(s.read(&mut byte), Ok(0) | Err(_)), "a bad peer's connection is open");
        }
    }
}
