//! The dumbbell simulation from §3.1 of the paper, generalized to N flows
//! over a chain of N bottleneck hops.
//!
//! Wires together one or more TCP-like sender/receiver pairs, the
//! cross-traffic source, and a [`Topology`](crate::topology::Topology)-
//! defined chain of gateway-queue + bottleneck-link hops, and runs the
//! discrete-event loop. A [`Simulation`] is a pure function of its
//! [`SimConfig`], the plugged-in congestion control algorithms and the
//! per-flow schedule: running the same configuration twice produces
//! bit-identical [`SimResult`]s, which is what lets the genetic algorithm
//! converge (§3.6).
//!
//! Without a topology the chain degenerates to the paper's single
//! bottleneck, with an event sequence identical to the pre-topology engine.
//! With a topology, data packets route hop by hop: service at hop `k`
//! schedules an arrival at hop `k + 1` after hop `k`'s propagation delay,
//! and each flow's [`HopRange`] path decides where its packets enter the
//! chain and where they leave toward the sink (the parking-lot pattern).
//! ACKs return over an uncongested reverse path whose delay is the sum of
//! the propagation delays along the flow's own path.
//!
//! All congestion-controlled flows crossing a hop share that hop's queue
//! and link; arbitration between them is exactly the configured queue
//! discipline — whichever packet reaches the gateway first occupies the
//! queue slot. Every flow has its own sender, receiver, timers, start/stop
//! schedule and [`FlowStats`](crate::stats::FlowStats); flow 0 plays the
//! role of the paper's original single CCA flow and its stats are exposed
//! through the accessors [`RunStats::flow`] and [`RunStats::delivery_times`]
//! (which borrow from `flows[0]` — nothing is copied at the end of a run).
//!
//! Every counter and sample series has one writer. Per-hop counters and
//! occupancy samples are kept per hop for every path, the one-hop dumbbell
//! included; what is derived from them (the run's cross-traffic drops, the
//! flows' sink-side counts, a workload's completions) is read once when the
//! run ends.
//!
//! ## Hot-path architecture
//!
//! The simulation is the inner loop of every fitness evaluation, so the
//! event plumbing is built to stay off the allocator:
//!
//! * the calendar is a bucketed [`EventQueue`] of 32-byte entries;
//! * packets travelling between events are parked in a [`PacketPool`] slab
//!   and referenced by 4-byte handles;
//! * the congestion controller is a generic parameter (`C`), statically
//!   dispatched when the caller provides an enum or concrete type;
//! * a [`Simulation`] is also its own arena: [`Simulation::load`] resets
//!   it in place, so batch drivers (the fuzzer) recycle every allocation
//!   across thousands of evaluations.

use crate::cc::CongestionControl;
use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::link::{LinkAction, LinkModel, LinkService};
use crate::packet::{AckPacket, DataPacket, FlowId, PacketPool, DEFAULT_MSS};
use crate::queue::{EnqueueOutcome, GatewayQueue};
use crate::rng::SimRng;
use crate::stats::{
    BottleneckEvent, FctSample, FlowStats, FlowSummary, LogEvent, LogRecord, RunStats,
    WorkloadStats,
};
use crate::tcp::receiver::TcpReceiver;
use crate::tcp::sender::{SendPoll, SenderConfig, TcpSender};
use crate::time::{SimDuration, SimTime};
use crate::topology::{hop_seed, HopRange};
use crate::workload::{
    dyn_generation, dyn_handle, dyn_slot, exp_duration, is_dynamic, ArrivalConfig, ArrivalProcess,
    GEN_MODULUS,
};

/// Size of every cross-traffic packet, bytes: a full segment.
pub(crate) const CROSS_TRAFFIC_PACKET_SIZE: u32 = DEFAULT_MSS;
/// A static flow's application data, packets: a bulk transfer that never
/// runs dry.
pub(crate) const SENDER_BUFFER_PACKETS: u64 = u64::MAX / 4;
/// Interval between the per-hop queue-occupancy samples.
pub(crate) const STATS_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Event budget of one run: past it the run stops and its statistics are
/// flagged `truncated`, so an adversarial trace cannot stall the fuzzer.
pub(crate) const MAX_EVENTS: u64 = 20_000_000;

/// Per-flow retention cap on sink-side delivery timestamps. Far above what
/// any classic (≤ 32 flow, seconds-long) scenario can deliver, so existing
/// digests never see it; its job is bounding memory when a pathological
/// config would otherwise accumulate millions of samples in one flow.
const MAX_DELIVERY_SAMPLES_PER_FLOW: usize = 1 << 20;

/// The outcome of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Everything measured during the run.
    pub stats: RunStats,
    /// The configured duration (useful for rate normalisation downstream).
    pub duration_secs: f64,
}

impl SimResult {
    /// Average goodput of the primary CCA flow over the whole run, in bits
    /// per second.
    pub fn average_goodput_bps(&self, mss: u32) -> f64 {
        if self.duration_secs <= 0.0 {
            return 0.0;
        }
        self.stats.flow().delivered_packets as f64 * mss as f64 * 8.0 / self.duration_secs
    }
}

/// One congestion-controlled flow to simulate: its algorithm and schedule.
pub struct FlowSpec<C: CongestionControl> {
    /// The congestion control algorithm driving the flow.
    pub cc: C,
    /// When the flow starts sending.
    pub start: SimTime,
    /// When the flow stops sending (`None` = runs until the scenario ends).
    /// After this instant the flow transmits nothing and ignores ACKs and
    /// timers; packets already in the network still drain normally.
    pub stop: Option<SimTime>,
}

impl<C: CongestionControl> FlowSpec<C> {
    /// A flow that runs for the whole scenario.
    pub fn new(cc: C) -> Self {
        FlowSpec {
            cc,
            start: SimTime::ZERO,
            stop: None,
        }
    }
}

/// Per-flow drop/mark counters, bumped from the queue path. Grouped in one
/// 16-byte record so a counter bump loads exactly one cache line slot; the
/// sink-side count is the receiver's own `total_received`.
#[derive(Clone, Copy, Default)]
struct FlowCounters {
    /// Packets of this flow dropped at a gateway queue.
    queue_drops: u64,
    /// Packets of this flow CE-marked at a gateway queue.
    ce_marked: u64,
}

/// Per-flow runtime state in struct-of-arrays layout.
///
/// The event loop touches exactly one facet of a flow per event — its timer
/// dedupe slot on a timer pop, its sender on an ACK, its counters on a drop.
/// Splitting the former array-of-`FlowRuntime` into parallel vectors means
/// each of those accesses walks a dense homogeneous array instead of
/// striding over whole flow records (sender + receiver together are several
/// hundred bytes), so the hot scalar state of all N flows shares a handful
/// of cache lines. Every column is written by [`Simulation::open_flow`];
/// the last holds static flows only.
struct FlowTable<C: CongestionControl> {
    senders: Vec<TcpSender<C>>,
    receivers: Vec<TcpReceiver>,
    start: Vec<SimTime>,
    /// When the flow stops: its scheduled stop (static flows) or the
    /// instant its whole transfer was ACKed (dynamic flows).
    stop: Vec<Option<SimTime>>,
    /// Dedupe for pacing timer events.
    pacing_scheduled: Vec<Option<SimTime>>,
    /// Last RTO (deadline, generation) scheduled as an event.
    rto_scheduled: Vec<Option<(SimTime, u64)>>,
    /// Drop / mark counters.
    counters: Vec<FlowCounters>,
    /// Each static flow's last logged cwnd sample (0 = none yet).
    sampled_cwnd: Vec<u64>,
}

impl<C: CongestionControl> FlowTable<C> {
    /// Whether a flow ignores ACKs, timers and send opportunities. Events
    /// pop in non-decreasing time, so a dynamic flow whose stop was set at
    /// its completion reads as stopped from then on.
    #[inline]
    fn stopped(&self, flow: usize, now: SimTime) -> bool {
        self.stop[flow].map(|t| now >= t).unwrap_or(false)
    }
}

/// Writes `v` at `idx` of a flow-table column, growing it by one when
/// `idx` is its end: flows open densely, the static ones at load and each
/// new dynamic slot at its first spawn.
fn set<T>(col: &mut Vec<T>, idx: usize, v: T) {
    if idx < col.len() {
        col[idx] = v;
    } else {
        debug_assert_eq!(idx, col.len(), "flows open densely");
        col.push(v);
    }
}

impl<C: CongestionControl> Default for FlowTable<C> {
    fn default() -> Self {
        FlowTable {
            senders: Vec::new(),
            receivers: Vec::new(),
            start: Vec::new(),
            stop: Vec::new(),
            pacing_scheduled: Vec::new(),
            rto_scheduled: Vec::new(),
            counters: Vec::new(),
            sampled_cwnd: Vec::new(),
        }
    }
}

/// The dynamic-flow slab: what slot reuse needs during a workload run (see
/// [`crate::workload`]).
///
/// Slot `s` owns the [`FlowTable`] entry at index `static_flows + s`, so a
/// dynamic flow opens, runs and stops through the same per-flow machinery
/// as a static one: its spawn is its `start` and its completion its `stop`.
/// The slab only adds a recycle generation that invalidates stale timer
/// events and an `in_network` reference count (data packets in queues/links
/// plus ACKs in flight) that defers recycling until nothing in the
/// simulation can still name the slot. Per-event cost is O(active):
/// completed and recycled slots are never iterated, and the slab never
/// grows past the configured concurrency cap — the peak *concurrent*
/// population, not the total arrival count, bounds both memory and
/// bookkeeping.
#[derive(Default)]
struct FlowSlab {
    /// Recycled slot indices available for the next spawn.
    free: Vec<u32>,
    /// Per-slot recycle generation (wraps at [`GEN_MODULUS`]).
    generation: Vec<u16>,
    /// Per-slot count of this flow's packets/ACKs still inside the
    /// simulation; the slot recycles only once stopped *and* zero.
    in_network: Vec<u32>,
}

impl FlowSlab {
    /// Slots currently live: allocated and not yet recycled.
    fn live(&self) -> usize {
        self.generation.len() - self.free.len()
    }

    /// A recycled slot, or a new one (slots allocate densely). A recycled
    /// slot has nothing left in the network.
    fn claim(&mut self) -> usize {
        match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                self.generation.push(0);
                self.in_network.push(0);
                self.generation.len() - 1
            }
        }
    }

    /// Clears all slots, keeping every vector's capacity for the next run.
    fn clear(&mut self) {
        self.free.clear();
        self.generation.clear();
        self.in_network.clear();
    }
}

/// The arrival process of a workload run (present only when
/// `SimConfig::arrivals` is configured).
struct WorkloadRt {
    cfg: ArrivalConfig,
    /// Arrival/size randomness, forked off the scenario seed.
    rng: SimRng,
    /// Independent stream for reservoir sampling, so retaining samples
    /// never perturbs the arrival process.
    reservoir_rng: SimRng,
    /// ON/OFF process: end of the current ON burst (`SimTime::MAX` for
    /// Poisson).
    on_until: SimTime,
}

impl WorkloadRt {
    fn new(cfg: ArrivalConfig, seed: u64) -> Self {
        let root = SimRng::new(seed);
        let mut rng = root.fork(0xA221_57AD);
        let reservoir_rng = root.fork(0x5E5E_0115);
        let on_until = match cfg.process {
            ArrivalProcess::Poisson { .. } => SimTime::MAX,
            ArrivalProcess::OnOff { mean_on_secs, .. } => {
                SimTime::ZERO + exp_duration(1.0 / mean_on_secs, &mut rng)
            }
        };
        WorkloadRt {
            cfg,
            rng,
            reservoir_rng,
            on_until,
        }
    }

    /// Draws the next arrival instant strictly after `t`, stepping the
    /// ON/OFF state machine across silent periods when configured.
    fn next_arrival_after(&mut self, t: SimTime) -> SimTime {
        let mut at = t + self.cfg.sample_gap(&mut self.rng);
        if let ArrivalProcess::OnOff {
            mean_on_secs,
            mean_off_secs,
            ..
        } = self.cfg.process
        {
            // A gap overshooting the current burst continues inside the
            // next one: the exponential's memorylessness makes the spill
            // carry over unchanged.
            while at > self.on_until {
                let spill = at.saturating_since(self.on_until);
                let off = exp_duration(1.0 / mean_off_secs, &mut self.rng);
                let burst_start = self.on_until + off;
                self.on_until = burst_start + exp_duration(1.0 / mean_on_secs, &mut self.rng);
                at = burst_start + spill;
            }
        }
        at
    }
}

/// Runtime state of one hop of the chain: its gateway queue, its link and
/// its propagation delay toward the next stop.
struct Hop {
    queue: GatewayQueue,
    link: LinkService,
    propagation_delay: SimDuration,
    /// Dedupe for this hop's LinkReady events.
    ready_scheduled: Option<SimTime>,
}

/// The dumbbell simulation, generic over the congestion-control type shared
/// by its flows — and, in the same value, the per-worker *generation arena*.
///
/// [`Simulation::load`] resets the last run's state in place: the calendar,
/// the packet pool, the flow endpoints (senders keep their retransmission
/// queues, receivers their SACK buffers), the hop chain (queues keep their
/// FIFO rings), the flow slab and the last [`SimResult`], cleared where it
/// is. [`Simulation::run`] leaves its result in the arena for callers to
/// borrow ([`Simulation::result`]) or move out ([`Simulation::into_result`]).
/// Trace-driven service curves and cross-traffic injections are read in
/// place from their packed, shared bytes ([`crate::trace::PackedTimes`]). A
/// batch driver keeps one `Simulation` per worker and loads every evaluation
/// into it; after warm-up a whole generate → evaluate → select generation
/// runs through one recycled allocation set. Results are bit-identical
/// whether the simulation is fresh or reused: reuse only donates capacity,
/// never state.
pub struct Simulation<C: CongestionControl + Clone> {
    cfg: SimConfig,
    events: EventQueue,
    pool: PacketPool,
    flows: FlowTable<C>,
    /// The hop chain, in path order (a single hop without a topology).
    hops: Vec<Hop>,
    /// Per-flow paths over the chain (entry/exit hop indices, clamped).
    paths: Vec<HopRange>,
    /// Per-flow one-way ACK return delay: the sum of the propagation
    /// delays along the flow's path.
    ack_delays: Vec<SimDuration>,
    /// Flows loaded from specs: flow-table indices `0..static_flows`.
    /// Dynamic slots follow them.
    static_flows: usize,
    /// The last run's result, cleared in place by [`Simulation::load`].
    result: SimResult,
    /// Set by [`Simulation::run`], cleared by [`Simulation::load`].
    finished: bool,
    /// Recycled buffer for AQM head drops in [`Simulation::try_transmit`]
    /// (CoDel can shed several packets per dequeue; the buffer keeps that
    /// path allocation-free in steady state).
    aqm_drop_buf: Vec<DataPacket>,
    /// Dynamic-flow slab (empty unless this is a workload run).
    slab: FlowSlab,
    /// Controller prototypes dynamic arrivals clone from (workload runs).
    protos: Vec<C>,
    /// The arrival process (workload runs).
    workload: Option<WorkloadRt>,
}

impl<C: CongestionControl + Clone> Default for Simulation<C> {
    /// An empty arena: nothing loaded and nothing allocated.
    fn default() -> Self {
        Simulation {
            cfg: SimConfig::short_default(),
            events: EventQueue::default(),
            pool: PacketPool::default(),
            flows: FlowTable::default(),
            hops: Vec::new(),
            paths: Vec::new(),
            ack_delays: Vec::new(),
            static_flows: 0,
            result: SimResult::default(),
            finished: true,
            aqm_drop_buf: Vec::new(),
            slab: FlowSlab::default(),
            protos: Vec::new(),
            workload: None,
        }
    }
}

impl<C: CongestionControl + Clone> Simulation<C> {
    /// Builds a single-flow simulation from a configuration and a congestion
    /// controller (the paper's original topology). The flow runs for the
    /// whole scenario.
    pub fn new(cfg: SimConfig, cc: C) -> Self {
        Self::new_multi(cfg, vec![FlowSpec::new(cc)])
    }

    /// Builds a simulation with N concurrent congestion-controlled flows
    /// sharing the bottleneck. Flow indices follow the order of `specs`.
    pub fn new_multi(cfg: SimConfig, mut specs: Vec<FlowSpec<C>>) -> Self {
        let mut sim = Self::default();
        sim.load(cfg, &mut specs, &mut Vec::new());
        sim
    }

    /// Loads the next run: resets every piece of the last run's state in
    /// place and builds this configuration's flows and hops from the
    /// retained storage, so in steady state a complete multi-flow, multi-hop
    /// simulation is set up without touching the allocator.
    ///
    /// `specs` are the static flows. A workload run (`SimConfig::arrivals`
    /// set) also needs `protos`, the controllers its arrivals clone: each
    /// arrival picks one uniformly, so list a CCA several times to weight
    /// it. Any other run takes no prototypes. Drains both vectors, leaving
    /// the caller's storage empty but with its capacity, ready to refill.
    pub fn load(&mut self, cfg: SimConfig, specs: &mut Vec<FlowSpec<C>>, protos: &mut Vec<C>) {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert!(!specs.is_empty(), "a simulation needs at least one flow");
        assert!(
            cfg.arrivals.is_none() || !protos.is_empty(),
            "SimConfig::arrivals needs at least one CCA prototype in `protos`"
        );
        assert!(
            cfg.arrivals.is_some() || protos.is_empty(),
            "`protos` are for a run with SimConfig::arrivals, which is None"
        );
        let n = specs.len();
        self.cfg = cfg;
        self.finished = false;
        self.static_flows = n;
        self.events.reset();
        self.pool.reset();
        self.aqm_drop_buf.clear();
        // Generations restart at zero so a warm run replays a cold run's
        // handle stream bit-identically.
        self.slab.clear();

        // The hop chain, from the configuration: a surviving hop resets its
        // queue in place, keeping its FIFO ring. A trace-driven link's
        // service curve shares its packed bytes, so the copy is a reference
        // count, and the link reads the curve in place.
        let hop_count = self.cfg.hop_count();
        self.hops.truncate(hop_count);
        for k in 0..hop_count {
            let h = self.cfg.hop_config(k);
            let (link, seed) = (LinkService::new(h.link), hop_seed(self.cfg.seed, k));
            match self.hops.get_mut(k) {
                Some(hop) => {
                    hop.queue.reset(h.qdisc, h.queue_capacity, seed);
                    hop.link = link;
                    hop.propagation_delay = h.propagation_delay;
                    hop.ready_scheduled = None;
                }
                None => self.hops.push(Hop {
                    queue: GatewayQueue::new(h.qdisc, h.queue_capacity, seed),
                    link,
                    propagation_delay: h.propagation_delay,
                    ready_scheduled: None,
                }),
            }
        }
        self.pool.set_hop_count(hop_count);

        // The last run's statistics, cleared in place: every vector keeps
        // its capacity, every counter restarts at zero, and entries past
        // this run's flow and hop counts are freed. `open_flow` rewrites
        // each static flow's entry.
        let RunStats {
            mut log,
            mut hop_counters,
            mut hop_samples,
            mut flows,
            mut workload,
            ..
        } = std::mem::take(&mut self.result.stats);
        log.clear();
        hop_counters.clear();
        flows.truncate(n);
        let sample_capacity =
            (self.cfg.duration.as_nanos() / STATS_INTERVAL.as_nanos()) as usize + 2;
        hop_samples.resize_with(hop_count, Vec::new);
        for samples in &mut hop_samples {
            samples.clear();
            samples.reserve(sample_capacity);
        }
        match &mut workload {
            Some(w) if self.cfg.arrivals.is_some() => w.clear(),
            _ => workload = self.cfg.arrivals.map(|_| Box::default()),
        }
        self.result = SimResult {
            stats: RunStats {
                log,
                hop_counters,
                hop_samples,
                flows,
                workload,
                ..RunStats::default()
            },
            duration_secs: self.cfg.duration.as_secs_f64(),
        };

        // Workload runs keep endpoints beyond the static count: they are
        // last run's dynamic slots, reclaimed in place (keeping their
        // buffers) as this run's arrivals spawn.
        let flows = &mut self.flows;
        flows.start.clear();
        flows.stop.clear();
        flows.pacing_scheduled.clear();
        flows.rto_scheduled.clear();
        flows.counters.clear();
        flows.sampled_cwnd.clear();
        self.paths.clear();
        self.ack_delays.clear();
        if self.cfg.arrivals.is_none() {
            flows.senders.truncate(n);
            flows.receivers.truncate(n);
        }
        for (i, spec) in specs.drain(..).enumerate() {
            let path = self.cfg.flow_path(i);
            self.open_flow(
                i,
                spec.cc,
                spec.start,
                spec.stop,
                path,
                SENDER_BUFFER_PACKETS,
            );
        }

        self.protos.clear();
        self.protos.append(protos);
        let (arrivals, seed) = (self.cfg.arrivals, self.cfg.seed);
        self.workload = arrivals.map(|arrivals| WorkloadRt::new(arrivals, seed));
    }

    /// Opens flow `idx` at `start`: claims (or builds) its sender and
    /// receiver, and sets its schedule, path, ACK delay (the propagation
    /// delays along the path), timer dedupe and counters. `buffer` is its
    /// application data in packets. A static flow also gets its run
    /// statistics entry, whose delivery log keeps the last run's capacity
    /// and is pre-sized from the tightest hop *on its own path* (a
    /// parking-lot flow that skips the slow hop can deliver far more than
    /// the chain's global bottleneck allows) so the hot loop never grows it.
    fn open_flow(
        &mut self,
        idx: usize,
        cc: C,
        start: SimTime,
        stop: Option<SimTime>,
        path: HopRange,
        buffer: u64,
    ) {
        let cfg = &self.cfg;
        let sender_cfg = SenderConfig {
            mss: cfg.mss,
            buffer_packets: buffer,
            record_log: cfg.record_events,
            ecn_enabled: cfg.ecn_enabled,
        };
        let flows = &mut self.flows;
        match flows.senders.get_mut(idx) {
            Some(sender) => sender.reset_reusing(sender_cfg, cc),
            None => flows.senders.push(TcpSender::new(sender_cfg, cc)),
        }
        match flows.receivers.get_mut(idx) {
            Some(receiver) => receiver.reset_reusing(cfg.delayed_ack),
            None => flows.receivers.push(TcpReceiver::new(cfg.delayed_ack)),
        }
        set(&mut flows.start, idx, start);
        set(&mut flows.stop, idx, stop);
        set(&mut flows.pacing_scheduled, idx, None);
        set(&mut flows.rto_scheduled, idx, None);
        set(&mut flows.counters, idx, FlowCounters::default());
        let hops = &self.hops[path.entry as usize..=path.exit as usize];
        let ack_delay = hops
            .iter()
            .fold(SimDuration::ZERO, |acc, h| acc + h.propagation_delay);
        set(&mut self.paths, idx, path);
        set(&mut self.ack_delays, idx, ack_delay);
        if idx < self.static_flows {
            let (secs, mss) = (cfg.duration.as_secs_f64(), cfg.mss as f64);
            let tightest = hops
                .iter()
                .map(|h| match h.link.model() {
                    LinkModel::FixedRate { rate_bps } => {
                        ((*rate_bps as f64 / 8.0) * secs / mss) as usize
                    }
                    LinkModel::TraceDriven { trace } => trace.len(),
                })
                .min()
                .unwrap_or(0);
            let stats = &mut self.result.stats.flows;
            let mut delivery_times = stats
                .get_mut(idx)
                .map(|f| std::mem::take(&mut f.delivery_times))
                .unwrap_or_default();
            delivery_times.clear();
            delivery_times.reserve(tightest.min(1 << 22) / self.static_flows + 64);
            let entry = FlowStats {
                delivery_times,
                start,
                stop,
                ..FlowStats::default()
            };
            set(stats, idx, entry);
            flows.sampled_cwnd.push(0);
        }
    }

    /// The last run's result, borrowed from the arena until the next
    /// [`Simulation::load`] clears it in place.
    pub fn result(&self) -> &SimResult {
        &self.result
    }

    /// Drops the arena and keeps the last run's result: how a one-shot
    /// caller owns a result without copying it.
    pub fn into_result(self) -> SimResult {
        self.result
    }

    /// A no-op, kept by name for the benchmark harness (DESIGN.md "Frozen
    /// names"): the arena keeps its run's statistics and clears them in
    /// place at the next load, so a caller's copy is simply dropped.
    pub fn recycle_stats(&mut self, _stats: RunStats) {}

    fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.cfg.duration
    }

    fn record_queue(
        &mut self,
        hop: usize,
        at: SimTime,
        flow: FlowId,
        size: u32,
        event: BottleneckEvent,
    ) {
        if self.cfg.record_events {
            self.result.stats.log.push(LogRecord {
                at,
                flow,
                hop: hop as u32,
                event: LogEvent::Queue { size, event },
            });
        }
    }

    /// Moves the records `flow`'s sender logged during its last call into
    /// the run log, so the log keeps event-processing order.
    #[inline]
    fn flush_sender_log(&mut self, flow: usize) {
        if self.cfg.record_events {
            let (raw, hop) = (self.raw_flow(flow), self.paths[flow].entry);
            self.result
                .stats
                .log
                .extend(self.flows.senders[flow].drain_log().map(|r| LogRecord {
                    at: r.at,
                    flow: FlowId::Cca(raw),
                    hop,
                    event: LogEvent::Transport(r.event),
                }));
        }
    }

    /// Logs a static flow's congestion window if it moved since the flow's
    /// last sample.
    #[inline]
    fn sample_cwnd(&mut self, flow: usize, now: SimTime) {
        if !self.cfg.record_events || flow >= self.flows.sampled_cwnd.len() {
            return;
        }
        let sender = &self.flows.senders[flow];
        let (cwnd, in_flight) = (sender.cwnd(), sender.in_flight());
        if std::mem::replace(&mut self.flows.sampled_cwnd[flow], cwnd) != cwnd {
            self.result.stats.log.push(LogRecord {
                at: now,
                flow: FlowId::Cca(flow as u32),
                hop: self.paths[flow].entry,
                event: LogEvent::Cwnd { cwnd, in_flight },
            });
        }
    }

    /// Index of the last hop on a packet's path before the sink. Cross
    /// traffic always traverses the whole chain.
    fn exit_hop(&self, flow: FlowId) -> usize {
        match flow {
            FlowId::CrossTraffic => self.hops.len() - 1,
            FlowId::Cca(raw) => self.paths[self.cca_index(raw)].exit as usize,
        }
    }

    // ------------------------------------------------------------------
    // Dynamic flow handles
    // ------------------------------------------------------------------

    /// Decodes a raw flow handle to its flow-table index. Static handles
    /// are their own index; dynamic handles resolve through the slab and
    /// come back `None` when stale (the slot recycled since the event that
    /// carries the handle was scheduled).
    #[inline]
    fn resolve_flow(&self, raw: u32) -> Option<usize> {
        if !is_dynamic(raw) {
            return Some(raw as usize);
        }
        let slot = dyn_slot(raw);
        (self.slab.generation.get(slot) == Some(&dyn_generation(raw)))
            .then(|| self.static_flows + slot)
    }

    /// Resolves a handle carried by a packet or ACK. These can never go
    /// stale — every in-flight packet holds an `in_network` reference that
    /// blocks its slot's recycling — so failure here is a bug.
    #[inline]
    fn cca_index(&self, raw: u32) -> usize {
        self.resolve_flow(raw)
            .expect("packet refers to a recycled dynamic flow")
    }

    /// The raw handle for a flow-table index (the inverse of
    /// [`Simulation::resolve_flow`]): static flows encode as their plain
    /// index — bit-identical to the pre-slab event stream — and dynamic
    /// slots pack slot + generation with the top bit set.
    #[inline]
    fn raw_flow(&self, idx: usize) -> u32 {
        match idx.checked_sub(self.static_flows) {
            Some(slot) => dyn_handle(slot as u16, self.slab.generation[slot]),
            None => idx as u32,
        }
    }

    // ------------------------------------------------------------------
    // Link / queue plumbing
    // ------------------------------------------------------------------

    fn try_transmit(&mut self, hop: usize, now: SimTime) {
        loop {
            let queue_nonempty = !self.hops[hop].queue.is_empty();
            match self.hops[hop].link.next_action(now, queue_nonempty) {
                LinkAction::TransmitNow => {
                    // CoDel may drop (non-ECT) head packets while hunting for
                    // the next deliverable one; drop-tail and RED never do,
                    // so the recycled buffer stays empty for them.
                    let mut aqm_drops = std::mem::take(&mut self.aqm_drop_buf);
                    let pkt = self.hops[hop].queue.dequeue_at(now, |p| aqm_drops.push(p));
                    for dropped in aqm_drops.drain(..) {
                        self.drop_packet(hop, now, dropped.flow, dropped.size);
                    }
                    self.aqm_drop_buf = aqm_drops;
                    let Some((pkt, marked_now)) = pkt else {
                        // The discipline consumed the whole backlog; re-poll
                        // the (now idle) link so it can park itself.
                        continue;
                    };
                    if marked_now {
                        // The queue reports *where* it marked (CoDel marks at
                        // dequeue; RED-marked packets already produced their
                        // record at enqueue time), so this accounting stays
                        // correct for any future discipline without changes
                        // here.
                        self.mark_packet(hop, now, pkt.flow, pkt.size);
                    }
                    let queuing_delay = now.saturating_since(pkt.enqueued_at);
                    self.record_queue(
                        hop,
                        now,
                        pkt.flow,
                        pkt.size,
                        BottleneckEvent::Dequeued { queuing_delay },
                    );
                    let crossed_at = self.hops[hop].link.on_transmit(now, pkt.size);
                    let arrival = crossed_at + self.hops[hop].propagation_delay;
                    let exit = self.exit_hop(pkt.flow);
                    let parked = self.pool.put_data_at(hop, pkt);
                    if hop >= exit {
                        // Last hop on this packet's path: deliver to the sink.
                        self.events.schedule(arrival, Event::SinkArrival(parked));
                    } else {
                        // Route onward: arrival at the next hop's gateway.
                        self.events.schedule(
                            arrival,
                            Event::GatewayArrival {
                                hop: (hop + 1) as u32,
                                pkt: parked,
                            },
                        );
                    }
                }
                LinkAction::WaitUntil(t) => {
                    if t != SimTime::MAX
                        && t <= self.end_time()
                        && self.hops[hop]
                            .ready_scheduled
                            .map(|s| s > t || s < now)
                            .unwrap_or(true)
                    {
                        self.events
                            .schedule(t, Event::LinkReady { hop: hop as u32 });
                        self.hops[hop].ready_scheduled = Some(t);
                    }
                    break;
                }
                LinkAction::Exhausted => break,
            }
        }
    }

    fn handle_gateway_arrival(&mut self, hop: usize, pkt: DataPacket, now: SimTime) {
        let flow = pkt.flow;
        let size = pkt.size;
        let outcome = self.hops[hop].queue.enqueue(pkt, now);
        if outcome == EnqueueOutcome::Dropped {
            self.drop_packet(hop, now, flow, size);
            return;
        }
        self.record_queue(hop, now, flow, size, BottleneckEvent::Enqueued);
        if outcome == EnqueueOutcome::AcceptedMarked {
            self.mark_packet(hop, now, flow, size);
        }
        self.try_transmit(hop, now);
    }

    /// Records and accounts one packet dropped at `hop`: a tail or early
    /// drop at arrival, or a CoDel drop at the head of the queue.
    fn drop_packet(&mut self, hop: usize, now: SimTime, flow: FlowId, size: u32) {
        self.record_queue(hop, now, flow, size, BottleneckEvent::Dropped);
        if let FlowId::Cca(raw) = flow {
            let idx = self.cca_index(raw);
            self.flows.counters[idx].queue_drops += 1;
            if is_dynamic(raw) {
                self.dyn_packet_gone(dyn_slot(raw));
            }
        }
    }

    /// Records and accounts one packet CE-marked at `hop` (RED marks at
    /// enqueue, CoDel at dequeue).
    fn mark_packet(&mut self, hop: usize, now: SimTime, flow: FlowId, size: u32) {
        self.record_queue(hop, now, flow, size, BottleneckEvent::Marked);
        if let FlowId::Cca(raw) = flow {
            let idx = self.cca_index(raw);
            self.flows.counters[idx].ce_marked += 1;
        }
    }

    // ------------------------------------------------------------------
    // Sender plumbing
    // ------------------------------------------------------------------

    fn sync_rto_timer(&mut self, flow: usize) {
        if let Some((deadline, generation)) = self.flows.senders[flow].rto_deadline() {
            if self.flows.rto_scheduled[flow] != Some((deadline, generation)) {
                let raw = self.raw_flow(flow);
                self.events.schedule(
                    deadline.max(self.events.now()),
                    Event::RtoTimer {
                        flow: raw,
                        generation,
                    },
                );
                self.flows.rto_scheduled[flow] = Some((deadline, generation));
            }
        }
    }

    fn pump_sender(&mut self, flow: usize, now: SimTime) {
        if self.flows.stopped(flow, now) {
            return;
        }
        let raw = self.raw_flow(flow);
        loop {
            match self.flows.senders[flow].poll_send(now) {
                SendPoll::Packet(mut pkt) => {
                    // The send is logged before its gateway records.
                    self.flush_sender_log(flow);
                    pkt.flow = FlowId::Cca(raw);
                    if is_dynamic(raw) {
                        self.slab.in_network[dyn_slot(raw)] += 1;
                    }
                    // The access link from sender to its entry hop is
                    // unconstrained: packets arrive at that queue immediately.
                    let entry = self.paths[flow].entry as usize;
                    self.handle_gateway_arrival(entry, pkt, now);
                }
                SendPoll::Wait(t) => {
                    if t <= self.end_time()
                        && self.flows.pacing_scheduled[flow]
                            .map(|s| s > t || s <= now)
                            .unwrap_or(true)
                    {
                        self.events.schedule(t, Event::PacingTimer { flow: raw });
                        self.flows.pacing_scheduled[flow] = Some(t);
                    }
                    break;
                }
                SendPoll::Blocked => break,
            }
        }
        self.sync_rto_timer(flow);
    }

    /// Starts an opened flow at `now`: a static flow at its scheduled
    /// start, a dynamic one at its arrival.
    fn start_flow(&mut self, flow: usize, now: SimTime) {
        self.flows.senders[flow].on_flow_start(now);
        self.flush_sender_log(flow);
        self.sample_cwnd(flow, now);
        self.pump_sender(flow, now);
    }

    fn deliver_ack_to_sender(&mut self, flow: usize, ack: AckPacket, now: SimTime) {
        if self.flows.stopped(flow, now) {
            return;
        }
        self.flows.senders[flow].on_ack(&ack, now);
        self.flush_sender_log(flow);
        self.pump_sender(flow, now);
    }

    fn handle_sink_arrival(&mut self, pkt: DataPacket, now: SimTime) {
        match pkt.flow {
            FlowId::CrossTraffic => {
                self.result.stats.cross_delivered += 1;
            }
            FlowId::Cca(raw) => {
                let idx = self.cca_index(raw);
                let out = self.flows.receivers[idx].on_data(&pkt, now);
                // Dynamic flows record completion times through the bounded
                // FCT histograms instead of per-delivery timestamp vectors —
                // that unboundedness is exactly what a 10k-flow workload run
                // cannot afford.
                if out.new_data && !is_dynamic(raw) {
                    let stats = &mut self.result.stats;
                    let log = &mut stats.flows[idx].delivery_times;
                    if log.len() < MAX_DELIVERY_SAMPLES_PER_FLOW {
                        log.push(now);
                    } else {
                        stats.delivery_samples_dropped += 1;
                    }
                }
                if let Some(ack) = out.ack {
                    if is_dynamic(raw) {
                        self.slab.in_network[dyn_slot(raw)] += 1;
                    }
                    let parked = self.pool.put_ack(ack);
                    self.events.schedule(
                        now + self.ack_delays[idx],
                        Event::AckArrival {
                            flow: raw,
                            ack: parked,
                        },
                    );
                }
                if let Some((deadline, generation)) = out.arm_delack {
                    self.events.schedule(
                        deadline,
                        Event::DelayedAckTimer {
                            flow: raw,
                            generation,
                        },
                    );
                }
                if is_dynamic(raw) {
                    // The data packet itself left the network (its ACK, if
                    // any, took its own reference above).
                    self.dyn_packet_gone(dyn_slot(raw));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Dynamic flow lifecycle
    // ------------------------------------------------------------------

    /// Spawns one dynamic flow at `now` over the whole chain (or counts a
    /// capped arrival when the concurrency limit is reached), claiming a
    /// recycled slab slot when one is free.
    fn spawn_dynamic(&mut self, now: SimTime) {
        let rt = self.workload.as_mut().expect("arrivals not loaded");
        let w = self.result.stats.workload.as_mut().expect("workload stats");
        if self.slab.live() >= rt.cfg.max_concurrent as usize {
            w.capped += 1;
            return;
        }
        w.spawned += 1;
        let size = rt.cfg.size.sample(&mut rt.rng);
        let pick = rt.rng.gen_range_usize(0, self.protos.len());
        let cc = self.protos[pick].clone();
        let idx = self.static_flows + self.slab.claim();
        let path = HopRange::full(self.hops.len());
        self.open_flow(idx, cc, now, None, path, size);
        self.start_flow(idx, now);
    }

    /// Checks a dynamic flow for completion after an ACK reached its
    /// sender, then releases the consumed ACK's network reference. A flow
    /// completes, and stops, once its whole transfer is cumulatively ACKed.
    fn after_dyn_ack(&mut self, slot: usize, now: SimTime) {
        let rt = self.workload.as_mut().expect("arrivals not loaded");
        let idx = self.static_flows + slot;
        let sender = &self.flows.senders[idx];
        let size = sender.buffer_packets();
        if self.flows.stop[idx].is_none() && sender.cum_ack() >= size {
            self.flows.stop[idx] = Some(now);
            let fct = now.saturating_since(self.flows.start[idx]);
            let w = self.result.stats.workload.as_mut().expect("workload stats");
            if rt.cfg.is_mouse(size) {
                w.fct_mice.record(fct.as_nanos());
            } else {
                w.fct_elephants.record(fct.as_nanos());
            }
            // Algorithm-R reservoir over all completions, on its own rng
            // stream so sampling never perturbs the arrival process.
            let seen = w.completed();
            if w.samples.len() < WorkloadStats::MAX_SAMPLES {
                w.samples.push(FctSample {
                    size_packets: size,
                    fct,
                });
            } else {
                let j = rt.reservoir_rng.gen_range_u64(0, seen) as usize;
                if j < WorkloadStats::MAX_SAMPLES {
                    w.samples[j] = FctSample {
                        size_packets: size,
                        fct,
                    };
                }
            }
        }
        self.dyn_packet_gone(slot);
    }

    /// Releases one `in_network` reference of a dynamic slot (a data packet
    /// delivered or dropped, or an ACK consumed). Once the flow has stopped
    /// with nothing left in flight, the slot returns to the free list: its
    /// per-flow counters fold into the workload aggregates and its
    /// generation bumps, so any still-scheduled timer event for it dies on
    /// decode. The flow's columns stay as they are until a spawn reopens it.
    fn dyn_packet_gone(&mut self, slot: usize) {
        debug_assert!(self.slab.in_network[slot] > 0, "in_network underflow");
        self.slab.in_network[slot] -= 1;
        let idx = self.static_flows + slot;
        if self.flows.stop[idx].is_none() || self.slab.in_network[slot] > 0 {
            return;
        }
        let c = self.flows.counters[idx];
        let tx = self.flows.senders[idx].transmissions();
        let received = self.flows.receivers[idx].total_received();
        // Conservation: with nothing in the network, every packet this flow
        // ever transmitted was either delivered to the sink or dropped at a
        // gateway queue.
        debug_assert_eq!(
            tx,
            received + c.queue_drops,
            "per-flow conservation violated at recycle (slot {slot})"
        );
        let w = self.result.stats.workload.as_mut().expect("workload stats");
        w.completed_tx += tx;
        w.completed_delivered += received;
        w.completed_dropped += c.queue_drops;
        self.slab.generation[slot] = (self.slab.generation[slot] + 1) % GEN_MODULUS;
        self.slab.free.push(slot as u32);
    }

    /// Draws and schedules the next arrival, respecting the total-arrival
    /// cap and the scenario end.
    fn schedule_next_arrival(&mut self, now: SimTime) {
        let w = self.result.stats.workload.as_ref().expect("workload stats");
        let attempts = w.spawned + w.capped;
        let rt = self.workload.as_mut().expect("arrivals not loaded");
        if attempts >= rt.cfg.max_arrivals {
            return;
        }
        let at = rt.next_arrival_after(now);
        if at <= self.end_time() {
            self.events.schedule(at, Event::FlowArrival);
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs the simulation to completion, leaving its result in the arena
    /// ([`Simulation::result`]).
    pub fn run(&mut self) {
        assert!(!self.finished, "a Simulation runs once per load");
        self.finished = true;

        // Seed the event calendar: flow starts in index order, then the
        // stats tick, then cross-traffic injections (known up front).
        // Static flows occupy indices 0..static_flows; dynamic flows spawn
        // past that boundary as arrivals fire.
        let static_flows = self.static_flows;
        for i in 0..static_flows {
            let start = self.flows.start[i];
            self.events
                .schedule(start, Event::FlowStart { flow: i as u32 });
        }
        self.events.schedule(SimTime::ZERO, Event::StatsTick);
        let seed_end = self.end_time();
        if let Some(rt) = self.workload.as_mut() {
            let at = rt.next_arrival_after(SimTime::ZERO);
            if at <= seed_end {
                self.events.schedule(at, Event::FlowArrival);
            }
        }
        {
            // Split borrows: the injection schedule is decoded straight from
            // the config's packed bytes (no intermediate copy) while the pool
            // and calendar are driven mutably.
            let Simulation {
                cfg, pool, events, ..
            } = &mut *self;
            for (seq, t) in cfg.cross_traffic.iter().enumerate() {
                if t > seed_end {
                    break;
                }
                let pkt = DataPacket::cross_traffic(seq as u64, CROSS_TRAFFIC_PACKET_SIZE);
                let parked = pool.put_data(pkt);
                events.schedule(
                    t,
                    Event::GatewayArrival {
                        hop: 0,
                        pkt: parked,
                    },
                );
            }
        }

        let end = self.end_time();
        let mut events_processed: u64 = 0;
        while let Some((now, event)) = self.events.pop() {
            if now > end {
                break;
            }
            events_processed += 1;
            if events_processed > MAX_EVENTS {
                self.result.stats.truncated = true;
                break;
            }
            match event {
                Event::FlowStart { flow } => self.start_flow(flow as usize, now),
                Event::GatewayArrival { hop, pkt: parked } => {
                    let pkt = self.pool.take_data_at(hop as usize, parked);
                    self.handle_gateway_arrival(hop as usize, pkt, now);
                }
                Event::LinkReady { hop } => {
                    let hop = hop as usize;
                    if self.hops[hop].ready_scheduled == Some(now) {
                        self.hops[hop].ready_scheduled = None;
                    }
                    self.try_transmit(hop, now);
                }
                Event::SinkArrival(parked) => {
                    let pkt = self.pool.take_data(parked);
                    self.handle_sink_arrival(pkt, now);
                }
                Event::AckArrival { flow, ack } => {
                    // ACK packets hold a network reference on dynamic flows,
                    // so the handle can never be stale here.
                    let idx = self.cca_index(flow);
                    let ack = self.pool.take_ack(ack);
                    self.deliver_ack_to_sender(idx, ack, now);
                    self.sample_cwnd(idx, now);
                    if is_dynamic(flow) {
                        self.after_dyn_ack(dyn_slot(flow), now);
                    }
                }
                Event::RtoTimer { flow, generation } => {
                    // Timers are the one event class that can outlive its
                    // flow: a recycled slot bumps its generation, so a stale
                    // handle simply fails to resolve and the event dies.
                    let Some(flow) = self.resolve_flow(flow) else {
                        continue;
                    };
                    if self.flows.rto_scheduled[flow]
                        .map(|(_, g)| g == generation)
                        .unwrap_or(false)
                    {
                        self.flows.rto_scheduled[flow] = None;
                    }
                    if self.flows.stopped(flow, now) {
                        continue;
                    }
                    if self.flows.senders[flow].on_rto_timer(generation, now) {
                        self.flush_sender_log(flow);
                        self.sample_cwnd(flow, now);
                        self.pump_sender(flow, now);
                    } else {
                        self.sync_rto_timer(flow);
                    }
                }
                Event::DelayedAckTimer { flow, generation } => {
                    let Some(flow_idx) = self.resolve_flow(flow) else {
                        continue;
                    };
                    if let Some(ack) = self.flows.receivers[flow_idx].on_delack_timer(generation) {
                        if is_dynamic(flow) {
                            self.slab.in_network[dyn_slot(flow)] += 1;
                        }
                        let parked = self.pool.put_ack(ack);
                        self.events.schedule(
                            now + self.ack_delays[flow_idx],
                            Event::AckArrival { flow, ack: parked },
                        );
                    }
                }
                Event::PacingTimer { flow } => {
                    let Some(flow) = self.resolve_flow(flow) else {
                        continue;
                    };
                    if self.flows.pacing_scheduled[flow] == Some(now) {
                        self.flows.pacing_scheduled[flow] = None;
                    }
                    self.pump_sender(flow, now);
                }
                Event::FlowArrival => {
                    self.spawn_dynamic(now);
                    self.schedule_next_arrival(now);
                }
                Event::StatsTick => {
                    for (samples, hop) in self.result.stats.hop_samples.iter_mut().zip(&self.hops) {
                        samples.push((now, hop.queue.len(), hop.queue.bytes()));
                    }
                    let next = now + STATS_INTERVAL;
                    if next <= end {
                        self.events.schedule(next, Event::StatsTick);
                    }
                }
            }
        }

        let stats = &mut self.result.stats;
        stats.events_processed = events_processed;
        let counters = self.hops.iter().map(|h| h.queue.counters());
        stats.hop_counters.extend(counters);
        stats.cross_dropped = stats.hop_counters.iter().map(|c| c.dropped_cross).sum();
        // Only static flows surface per-flow summaries; dynamic flows are
        // aggregated in the workload block.
        for (i, flow) in stats.flows.iter_mut().enumerate() {
            let (sender, receiver) = (&self.flows.senders[i], &self.flows.receivers[i]);
            let counters = self.flows.counters[i];
            flow.summary = FlowSummary {
                queue_drops: counters.queue_drops,
                ce_marked: counters.ce_marked,
                ce_received: receiver.ce_received(),
                ece_echoed: receiver.ece_echoed(),
                ..sender.summary()
            };
            flow.sink_received = receiver.total_received();
        }
    }
}

/// Convenience helper: build and run a simulation in one call.
pub fn run_simulation<C: CongestionControl + Clone>(cfg: SimConfig, cc: C) -> SimResult {
    let mut sim = Simulation::new(cfg, cc);
    sim.run();
    sim.into_result()
}

/// Convenience helper: build and run a multi-flow simulation in one call.
pub fn run_multi_flow_simulation<C: CongestionControl + Clone>(
    cfg: SimConfig,
    specs: Vec<FlowSpec<C>>,
) -> SimResult {
    let mut sim = Simulation::new_multi(cfg, specs);
    sim.run();
    sim.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::reference_cc::{FixedWindowCc, MiniAimdCc};
    use crate::link::LinkModel;
    use crate::queue::QueueCapacity;
    use crate::time::SimDuration;
    use crate::trace::{LinkTrace, TrafficTrace};

    fn base_cfg() -> SimConfig {
        let mut cfg = SimConfig::short_default();
        cfg.record_events = true;
        cfg
    }

    #[test]
    fn fixed_window_flow_delivers_packets() {
        let cfg = base_cfg();
        let result = run_simulation(cfg, FixedWindowCc::new(10));
        assert!(
            result.stats.flow().delivered_packets > 100,
            "delivered {}",
            result.stats.flow().delivered_packets
        );
        assert!(!result.stats.truncated);
        assert_eq!(
            result.stats.flow().queue_drops,
            0,
            "window of 10 cannot overflow a 100-packet queue"
        );
    }

    #[test]
    fn small_window_throughput_is_window_limited() {
        // With a 1-packet window every packet waits for the receiver's
        // delayed-ACK timer (200 ms) plus the 40 ms RTT: ~21 packets in 5 s.
        let cfg = base_cfg();
        let result = run_simulation(cfg, FixedWindowCc::new(1));
        let delivered = result.stats.flow().delivered_packets;
        assert!((15..=30).contains(&delivered), "delivered {delivered}");

        // Disabling delayed ACKs removes the penalty: one packet per RTT.
        let mut cfg = base_cfg();
        cfg.delayed_ack = false;
        let result = run_simulation(cfg, FixedWindowCc::new(1));
        let delivered = result.stats.flow().delivered_packets;
        assert!((100..=135).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn aimd_fills_12mbps_link() {
        let cfg = base_cfg();
        let mss = cfg.mss;
        let result = run_simulation(cfg, MiniAimdCc::new(10));
        let goodput = result.average_goodput_bps(mss);
        // Should reach a reasonable fraction of the 12 Mbps bottleneck.
        assert!(goodput > 6e6, "goodput only {goodput} bps");
        assert!(goodput < 12.5e6, "goodput {goodput} exceeds link rate");
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One reused simulation loads differently shaped scenarios back to
        // back — hop count, flow count, stops, churn, recording, queue
        // discipline and link model all change between loads, in both
        // directions — and every run's whole `RunStats` must print as a
        // fresh run's: per-flow start, stop and sink counts, hop samples
        // and counters, the workload block and the run log included.
        let mut sim = Simulation::default();
        for shape in [0, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 6, 0, 3, 5, 2, 0, 4, 6, 0] {
            let mut arena = Simulation::default();
            let fresh = &run_shape(&mut arena, shape).stats;
            let reused = &run_shape(&mut sim, shape).stats;
            let same = format!("{fresh:?}") == format!("{reused:?}");
            assert!(same, "shape {shape}: a reused run differs from a fresh one");
            assert_eq!(reused.log.is_empty(), shape == 1, "{shape}");
            if shape == 1 {
                let plain = run_simulation(base_cfg(), MiniAimdCc::new(10));
                assert_eq!(plain.stats.digest(), reused.digest());
            }
        }
    }

    #[test]
    fn a_reused_arena_reports_an_empty_size_class_as_a_fresh_one_does() {
        // A heavy-churn run fills both FCT histograms; the next run on the
        // same arena completes no elephant (every size is a mouse), so its
        // elephant histogram is one the arena cleared. The whole run, that
        // histogram included, must print as the same run on a fresh arena.
        let mut mice_only = workload_cfg(60.0, 32);
        let arrivals = mice_only.arrivals.as_mut().unwrap();
        arrivals.mice_threshold_packets = arrivals.size.max_packets;
        let fresh = run_workload(mice_only.clone());
        let w = fresh.stats.workload().unwrap();
        assert!(w.fct_mice.count() > 0 && w.fct_elephants.count() == 0);

        let mut sim = Simulation::default();
        let heavy = run_workload_in(&mut sim, workload_cfg(200.0, 32));
        assert!(heavy.stats.workload().unwrap().fct_elephants.count() > 0);
        let reused = run_workload_in(&mut sim, mice_only);
        assert_eq!(format!("{:?}", reused.stats), format!("{:?}", fresh.stats));
    }

    /// Loads scenario `shape` into `sim` and runs it: 0 = a 3-hop parking
    /// lot, 1 = the plain single-flow dumbbell (the one shape run without
    /// recording), 2 = eight staggered flows, four of them stopping early,
    /// 3 = flow churn, 4 = RED + ECN, 5 = a trace-driven link with cross
    /// traffic, 6 = two flows, one stopping, and two cross-traffic bursts
    /// through a 30-packet CoDel queue without ECN, which drops at dequeue
    /// and is still dropping when the run ends.
    fn run_shape(sim: &mut Simulation<MiniAimdCc>, shape: usize) -> &SimResult {
        let mut cfg = base_cfg();
        cfg.record_events = shape != 1;
        let mut specs = vec![FlowSpec::new(MiniAimdCc::new(10))];
        let mut protos = Vec::new();
        match shape {
            0 => {
                cfg = chain_cfg(&[12, 6, 12]);
                cfg.topology.as_mut().unwrap().paths = vec![HopRange::full(3), HopRange::new(1, 1)];
                specs.push(FlowSpec::new(MiniAimdCc::new(20)));
            }
            2 => specs.extend((1..8).map(|i| FlowSpec {
                cc: MiniAimdCc::new(4 + i),
                start: SimTime::from_millis(100 * i),
                stop: (i % 2 == 1).then(|| SimTime::from_millis(2_000 + 300 * i)),
            })),
            3 => {
                cfg = workload_cfg(60.0, 32);
                protos = vec![MiniAimdCc::new(4), MiniAimdCc::new(8)];
            }
            4 => {
                cfg.qdisc = Qdisc::red_default(100);
                cfg.ecn_enabled = true;
            }
            5 => {
                let trace =
                    LinkTrace::constant_rate(8_000_000, cfg.mss, SimDuration::from_millis(200));
                cfg.link = LinkModel::TraceDriven { trace };
                let injections = (0..500).map(|i| SimTime::from_micros(i * 9_000)).collect();
                cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
            }
            6 => {
                cfg.qdisc = Qdisc::codel_default();
                cfg.queue_capacity = QueueCapacity::Packets(30);
                specs.push(FlowSpec {
                    cc: MiniAimdCc::new(40),
                    start: SimTime::from_millis(500),
                    stop: Some(SimTime::from_millis(3_000)),
                });
                // Cross traffic at twice the link rate for 600 ms, twice:
                // from the start, so the run's first CoDel episode drops
                // several packets (a drop count carried over from the last
                // run would move them), and to the end of the run.
                let bursts = [0, 4_400_000].into_iter();
                let at = bursts.flat_map(|at| (0..1_500).map(move |i| at + i * 400));
                let injections = at.map(SimTime::from_micros).collect();
                cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
            }
            _ => {}
        }
        sim.load(cfg, &mut specs, &mut protos);
        sim.run();
        sim.result()
    }

    #[test]
    fn oversized_window_causes_drops_and_retransmissions() {
        let mut cfg = base_cfg();
        cfg.queue_capacity = QueueCapacity::Packets(20);
        let result = run_simulation(cfg, FixedWindowCc::new(500));
        assert!(
            result.stats.flow().queue_drops > 0,
            "a 500-packet window must overflow a 20-packet queue"
        );
        assert!(result.stats.flow().retransmissions > 0);
        // The flow keeps making progress regardless.
        assert!(result.stats.flow().delivered_packets > 500);
    }

    #[test]
    fn trace_driven_link_limits_delivery_to_opportunities() {
        let mut cfg = base_cfg();
        let trace = LinkTrace::constant_rate(12_000_000, cfg.mss, SimDuration::from_millis(200));
        let opportunities = trace.len() as u64;
        cfg.link = LinkModel::TraceDriven { trace };
        let result = run_simulation(cfg, FixedWindowCc::new(50));
        assert!(
            result.stats.flow().delivered_packets <= opportunities,
            "cannot deliver more than the trace's {} opportunities, got {}",
            opportunities,
            result.stats.flow().delivered_packets
        );
        assert!(result.stats.flow().delivered_packets > 0);
    }

    #[test]
    fn cross_traffic_competes_for_queue_and_link() {
        let mut cfg = base_cfg();
        cfg.queue_capacity = QueueCapacity::Packets(50);
        // Heavy cross traffic: 2000 packets over 5 s ≈ 4.6 Mbps of the 12 Mbps link.
        let injections: Vec<SimTime> = (0..2000).map(|i| SimTime::from_micros(i * 2_500)).collect();
        cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
        let mss = cfg.mss;
        let with_cross = run_simulation(cfg, MiniAimdCc::new(10));

        let without_cross = run_simulation(base_cfg(), MiniAimdCc::new(10));
        assert!(
            with_cross.average_goodput_bps(mss) < without_cross.average_goodput_bps(mss),
            "cross traffic must reduce CCA goodput"
        );
        assert!(with_cross.stats.cross_delivered > 0);
    }

    #[test]
    fn deterministic_repeatability() {
        let run = || {
            let result = run_simulation(base_cfg(), MiniAimdCc::new(10));
            (
                result.stats.flow().delivered_packets,
                result.stats.flow().transmissions,
                result.stats.flow().retransmissions,
                result.stats.events_processed,
            )
        };
        assert_eq!(
            run(),
            run(),
            "identical configs must produce identical results"
        );
    }

    #[test]
    fn queuing_delay_bounded_by_queue_size() {
        let mut cfg = base_cfg();
        cfg.queue_capacity = QueueCapacity::Packets(50);
        let result = run_simulation(cfg.clone(), FixedWindowCc::new(200));
        // Max queuing delay is bounded by 50 packets * ~1ms serialisation.
        let max_delay = result
            .stats
            .queuing_delays(FlowId::Cca(0))
            .iter()
            .map(|(_, d)| *d)
            .max()
            .unwrap_or(SimDuration::ZERO);
        assert!(
            max_delay <= SimDuration::from_millis(60),
            "queuing delay {max_delay} exceeds what a 50-packet queue at ~1ms/pkt allows"
        );
        assert!(
            max_delay >= SimDuration::from_millis(30),
            "queue should actually fill: {max_delay}"
        );
    }

    #[test]
    fn delivery_times_monotone_and_match_summary() {
        let result = run_simulation(base_cfg(), MiniAimdCc::new(10));
        let times = result.stats.delivery_times();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // The receiver-side count can exceed the sender's `delivered` by at
        // most the packets whose ACKs were still in flight when the run ended.
        let receiver_side = times.len() as u64;
        let sender_side = result.stats.flow().delivered_packets;
        assert!(receiver_side >= sender_side);
        assert!(
            receiver_side - sender_side <= 200,
            "receiver saw {receiver_side}, sender credited {sender_side}"
        );
    }

    #[test]
    fn stats_disabled_still_produces_summary() {
        let mut cfg = base_cfg();
        cfg.record_events = false;
        let result = run_simulation(cfg, MiniAimdCc::new(10));
        assert!(result.stats.log.is_empty());
        assert!(result.stats.flow().delivered_packets > 0);
    }

    #[test]
    fn empty_link_trace_delivers_nothing() {
        let mut cfg = base_cfg();
        cfg.link = LinkModel::TraceDriven {
            trace: LinkTrace::new(Vec::new(), cfg.duration),
        };
        let result = run_simulation(cfg, FixedWindowCc::new(10));
        assert_eq!(result.stats.flow().delivered_packets, 0);
        // The sender will RTO repeatedly but must not hang or panic.
        assert!(result.stats.flow().rto_count > 0);
    }

    #[test]
    fn packet_conservation_at_the_queue() {
        let mut cfg = base_cfg();
        cfg.queue_capacity = QueueCapacity::Packets(30);
        let injections: Vec<SimTime> = (0..1000).map(|i| SimTime::from_micros(i * 4_000)).collect();
        cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
        let result = run_simulation(cfg, MiniAimdCc::new(10));
        let c = result.stats.hop_counters[0];
        assert!(
            c.total_enqueued() >= c.total_dequeued(),
            "cannot dequeue more than was enqueued"
        );
        // Whatever was enqueued was either dequeued or still resident at the
        // end (residual is small: at most the queue capacity).
        assert!(c.total_enqueued() - c.total_dequeued() <= 30);
    }

    // ------------------------------------------------------------------
    // Multi-flow engine
    // ------------------------------------------------------------------

    #[test]
    fn single_flow_and_multi_constructor_agree() {
        // A single-spec `new_multi` must be indistinguishable from `new`.
        let a = run_simulation(base_cfg(), MiniAimdCc::new(10));
        let b = run_multi_flow_simulation(base_cfg(), vec![FlowSpec::new(MiniAimdCc::new(10))]);
        assert_eq!(a.stats.digest(), b.stats.digest());
        assert_eq!(a.stats.events_processed, b.stats.events_processed);
        assert_eq!(a.stats.flows.len(), 1);
    }

    #[test]
    fn legacy_accessors_borrow_flow_zero() {
        let result = run_multi_flow_simulation(
            base_cfg(),
            vec![
                FlowSpec::new(MiniAimdCc::new(10)),
                FlowSpec::new(MiniAimdCc::new(10)),
            ],
        );
        assert_eq!(result.stats.flows.len(), 2);
        assert_eq!(*result.stats.flow(), result.stats.flows[0].summary);
        assert_eq!(
            result.stats.delivery_times(),
            &result.stats.flows[0].delivery_times[..]
        );
    }

    #[test]
    fn two_flows_share_the_bottleneck() {
        let (mss, duration) = (base_cfg().mss, base_cfg().duration);
        let solo = run_simulation(base_cfg(), MiniAimdCc::new(10));
        let pair = run_multi_flow_simulation(
            base_cfg(),
            vec![
                FlowSpec::new(MiniAimdCc::new(10)),
                FlowSpec::new(MiniAimdCc::new(10)),
            ],
        );
        let flows = pair.stats.flows.iter();
        let goodputs: Vec<f64> = flows.map(|f| f.goodput_bps(mss, duration)).collect();
        assert_eq!(goodputs.len(), 2);
        // Each flow gets materially less than the whole link, and together
        // they do not exceed it.
        let total: f64 = goodputs.iter().sum();
        assert!(total < 12.5e6, "total {total}");
        for g in goodputs.iter() {
            assert!(
                *g < solo.average_goodput_bps(mss),
                "a competing flow cannot beat the solo flow: {g}"
            );
            assert!(*g > 1e6, "both flows must make progress: {g}");
        }
    }

    #[test]
    fn late_start_and_early_stop_are_respected() {
        let cfg = base_cfg();
        let start = SimTime::from_secs_f64(2.0);
        let stop = SimTime::from_secs_f64(3.0);
        let result = run_multi_flow_simulation(
            cfg,
            vec![
                FlowSpec::new(MiniAimdCc::new(10)),
                FlowSpec {
                    cc: MiniAimdCc::new(10),
                    start,
                    stop: Some(stop),
                },
            ],
        );
        let late = &result.stats.flows[1];
        assert!(late.summary.transmissions > 0, "the late flow did send");
        assert!(
            late.delivery_times
                .first()
                .map(|t| *t >= start)
                .unwrap_or(true),
            "nothing delivered before the flow started"
        );
        // Nothing new is *sent* after the stop; deliveries can trail by at
        // most the in-flight window draining through queue + link.
        let last = late.delivery_times.last().copied().unwrap_or(SimTime::ZERO);
        assert!(
            last <= stop + SimDuration::from_millis(500),
            "deliveries must cease shortly after stop, last at {last}"
        );
        assert!((late.active_secs(SimDuration::from_secs(5)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_flow_runs_are_deterministic() {
        let run = || {
            let result = run_multi_flow_simulation(
                base_cfg(),
                vec![
                    FlowSpec::new(MiniAimdCc::new(10)),
                    FlowSpec {
                        cc: MiniAimdCc::new(30),
                        start: SimTime::from_millis(500),
                        stop: None,
                    },
                ],
            );
            result.stats.digest()
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Queue disciplines + ECN
    // ------------------------------------------------------------------

    use crate::queue::Qdisc;

    /// A window CCA that records every ECN callback, so the end-to-end
    /// feedback loop (mark at queue -> echo at receiver -> sender callback)
    /// is observable without depending on the real algorithms crate.
    #[derive(Clone, Debug)]
    struct EcnProbeCc {
        window: u64,
        ece_seen: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl CongestionControl for EcnProbeCc {
        fn on_ack(&mut self, _: &crate::cc::CcContext, _: &crate::cc::RateSample) {}
        fn on_congestion(&mut self, _: &crate::cc::CcContext, _: crate::cc::CongestionSignal) {}
        fn on_ecn(&mut self, _: &crate::cc::CcContext, ce_acked: u64) {
            self.ece_seen
                .fetch_add(ce_acked, std::sync::atomic::Ordering::Relaxed);
        }
        fn cwnd(&self) -> u64 {
            self.window
        }
    }

    #[test]
    fn red_with_ecn_marks_and_echoes_end_to_end() {
        let mut cfg = base_cfg();
        cfg.record_events = false;
        cfg.queue_capacity = crate::queue::QueueCapacity::Packets(100);
        cfg.qdisc = Qdisc::Red {
            min_thresh: 5,
            max_thresh: 60,
            mark_probability: 0.5,
        };
        cfg.ecn_enabled = true;
        let ece_seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        // Stop the flow 1 s before the scenario ends so the queue, the link
        // and the delayed-ACK timers drain completely: with an empty
        // network the mark-conservation checks are exact equalities.
        let result = run_multi_flow_simulation(
            cfg,
            vec![FlowSpec {
                cc: EcnProbeCc {
                    window: 200, // deep standing queue, above min_thresh
                    ece_seen: ece_seen.clone(),
                },
                start: SimTime::ZERO,
                stop: Some(SimTime::from_secs_f64(4.0)),
            }],
        );
        let f = result.stats.flow();
        assert!(f.ce_marked > 10, "RED must mark a window-heavy flow: {f:?}");
        assert_eq!(
            f.ce_marked, f.ce_received,
            "in-flight marks all drain after the flow stops"
        );
        assert_eq!(
            f.ce_received, f.ece_echoed,
            "every mark echoed exactly once"
        );
        assert!(f.ece_acked > 0, "the sender processed echoes");
        assert_eq!(
            ece_seen.load(std::sync::atomic::Ordering::Relaxed),
            f.ece_acked,
            "every processed echo reached the congestion controller"
        );
        assert_eq!(result.stats.hop_counters[0].marked_cca, f.ce_marked);
    }

    #[test]
    fn red_without_ecn_drops_instead_of_marking() {
        let mut cfg = base_cfg();
        cfg.record_events = false;
        cfg.qdisc = Qdisc::Red {
            min_thresh: 5,
            max_thresh: 60,
            mark_probability: 0.5,
        };
        cfg.ecn_enabled = false;
        let result = run_simulation(cfg, FixedWindowCc::new(200));
        let f = result.stats.flow();
        assert_eq!(f.ce_marked, 0, "no marks without ECN negotiation");
        assert_eq!(f.ece_acked, 0);
        assert!(
            f.queue_drops > 10,
            "RED sheds the standing queue by dropping instead"
        );
    }

    #[test]
    fn codel_with_ecn_marks_persistent_queues() {
        let mut cfg = base_cfg();
        cfg.record_events = false;
        cfg.qdisc = Qdisc::codel_default();
        cfg.ecn_enabled = true;
        let result = run_multi_flow_simulation(
            cfg,
            vec![FlowSpec {
                cc: FixedWindowCc::new(200),
                start: SimTime::ZERO,
                stop: Some(SimTime::from_secs_f64(4.0)),
            }],
        );
        let f = result.stats.flow();
        assert!(
            f.ce_marked > 5,
            "a 200-packet standing queue must trip CoDel: {f:?}"
        );
        assert_eq!(f.ce_marked, f.ce_received);
        assert_eq!(f.ce_received, f.ece_echoed);
    }

    #[test]
    fn drop_tail_run_digest_is_independent_of_ecn_negotiation() {
        // ECN on a drop-tail path never marks, so the digest must not move:
        // the ECN block only mixes into the digest when marks exist.
        let plain = run_simulation(base_cfg(), MiniAimdCc::new(10));
        let mut cfg = base_cfg();
        cfg.ecn_enabled = true;
        let ecn = run_simulation(cfg, MiniAimdCc::new(10));
        assert_eq!(ecn.stats.flow().ce_marked, 0);
        assert_eq!(plain.stats.digest(), ecn.stats.digest());
    }

    #[test]
    fn aqm_runs_are_deterministic() {
        let run = |qdisc: Qdisc| {
            let mut cfg = base_cfg();
            cfg.record_events = false;
            cfg.qdisc = qdisc;
            cfg.ecn_enabled = true;
            run_simulation(cfg, MiniAimdCc::new(50)).stats.digest()
        };
        for qdisc in [Qdisc::red_default(100), Qdisc::codel_default()] {
            assert_eq!(
                run(qdisc),
                run(qdisc),
                "{} must be deterministic",
                qdisc.name()
            );
        }
    }

    // ------------------------------------------------------------------
    // Multi-hop topology
    // ------------------------------------------------------------------

    use crate::topology::{HopConfig, HopRange, Topology};

    #[test]
    fn explicit_single_hop_topology_matches_legacy_config() {
        // A one-hop topology assembled from the legacy fields must be
        // indistinguishable from the config without a topology: same
        // digest, same event count (the seed of hop 0 is the legacy seed).
        let legacy = run_simulation(base_cfg(), MiniAimdCc::new(10));
        let mut cfg = base_cfg();
        cfg.topology = Some(Topology::chain(vec![HopConfig {
            link: cfg.link.clone(),
            propagation_delay: cfg.propagation_delay,
            queue_capacity: cfg.queue_capacity,
            qdisc: cfg.qdisc,
        }]));
        let topo = run_simulation(cfg, MiniAimdCc::new(10));
        assert_eq!(legacy.stats.digest(), topo.stats.digest());
        assert_eq!(legacy.stats.events_processed, topo.stats.events_processed);
        assert_eq!(topo.stats.hop_counters, legacy.stats.hop_counters);
        assert_eq!(topo.stats.hop_samples, legacy.stats.hop_samples);
    }

    fn chain_cfg(rates_mbps: &[u64]) -> SimConfig {
        let mut cfg = base_cfg();
        cfg.topology = Some(Topology::chain(
            rates_mbps
                .iter()
                .map(|&mbps| {
                    HopConfig::fixed_rate(mbps * 1_000_000, SimDuration::from_millis(10), 100)
                })
                .collect(),
        ));
        cfg
    }

    #[test]
    fn two_hop_chain_delivers_and_conserves_per_hop() {
        // Stop the flow 1 s before the scenario ends so every packet in
        // flight between the hops drains and conservation is exact.
        let cfg = chain_cfg(&[12, 8]);
        let result = run_multi_flow_simulation(
            cfg,
            vec![FlowSpec {
                cc: MiniAimdCc::new(10),
                start: SimTime::ZERO,
                stop: Some(SimTime::from_secs_f64(4.0)),
            }],
        );
        assert!(result.stats.flow().delivered_packets > 100);
        assert_eq!(result.stats.hop_counters.len(), 2);
        let [h0, h1] = [result.stats.hop_counters[0], result.stats.hop_counters[1]];
        // Every packet hop 0 served arrived at hop 1 and was either
        // admitted or dropped there (the inter-hop path loses nothing).
        assert_eq!(
            h0.total_dequeued(),
            h1.total_enqueued() + h1.total_dropped()
        );
        // The second hop is the 8 Mbps bottleneck; goodput respects it.
        let goodput = result.average_goodput_bps(1448);
        assert!(goodput < 8.5e6, "goodput {goodput} exceeds the tight hop");
        assert!(goodput > 4e6, "goodput {goodput} too low for an 8 Mbps hop");
        // Multi-hop runs expose per-hop occupancy samples.
        assert_eq!(result.stats.hop_samples.len(), 2);
        assert!(!result.stats.hop_samples[0].is_empty());
    }

    #[test]
    fn multi_hop_rtt_is_the_sum_of_hop_delays() {
        // Two 10 ms hops = 20 ms one-way = 40 ms RTT, same as the paper's
        // single 20 ms hop; min_rtt must reflect the summed path.
        let cfg = chain_cfg(&[12, 12]);
        let result = run_simulation(cfg, FixedWindowCc::new(2));
        let min_rtt_us = result.stats.flow().min_rtt_us;
        assert!(
            (40_000..46_000).contains(&min_rtt_us),
            "min_rtt {min_rtt_us}us should be ~40ms + serialization"
        );
    }

    #[test]
    fn parking_lot_short_flow_skips_other_hops() {
        // Flow 0 crosses all three hops; flow 1 enters and exits at hop 1.
        let mut cfg = chain_cfg(&[12, 6, 12]);
        cfg.topology.as_mut().unwrap().paths = vec![HopRange::full(3), HopRange::new(1, 1)];
        let result = run_multi_flow_simulation(
            cfg,
            vec![
                FlowSpec::new(MiniAimdCc::new(10)),
                FlowSpec::new(MiniAimdCc::new(10)),
            ],
        );
        let hops = &result.stats.hop_counters;
        assert_eq!(hops.len(), 3);
        // Hops 0 and 2 only ever see flow 0's packets; hop 1 sees both.
        let f0_tx = result.stats.flows[0].summary.transmissions;
        let f1_tx = result.stats.flows[1].summary.transmissions;
        assert!(f1_tx > 0);
        assert_eq!(hops[0].enqueued_cca + hops[0].dropped_cca, f0_tx);
        assert!(hops[1].enqueued_cca + hops[1].dropped_cca >= f1_tx);
        // Everything flow 1 delivered exited after hop 1: hop 2 carries
        // only what hop 1 passed of flow 0.
        assert!(hops[2].enqueued_cca <= hops[1].dequeued_cca);
        // Both flows make progress through the shared 6 Mbps bottleneck.
        let duration = chain_cfg(&[12, 6, 12]).duration;
        let flows = &result.stats.flows;
        assert!(flows[0].goodput_bps(1448, duration) > 0.5e6);
        assert!(flows[1].goodput_bps(1448, duration) > 0.5e6);
    }

    #[test]
    fn multi_hop_runs_are_deterministic_and_digest_hop_sensitive() {
        let run = |rates: &[u64]| {
            run_simulation(chain_cfg(rates), MiniAimdCc::new(10))
                .stats
                .digest()
        };
        assert_eq!(run(&[12, 8]), run(&[12, 8]));
        assert_ne!(
            run(&[12, 8]),
            run(&[8, 12]),
            "hop order shapes behaviour and the digest"
        );
    }

    #[test]
    fn per_hop_red_lotteries_are_independent() {
        // Two RED hops must not mirror each other's mark decisions: their
        // seeded lotteries are forked per hop. The second hop is slower so
        // a standing queue (and therefore marking) develops at both.
        let mut cfg = chain_cfg(&[12, 8]);
        {
            let topo = cfg.topology.as_mut().unwrap();
            for hop in &mut topo.hops {
                hop.qdisc = Qdisc::Red {
                    min_thresh: 2,
                    max_thresh: 90,
                    mark_probability: 0.6,
                };
            }
        }
        cfg.ecn_enabled = true;
        cfg.record_events = false;
        let result = run_multi_flow_simulation(
            cfg,
            vec![FlowSpec {
                cc: FixedWindowCc::new(120),
                start: SimTime::ZERO,
                stop: Some(SimTime::from_secs_f64(4.0)),
            }],
        );
        let hops = &result.stats.hop_counters;
        assert!(hops[0].marked_cca > 0, "first RED hop marks");
        assert!(hops[1].marked_cca > 0, "second RED hop marks");
        assert_ne!(
            hops[0].marked_cca, hops[1].marked_cca,
            "independent lotteries should not coincide exactly"
        );
        // Cascaded marking: the flow counts one mark event per hop, while
        // the receiver sees each CE *packet* once — a packet marked at both
        // hops contributes two mark events but one CE arrival.
        let f = result.stats.flow();
        assert_eq!(f.ce_marked, hops[0].marked_cca + hops[1].marked_cca);
        assert!(f.ce_received > 0 && f.ce_received <= f.ce_marked);
        assert_eq!(f.ce_received, f.ece_echoed, "every CE arrival echoed once");
    }

    // ------------------------------------------------------------------
    // The run log
    // ------------------------------------------------------------------

    use crate::stats::TransportEvent;

    fn run_unrecorded(mut cfg: SimConfig, cc: MiniAimdCc) -> SimResult {
        cfg.record_events = false;
        run_simulation(cfg, cc)
    }

    fn count(result: &SimResult, pred: impl Fn(&LogRecord) -> bool) -> u64 {
        result.stats.log.iter().filter(|r| pred(r)).count() as u64
    }

    #[test]
    fn recorded_run_digest_matches_unrecorded_run() {
        // Recording is a pure observer: digests and event counts are
        // byte-identical with and without it, for drop-tail and AQM+ECN.
        let plain = run_unrecorded(base_cfg(), MiniAimdCc::new(50));
        let recorded = run_simulation(base_cfg(), MiniAimdCc::new(50));
        assert_eq!(plain.stats.digest(), recorded.stats.digest());
        assert_eq!(
            plain.stats.events_processed,
            recorded.stats.events_processed
        );
        assert!(plain.stats.log.is_empty() && !recorded.stats.log.is_empty());

        let mut aqm_cfg = base_cfg();
        aqm_cfg.qdisc = Qdisc::red_default(100);
        aqm_cfg.ecn_enabled = true;
        let plain = run_unrecorded(aqm_cfg.clone(), MiniAimdCc::new(50));
        let recorded = run_simulation(aqm_cfg, MiniAimdCc::new(50));
        assert_eq!(plain.stats.digest(), recorded.stats.digest());
    }

    #[test]
    fn log_captures_cwnd_samples_and_every_drop() {
        let mut cfg = base_cfg();
        cfg.queue_capacity = QueueCapacity::Packets(20);
        let result = run_simulation(cfg, MiniAimdCc::new(200));
        assert!(result.stats.flow().queue_drops > 0);
        let cwnds: Vec<u64> = (result.stats.log.iter())
            .filter_map(|r| match r.event {
                LogEvent::Cwnd { cwnd, .. } => Some(cwnd),
                _ => None,
            })
            .collect();
        assert!(cwnds.len() > 1, "cwnd samples recorded");
        assert!(
            cwnds.windows(2).all(|w| w[0] != w[1]),
            "only moves are logged"
        );
        assert!(
            !result.stats.hop_samples[0].is_empty(),
            "queue samples kept"
        );
        // Records come out in time order, and every CCA drop is in the log.
        assert!(result.stats.log.windows(2).all(|w| w[0].at <= w[1].at));
        let drops = count(&result, |r| {
            r.flow == FlowId::Cca(0)
                && matches!(
                    r.event,
                    LogEvent::Queue {
                        event: BottleneckEvent::Dropped,
                        ..
                    }
                )
        });
        assert_eq!(drops, result.stats.flow().queue_drops);
        let rtos = count(&result, |r| {
            matches!(
                r.event,
                LogEvent::Transport(TransportEvent::RtoFired { .. })
            )
        });
        assert_eq!(rtos, result.stats.flow().rto_count);
    }

    #[test]
    fn log_captures_ecn_marks_and_recovery_transitions() {
        let mut cfg = base_cfg();
        cfg.qdisc = Qdisc::Red {
            min_thresh: 5,
            max_thresh: 60,
            mark_probability: 0.5,
        };
        cfg.ecn_enabled = true;
        let result = run_simulation(cfg, MiniAimdCc::new(120));
        assert!(result.stats.flow().ce_marked > 0);
        let marks = count(&result, |r| {
            matches!(
                r.event,
                LogEvent::Queue {
                    event: BottleneckEvent::Marked,
                    ..
                }
            )
        });
        assert_eq!(marks, result.stats.flow().ce_marked, "ECN marks recorded");
        // A 120-packet AIMD window over a 100-packet queue loses packets
        // and recovers; the state transitions show up in the log.
        let transport = |e: TransportEvent| count(&result, |r| r.event == LogEvent::Transport(e));
        let (enters, exits) = (
            transport(TransportEvent::EnterRecovery),
            transport(TransportEvent::ExitRecovery),
        );
        assert_eq!(enters, result.stats.flow().recovery_episodes);
        assert!(exits > 0 && exits <= enters);
    }

    #[test]
    fn per_flow_transmissions_match_the_gateway_counters() {
        // Conservation: every transmitted packet of every flow reaches the
        // gateway and is either enqueued or dropped there.
        let mut cfg = base_cfg();
        cfg.queue_capacity = QueueCapacity::Packets(25);
        let injections: Vec<SimTime> = (0..800).map(|i| SimTime::from_micros(i * 5_000)).collect();
        cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
        let result = run_multi_flow_simulation(
            cfg,
            vec![
                FlowSpec::new(MiniAimdCc::new(10)),
                FlowSpec::new(MiniAimdCc::new(40)),
                FlowSpec {
                    cc: MiniAimdCc::new(5),
                    start: SimTime::from_secs_f64(1.0),
                    stop: Some(SimTime::from_secs_f64(4.0)),
                },
            ],
        );
        let c = result.stats.hop_counters[0];
        let sent: u64 = result
            .stats
            .flows
            .iter()
            .map(|f| f.summary.transmissions)
            .sum();
        let drops: u64 = result
            .stats
            .flows
            .iter()
            .map(|f| f.summary.queue_drops)
            .sum();
        assert_eq!(sent, c.enqueued_cca + c.dropped_cca);
        assert_eq!(drops, c.dropped_cca);
    }

    // ------------------------------------------------------------------
    // Dynamic-flow workload (flow churn engine)
    // ------------------------------------------------------------------

    use crate::workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

    fn workload_cfg(rate_per_sec: f64, max_concurrent: u32) -> SimConfig {
        let mut cfg = SimConfig::short_default();
        cfg.arrivals = Some(ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_per_sec },
            size: SizeDistribution {
                shape: 1.2,
                min_packets: 2,
                max_packets: 200,
            },
            mice_threshold_packets: 32,
            max_concurrent,
            max_arrivals: 100_000,
        });
        cfg
    }

    /// Loads the workload `cfg`, with one static flow, into `sim` and runs it.
    fn run_workload_in(sim: &mut Simulation<MiniAimdCc>, cfg: SimConfig) -> &SimResult {
        let mut specs = vec![FlowSpec::new(MiniAimdCc::new(10))];
        sim.load(cfg, &mut specs, &mut vec![MiniAimdCc::new(4)]);
        sim.run();
        sim.result()
    }

    /// [`run_workload_in`] on a fresh arena.
    fn run_workload(cfg: SimConfig) -> SimResult {
        let mut sim = Simulation::default();
        run_workload_in(&mut sim, cfg);
        sim.into_result()
    }

    #[test]
    fn workload_spawns_and_completes_flows() {
        let result = run_workload(workload_cfg(60.0, 32));
        let w = result.stats.workload().expect("workload stats");
        // 60 arrivals/s over 5 s: the process is random, but far from the
        // tails — well over 100 spawns, and most mice finish within the run.
        assert!(w.spawned > 100, "spawned {}", w.spawned);
        assert!(w.completed() > 50, "completed {}", w.completed());
        assert!(w.completed() <= w.spawned);
        assert_eq!(w.spawned, w.completed() + w.active_at_end());
        assert!(!w.samples.is_empty());
        // Per-flow conservation folds into the aggregates at recycle time.
        assert_eq!(w.completed_tx, w.completed_delivered + w.completed_dropped);
        assert!(w.completed_tx > 0);
        // The static background flow still makes progress and is the only
        // flow surfaced per-flow.
        assert_eq!(result.stats.flows.len(), 1);
        assert!(result.stats.flow().delivered_packets > 0);
    }

    #[test]
    fn workload_stats_absent_without_arrivals() {
        let result = run_simulation(base_cfg(), MiniAimdCc::new(10));
        assert!(result.stats.workload().is_none());
        assert_eq!(result.stats.delivery_samples_dropped, 0);
    }

    #[test]
    fn workload_is_deterministic_and_scratch_reuse_is_bit_identical() {
        let fresh = run_workload(workload_cfg(60.0, 32));
        let mut sim = Simulation::default();
        for _ in 0..3 {
            let reused = run_workload_in(&mut sim, workload_cfg(60.0, 32));
            assert_eq!(fresh.stats.digest(), reused.stats.digest());
            assert_eq!(fresh.stats.events_processed, reused.stats.events_processed);
            let (a, b) = (
                fresh.stats.workload().unwrap(),
                reused.stats.workload().unwrap(),
            );
            assert_eq!(a.spawned, b.spawned);
            assert_eq!(a.completed(), b.completed());
            assert_eq!(a.fct_mice.count(), b.fct_mice.count());
        }
    }

    #[test]
    fn workload_seed_changes_digest() {
        let a = run_workload(workload_cfg(60.0, 32));
        let mut cfg = workload_cfg(60.0, 32);
        cfg.seed ^= 0xDEAD_BEEF;
        let b = run_workload(cfg);
        assert_ne!(a.stats.digest(), b.stats.digest());
    }

    #[test]
    fn workload_concurrency_cap_recycles_slots() {
        // A tiny concurrency cap under a heavy arrival rate: the engine must
        // shed arrivals (capped) and keep running flows through recycled
        // slots instead of growing the flow table.
        let result = run_workload(workload_cfg(200.0, 4));
        let w = result.stats.workload().expect("workload stats");
        assert!(w.capped > 0, "a 4-slot cap under 200/s must shed arrivals");
        assert!(
            w.completed() > 4,
            "slots must recycle: completed {}",
            w.completed()
        );
        assert!(w.active_at_end() <= 4);
    }

    #[test]
    fn workload_max_arrivals_caps_attempts() {
        let mut cfg = workload_cfg(200.0, 32);
        cfg.arrivals.as_mut().unwrap().max_arrivals = 7;
        let result = run_workload(cfg);
        let w = result.stats.workload().expect("workload stats");
        assert_eq!(w.spawned + w.capped, 7);
    }

    #[test]
    fn workload_onoff_process_also_completes_flows() {
        let mut cfg = workload_cfg(120.0, 32);
        cfg.arrivals.as_mut().unwrap().process = ArrivalProcess::OnOff {
            rate_per_sec: 120.0,
            mean_on_secs: 0.5,
            mean_off_secs: 0.5,
        };
        let result = run_workload(cfg.clone());
        let w = result.stats.workload().expect("workload stats");
        assert!(w.spawned > 20, "spawned {}", w.spawned);
        assert!(w.completed() > 0);
        // Determinism holds for the bursty process too.
        let again = run_workload(cfg);
        assert_eq!(result.stats.digest(), again.stats.digest());
    }

    #[test]
    fn workload_mice_finish_faster_than_elephants() {
        let result = run_workload(workload_cfg(60.0, 32));
        let w = result.stats.workload().expect("workload stats");
        if w.fct_mice.count() > 10 && w.fct_elephants.count() > 3 {
            assert!(
                w.fct_mice.percentile_nanos(50.0) < w.fct_elephants.percentile_nanos(50.0),
                "median mouse FCT must undercut median elephant FCT"
            );
        }
    }

    #[test]
    fn load_refuses_arrivals_without_prototypes_and_prototypes_without_arrivals() {
        let refusal = |cfg: SimConfig, protos: Vec<MiniAimdCc>| {
            let err = std::panic::catch_unwind(move || {
                let mut specs = vec![FlowSpec::new(MiniAimdCc::new(10))];
                Simulation::default().load(cfg, &mut specs, &mut { protos });
            })
            .expect_err("load must refuse the run");
            *err.downcast::<&str>().expect("a message")
        };
        let message = refusal(workload_cfg(60.0, 32), Vec::new());
        assert!(message.contains("SimConfig::arrivals"), "{message}");
        assert!(message.contains("protos"), "{message}");
        let message = refusal(base_cfg(), vec![MiniAimdCc::new(4)]);
        assert!(message.contains("protos"), "{message}");
        assert!(message.contains("SimConfig::arrivals"), "{message}");
    }

    // ------------------------------------------------------------------
    // One count per event
    // ------------------------------------------------------------------

    #[test]
    fn every_run_keeps_one_sample_series_and_one_counter_set_per_hop() {
        let check = |result: &SimResult, hops: usize| {
            assert_eq!(result.stats.hop_counters.len(), hops);
            assert_eq!(result.stats.hop_samples.len(), hops);
            assert!(result.stats.hop_samples.iter().all(|s| !s.is_empty()));
        };
        for (cfg, hops) in [(base_cfg(), 1), (chain_cfg(&[12, 8, 10]), 3)] {
            check(&run_simulation(cfg, MiniAimdCc::new(10)), hops);
        }
        let result = run_workload(workload_cfg(60.0, 32));
        check(&result, 1);
        let w = result.stats.workload().expect("workload stats");
        assert!(w.completed() > 0);
        assert_eq!(w.completed(), w.fct_mice.count() + w.fct_elephants.count());
        assert_eq!(w.active_at_end(), w.spawned - w.completed());
    }

    #[test]
    fn cross_traffic_drops_equal_the_logged_drops() {
        let mut cfg = base_cfg();
        cfg.qdisc = Qdisc::codel_default();
        let injections: Vec<SimTime> = (0..2500).map(|i| SimTime::from_micros(i * 2_000)).collect();
        cfg.cross_traffic = TrafficTrace::new(injections, cfg.duration);
        let result = run_simulation(cfg, FixedWindowCc::new(200));
        let logged = count(&result, |r| {
            r.flow == FlowId::CrossTraffic
                && matches!(
                    r.event,
                    LogEvent::Queue {
                        event: BottleneckEvent::Dropped,
                        ..
                    }
                )
        });
        assert!(logged > 0, "CoDel must shed cross traffic");
        assert_eq!(result.stats.cross_dropped, logged);
        assert_eq!(result.stats.hop_counters[0].dropped_cross, logged);
    }
}
