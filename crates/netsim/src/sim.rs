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
//! through the legacy accessors [`RunStats::flow`] and
//! [`RunStats::delivery_times`] (which borrow from `flows[0]` — nothing is
//! copied at the end of a run).
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
use crate::packet::{AckPacket, DataPacket, FlowId, PacketPool};
use crate::queue::{EnqueueOutcome, GatewayQueue};
use crate::rng::SimRng;
use crate::stats::{
    BottleneckEvent, FctSample, FlowRates, FlowStats, LogEvent, LogRecord, RunStats, WorkloadStats,
};
use crate::tcp::receiver::{ReceiverConfig, TcpReceiver};
use crate::tcp::sender::{SendPoll, SenderConfig, TcpSender};
use crate::time::{SimDuration, SimTime};
use crate::topology::{hop_seed, HopConfig, HopRange};
use crate::trace::TrafficTrace;
use crate::workload::{
    dyn_generation, dyn_handle, dyn_slot, exp_duration, is_dynamic, ArrivalConfig, ArrivalProcess,
    GEN_MODULUS,
};
use std::collections::VecDeque;

/// Per-flow retention cap on sink-side delivery timestamps. Far above what
/// any classic (≤ 32 flow, seconds-long) scenario can deliver, so existing
/// digests never see it; its job is bounding memory when a pathological
/// config would otherwise accumulate millions of samples in one flow.
const MAX_DELIVERY_SAMPLES_PER_FLOW: usize = 1 << 20;

/// The outcome of a simulation run.
#[derive(Clone, Debug)]
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

    /// Per-flow goodput (sink-side, normalised by each flow's active
    /// interval), in bits per second. Returns an inline-array
    /// [`FlowRates`], so the common single-flow (and up-to-four-flow) case
    /// performs no allocation.
    pub fn per_flow_goodput_bps(&self, mss: u32) -> FlowRates {
        let duration = crate::time::SimDuration::from_secs_f64(self.duration_secs);
        let mut rates = FlowRates::new();
        for f in &self.stats.flows {
            rates.push(f.goodput_bps(mss, duration));
        }
        rates
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

/// Per-flow drop/mark/delivery counters, bumped from the queue and sink
/// paths. Grouped in one 24-byte record (three counters that are always
/// touched together) so a counter bump loads exactly one cache line slot.
#[derive(Clone, Copy, Default)]
struct FlowCounters {
    /// Packets of this flow dropped at the bottleneck queue.
    queue_drops: u64,
    /// Packets of this flow CE-marked at the bottleneck queue.
    ce_marked: u64,
    /// Data packets of this flow received at the sink (incl. duplicates).
    sink_received: u64,
}

/// Per-flow runtime state in struct-of-arrays layout.
///
/// The event loop touches exactly one facet of a flow per event — its timer
/// dedupe slot on a timer pop, its sender on an ACK, its counters on a drop.
/// Splitting the former array-of-`FlowRuntime` into parallel vectors means
/// each of those accesses walks a dense homogeneous array instead of
/// striding over whole flow records (sender + receiver together are several
/// hundred bytes), so the hot scalar state of all N flows shares a handful
/// of cache lines.
struct FlowTable<C: CongestionControl> {
    senders: Vec<TcpSender<C>>,
    receivers: Vec<TcpReceiver>,
    start: Vec<SimTime>,
    stop: Vec<Option<SimTime>>,
    /// Dedupe for pacing timer events.
    pacing_scheduled: Vec<Option<SimTime>>,
    /// Last RTO (deadline, generation) scheduled as an event.
    rto_scheduled: Vec<Option<(SimTime, u64)>>,
    /// Sink-side first-delivery times.
    delivery_times: Vec<Vec<SimTime>>,
    /// Drop / mark / sink counters.
    counters: Vec<FlowCounters>,
    /// Each static flow's last logged cwnd sample (0 = none yet).
    sampled_cwnd: Vec<u64>,
}

impl<C: CongestionControl> FlowTable<C> {
    fn len(&self) -> usize {
        self.senders.len()
    }

    #[inline]
    fn stopped(&self, flow: usize, now: SimTime) -> bool {
        self.stop[flow].map(|t| now >= t).unwrap_or(false)
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
            delivery_times: Vec::new(),
            counters: Vec::new(),
            sampled_cwnd: Vec::new(),
        }
    }
}

/// The dynamic-flow slab: bookkeeping for slots that spawn, complete and
/// recycle during a workload run (see [`crate::workload`]).
///
/// Slot `s` owns the [`FlowTable`] entry at index `base + s` (where `base`
/// is the static flow count), so dynamic flows reuse all the per-flow
/// machinery — senders, receivers, timer dedupe slots, counters — that
/// static flows use. The slab only adds lifecycle state: a recycle
/// generation that invalidates stale timer events, the flow's byte budget,
/// and an `in_network` reference count (data packets in queues/links plus
/// ACKs in flight) that defers recycling until nothing in the simulation
/// can still name the slot. Per-event cost is O(active): completed and
/// recycled slots are never iterated, and the slab never grows past the
/// configured concurrency cap — the peak *concurrent* population, not the
/// total arrival count, bounds both memory and bookkeeping.
#[derive(Default)]
struct FlowSlab {
    /// Recycled slot indices available for the next spawn.
    free: Vec<u32>,
    /// Per-slot recycle generation (wraps at [`GEN_MODULUS`]).
    generation: Vec<u16>,
    /// Per-slot transfer size in packets.
    budget: Vec<u64>,
    /// Per-slot spawn time (FCT = completion − spawn).
    spawned_at: Vec<SimTime>,
    /// Per-slot count of this flow's packets/ACKs still inside the
    /// simulation; the slot recycles only once complete *and* zero.
    in_network: Vec<u32>,
    /// Per-slot completion flag (whole budget cumulatively ACKed).
    complete: Vec<bool>,
}

impl FlowSlab {
    /// Slots currently live: allocated and not yet recycled.
    fn live(&self) -> usize {
        self.generation.len() - self.free.len()
    }

    /// Clears all slots, keeping every vector's capacity for the next run.
    fn clear(&mut self) {
        self.free.clear();
        self.generation.clear();
        self.budget.clear();
        self.spawned_at.clear();
        self.in_network.clear();
        self.complete.clear();
    }
}

/// Runtime state of the workload arrival process (present only when
/// `SimConfig::arrivals` is configured and prototypes were installed).
struct WorkloadRt {
    cfg: ArrivalConfig,
    /// Arrival/size randomness, forked off the scenario seed.
    rng: SimRng,
    /// Independent stream for reservoir sampling, so retaining samples
    /// never perturbs the arrival process.
    reservoir_rng: SimRng,
    /// Index of the first dynamic slot in the flow table (= static count).
    base: usize,
    /// ON/OFF process: end of the current ON burst (`SimTime::MAX` for
    /// Poisson).
    on_until: SimTime,
    /// Path of every dynamic flow: the whole chain.
    dyn_path: HopRange,
    /// ACK return delay along that path.
    dyn_ack_delay: SimDuration,
    /// Sender config template; `buffer_packets` is overridden per spawn
    /// with the flow's sampled size (application-limited transfer).
    sender_cfg: SenderConfig,
    receiver_cfg: ReceiverConfig,
}

impl WorkloadRt {
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

/// The sender and receiver settings every flow derives from the scenario.
fn endpoint_configs(cfg: &SimConfig) -> (SenderConfig, ReceiverConfig) {
    let sender = SenderConfig {
        mss: cfg.mss,
        sack_enabled: cfg.sack_enabled,
        min_rto: cfg.min_rto,
        max_rto: cfg.max_rto,
        initial_rto: cfg.initial_rto,
        initial_cwnd: cfg.initial_cwnd,
        buffer_packets: cfg.sender_buffer_packets,
        record_log: cfg.record_events,
        ecn_enabled: cfg.ecn_enabled,
    };
    let receiver = ReceiverConfig {
        sack_enabled: cfg.sack_enabled,
        delayed_ack: cfg.delayed_ack,
        delayed_ack_count: cfg.delayed_ack_count,
        delayed_ack_timeout: cfg.delayed_ack_timeout,
        max_sack_blocks: 4,
    };
    (sender, receiver)
}

/// The dumbbell simulation, generic over the congestion-control type shared
/// by its flows — and, in the same value, the per-worker *generation arena*.
///
/// [`Simulation::load`] resets the last run's state in place: the calendar,
/// the packet pool, the flow endpoints (senders keep their retransmission
/// queues, receivers their SACK buffers), the hop chain and its FIFO rings,
/// the flow slab and a cleared [`RunStats`] skeleton. A shared pool of
/// `SimTime` vectors cycles between delivery logs, cross-traffic injections
/// and trace-driven service curves. A batch driver keeps one `Simulation`
/// per worker and loads every evaluation into it; after warm-up a whole
/// generate → evaluate → select generation runs through one recycled
/// allocation set. Results are bit-identical whether the simulation is
/// fresh or reused: reuse only donates capacity, never state.
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
    stats: RunStats,
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
    /// Arrival-process runtime state; `Some` once
    /// [`Simulation::install_arrivals`] has run.
    workload: Option<WorkloadRt>,
    /// Hop configs drained out of the loaded config (capacity only).
    hop_cfgs: Vec<HopConfig>,
    /// FIFO rings of the last run's hops, adopted by the next chain.
    queue_bufs: Vec<VecDeque<DataPacket>>,
    /// Shared pool of timestamp vectors: per-flow delivery logs, cross
    /// traffic injection traces and link service curves all draw from (and
    /// return to) this one free list.
    time_bufs: Vec<Vec<SimTime>>,
    /// Cleared [`WorkloadStats`] skeleton recycled between workload runs.
    spare_workload: Option<Box<WorkloadStats>>,
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
            stats: RunStats::default(),
            finished: true,
            aqm_drop_buf: Vec::new(),
            slab: FlowSlab::default(),
            protos: Vec::new(),
            workload: None,
            hop_cfgs: Vec::new(),
            queue_bufs: Vec::new(),
            time_bufs: Vec::new(),
            spare_workload: None,
        }
    }
}

impl<C: CongestionControl + Clone> Simulation<C> {
    /// Builds a single-flow simulation from a configuration and a congestion
    /// controller (the paper's original topology). The flow starts at
    /// `cfg.flow_start` and runs to the end of the scenario.
    pub fn new(cfg: SimConfig, cc: C) -> Self {
        let start = cfg.flow_start;
        Self::new_multi(
            cfg,
            vec![FlowSpec {
                cc,
                start,
                stop: None,
            }],
        )
    }

    /// Builds a simulation with N concurrent congestion-controlled flows
    /// sharing the bottleneck. Flow indices follow the order of `specs`.
    pub fn new_multi(cfg: SimConfig, mut specs: Vec<FlowSpec<C>>) -> Self {
        let mut sim = Self::default();
        sim.load(cfg, &mut specs);
        sim
    }

    /// Loads the next run: resets every piece of the last run's state in
    /// place and builds this configuration's flows and hops from the
    /// retained storage, so in steady state a complete multi-flow, multi-hop
    /// simulation is set up without touching the allocator. Drains `specs`
    /// (leaving the caller's vector empty but with its capacity, ready to
    /// refill).
    pub fn load(&mut self, cfg: SimConfig, specs: &mut Vec<FlowSpec<C>>) {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        assert!(!specs.is_empty(), "a simulation needs at least one flow");
        let n = specs.len();
        self.cfg = cfg;
        self.finished = false;
        self.workload = None;
        self.events.reset();
        self.pool.reset();
        self.aqm_drop_buf.clear();
        // Generations restart at zero so a warm run replays a cold run's
        // handle stream bit-identically.
        self.slab.clear();

        // The hop chain, built by *draining* the hop configs: the simulation
        // owns its configuration, so the link models (a trace-driven
        // service curve is ~41 KB at 5 s) move into the hops instead of
        // being cloned. FIFO storage comes from the last run's hops.
        self.cfg.take_hop_configs_into(&mut self.hop_cfgs);
        self.queue_bufs
            .extend(self.hops.drain(..).map(|h| h.queue.into_storage()));
        for (k, h) in self.hop_cfgs.drain(..).enumerate() {
            let storage = self.queue_bufs.pop().unwrap_or_default();
            self.hops.push(Hop {
                queue: GatewayQueue::new_with_storage(
                    h.qdisc,
                    h.queue_capacity,
                    hop_seed(self.cfg.seed, k),
                    storage,
                ),
                link: LinkService::new(h.link),
                propagation_delay: h.propagation_delay,
                ready_scheduled: None,
            });
        }
        self.pool.set_hop_count(self.hops.len());
        self.paths.clear();
        self.paths.extend((0..n).map(|i| self.cfg.flow_path(i)));
        self.ack_delays.clear();
        self.ack_delays.extend(self.paths.iter().map(|p| {
            self.hops[p.entry as usize..=p.exit as usize]
                .iter()
                .fold(SimDuration::ZERO, |acc, h| acc + h.propagation_delay)
        }));

        // Workload runs keep endpoint entries beyond the static count: they
        // are last run's dynamic slots, reclaimed in place (keeping their
        // buffers) as this run's arrivals spawn.
        let flows = &mut self.flows;
        flows.start.clear();
        flows.stop.clear();
        flows.pacing_scheduled.clear();
        flows.pacing_scheduled.resize(n, None);
        flows.rto_scheduled.clear();
        flows.rto_scheduled.resize(n, None);
        flows.delivery_times.clear();
        flows.counters.clear();
        flows.counters.resize(n, FlowCounters::default());
        flows.sampled_cwnd.clear();
        flows.sampled_cwnd.resize(n, 0);
        if self.cfg.arrivals.is_none() {
            flows.senders.truncate(n);
            flows.receivers.truncate(n);
        }
        // Pre-size each flow's delivery log from the tightest hop *on its
        // own path* (a parking-lot flow that skips the slow hop can deliver
        // far more than the chain's global bottleneck allows) so the hot
        // loop never grows it.
        let (secs, mss) = (self.cfg.duration.as_secs_f64(), self.cfg.mss as f64);
        let hop_capacity = |h: &Hop| match h.link.model() {
            LinkModel::FixedRate { rate_bps } => ((*rate_bps as f64 / 8.0) * secs / mss) as usize,
            LinkModel::TraceDriven { trace } => trace.len(),
        };
        let (sender_cfg, receiver_cfg) = endpoint_configs(&self.cfg);
        for (i, (spec, p)) in specs.drain(..).zip(&self.paths).enumerate() {
            // Retained endpoints are reset in place (keeping their queues'
            // capacity); extra flows beyond the retained count are built
            // fresh.
            match flows.senders.get_mut(i) {
                Some(sender) => sender.reset_reusing(sender_cfg, spec.cc),
                None => flows.senders.push(TcpSender::new(sender_cfg, spec.cc)),
            }
            match flows.receivers.get_mut(i) {
                Some(receiver) => receiver.reset_reusing(receiver_cfg),
                None => flows.receivers.push(TcpReceiver::new(receiver_cfg)),
            }
            flows.start.push(spec.start);
            flows.stop.push(spec.stop);
            let tightest = self.hops[p.entry as usize..=p.exit as usize]
                .iter()
                .map(hop_capacity)
                .min()
                .unwrap_or(0);
            let mut delivery = self.time_bufs.pop().unwrap_or_default();
            delivery.reserve(tightest.min(1 << 22) / n + 64);
            flows.delivery_times.push(delivery);
        }

        // Whatever the last run left in the stats (normally the skeleton
        // `recycle_stats` returned) is recycled, then pre-sized.
        let stale = std::mem::take(&mut self.stats);
        self.recycle_stats(stale);
        let stats = &mut self.stats;
        stats.flows.reserve(n);
        let sample_capacity =
            (self.cfg.duration.as_nanos() / self.cfg.stats_interval.as_nanos().max(1)) as usize + 2;
        stats.queue_samples.reserve(sample_capacity);
        if self.hops.len() > 1 {
            stats.hop_samples.truncate(self.hops.len());
            for samples in &mut stats.hop_samples {
                samples.reserve(sample_capacity);
            }
            while stats.hop_samples.len() < self.hops.len() {
                stats.hop_samples.push(Vec::with_capacity(sample_capacity));
            }
        } else {
            stats.hop_samples.clear();
        }
    }

    /// Arms the dynamic-flow workload: must be called (with at least one
    /// congestion-controller prototype) before [`Simulation::run`] whenever
    /// `SimConfig::arrivals` is configured. Each arrival clones one
    /// prototype, picked uniformly — weight a CCA by listing it several
    /// times. Drains `protos`, keeping the caller's vector and capacity.
    pub fn install_arrivals(&mut self, protos: &mut Vec<C>) {
        assert!(!self.finished, "install_arrivals must precede run");
        let cfg = self
            .cfg
            .arrivals
            .expect("install_arrivals requires SimConfig::arrivals");
        assert!(
            !protos.is_empty(),
            "a workload needs at least one CCA prototype"
        );
        self.protos.clear();
        self.protos.append(protos);
        let root = SimRng::new(self.cfg.seed);
        let mut rng = root.fork(0xA221_57AD);
        let reservoir_rng = root.fork(0x5E5E_0115);
        let on_until = match cfg.process {
            ArrivalProcess::Poisson { .. } => SimTime::MAX,
            ArrivalProcess::OnOff { mean_on_secs, .. } => {
                SimTime::ZERO + exp_duration(1.0 / mean_on_secs, &mut rng)
            }
        };
        let dyn_path = HopRange {
            entry: 0,
            exit: (self.hops.len() - 1) as u32,
        };
        let dyn_ack_delay = self
            .hops
            .iter()
            .fold(SimDuration::ZERO, |acc, h| acc + h.propagation_delay);
        let (sender_cfg, receiver_cfg) = endpoint_configs(&self.cfg);
        let sender_cfg = SenderConfig {
            buffer_packets: 1, // overridden with the sampled size per spawn
            ..sender_cfg
        };
        let mut w = self.spare_workload.take().unwrap_or_default();
        w.clear();
        self.stats.workload = Some(w);
        self.workload = Some(WorkloadRt {
            cfg,
            rng,
            reservoir_rng,
            base: self.flows.start.len(),
            on_until,
            dyn_path,
            dyn_ack_delay,
            sender_cfg,
            receiver_cfg,
        });
    }

    /// Takes a cleared timestamp buffer from the shared pool (or a fresh one
    /// when the pool is empty). Callers use it to build traces or logs and
    /// the buffer eventually returns through
    /// [`Simulation::recycle_time_buf`], the end of a run, or
    /// [`Simulation::recycle_stats`].
    pub fn take_time_buf(&mut self) -> Vec<SimTime> {
        self.time_bufs.pop().unwrap_or_default()
    }

    /// Timestamp buffers currently idle in the shared pool. A steady-state
    /// evaluation loop takes and returns the same number, so this stays
    /// flat from one evaluation to the next.
    pub fn pooled_time_bufs(&self) -> usize {
        self.time_bufs.len()
    }

    /// Returns a timestamp buffer to the shared pool. Buffers without
    /// capacity are dropped (nothing to recycle).
    pub fn recycle_time_buf(&mut self, mut buf: Vec<SimTime>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        self.time_bufs.push(buf);
    }

    /// Recycles a finished run's [`RunStats`] once the caller has extracted
    /// everything it needs: per-flow delivery logs return to the timestamp
    /// pool and the cleared skeleton (vectors keeping their capacity,
    /// counters zeroed) seeds the next run's statistics. The next run's
    /// results are bit-identical whether or not its stats came from here.
    pub fn recycle_stats(&mut self, stats: RunStats) {
        let RunStats {
            mut log,
            mut queue_samples,
            queue_counters: _,
            mut hop_counters,
            mut hop_samples,
            mut flows,
            cross_delivered: _,
            cross_dropped: _,
            truncated: _,
            events_processed: _,
            delivery_samples_dropped: _,
            workload,
        } = stats;
        if let Some(mut w) = workload {
            w.clear();
            self.spare_workload = Some(w);
        }
        for flow in flows.drain(..) {
            self.recycle_time_buf(flow.delivery_times);
        }
        log.clear();
        queue_samples.clear();
        hop_counters.clear();
        for samples in &mut hop_samples {
            samples.clear();
        }
        self.stats = RunStats {
            log,
            queue_samples,
            hop_counters,
            hop_samples,
            flows,
            ..RunStats::default()
        };
    }

    /// Number of congestion-controlled flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of hops on the simulated path (1 without a topology).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The path of CCA flow `flow` over the hop chain.
    pub fn path_of(&self, flow: usize) -> HopRange {
        self.paths[flow]
    }

    /// Immutable access to the primary flow's sender (e.g. to inspect CCA
    /// state mid-run in tests).
    pub fn sender(&self) -> &TcpSender<C> {
        &self.flows.senders[0]
    }

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
            self.stats.log.push(LogRecord {
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
            self.stats
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
            self.stats.log.push(LogRecord {
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
        let rt = self.workload.as_ref()?;
        (self.slab.generation.get(slot) == Some(&dyn_generation(raw))).then(|| rt.base + slot)
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
        match &self.workload {
            Some(rt) if idx >= rt.base => {
                let slot = idx - rt.base;
                dyn_handle(slot as u16, self.slab.generation[slot])
            }
            _ => idx as u32,
        }
    }

    /// Whether a flow should ignore ACKs, timers and send opportunities:
    /// past its scheduled stop (static flows) or already complete (dynamic
    /// flows, which have no stop schedule).
    #[inline]
    fn flow_inactive(&self, idx: usize, now: SimTime) -> bool {
        if let Some(rt) = &self.workload {
            if idx >= rt.base {
                return self.slab.complete[idx - rt.base];
            }
        }
        self.flows.stopped(idx, now)
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
        match flow {
            FlowId::CrossTraffic => self.stats.cross_dropped += 1,
            FlowId::Cca(raw) => {
                let idx = self.cca_index(raw);
                self.flows.counters[idx].queue_drops += 1;
                if is_dynamic(raw) {
                    self.dyn_packet_gone(dyn_slot(raw));
                }
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
        if self.flow_inactive(flow, now) {
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
                        self.events.schedule(
                            t,
                            Event::PacingTimer {
                                flow: raw,
                                generation: 0,
                            },
                        );
                        self.flows.pacing_scheduled[flow] = Some(t);
                    }
                    break;
                }
                SendPoll::Blocked => break,
            }
        }
        self.sync_rto_timer(flow);
    }

    fn deliver_ack_to_sender(&mut self, flow: usize, ack: AckPacket, now: SimTime) {
        if self.flow_inactive(flow, now) {
            return;
        }
        self.flows.senders[flow].on_ack(&ack, now);
        self.flush_sender_log(flow);
        self.pump_sender(flow, now);
    }

    fn handle_sink_arrival(&mut self, pkt: DataPacket, now: SimTime) {
        match pkt.flow {
            FlowId::CrossTraffic => {
                self.stats.cross_delivered += 1;
            }
            FlowId::Cca(raw) => {
                let idx = self.cca_index(raw);
                self.flows.counters[idx].sink_received += 1;
                let out = self.flows.receivers[idx].on_data(&pkt, now);
                // Dynamic flows record completion times through the bounded
                // FCT histograms instead of per-delivery timestamp vectors —
                // that unboundedness is exactly what a 10k-flow workload run
                // cannot afford.
                if out.new_data && !is_dynamic(raw) {
                    if self.flows.delivery_times[idx].len() < MAX_DELIVERY_SAMPLES_PER_FLOW {
                        self.flows.delivery_times[idx].push(now);
                    } else {
                        self.stats.delivery_samples_dropped += 1;
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

    /// Spawns one dynamic flow at `now` (or counts a capped arrival when
    /// the concurrency limit is reached), claiming a recycled slab slot
    /// when one is free.
    fn spawn_dynamic(&mut self, now: SimTime) {
        let rt = self.workload.as_mut().expect("arrivals not installed");
        let w = self
            .stats
            .workload
            .as_mut()
            .expect("workload stats missing");
        if self.slab.live() >= rt.cfg.max_concurrent as usize {
            w.capped += 1;
            return;
        }
        let size = rt.cfg.size.sample(&mut rt.rng);
        let pick = rt.rng.gen_range_usize(0, self.protos.len());
        let cc = self.protos[pick].clone();
        let slot = match self.slab.free.pop() {
            Some(s) => s as usize,
            None => {
                self.slab.generation.push(0);
                self.slab.budget.push(0);
                self.slab.spawned_at.push(SimTime::ZERO);
                self.slab.in_network.push(0);
                self.slab.complete.push(false);
                self.slab.generation.len() - 1
            }
        };
        self.slab.budget[slot] = size;
        self.slab.spawned_at[slot] = now;
        self.slab.in_network[slot] = 0;
        self.slab.complete[slot] = false;
        let idx = rt.base + slot;
        let sender_cfg = SenderConfig {
            buffer_packets: size,
            ..rt.sender_cfg
        };
        // Claim (or create) the slot's flow-table entry. Slots allocate
        // densely, so `idx` is at most one past the current table end.
        if self.flows.senders.len() <= idx {
            self.flows.senders.push(TcpSender::new(sender_cfg, cc));
            self.flows.receivers.push(TcpReceiver::new(rt.receiver_cfg));
        } else {
            self.flows.senders[idx].reset_reusing(sender_cfg, cc);
            self.flows.receivers[idx].reset_reusing(rt.receiver_cfg);
        }
        if self.flows.start.len() <= idx {
            self.flows.start.push(now);
            self.flows.stop.push(None);
            self.flows.pacing_scheduled.push(None);
            self.flows.rto_scheduled.push(None);
            self.flows.delivery_times.push(Vec::new());
            self.flows.counters.push(FlowCounters::default());
            self.paths.push(rt.dyn_path);
            self.ack_delays.push(rt.dyn_ack_delay);
        } else {
            self.flows.start[idx] = now;
            self.flows.stop[idx] = None;
            self.flows.pacing_scheduled[idx] = None;
            self.flows.rto_scheduled[idx] = None;
            self.flows.counters[idx] = FlowCounters::default();
            self.paths[idx] = rt.dyn_path;
            self.ack_delays[idx] = rt.dyn_ack_delay;
        }
        w.spawned += 1;
        self.flows.senders[idx].on_flow_start(now);
        self.flush_sender_log(idx);
        self.pump_sender(idx, now);
    }

    /// Checks a dynamic flow for completion after an ACK reached its
    /// sender, then releases the consumed ACK's network reference.
    fn after_dyn_ack(&mut self, slot: usize, now: SimTime) {
        let rt = self.workload.as_mut().expect("arrivals not installed");
        let idx = rt.base + slot;
        if !self.slab.complete[slot] && self.flows.senders[idx].cum_ack() >= self.slab.budget[slot]
        {
            self.slab.complete[slot] = true;
            let fct = now.saturating_since(self.slab.spawned_at[slot]);
            let size = self.slab.budget[slot];
            let w = self
                .stats
                .workload
                .as_mut()
                .expect("workload stats missing");
            w.completed += 1;
            if rt.cfg.is_mouse(size) {
                w.fct_mice.record(fct.as_nanos());
            } else {
                w.fct_elephants.record(fct.as_nanos());
            }
            // Algorithm-R reservoir over all completions, on its own rng
            // stream so sampling never perturbs the arrival process.
            let seen = w.completed;
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
    /// delivered or dropped, or an ACK consumed) and recycles the slot once
    /// it is complete with nothing left in flight.
    fn dyn_packet_gone(&mut self, slot: usize) {
        debug_assert!(self.slab.in_network[slot] > 0, "in_network underflow");
        self.slab.in_network[slot] -= 1;
        if self.slab.complete[slot] && self.slab.in_network[slot] == 0 {
            self.recycle_dyn_slot(slot);
        }
    }

    /// Returns a completed, fully drained slot to the free list, folding
    /// its per-flow counters into the workload aggregates and bumping its
    /// generation so any still-scheduled timer event for it dies on decode.
    fn recycle_dyn_slot(&mut self, slot: usize) {
        let rt = self.workload.as_ref().expect("arrivals not installed");
        let idx = rt.base + slot;
        let c = self.flows.counters[idx];
        let tx = self.flows.senders[idx].transmissions();
        // Conservation: with nothing in the network, every packet this flow
        // ever transmitted was either delivered to the sink or dropped at a
        // gateway queue.
        debug_assert_eq!(
            tx,
            c.sink_received + c.queue_drops,
            "per-flow conservation violated at recycle (slot {slot})"
        );
        let w = self
            .stats
            .workload
            .as_mut()
            .expect("workload stats missing");
        w.completed_tx += tx;
        w.completed_delivered += c.sink_received;
        w.completed_dropped += c.queue_drops;
        self.flows.counters[idx] = FlowCounters::default();
        self.flows.pacing_scheduled[idx] = None;
        self.flows.rto_scheduled[idx] = None;
        self.slab.generation[slot] = (self.slab.generation[slot] + 1) % GEN_MODULUS;
        self.slab.free.push(slot as u32);
    }

    /// Draws and schedules the next arrival, respecting the total-arrival
    /// cap and the scenario end.
    fn schedule_next_arrival(&mut self, now: SimTime) {
        let w = self.stats.workload.as_ref().expect("workload stats");
        let attempts = w.spawned + w.capped;
        let rt = self.workload.as_mut().expect("arrivals not installed");
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

    /// Runs the simulation to completion and returns the collected results.
    pub fn run(&mut self) -> SimResult {
        assert!(!self.finished, "a Simulation runs once per load");
        assert!(
            self.cfg.arrivals.is_none() || self.workload.is_some(),
            "SimConfig::arrivals requires install_arrivals before run"
        );
        self.finished = true;

        // Seed the event calendar: flow starts in index order, then the
        // stats tick, then cross-traffic injections (known up front).
        // Static flows always occupy indices 0..base; dynamic flows spawn
        // past that boundary as arrivals fire.
        let static_flows = self
            .workload
            .as_ref()
            .map(|rt| rt.base)
            .unwrap_or(self.flows.start.len());
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
            // Split borrows: the injection schedule is read straight from the
            // config (no intermediate copy) while the pool and calendar are
            // driven mutably.
            let Simulation {
                cfg, pool, events, ..
            } = &mut *self;
            let packet_size = cfg.cross_traffic_packet_size;
            for (seq, &t) in cfg.cross_traffic.injections().iter().enumerate() {
                if t > seed_end {
                    break;
                }
                let pkt = DataPacket::cross_traffic(seq as u64, packet_size, t);
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
            if events_processed > self.cfg.max_events {
                self.stats.truncated = true;
                break;
            }
            match event {
                Event::FlowStart { flow } => {
                    let flow = flow as usize;
                    self.flows.senders[flow].on_flow_start(now);
                    self.flush_sender_log(flow);
                    self.sample_cwnd(flow, now);
                    self.pump_sender(flow, now);
                }
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
                    if is_dynamic(flow) {
                        self.after_dyn_ack(dyn_slot(flow), now);
                    } else {
                        self.sample_cwnd(idx, now);
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
                    if self.flow_inactive(flow, now) {
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
                    if let Some(ack) =
                        self.flows.receivers[flow_idx].on_delack_timer(generation, now)
                    {
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
                Event::PacingTimer { flow, .. } => {
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
                    let mut len = 0usize;
                    let mut bytes = 0u64;
                    for hop in &self.hops {
                        len += hop.queue.len();
                        bytes += hop.queue.bytes();
                    }
                    self.stats.queue_samples.push((now, len, bytes));
                    if self.hops.len() > 1 {
                        for (k, hop) in self.hops.iter().enumerate() {
                            self.stats.hop_samples[k].push((
                                now,
                                hop.queue.len(),
                                hop.queue.bytes(),
                            ));
                        }
                    }
                    let next = now + self.cfg.stats_interval;
                    if next <= end {
                        self.events.schedule(next, Event::StatsTick);
                    }
                }
            }
        }

        // Finalize statistics. The primary flow's summary and delivery
        // times live in `flows[0]` and are *borrowed* by the legacy
        // accessors — the former end-of-run clone of both is gone.
        self.stats.events_processed = events_processed;
        self.stats.hop_counters.clear();
        self.stats
            .hop_counters
            .extend(self.hops.iter().map(|h| h.queue.counters()));
        self.stats.queue_counters = self.stats.hop_counters[0];
        if let Some(w) = self.stats.workload.as_mut() {
            w.active_at_end = w.spawned - w.completed;
        }
        // Only static flows surface per-flow summaries; dynamic flows are
        // aggregated in the workload block.
        for i in 0..static_flows {
            let mut summary = self.flows.senders[i].summary();
            let counters = self.flows.counters[i];
            summary.queue_drops = counters.queue_drops;
            summary.ce_marked = counters.ce_marked;
            summary.ce_received = self.flows.receivers[i].ce_received();
            summary.ece_echoed = self.flows.receivers[i].ece_echoed();
            self.stats.flows.push(FlowStats {
                summary,
                delivery_times: std::mem::take(&mut self.flows.delivery_times[i]),
                start: self.flows.start[i],
                stop: self.flows.stop[i],
                sink_received: counters.sink_received,
            });
        }
        // The run's inputs are spent: trace-driven service curves and the
        // cross-traffic injections return to the timestamp pool.
        for k in 0..self.hops.len() {
            if let LinkModel::TraceDriven { trace } = self.hops[k].link.take_model() {
                self.recycle_time_buf(trace.into_opportunities());
            }
        }
        let spent = TrafficTrace::empty(self.cfg.duration);
        let cross = std::mem::replace(&mut self.cfg.cross_traffic, spent);
        self.recycle_time_buf(cross.into_injections());

        SimResult {
            stats: std::mem::take(&mut self.stats),
            duration_secs: self.cfg.duration.as_secs_f64(),
        }
    }
}

/// Convenience helper: build and run a simulation in one call.
pub fn run_simulation<C: CongestionControl + Clone>(cfg: SimConfig, cc: C) -> SimResult {
    Simulation::new(cfg, cc).run()
}

/// Convenience helper: build and run a multi-flow simulation in one call.
pub fn run_multi_flow_simulation<C: CongestionControl + Clone>(
    cfg: SimConfig,
    specs: Vec<FlowSpec<C>>,
) -> SimResult {
    Simulation::new_multi(cfg, specs).run()
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
        // back — hop count, flow count, churn, recording and link model all
        // change between loads, in both directions — and every run, run log
        // included, must equal a fresh one.
        let mut sim = Simulation::default();
        for shape in [0, 1, 2, 1, 3, 1, 4, 1, 5, 1, 0, 3, 5, 2, 4, 0] {
            let fresh = run_shape(&mut Simulation::default(), shape);
            let reused = run_shape(&mut sim, shape);
            assert_eq!(fresh.stats.digest(), reused.stats.digest(), "{shape}");
            assert_eq!(
                fresh.stats.events_processed, reused.stats.events_processed,
                "{shape}"
            );
            let layout = |s: &RunStats| (s.flows.len(), s.hop_samples.len(), s.workload.is_some());
            assert_eq!(layout(&fresh.stats), layout(&reused.stats), "{shape}");
            assert_eq!(fresh.stats.log, reused.stats.log, "{shape}");
            assert_eq!(reused.stats.log.is_empty(), shape == 1, "{shape}");
            if shape == 1 {
                let plain = run_simulation(base_cfg(), MiniAimdCc::new(10));
                assert_eq!(plain.stats.digest(), reused.stats.digest());
            }
            sim.recycle_stats(reused.stats);
        }
    }

    /// Loads scenario `shape` into `sim` and runs it: 0 = a 3-hop parking
    /// lot, 1 = the plain single-flow dumbbell (the one shape run without
    /// recording), 2 = eight staggered flows, 3 = flow churn, 4 = RED + ECN,
    /// 5 = a trace-driven link with cross traffic.
    fn run_shape(sim: &mut Simulation<MiniAimdCc>, shape: usize) -> SimResult {
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
                stop: None,
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
            _ => {}
        }
        sim.load(cfg, &mut specs);
        if !protos.is_empty() {
            sim.install_arrivals(&mut protos);
        }
        sim.run()
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
        let c = result.stats.queue_counters;
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
        let mss = base_cfg().mss;
        let solo = run_simulation(base_cfg(), MiniAimdCc::new(10));
        let pair = run_multi_flow_simulation(
            base_cfg(),
            vec![
                FlowSpec::new(MiniAimdCc::new(10)),
                FlowSpec::new(MiniAimdCc::new(10)),
            ],
        );
        let goodputs = pair.per_flow_goodput_bps(mss);
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
        fn name(&self) -> &'static str {
            "ecn-probe"
        }
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
        assert_eq!(result.stats.queue_counters.marked_cca, f.ce_marked);
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
        assert_eq!(topo.stats.hop_counters.len(), 1);
        assert_eq!(topo.stats.hop_counters[0], topo.stats.queue_counters);
        assert!(topo.stats.hop_samples.is_empty());
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
        let goodputs = result.per_flow_goodput_bps(1448);
        assert!(goodputs[0] > 0.5e6 && goodputs[1] > 0.5e6);
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
        assert!(!result.stats.queue_samples.is_empty(), "queue samples kept");
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
        let transport =
            |e: TransportEvent| count(&result, |r| r.event == LogEvent::Transport(e.clone()));
        let (enters, exits) = (
            transport(TransportEvent::EnterRecovery),
            transport(TransportEvent::ExitRecovery),
        );
        assert_eq!(enters, result.stats.flow().recovery_episodes);
        assert!(exits > 0 && exits <= enters);
    }

    #[test]
    fn per_flow_transmissions_match_queue_counters() {
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
        let c = result.stats.queue_counters;
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

    fn run_workload(cfg: SimConfig, sim: &mut Simulation<MiniAimdCc>) -> SimResult {
        sim.load(cfg, &mut vec![FlowSpec::new(MiniAimdCc::new(10))]);
        sim.install_arrivals(&mut vec![MiniAimdCc::new(4)]);
        sim.run()
    }

    #[test]
    fn workload_spawns_and_completes_flows() {
        let result = run_workload(workload_cfg(60.0, 32), &mut Simulation::default());
        let w = result.stats.workload().expect("workload stats");
        // 60 arrivals/s over 5 s: the process is random, but far from the
        // tails — well over 100 spawns, and most mice finish within the run.
        assert!(w.spawned > 100, "spawned {}", w.spawned);
        assert!(w.completed > 50, "completed {}", w.completed);
        assert!(w.completed <= w.spawned);
        assert_eq!(w.spawned, w.completed + w.active_at_end);
        assert_eq!(w.fct_count(), w.completed);
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
        let fresh = run_workload(workload_cfg(60.0, 32), &mut Simulation::default());
        let mut sim = Simulation::default();
        for _ in 0..3 {
            let reused = run_workload(workload_cfg(60.0, 32), &mut sim);
            assert_eq!(fresh.stats.digest(), reused.stats.digest());
            assert_eq!(fresh.stats.events_processed, reused.stats.events_processed);
            let (a, b) = (
                fresh.stats.workload().unwrap(),
                reused.stats.workload().unwrap(),
            );
            assert_eq!(a.spawned, b.spawned);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.fct_mice.count(), b.fct_mice.count());
            sim.recycle_stats(reused.stats);
        }
    }

    #[test]
    fn workload_seed_changes_digest() {
        let a = run_workload(workload_cfg(60.0, 32), &mut Simulation::default());
        let mut cfg = workload_cfg(60.0, 32);
        cfg.seed ^= 0xDEAD_BEEF;
        let b = run_workload(cfg, &mut Simulation::default());
        assert_ne!(a.stats.digest(), b.stats.digest());
    }

    #[test]
    fn workload_concurrency_cap_recycles_slots() {
        // A tiny concurrency cap under a heavy arrival rate: the engine must
        // shed arrivals (capped) and keep running flows through recycled
        // slots instead of growing the flow table.
        let result = run_workload(workload_cfg(200.0, 4), &mut Simulation::default());
        let w = result.stats.workload().expect("workload stats");
        assert!(w.capped > 0, "a 4-slot cap under 200/s must shed arrivals");
        assert!(
            w.completed > 4,
            "slots must recycle: completed {}",
            w.completed
        );
        assert!(w.active_at_end <= 4);
    }

    #[test]
    fn workload_max_arrivals_caps_attempts() {
        let mut cfg = workload_cfg(200.0, 32);
        cfg.arrivals.as_mut().unwrap().max_arrivals = 7;
        let result = run_workload(cfg, &mut Simulation::default());
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
        let result = run_workload(cfg.clone(), &mut Simulation::default());
        let w = result.stats.workload().expect("workload stats");
        assert!(w.spawned > 20, "spawned {}", w.spawned);
        assert!(w.completed > 0);
        // Determinism holds for the bursty process too.
        let again = run_workload(cfg, &mut Simulation::default());
        assert_eq!(result.stats.digest(), again.stats.digest());
    }

    #[test]
    fn workload_mice_finish_faster_than_elephants() {
        let result = run_workload(workload_cfg(60.0, 32), &mut Simulation::default());
        let w = result.stats.workload().expect("workload stats");
        if w.fct_mice.count() > 10 && w.fct_elephants.count() > 3 {
            assert!(
                w.fct_mice.percentile_nanos(50.0) < w.fct_elephants.percentile_nanos(50.0),
                "median mouse FCT must undercut median elephant FCT"
            );
        }
    }

    #[test]
    fn workload_requires_install_arrivals() {
        let cfg = workload_cfg(60.0, 32);
        let result = std::panic::catch_unwind(|| {
            let mut sim = Simulation::new_multi(cfg, vec![FlowSpec::new(MiniAimdCc::new(10))]);
            sim.run()
        });
        assert!(result.is_err(), "run without install_arrivals must panic");
    }
}
