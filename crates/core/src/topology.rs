//! Topology genomes: what the GA evolves when it hunts multi-bottleneck
//! (parking-lot) pathologies.
//!
//! A [`TopologyGenome`] describes a complete multi-hop experiment: a chain
//! of hops (each with its own rate, propagation delay, buffer and optional
//! AQM discipline), a set of flows with per-flow paths over that chain
//! (flow 0 is the always-on incumbent crossing every hop; extra flows can
//! enter and exit at interior hops — the parking lot), and an optional
//! cross-traffic sub-genome injected at the head of the chain. Mutation
//! perturbs hop parameters, adds/removes hops, shifts the bottleneck along
//! the chain, re-routes and re-schedules the competing flows, and mutates
//! the traffic sub-genome; crossover splices hop chains and crosses the
//! traffic sub-genomes.

use crate::campaign::{Campaign, FuzzMode};
use crate::checkpoint::SnapshotPayload;
use crate::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use crate::fuzzer::FuzzerSnapshot;
use crate::genome::{Genome, TrafficGenome};
use crate::mode::{GenomePayload, ModeGenome};
use crate::scenario::{random_cca, random_time, remove_competitor, validate_schedules, FlowGene};
use crate::scoring::ScoreScratch;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::queue::{Qdisc, QueueCapacity};
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::SimResult;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_netsim::topology::{HopConfig, HopRange, Topology};
use ccfuzz_netsim::trace::TrafficTrace;
use serde::{Deserialize, Serialize};

/// Evolved hop-rate range, bracketing the paper's 12 Mbps bottleneck.
const RATE_RANGE_BPS: (u64, u64) = (3_000_000, 16_000_000);
/// Evolved per-hop one-way propagation-delay range, milliseconds.
const DELAY_RANGE_MS: (u64, u64) = (2, 25);
/// Evolved per-hop gateway buffer range, packets.
const BUFFER_RANGE_PKTS: (usize, usize) = (20, 150);

/// One evolved hop: its bottleneck rate, delay, buffer and discipline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HopGene {
    /// Bottleneck rate of the hop's link, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay of the hop.
    pub delay: SimDuration,
    /// Gateway buffer, packets.
    pub buffer_packets: usize,
    /// Optional AQM discipline (`None` = the paper's drop-tail).
    pub qdisc: Option<Qdisc>,
}

impl HopGene {
    /// Generates a random hop gene.
    pub fn generate(rng: &mut SimRng) -> Self {
        let buffer = rng.gen_range_usize(BUFFER_RANGE_PKTS.0, BUFFER_RANGE_PKTS.1 + 1);
        HopGene {
            rate_bps: rng.gen_range_u64(RATE_RANGE_BPS.0, RATE_RANGE_BPS.1 + 1),
            delay: SimDuration::from_millis(
                rng.gen_range_u64(DELAY_RANGE_MS.0, DELAY_RANGE_MS.1 + 1),
            ),
            buffer_packets: buffer,
            // Mostly drop-tail: the chain itself is the new axis; AQM hops
            // ride along in a minority of genomes.
            qdisc: if rng.gen_bool(0.25) {
                Some(random_qdisc(buffer, rng))
            } else {
                None
            },
        }
    }

    /// The simulator hop this gene describes.
    pub fn to_config(&self) -> HopConfig {
        HopConfig {
            link: LinkModel::FixedRate {
                rate_bps: self.rate_bps,
            },
            propagation_delay: self.delay,
            queue_capacity: QueueCapacity::Packets(self.buffer_packets),
            qdisc: self.qdisc.unwrap_or(Qdisc::DropTail),
        }
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.rate_bps == 0 {
            return Err("hop gene rate must be positive".into());
        }
        if self.buffer_packets == 0 {
            return Err("hop gene buffer must admit at least one packet".into());
        }
        if let Some(qdisc) = &self.qdisc {
            qdisc.validate()?;
        }
        Ok(())
    }
}

/// A random RED or CoDel discipline scaled to a `buffer`-packet gateway.
fn random_qdisc(buffer: usize, rng: &mut SimRng) -> Qdisc {
    if rng.gen_bool(0.5) {
        let min = rng.gen_range_usize(2, (buffer / 2).max(3));
        let span = rng.gen_range_usize(5, buffer.max(6));
        Qdisc::Red {
            min_thresh: min,
            max_thresh: min + span,
            mark_probability: rng.gen_range_f64(0.05, 1.0),
        }
    } else {
        Qdisc::CoDel {
            target: SimDuration::from_millis(rng.gen_range_u64(1, 50)),
            interval: SimDuration::from_millis(rng.gen_range_u64(20, 400)),
        }
    }
}

/// One evolved flow plus its path over the chain.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PathedFlowGene {
    /// The flow's algorithm and start/stop schedule.
    pub flow: FlowGene,
    /// The contiguous hop range the flow's packets traverse.
    pub path: HopRange,
}

/// A multi-hop topology genome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologyGenome {
    /// The evolved hop chain (at least one, at most `max_hops`).
    pub hops: Vec<HopGene>,
    /// The flows crossing the chain. Flow 0 is the always-on incumbent on
    /// the full path (the algorithm under test); later flows may take
    /// sub-paths (parking-lot competitors).
    pub flows: Vec<PathedFlowGene>,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Maximum number of hops mutation may grow to.
    pub max_hops: usize,
    /// Maximum number of concurrent flows mutation may grow to.
    pub max_flows: usize,
    /// Algorithms mutation may draw from when swapping or adding flows.
    pub cca_pool: Vec<CcaKind>,
    /// Optional unresponsive cross traffic injected at the head of the
    /// chain (hop 0); `None` disables cross traffic entirely.
    pub traffic: Option<TrafficGenome>,
}

impl TopologyGenome {
    /// Generates a fresh random topology scenario: `hops` hops, an
    /// always-on primary `cca` flow over the full chain, one short
    /// competitor on a random sub-path, and (when `traffic_max_packets >
    /// 0`) a random cross-traffic helper at the head of the chain.
    pub fn generate(
        cca: CcaKind,
        hops: usize,
        duration: SimDuration,
        traffic_max_packets: usize,
        cca_pool: &[CcaKind],
        rng: &mut SimRng,
    ) -> Self {
        let hops = hops.max(1);
        let hop_genes: Vec<HopGene> = (0..hops).map(|_| HopGene::generate(rng)).collect();
        let flows = vec![PathedFlowGene {
            flow: FlowGene::whole_run(cca),
            path: HopRange::full(hops),
        }];
        let pool: Vec<CcaKind> = if cca_pool.is_empty() {
            vec![cca]
        } else {
            cca_pool.to_vec()
        };
        let traffic = TrafficGenome::generate_optional(traffic_max_packets, duration, rng);
        let mut genome = TopologyGenome {
            hops: hop_genes,
            flows,
            duration,
            max_hops: hops.max(2) + 2,
            max_flows: 3,
            cca_pool: pool,
            traffic,
        };
        // One parking-lot competitor so the initial population already
        // exercises sub-path routing.
        genome.add_flow(rng);
        genome
    }

    /// The number of hops in the chain.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The number of concurrent flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Index of the slowest (bottleneck) hop.
    pub fn bottleneck_hop(&self) -> usize {
        self.hops
            .iter()
            .enumerate()
            .min_by_key(|(_, h)| h.rate_bps)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The simulator topology this genome describes.
    pub fn to_topology(&self) -> Topology {
        Topology {
            hops: self.hops.iter().map(|h| h.to_config()).collect(),
            paths: self.flows.iter().map(|f| f.path).collect(),
        }
    }

    /// Renders the deterministic per-hop table of the chain (rates, delays,
    /// buffers, qdiscs, with the bottleneck hop flagged) followed by one
    /// line per flow naming its path. Shared by the corpus report, the
    /// `ccfuzz hunt` output and the `paper` table's topology row, so every
    /// renderer of a topology genome shows the same columns.
    pub fn detail_table(&self) -> String {
        let rates: Vec<u64> = self.hops.iter().map(|h| h.rate_bps).collect();
        let delays: Vec<u64> = self.hops.iter().map(|h| h.delay.as_millis()).collect();
        let buffers: Vec<usize> = self.hops.iter().map(|h| h.buffer_packets).collect();
        let qdiscs: Vec<String> = self
            .hops
            .iter()
            .map(|h| {
                h.qdisc
                    .map(|q| q.label())
                    .unwrap_or_else(|| "droptail".to_string())
            })
            .collect();
        let mut out = ccfuzz_analysis::table::hop_table(&rates, &delays, &buffers, &qdiscs);
        for (i, f) in self.flows.iter().enumerate() {
            out.push_str(&format!(
                "flow {i}: {} hops {}..={}\n",
                f.flow.cca.name(),
                f.path.entry,
                f.path.exit
            ));
        }
        out
    }

    fn random_subpath(&self, rng: &mut SimRng) -> HopRange {
        let hops = self.hops.len();
        let entry = rng.gen_range_usize(0, hops);
        let exit = rng.gen_range_usize(entry, hops);
        HopRange::new(entry as u32, exit as u32)
    }

    /// Appends a competitor starting in the first half of the run, then
    /// routes it over a random sub-path.
    fn add_flow(&mut self, rng: &mut SimRng) {
        if self.flows.len() >= self.max_flows || self.cca_pool.is_empty() {
            return;
        }
        let flow = FlowGene::random(&self.cca_pool, self.duration, 0.5, rng);
        let path = self.random_subpath(rng);
        self.flows.push(PathedFlowGene { flow, path });
    }

    /// Inserts a fresh hop at a random position, shifting flow paths that
    /// span the insertion point so they keep crossing the same hops.
    fn add_hop(&mut self, rng: &mut SimRng) {
        if self.hops.len() >= self.max_hops {
            return;
        }
        let at = rng.gen_range_usize(0, self.hops.len() + 1);
        self.hops.insert(at, HopGene::generate(rng));
        let last = (self.hops.len() - 1) as u32;
        for (i, f) in self.flows.iter_mut().enumerate() {
            if i == 0 {
                f.path = HopRange::full(self.hops.len());
                continue;
            }
            if (f.path.entry as usize) >= at {
                f.path.entry += 1;
            }
            if (f.path.exit as usize) >= at {
                f.path.exit += 1;
            }
            f.path = f.path.clamped(last as usize + 1);
        }
    }

    /// A copy with hop `at` removed and every flow path remapped onto the
    /// shorter chain, or `None` when only one hop remains (a topology needs
    /// at least one hop). Used both by mutation and — deterministically,
    /// hop by hop — by the corpus minimizer's hop-drop pass.
    pub fn without_hop(&self, at: usize) -> Option<TopologyGenome> {
        if self.hops.len() <= 1 || at >= self.hops.len() {
            return None;
        }
        let mut child = self.clone();
        child.hops.remove(at);
        let hops = child.hops.len();
        for (i, f) in child.flows.iter_mut().enumerate() {
            if i == 0 {
                f.path = HopRange::full(hops);
                continue;
            }
            if (f.path.entry as usize) > at {
                f.path.entry -= 1;
            }
            if (f.path.exit as usize) > at && f.path.exit > 0 {
                f.path.exit -= 1;
            }
            f.path = f.path.clamped(hops);
        }
        Some(child)
    }

    /// Removes a random hop (keeping at least one), remapping flow paths.
    fn remove_hop(&mut self, rng: &mut SimRng) {
        if self.hops.len() <= 1 {
            return;
        }
        let at = rng.gen_range_usize(0, self.hops.len());
        if let Some(child) = self.without_hop(at) {
            *self = child;
        }
    }

    /// Moves the bottleneck along the chain by swapping the slowest hop's
    /// rate with a random other hop's rate.
    fn shift_bottleneck(&mut self, rng: &mut SimRng) {
        if self.hops.len() < 2 {
            return;
        }
        let slowest = self.bottleneck_hop();
        let other = rng.gen_range_usize(0, self.hops.len());
        let (a, b) = (self.hops[slowest].rate_bps, self.hops[other].rate_bps);
        self.hops[slowest].rate_bps = b;
        self.hops[other].rate_bps = a;
    }

    fn perturb_hop(&mut self, rng: &mut SimRng) {
        let idx = rng.gen_range_usize(0, self.hops.len());
        let hop = &mut self.hops[idx];
        match rng.gen_range_usize(0, 4) {
            0 => hop.rate_bps = rng.gen_range_u64(RATE_RANGE_BPS.0, RATE_RANGE_BPS.1 + 1),
            1 => {
                hop.delay = SimDuration::from_millis(
                    rng.gen_range_u64(DELAY_RANGE_MS.0, DELAY_RANGE_MS.1 + 1),
                )
            }
            2 => {
                hop.buffer_packets =
                    rng.gen_range_usize(BUFFER_RANGE_PKTS.0, BUFFER_RANGE_PKTS.1 + 1)
            }
            _ => {
                hop.qdisc = if hop.qdisc.is_some() {
                    None
                } else {
                    Some(random_qdisc(hop.buffer_packets, rng))
                }
            }
        }
    }

    fn perturb_flow(&mut self, rng: &mut SimRng) {
        if self.flows.len() < 2 {
            self.add_flow(rng);
            return;
        }
        let idx = rng.gen_range_usize(1, self.flows.len());
        let duration = self.duration;
        match rng.gen_range_usize(0, 3) {
            // Re-route over a fresh sub-path.
            0 => self.flows[idx].path = self.random_subpath(rng),
            // Re-schedule: unlike `perturb_schedule`, always a new start.
            1 => {
                let flow = &mut self.flows[idx].flow;
                flow.start = random_time(duration, 0.0, 0.5, rng);
                flow.stop = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(FlowGene::random_stop(flow.start, duration, rng))
                };
            }
            // Swap the algorithm.
            _ => self.flows[idx].flow.cca = random_cca(&self.cca_pool, rng),
        }
    }
}

impl Genome for TopologyGenome {
    fn mutate(&self, rng: &mut SimRng) -> Self {
        let mut child = self.clone();
        match rng.gen_range_usize(0, 8) {
            0 | 1 => child.perturb_hop(rng),
            2 => child.add_hop(rng),
            3 => child.remove_hop(rng),
            4 => child.shift_bottleneck(rng),
            5 => child.perturb_flow(rng),
            6 => {
                if rng.gen_bool(0.5) {
                    child.add_flow(rng);
                } else {
                    remove_competitor(&mut child.flows, 1, rng);
                }
            }
            _ => {
                if let Some(traffic) = &child.traffic {
                    child.traffic = Some(traffic.mutate(rng));
                } else {
                    child.perturb_hop(rng);
                }
            }
        }
        child
    }

    fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
        // Splice hop chains: a prefix of one parent, a suffix of the other,
        // clamped to [1, max_hops]. Flows come from `self`, their paths
        // re-clamped to the child chain.
        let (a, b) = if rng.gen_bool(0.5) {
            (self, other)
        } else {
            (other, self)
        };
        let split_a = rng.gen_range_usize(0, a.hops.len() + 1);
        let split_b = rng.gen_range_usize(0, b.hops.len() + 1);
        let mut hops: Vec<HopGene> = a.hops.iter().copied().take(split_a).collect();
        hops.extend(b.hops.iter().copied().skip(split_b));
        if hops.is_empty() {
            hops.push(a.hops[0]);
        }
        hops.truncate(self.max_hops.max(1));
        let hop_count = hops.len();
        let mut flows = self.flows.clone();
        for (i, f) in flows.iter_mut().enumerate() {
            f.path = if i == 0 {
                HopRange::full(hop_count)
            } else {
                f.path.clamped(hop_count)
            };
        }
        let traffic = TrafficGenome::cross_optional(&self.traffic, &other.traffic, rng);
        Some(TopologyGenome {
            hops,
            flows,
            duration: self.duration,
            max_hops: self.max_hops,
            max_flows: self.max_flows,
            cca_pool: self.cca_pool.clone(),
            traffic,
        })
    }

    fn packet_count(&self) -> usize {
        self.traffic.as_ref().map(|t| t.packet_count()).unwrap_or(0)
    }

    fn validate(&self) -> Result<(), String> {
        if self.hops.is_empty() {
            return Err("topology genome has no hops".into());
        }
        if self.hops.len() > self.max_hops.max(1) {
            return Err(format!(
                "topology genome has {} hops, cap is {}",
                self.hops.len(),
                self.max_hops
            ));
        }
        for (i, hop) in self.hops.iter().enumerate() {
            hop.validate().map_err(|e| format!("hop {i}: {e}"))?;
        }
        if self.flows.is_empty() {
            return Err("topology genome has no flows".into());
        }
        if self.flows.len() > self.max_flows.max(1) {
            return Err(format!(
                "topology genome has {} flows, cap is {}",
                self.flows.len(),
                self.max_flows
            ));
        }
        if self.cca_pool.is_empty() {
            return Err("topology genome has an empty CCA pool".into());
        }
        let primary = &self.flows[0];
        if primary.flow.start != SimTime::ZERO || primary.flow.stop.is_some() {
            return Err("flow 0 must be the always-on incumbent".into());
        }
        if primary.path != HopRange::full(self.hops.len()) {
            return Err("flow 0 must traverse the full chain".into());
        }
        for (i, f) in self.flows.iter().enumerate() {
            f.path
                .validate(self.hops.len())
                .map_err(|e| format!("flow {i}: {e}"))?;
        }
        validate_schedules(self.flows.iter().map(|f| &f.flow), self.duration, "flow")?;
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
        }
        Ok(())
    }
}

impl ModeGenome for TopologyGenome {
    fn serves(mode: FuzzMode) -> bool {
        mode == FuzzMode::Topology
    }

    fn generate(campaign: &Campaign, rng: &mut SimRng) -> Self {
        TopologyGenome::generate(
            campaign.cca,
            campaign.topology_hops,
            campaign.duration,
            campaign.traffic_max_packets,
            &campaign.flow_ccas,
            rng,
        )
    }

    fn lower(&self, evaluator: &SimEvaluator, scratch: &mut EvalScratch) -> SimConfig {
        let mut cfg = evaluator.run_cfg(self.duration);
        // The legacy single-bottleneck fields stay at the campaign defaults;
        // the genome's hop chain supersedes them. The topology is built
        // fresh (its hop vector is small and genome-shaped).
        cfg.topology = Some(self.to_topology());
        cfg.cross_traffic = match &self.traffic {
            Some(traffic) => traffic.to_trace(),
            None => TrafficTrace::empty(self.duration),
        };
        scratch.set_flows(self.flows.iter().map(|f| &f.flow));
        cfg
    }

    /// The reference rate is capped at the evolved chain's bottleneck rate,
    /// so the throughput and collapse terms measure *underutilization of the
    /// capacity the chain actually offers*. Without the cap, the GA's
    /// steepest gradient would simply be "evolve slower hops" — a 3 Mbps
    /// chain scores >= 0.75 against the fixed 12 Mbps reference even when
    /// every flow behaves perfectly (the same reward hack the link genome
    /// prevents by fixing its total packet count).
    fn score(
        &self,
        evaluator: &SimEvaluator,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let mut scoring = evaluator.scoring;
        if let Some(bottleneck) = self.hops.iter().map(|h| h.rate_bps).min() {
            scoring.reference_rate_bps = scoring.reference_rate_bps.min(bottleneck as f64);
        }
        let mss = evaluator.base.mss;
        EvalOutcome::from_multi_flow_result(&scoring, result, mss, self.traffic.as_ref(), scratch)
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload {
        SnapshotPayload::Topology(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String> {
        match payload {
            SnapshotPayload::Topology(s) => Ok(s),
            other => Err(other.mismatch::<Self>()),
        }
    }

    fn wrap(self) -> GenomePayload {
        GenomePayload::Topology(self)
    }

    fn set_primary_cca(&mut self, cca: CcaKind) {
        self.flows[0].flow.cca = cca;
    }

    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        Some(self.flows.iter().map(|f| f.flow.cca).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: SimDuration = SimDuration::from_secs(5);

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    fn base() -> TopologyGenome {
        let mut rng = rng();
        TopologyGenome::generate(
            CcaKind::Reno,
            3,
            DUR,
            500,
            &[CcaKind::Reno, CcaKind::Cubic],
            &mut rng,
        )
    }

    #[test]
    fn generation_produces_valid_parking_lots() {
        let g = base();
        g.validate().unwrap();
        assert_eq!(g.hop_count(), 3);
        assert!(g.flow_count() >= 1);
        assert_eq!(g.flows[0].flow.cca, CcaKind::Reno);
        assert_eq!(g.flows[0].path, HopRange::full(3));
        assert!(g.traffic.is_some());
        assert!(g.bottleneck_hop() < 3);
        let topo = g.to_topology();
        topo.validate().unwrap();
        assert_eq!(topo.hop_count(), 3);
    }

    #[test]
    fn mutation_keeps_invariants_and_explores_hops() {
        let g = base();
        let mut rng = rng();
        let mut current = g.clone();
        let mut saw_hop_count_change = false;
        let mut saw_rate_change = false;
        let mut saw_path_change = false;
        for _ in 0..300 {
            let next = current.mutate(&mut rng);
            next.validate().unwrap();
            assert!((1..=next.max_hops).contains(&next.hop_count()));
            if next.hop_count() != current.hop_count() {
                saw_hop_count_change = true;
            }
            if next.hop_count() == current.hop_count()
                && next
                    .hops
                    .iter()
                    .zip(&current.hops)
                    .any(|(a, b)| a.rate_bps != b.rate_bps)
            {
                saw_rate_change = true;
            }
            if next.flow_count() == current.flow_count()
                && next
                    .flows
                    .iter()
                    .zip(&current.flows)
                    .skip(1)
                    .any(|(a, b)| a.path != b.path)
            {
                saw_path_change = true;
            }
            current = next;
        }
        assert!(saw_hop_count_change, "mutation should add/remove hops");
        assert!(saw_rate_change, "mutation should perturb hop rates");
        assert!(saw_path_change, "mutation should re-route flows");
    }

    #[test]
    fn bottleneck_shift_moves_the_slowest_hop() {
        let mut g = base();
        g.hops[0].rate_bps = 4_000_000;
        g.hops[1].rate_bps = 12_000_000;
        g.hops[2].rate_bps = 10_000_000;
        assert_eq!(g.bottleneck_hop(), 0);
        let mut rng = rng();
        let mut moved = false;
        for _ in 0..50 {
            let mut child = g.clone();
            child.shift_bottleneck(&mut rng);
            child.validate().unwrap();
            // The multiset of rates is preserved; only positions move.
            let mut a: Vec<u64> = g.hops.iter().map(|h| h.rate_bps).collect();
            let mut b: Vec<u64> = child.hops.iter().map(|h| h.rate_bps).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            if child.bottleneck_hop() != 0 {
                moved = true;
            }
        }
        assert!(moved, "the bottleneck must move along the chain");
    }

    #[test]
    fn crossover_splices_chains_and_keeps_flow_zero_full_path() {
        let mut rng = rng();
        let a = base();
        let b = TopologyGenome::generate(
            CcaKind::Reno,
            5,
            DUR,
            300,
            &[CcaKind::Reno, CcaKind::Bbr],
            &mut rng,
        );
        for _ in 0..40 {
            let child = a.crossover(&b, &mut rng).unwrap();
            child.validate().unwrap();
            assert_eq!(child.flows[0].path, HopRange::full(child.hop_count()));
            for hop in &child.hops {
                assert!(
                    a.hops.contains(hop) || b.hops.contains(hop),
                    "child hops come from a parent"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_broken_genomes() {
        let mut g = base();
        g.hops.clear();
        assert!(g.validate().is_err());

        let mut g = base();
        g.hops[1].rate_bps = 0;
        assert!(g.validate().unwrap_err().contains("hop 1"));

        let mut g = base();
        g.flows[0].path = HopRange::new(0, 0);
        assert!(g.validate().unwrap_err().contains("full chain"));

        let mut g = base();
        g.flows[0].flow.stop = Some(SimTime::from_secs_f64(1.0));
        assert!(g.validate().unwrap_err().contains("always-on"));

        // The swap arm of mutation draws from the pool, and evolution runs
        // outside panic isolation.
        let mut g = base();
        g.cca_pool.clear();
        assert!(g.validate().unwrap_err().contains("empty CCA pool"));

        let mut g = base();
        if g.flows.len() < 2 {
            g.flows.push(g.flows[0]);
            g.flows[1].flow.start = SimTime::from_millis(10);
            g.flows[1].flow.stop = None;
        }
        g.flows[1].path = HopRange::new(1, 9);
        assert!(g.validate().is_err());
    }

    #[test]
    fn add_remove_hop_remaps_paths_consistently() {
        let mut rng = rng();
        let mut g = base();
        // Pin a short flow to hop 1 only.
        while g.flows.len() < 2 {
            g.add_flow(&mut rng);
        }
        g.flows[1].path = HopRange::new(1, 1);
        for _ in 0..100 {
            let mut child = g.clone();
            if rng.gen_bool(0.5) {
                child.add_hop(&mut rng);
            } else {
                child.remove_hop(&mut rng);
            }
            child.validate().unwrap();
        }
    }

    #[test]
    fn serde_roundtrip() {
        let g = base();
        let json = serde_json::to_string(&g).unwrap();
        let back: TopologyGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
