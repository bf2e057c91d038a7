//! Workload genomes for flow-churn fuzzing: what the GA evolves when it
//! hunts tail-latency bugs under Internet-scale dynamics.
//!
//! A [`WorkloadGenome`] describes a dynamic-arrival scenario: an arrival
//! process (Poisson or bursty ON/OFF), a bounded-Pareto flow-size
//! distribution, a concurrency cap, and a background mix of long-lived
//! elephants competing with the arriving mice. The simulator's flow-churn
//! engine ([`ccfuzz_netsim::workload`]) turns the arrival genes into
//! spawned-and-recycled dynamic flows; the elephants ride the ordinary
//! static flow path. Mutation perturbs rates, burstiness, sizes, the
//! concurrency cap and the elephant mix; crossover mixes arrival genes
//! field-wise and splices elephant lists.

use crate::campaign::{Campaign, FuzzMode};
use crate::checkpoint::SnapshotPayload;
use crate::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use crate::fuzzer::FuzzerSnapshot;
use crate::genome::Genome;
use crate::mode::{GenomePayload, ModeGenome};
use crate::scenario::{
    add_flow, perturb_schedule, remove_competitor, splice, swap_cca, validate_schedules, FlowGene,
};
use crate::scoring::ScoreScratch;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::SimResult;
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_netsim::trace::TrafficTrace;
use ccfuzz_netsim::workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};
use serde::{Deserialize, Serialize};

/// Minimum background elephants a workload keeps. One long-lived flow is
/// structural: it is the incumbent whose per-flow stats back the legacy
/// accessors, and the queue pressure mice contend with.
pub const MIN_ELEPHANTS: usize = 1;

/// Arrival-rate range explored by generation/mutation, flows per second
/// (sampled log-uniformly: 5/s background churn up to 400/s incast-grade).
const RATE_RANGE: (f64, f64) = (5.0, 400.0);
/// Bounded-Pareto shape range (lower = heavier tail).
const SHAPE_RANGE: (f64, f64) = (1.05, 2.2);
/// Smallest-mouse size range, packets.
const MIN_PACKETS_RANGE: (u64, u64) = (1, 8);
/// Largest-flow size range, packets.
const MAX_PACKETS_RANGE: (u64, u64) = (64, 4_000);
/// Concurrency-cap range (slots the flow slab may hold live at once).
const CONCURRENT_RANGE: (u64, u64) = (8, 256);
/// ON/OFF burst and gap duration range, seconds.
const ON_OFF_SECS: (f64, f64) = (0.05, 2.0);
/// Fixed attempt cap: a cost bound on one evaluation, not an evolved gene
/// (the GA would only ever push it up).
const MAX_ARRIVALS: u64 = 50_000;

/// A dynamic-workload genome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadGenome {
    /// The evolved arrival process, size distribution and concurrency cap.
    pub arrivals: ArrivalConfig,
    /// Long-lived background flows (at least [`MIN_ELEPHANTS`]). Elephant 0
    /// is the always-on incumbent running the CCA under test.
    pub elephants: Vec<FlowGene>,
    /// Maximum elephants mutation may grow to.
    pub max_elephants: usize,
    /// Algorithms arrivals and elephant swaps draw from.
    pub cca_pool: Vec<CcaKind>,
    /// Scenario duration.
    pub duration: SimDuration,
}

fn log_uniform(lo: f64, hi: f64, rng: &mut SimRng) -> f64 {
    (rng.gen_range_f64(lo.ln(), hi.ln())).exp()
}

fn random_process(rng: &mut SimRng) -> ArrivalProcess {
    let rate_per_sec = log_uniform(RATE_RANGE.0, RATE_RANGE.1, rng);
    if rng.gen_bool(0.5) {
        ArrivalProcess::Poisson { rate_per_sec }
    } else {
        ArrivalProcess::OnOff {
            rate_per_sec,
            mean_on_secs: rng.gen_range_f64(ON_OFF_SECS.0, ON_OFF_SECS.1),
            mean_off_secs: rng.gen_range_f64(ON_OFF_SECS.0, ON_OFF_SECS.1),
        }
    }
}

fn random_size(rng: &mut SimRng) -> SizeDistribution {
    SizeDistribution {
        shape: rng.gen_range_f64(SHAPE_RANGE.0, SHAPE_RANGE.1),
        min_packets: rng.gen_range_u64(MIN_PACKETS_RANGE.0, MIN_PACKETS_RANGE.1 + 1),
        max_packets: rng.gen_range_u64(MAX_PACKETS_RANGE.0, MAX_PACKETS_RANGE.1 + 1),
    }
}

impl WorkloadGenome {
    /// Generates a fresh random workload: elephant 0 always-on running
    /// `cca`, a random arrival process over `cca_pool`, and the paper's
    /// 32-packet mice threshold (fixed, not evolved — the objective's mice
    /// definition must not be gameable by the genome).
    pub fn generate(
        cca: CcaKind,
        cca_pool: &[CcaKind],
        max_elephants: usize,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let defaults = ArrivalConfig::paper_default();
        let arrivals = ArrivalConfig {
            process: random_process(rng),
            size: random_size(rng),
            mice_threshold_packets: defaults.mice_threshold_packets,
            max_concurrent: rng.gen_range_u64(CONCURRENT_RANGE.0, CONCURRENT_RANGE.1 + 1) as u32,
            max_arrivals: MAX_ARRIVALS,
        };
        let pool = if cca_pool.is_empty() {
            vec![cca]
        } else {
            cca_pool.to_vec()
        };
        WorkloadGenome {
            arrivals,
            elephants: vec![FlowGene::whole_run(cca)],
            max_elephants: max_elephants.max(MIN_ELEPHANTS),
            cca_pool: pool,
            duration,
        }
    }

    /// The number of background elephants.
    pub fn elephant_count(&self) -> usize {
        self.elephants.len()
    }

    fn perturb_rate(&mut self, rng: &mut SimRng) {
        let rate = log_uniform(RATE_RANGE.0, RATE_RANGE.1, rng);
        match &mut self.arrivals.process {
            ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec = rate,
            ArrivalProcess::OnOff { rate_per_sec, .. } => *rate_per_sec = rate,
        }
    }

    fn perturb_process(&mut self, rng: &mut SimRng) {
        // Half the time flip the process kind (keeping the rate), otherwise
        // perturb the burst structure in place.
        match self.arrivals.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                if rng.gen_bool(0.5) {
                    self.arrivals.process = ArrivalProcess::OnOff {
                        rate_per_sec,
                        mean_on_secs: rng.gen_range_f64(ON_OFF_SECS.0, ON_OFF_SECS.1),
                        mean_off_secs: rng.gen_range_f64(ON_OFF_SECS.0, ON_OFF_SECS.1),
                    };
                } else {
                    self.perturb_rate(rng);
                }
            }
            ArrivalProcess::OnOff {
                rate_per_sec,
                mut mean_on_secs,
                mut mean_off_secs,
            } => {
                if rng.gen_bool(0.3) {
                    self.arrivals.process = ArrivalProcess::Poisson { rate_per_sec };
                } else {
                    if rng.gen_bool(0.5) {
                        mean_on_secs = rng.gen_range_f64(ON_OFF_SECS.0, ON_OFF_SECS.1);
                    } else {
                        mean_off_secs = rng.gen_range_f64(ON_OFF_SECS.0, ON_OFF_SECS.1);
                    }
                    self.arrivals.process = ArrivalProcess::OnOff {
                        rate_per_sec,
                        mean_on_secs,
                        mean_off_secs,
                    };
                }
            }
        }
    }

    fn perturb_size(&mut self, rng: &mut SimRng) {
        match rng.gen_range_usize(0, 3) {
            0 => self.arrivals.size.shape = rng.gen_range_f64(SHAPE_RANGE.0, SHAPE_RANGE.1),
            1 => {
                self.arrivals.size.min_packets =
                    rng.gen_range_u64(MIN_PACKETS_RANGE.0, MIN_PACKETS_RANGE.1 + 1);
            }
            _ => {
                self.arrivals.size.max_packets = rng
                    .gen_range_u64(MAX_PACKETS_RANGE.0, MAX_PACKETS_RANGE.1 + 1)
                    .max(self.arrivals.size.min_packets);
            }
        }
    }

    fn perturb_concurrency(&mut self, rng: &mut SimRng) {
        self.arrivals.max_concurrent =
            rng.gen_range_u64(CONCURRENT_RANGE.0, CONCURRENT_RANGE.1 + 1) as u32;
    }
}

impl Genome for WorkloadGenome {
    fn mutate(&self, rng: &mut SimRng) -> Self {
        let mut child = self.clone();
        // The elephants are competitor flows: elephant 0 stays always-on,
        // so every workload keeps a long-lived flow for mice to queue
        // behind (and for the legacy single-flow stats to describe).
        let (elephants, duration, pool) = (&mut child.elephants, self.duration, &self.cca_pool);
        match rng.gen_range_usize(0, 7) {
            0 => child.perturb_rate(rng),
            1 => child.perturb_process(rng),
            2 => child.perturb_size(rng),
            3 => child.perturb_concurrency(rng),
            4 => perturb_schedule(elephants, duration, rng),
            5 => {
                if rng.gen_bool(0.5) {
                    add_flow(elephants, self.max_elephants, pool, duration, rng);
                } else {
                    remove_competitor(elephants, MIN_ELEPHANTS, rng);
                }
            }
            _ => swap_cca(elephants, pool, rng),
        }
        child
    }

    fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
        // Arrival genes mix field-wise: the process from one parent, the
        // size distribution from the other, the concurrency cap by coin
        // flip — incast rate from one lineage can meet a heavy tail from
        // another.
        let process = if rng.gen_bool(0.5) {
            self.arrivals.process
        } else {
            other.arrivals.process
        };
        let size = if rng.gen_bool(0.5) {
            self.arrivals.size
        } else {
            other.arrivals.size
        };
        let max_concurrent = if rng.gen_bool(0.5) {
            self.arrivals.max_concurrent
        } else {
            other.arrivals.max_concurrent
        };
        // Elephants splice like scenario flow lists; elephant 0 stays an
        // always-on incumbent.
        let (min, max) = (MIN_ELEPHANTS, self.max_elephants);
        let mut elephants = splice(&self.elephants, &other.elephants, min, max, rng);
        elephants[0].stop = None;
        Some(WorkloadGenome {
            arrivals: ArrivalConfig {
                process,
                size,
                mice_threshold_packets: self.arrivals.mice_threshold_packets,
                max_concurrent,
                max_arrivals: self.arrivals.max_arrivals,
            },
            elephants,
            max_elephants: self.max_elephants,
            cca_pool: self.cca_pool.clone(),
            duration: self.duration,
        })
    }

    fn packet_count(&self) -> usize {
        // Workloads inject no unresponsive cross traffic; minimality is the
        // minimiser's concern, not a fitness term.
        0
    }

    fn validate(&self) -> Result<(), String> {
        self.arrivals.validate()?;
        if self.elephants.is_empty() {
            return Err("workload genome has no background elephants".into());
        }
        if self.elephants.len() > self.max_elephants.max(MIN_ELEPHANTS) {
            return Err(format!(
                "workload genome has {} elephants, cap is {}",
                self.elephants.len(),
                self.max_elephants
            ));
        }
        if self.cca_pool.is_empty() {
            return Err("workload genome has an empty CCA pool".into());
        }
        validate_schedules(&self.elephants, self.duration, "elephant")
    }
}

impl ModeGenome for WorkloadGenome {
    fn serves(mode: FuzzMode) -> bool {
        mode == FuzzMode::Workload
    }

    fn generate(campaign: &Campaign, rng: &mut SimRng) -> Self {
        // Workload campaigns keep the CCA pool in `flow_ccas` and the
        // elephant cap in `max_flows` (see `Campaign::paper_workload`).
        let (pool, max_elephants) = (&campaign.flow_ccas, campaign.max_flows);
        WorkloadGenome::generate(campaign.cca, pool, max_elephants, campaign.duration, rng)
    }

    /// The elephants become static flows; the arrival genes drive the
    /// flow-churn engine spawning (and recycling) one dynamic sender per
    /// arrival, cloned from the pool's prototypes.
    fn lower(&self, evaluator: &SimEvaluator, scratch: &mut EvalScratch) -> SimConfig {
        let mut cfg = evaluator.run_cfg(self.duration);
        cfg.link = LinkModel::FixedRate {
            rate_bps: evaluator.link_rate_bps,
        };
        cfg.cross_traffic = TrafficTrace::empty(self.duration);
        cfg.arrivals = Some(self.arrivals);
        scratch.set_flows(&cfg, &self.elephants);
        scratch.set_arrival_pool(&cfg, &self.cca_pool);
        cfg
    }

    /// The per-flow aggregates cover the static elephants; the churned flows
    /// are summarised by `result.stats.workload`, which the tail-latency
    /// objective reads directly. There is no traffic sub-genome, hence no
    /// trace-minimality term.
    fn score(
        &self,
        evaluator: &SimEvaluator,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let (scoring, mss) = (&evaluator.scoring, evaluator.base.mss);
        EvalOutcome::from_multi_flow_result(scoring, result, mss, None, scratch)
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload {
        SnapshotPayload::Workload(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String> {
        match payload {
            SnapshotPayload::Workload(s) => Ok(s),
            other => Err(other.mismatch::<Self>()),
        }
    }

    fn wrap(self) -> GenomePayload {
        GenomePayload::Workload(self)
    }

    /// The override replaces the incumbent elephant's algorithm; the
    /// arrival pool keeps its mix.
    fn set_primary_cca(&mut self, cca: CcaKind) {
        self.elephants[0].cca = cca;
    }

    /// Only the static elephants surface per-flow stats (arriving flows
    /// aggregate into the workload block).
    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        Some(self.elephants.iter().map(|f| f.cca).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_netsim::time::SimTime;

    const DUR: SimDuration = SimDuration::from_secs(5);

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    fn base() -> WorkloadGenome {
        let mut rng = rng();
        WorkloadGenome::generate(
            CcaKind::Bbr,
            &[CcaKind::Bbr, CcaKind::Reno],
            4,
            DUR,
            &mut rng,
        )
    }

    #[test]
    fn generation_produces_valid_workloads() {
        let g = base();
        g.validate().unwrap();
        assert_eq!(g.elephant_count(), 1);
        assert_eq!(g.elephants[0].cca, CcaKind::Bbr);
        assert_eq!(g.elephants[0].start, SimTime::ZERO);
        assert!(g.elephants[0].stop.is_none());
        assert_eq!(g.arrivals.mice_threshold_packets, 32);
        let rate = g.arrivals.process.rate_per_sec();
        assert!((RATE_RANGE.0..=RATE_RANGE.1).contains(&rate));
    }

    #[test]
    fn mutation_keeps_invariants_and_explores() {
        let g = base();
        let mut rng = rng();
        let mut saw_rate_change = false;
        let mut saw_size_change = false;
        let mut saw_elephant_change = false;
        let mut saw_process_flip = false;
        let mut current = g.clone();
        for _ in 0..300 {
            let next = current.mutate(&mut rng);
            next.validate().unwrap();
            assert_eq!(next.elephants[0].start, SimTime::ZERO, "incumbent pinned");
            assert!(next.elephant_count() >= MIN_ELEPHANTS);
            assert!(next.elephant_count() <= 4);
            if next.arrivals.process.rate_per_sec() != current.arrivals.process.rate_per_sec() {
                saw_rate_change = true;
            }
            if next.arrivals.size != current.arrivals.size {
                saw_size_change = true;
            }
            if next.elephant_count() != current.elephant_count() {
                saw_elephant_change = true;
            }
            let flipped = matches!(
                (&current.arrivals.process, &next.arrivals.process),
                (ArrivalProcess::Poisson { .. }, ArrivalProcess::OnOff { .. })
                    | (ArrivalProcess::OnOff { .. }, ArrivalProcess::Poisson { .. })
            );
            if flipped {
                saw_process_flip = true;
            }
            current = next;
        }
        assert!(saw_rate_change, "mutation should perturb the arrival rate");
        assert!(saw_size_change, "mutation should perturb the sizes");
        assert!(saw_elephant_change, "mutation should add/remove elephants");
        assert!(saw_process_flip, "mutation should flip the process kind");
    }

    #[test]
    fn crossover_mixes_arrival_genes_fieldwise() {
        let mut rng = rng();
        let mut a = base();
        let mut b = base();
        a.arrivals.process = ArrivalProcess::Poisson { rate_per_sec: 10.0 };
        a.arrivals.size.shape = 1.1;
        b.arrivals.process = ArrivalProcess::OnOff {
            rate_per_sec: 300.0,
            mean_on_secs: 0.2,
            mean_off_secs: 0.8,
        };
        b.arrivals.size.shape = 2.0;
        let mut saw_mixed = false;
        for _ in 0..40 {
            let child = a.crossover(&b, &mut rng).unwrap();
            child.validate().unwrap();
            assert_eq!(child.elephants[0].start, SimTime::ZERO);
            let process_from_a = child.arrivals.process == a.arrivals.process;
            let size_from_a = child.arrivals.size == a.arrivals.size;
            if process_from_a != size_from_a {
                saw_mixed = true;
            }
        }
        assert!(saw_mixed, "crossover must be able to mix parents' genes");
    }

    #[test]
    fn validate_rejects_bad_genomes() {
        let mut g = base();
        g.elephants.clear();
        assert!(g.validate().is_err());
        let mut g = base();
        g.cca_pool.clear();
        assert!(g.validate().is_err());
        let mut g = base();
        g.arrivals.size.max_packets = 0;
        assert!(g.validate().is_err());
        let mut g = base();
        g.elephants[0].stop = Some(SimTime::ZERO);
        assert!(g.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let mut g = base();
        let mut r = rng();
        for _ in 0..10 {
            g = g.mutate(&mut r);
        }
        let json = serde_json::to_string(&g).unwrap();
        let back: WorkloadGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
