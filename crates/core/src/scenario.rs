//! Scenario genomes for fairness fuzzing: what the GA evolves when it hunts
//! multi-flow interaction bugs.
//!
//! A [`ScenarioGenome`] describes a complete multi-flow scenario: how many
//! congestion-controlled flows share the bottleneck, which algorithm each
//! runs, each flow's start/stop schedule, and an optional cross-traffic
//! sub-genome (the paper's traffic-fuzzing genome, reused as a building
//! block). Mutation perturbs schedules, swaps algorithms from a configured
//! pool, adds/removes flows, and mutates the traffic sub-genome; crossover
//! splices flow lists and crosses the traffic sub-genomes.

use crate::campaign::{Campaign, FuzzMode};
use crate::checkpoint::SnapshotPayload;
use crate::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use crate::fuzzer::FuzzerSnapshot;
use crate::genome::{Genome, TrafficGenome};
use crate::mode::{GenomePayload, ModeGenome};
use crate::scoring::ScoreScratch;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::queue::Qdisc;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::SimResult;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_netsim::trace::TrafficTrace;
use serde::{Deserialize, Serialize};

/// Minimum flows a fairness scenario keeps (unfairness needs competition).
pub const MIN_FAIRNESS_FLOWS: usize = 2;

/// Which disciplines an AQM hunt may draw from when generating or mutating
/// qdisc genes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QdiscChoice {
    /// RED and CoDel (the default: explore the whole AQM axis).
    Any,
    /// RED only.
    Red,
    /// CoDel only.
    CoDel,
}

impl QdiscChoice {
    /// Parses a CLI name (`any` | `red` | `codel`).
    pub fn from_name(name: &str) -> Option<QdiscChoice> {
        match name {
            "any" => Some(QdiscChoice::Any),
            "red" => Some(QdiscChoice::Red),
            "codel" => Some(QdiscChoice::CoDel),
            _ => None,
        }
    }
}

/// The evolved gateway discipline of an AQM scenario: which qdisc runs at
/// the bottleneck and whether the path negotiates ECN (mark- vs. drop-based
/// feedback — the axis the `aqm` mode explores).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QdiscGene {
    /// The discipline and its parameters.
    pub discipline: Qdisc,
    /// Whether ECN is negotiated end to end.
    pub ecn: bool,
    /// The restriction mutation honours (set by the hunt's `--qdisc` flag;
    /// carried in the gene so evolved children stay inside it).
    pub choice: QdiscChoice,
}

/// Parameter ranges for generated/mutated qdisc genes, in packets of the
/// paper's 100-packet gateway.
const RED_MIN_RANGE: (usize, usize) = (5, 50);
const RED_SPAN_RANGE: (usize, usize) = (10, 60);
const CODEL_TARGET_MS: (u64, u64) = (1, 50);
const CODEL_INTERVAL_MS: (u64, u64) = (20, 500);

impl QdiscGene {
    /// Generates a random gene within `choice`.
    pub fn generate(choice: QdiscChoice, rng: &mut SimRng) -> Self {
        let red = match choice {
            QdiscChoice::Red => true,
            QdiscChoice::CoDel => false,
            QdiscChoice::Any => rng.gen_bool(0.5),
        };
        let discipline = if red {
            let min = rng.gen_range_usize(RED_MIN_RANGE.0, RED_MIN_RANGE.1 + 1);
            let span = rng.gen_range_usize(RED_SPAN_RANGE.0, RED_SPAN_RANGE.1 + 1);
            Qdisc::Red {
                min_thresh: min,
                max_thresh: min + span,
                mark_probability: rng.gen_range_f64(0.02, 1.0),
            }
        } else {
            Qdisc::CoDel {
                target: SimDuration::from_millis(
                    rng.gen_range_u64(CODEL_TARGET_MS.0, CODEL_TARGET_MS.1 + 1),
                ),
                interval: SimDuration::from_millis(
                    rng.gen_range_u64(CODEL_INTERVAL_MS.0, CODEL_INTERVAL_MS.1 + 1),
                ),
            }
        };
        QdiscGene {
            discipline,
            // Mostly ECN-on: marking is the new feedback axis; drop-based
            // AQM behaviour is still explored by the ecn=false tail.
            ecn: rng.gen_bool(0.7),
            choice,
        }
    }

    /// Randomly perturbs the gene: re-rolls the discipline, nudges one
    /// parameter, or toggles ECN. Stays within the gene's [`QdiscChoice`].
    pub fn mutate(&self, rng: &mut SimRng) -> Self {
        let choice = self.choice;
        let mut gene = *self;
        match rng.gen_range_usize(0, 4) {
            // Fresh discipline (keeps the search ergodic across kinds).
            0 => gene.discipline = QdiscGene::generate(choice, rng).discipline,
            // Toggle the feedback mode.
            1 => gene.ecn = !gene.ecn,
            // Nudge one parameter of the current discipline.
            _ => match &mut gene.discipline {
                Qdisc::DropTail => gene = QdiscGene::generate(choice, rng),
                Qdisc::Red {
                    min_thresh,
                    max_thresh,
                    mark_probability,
                } => match rng.gen_range_usize(0, 3) {
                    0 => {
                        *min_thresh = rng.gen_range_usize(RED_MIN_RANGE.0, RED_MIN_RANGE.1 + 1);
                        *max_thresh = (*min_thresh + RED_SPAN_RANGE.0).max(*max_thresh);
                    }
                    1 => {
                        let span = rng.gen_range_usize(RED_SPAN_RANGE.0, RED_SPAN_RANGE.1 + 1);
                        *max_thresh = *min_thresh + span;
                    }
                    _ => *mark_probability = rng.gen_range_f64(0.02, 1.0),
                },
                Qdisc::CoDel { target, interval } => {
                    if rng.gen_bool(0.5) {
                        *target = SimDuration::from_millis(
                            rng.gen_range_u64(CODEL_TARGET_MS.0, CODEL_TARGET_MS.1 + 1),
                        );
                    } else {
                        *interval = SimDuration::from_millis(
                            rng.gen_range_u64(CODEL_INTERVAL_MS.0, CODEL_INTERVAL_MS.1 + 1),
                        );
                    }
                }
            },
        }
        gene
    }
}

/// One evolved flow: its algorithm and schedule.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowGene {
    /// Congestion control algorithm the flow runs.
    pub cca: CcaKind,
    /// When the flow starts sending.
    pub start: SimTime,
    /// When the flow stops sending (`None` = runs to the end).
    pub stop: Option<SimTime>,
}

impl FlowGene {
    /// A flow that runs `cca` for the whole scenario.
    pub fn whole_run(cca: CcaKind) -> Self {
        FlowGene {
            cca,
            start: SimTime::ZERO,
            stop: None,
        }
    }

    /// A fresh competitor: an algorithm from `pool`, then a start in the
    /// first `start_frac` of the scenario; it runs to the end.
    pub(crate) fn random(
        pool: &[CcaKind],
        duration: SimDuration,
        start_frac: f64,
        rng: &mut SimRng,
    ) -> Self {
        FlowGene {
            cca: random_cca(pool, rng),
            start: random_time(duration, 0.0, start_frac, rng),
            stop: None,
        }
    }

    /// A stop time in the second half of the scenario, at least a tenth of
    /// it (and 100 ms) after `start`, never past the end.
    pub(crate) fn random_stop(start: SimTime, duration: SimDuration, rng: &mut SimRng) -> SimTime {
        let earliest = start + duration.div(10).max(SimDuration::from_millis(100));
        random_time(duration, 0.5, 1.0, rng)
            .max(earliest)
            .min(SimTime::ZERO + duration)
    }
}

// ---------------------------------------------------------------------------
// Competitor-flow operators, shared by every multi-flow genome. Flow 0 of a
// list is the always-on incumbent running the algorithm under test: no
// operator here re-schedules, re-draws or removes it, so every scenario has
// a flow to be unfair *to*, and the finding id and corpus bucket (derived
// from flow 0's algorithm) describe a flow the scenario actually contains.
// ---------------------------------------------------------------------------

/// A uniformly random instant between the `lo_frac` and `hi_frac` fractions
/// of `duration`.
pub(crate) fn random_time(
    duration: SimDuration,
    lo_frac: f64,
    hi_frac: f64,
    rng: &mut SimRng,
) -> SimTime {
    let span = duration.as_nanos() as f64;
    let lo = (span * lo_frac) as u64;
    let hi = ((span * hi_frac) as u64).max(lo + 1);
    SimTime::from_nanos(rng.gen_range_u64(lo, hi))
}

/// A uniformly random algorithm from `pool` (which must not be empty).
pub(crate) fn random_cca(pool: &[CcaKind], rng: &mut SimRng) -> CcaKind {
    pool[rng.gen_range_usize(0, pool.len())]
}

/// Randomly perturbs one competitor's schedule: usually a new start, then
/// half the time no stop and half the time a fresh stop.
pub(crate) fn perturb_schedule(flows: &mut [FlowGene], duration: SimDuration, rng: &mut SimRng) {
    if flows.len() < 2 {
        return;
    }
    let flow = &mut flows[rng.gen_range_usize(1, flows.len())];
    if rng.gen_bool(0.7) {
        flow.start = random_time(duration, 0.0, 0.5, rng);
    }
    flow.stop = if rng.gen_bool(0.5) {
        None
    } else {
        Some(FlowGene::random_stop(flow.start, duration, rng))
    };
}

/// Swaps one competitor's algorithm for one drawn from `pool`.
pub(crate) fn swap_cca(flows: &mut [FlowGene], pool: &[CcaKind], rng: &mut SimRng) {
    if pool.is_empty() || flows.len() < 2 {
        return;
    }
    let idx = rng.gen_range_usize(1, flows.len());
    flows[idx].cca = random_cca(pool, rng);
}

/// Appends a fresh competitor starting in the first 70 % of the scenario,
/// unless the list is at its `max` or the pool is empty.
pub(crate) fn add_flow(
    flows: &mut Vec<FlowGene>,
    max: usize,
    pool: &[CcaKind],
    duration: SimDuration,
    rng: &mut SimRng,
) {
    if flows.len() >= max || pool.is_empty() {
        return;
    }
    flows.push(FlowGene::random(pool, duration, 0.7, rng));
}

/// Removes one competitor, keeping at least `min` flows.
pub(crate) fn remove_competitor<T>(flows: &mut Vec<T>, min: usize, rng: &mut SimRng) {
    if flows.len() <= min {
        return;
    }
    flows.remove(rng.gen_range_usize(1, flows.len()));
}

/// Crosses two flow lists: a prefix of one parent (a coin flip picks which)
/// and the rest of the other, cut to `max` and padded from the second
/// parent up to `min`. Flow 0 starts at time zero.
pub(crate) fn splice(
    x: &[FlowGene],
    y: &[FlowGene],
    min: usize,
    max: usize,
    rng: &mut SimRng,
) -> Vec<FlowGene> {
    let (a, b) = if rng.gen_bool(0.5) { (x, y) } else { (y, x) };
    let split = rng.gen_range_usize(1, a.len() + 1);
    let mut flows: Vec<FlowGene> = a.iter().copied().take(split).collect();
    flows.extend(b.iter().copied().skip(split));
    flows.truncate(max.max(min));
    while flows.len() < min {
        flows.push(b[flows.len() % b.len()]);
    }
    flows[0].start = SimTime::ZERO;
    flows
}

/// Checks that every flow starts within `duration` and stops after it
/// starts; errors name the flow as `{noun} {index}`.
pub(crate) fn validate_schedules<'a>(
    flows: impl IntoIterator<Item = &'a FlowGene>,
    duration: SimDuration,
    noun: &str,
) -> Result<(), String> {
    for (i, f) in flows.into_iter().enumerate() {
        if f.start.as_nanos() > duration.as_nanos() {
            return Err(format!("{noun} {i} starts beyond the scenario duration"));
        }
        if f.stop.is_some_and(|stop| stop <= f.start) {
            return Err(format!("{noun} {i} stops before it starts"));
        }
    }
    Ok(())
}

/// A multi-flow scenario genome.
///
/// The two AQM-era fields are omitted at their defaults and tolerated when
/// missing, so scenario findings persisted before the qdisc layer existed
/// deserialize unchanged and re-serialize byte-identically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGenome {
    /// The competing flows (at least `min_flows`, at most `max_flows`).
    /// Flow 0 is the primary flow.
    pub flows: Vec<FlowGene>,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Maximum number of concurrent flows mutation may grow to.
    pub max_flows: usize,
    /// Algorithms mutation may draw from when swapping or adding flows.
    pub cca_pool: Vec<CcaKind>,
    /// Optional unresponsive cross-traffic helper (a traffic sub-genome);
    /// `None` disables cross traffic entirely.
    pub traffic: Option<TrafficGenome>,
    /// Minimum flows mutation keeps: [`MIN_FAIRNESS_FLOWS`] for fairness
    /// scenarios (unfairness needs competition), 1 for AQM scenarios
    /// (a single CCA against an evolved gateway is a complete experiment).
    #[serde(
        default = "min_fairness_flows",
        skip_serializing_if = "is_min_fairness_flows"
    )]
    pub min_flows: usize,
    /// Optional evolved gateway discipline (AQM scenarios); `None` keeps
    /// the campaign's configured qdisc (drop-tail everywhere today).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub qdisc: Option<QdiscGene>,
}

fn min_fairness_flows() -> usize {
    MIN_FAIRNESS_FLOWS
}

fn is_min_fairness_flows(min_flows: &usize) -> bool {
    *min_flows == MIN_FAIRNESS_FLOWS
}

impl ScenarioGenome {
    /// Generates a fresh random scenario seeded with the given per-flow
    /// algorithms (all flows initially run the whole scenario; mutation
    /// explores staggered schedules). `traffic_max_packets > 0` attaches a
    /// random cross-traffic sub-genome with that packet cap.
    pub fn generate(
        base_flows: &[CcaKind],
        max_flows: usize,
        duration: SimDuration,
        traffic_max_packets: usize,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            base_flows.len() >= MIN_FAIRNESS_FLOWS,
            "a fairness scenario needs at least {MIN_FAIRNESS_FLOWS} flows"
        );
        let flows = base_flows
            .iter()
            .map(|&cca| FlowGene::whole_run(cca))
            .collect();
        let traffic = TrafficGenome::generate_optional(traffic_max_packets, duration, rng);
        let mut genome = ScenarioGenome {
            flows,
            duration,
            max_flows: max_flows.max(base_flows.len()),
            cca_pool: base_flows.to_vec(),
            traffic,
            min_flows: MIN_FAIRNESS_FLOWS,
            qdisc: None,
        };
        // One schedule perturbation so the initial population is diverse.
        perturb_schedule(&mut genome.flows, duration, rng);
        genome
    }

    /// Generates a fresh AQM scenario: a single always-on `cca` flow, a
    /// random cross-traffic helper (when `traffic_max_packets > 0`) and a
    /// random qdisc gene drawn from `choice`. The GA evolves the gateway
    /// (discipline, parameters, ECN) and the traffic against the fixed CCA.
    pub fn generate_aqm(
        cca: CcaKind,
        duration: SimDuration,
        traffic_max_packets: usize,
        choice: QdiscChoice,
        rng: &mut SimRng,
    ) -> Self {
        let traffic = TrafficGenome::generate_optional(traffic_max_packets, duration, rng);
        ScenarioGenome {
            flows: vec![FlowGene::whole_run(cca)],
            duration,
            max_flows: 1,
            cca_pool: vec![cca],
            traffic,
            min_flows: 1,
            qdisc: Some(QdiscGene::generate(choice, rng)),
        }
    }

    /// The number of concurrent flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }
}

impl Genome for ScenarioGenome {
    fn mutate(&self, rng: &mut SimRng) -> Self {
        let mut child = self.clone();
        let (flows, duration, pool) = (&mut child.flows, self.duration, &self.cca_pool);
        // Genomes with qdisc genes get a sixth mutation arm; plain fairness
        // genomes keep the original five (and the original rng stream).
        let arms = if child.qdisc.is_some() { 6 } else { 5 };
        match rng.gen_range_usize(0, arms) {
            0 => perturb_schedule(flows, duration, rng),
            1 => swap_cca(flows, pool, rng),
            2 => add_flow(flows, self.max_flows, pool, duration, rng),
            3 => remove_competitor(flows, self.min_flows.max(1), rng),
            4 => {
                if let Some(traffic) = &child.traffic {
                    child.traffic = Some(traffic.mutate(rng));
                } else if flows.len() >= 2 {
                    perturb_schedule(flows, duration, rng);
                } else if let Some(gene) = &child.qdisc {
                    child.qdisc = Some(gene.mutate(rng));
                }
            }
            _ => {
                let gene = child.qdisc.expect("arm 5 only exists with qdisc genes");
                child.qdisc = Some(gene.mutate(rng));
            }
        }
        child
    }

    fn crossover(&self, other: &Self, rng: &mut SimRng) -> Option<Self> {
        let min_flows = self.min_flows.max(1);
        let flows = splice(&self.flows, &other.flows, min_flows, self.max_flows, rng);
        let traffic = TrafficGenome::cross_optional(&self.traffic, &other.traffic, rng);
        // Qdisc genes cross by inheriting one parent's gene wholesale (the
        // discipline parameters are too entangled to splice field-wise).
        // The rng is only consulted when a gene exists, so plain fairness
        // crossover keeps its original stream.
        let qdisc = match (&self.qdisc, &other.qdisc) {
            (Some(x), Some(y)) => Some(if rng.gen_bool(0.5) { *x } else { *y }),
            (Some(x), None) | (None, Some(x)) => Some(*x),
            (None, None) => None,
        };
        Some(ScenarioGenome {
            flows,
            duration: self.duration,
            max_flows: self.max_flows,
            cca_pool: self.cca_pool.clone(),
            traffic,
            min_flows: self.min_flows,
            qdisc,
        })
    }

    fn packet_count(&self) -> usize {
        self.traffic.as_ref().map(|t| t.packet_count()).unwrap_or(0)
    }

    fn validate(&self) -> Result<(), String> {
        if self.flows.is_empty() {
            return Err("scenario genome has no flows".into());
        }
        if self.flows.len() < self.min_flows {
            return Err(format!(
                "scenario genome has {} flows, minimum is {}",
                self.flows.len(),
                self.min_flows
            ));
        }
        if self.flows.len() > self.max_flows.max(self.min_flows) {
            return Err(format!(
                "scenario genome has {} flows, cap is {}",
                self.flows.len(),
                self.max_flows
            ));
        }
        if let Some(gene) = &self.qdisc {
            gene.discipline.validate()?;
        }
        validate_schedules(&self.flows, self.duration, "flow")?;
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
        }
        Ok(())
    }
}

impl ModeGenome for ScenarioGenome {
    fn serves(mode: FuzzMode) -> bool {
        matches!(mode, FuzzMode::Fairness | FuzzMode::Aqm)
    }

    fn generate(campaign: &Campaign, rng: &mut SimRng) -> Self {
        let (duration, max_packets) = (campaign.duration, campaign.traffic_max_packets);
        if campaign.mode == FuzzMode::Aqm {
            let choice = campaign.qdisc_choice;
            ScenarioGenome::generate_aqm(campaign.cca, duration, max_packets, choice, rng)
        } else {
            let (ccas, max_flows) = (&campaign.flow_ccas, campaign.max_flows);
            ScenarioGenome::generate(ccas, max_flows, duration, max_packets, rng)
        }
    }

    fn lower(&self, evaluator: &SimEvaluator, scratch: &mut EvalScratch) -> SimConfig {
        let mut cfg = evaluator.run_cfg(self.duration);
        cfg.link = LinkModel::FixedRate {
            rate_bps: evaluator.link_rate_bps,
        };
        cfg.cross_traffic = match &self.traffic {
            Some(traffic) => traffic.to_trace(),
            None => TrafficTrace::empty(self.duration),
        };
        // AQM scenarios carry the gateway in the genome; fairness scenarios
        // leave it as the campaign configured (drop-tail today).
        if let Some(gene) = &self.qdisc {
            cfg.qdisc = gene.discipline;
            cfg.ecn_enabled = gene.ecn;
        }
        scratch.set_flows(&self.flows);
        cfg
    }

    fn score(
        &self,
        evaluator: &SimEvaluator,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let (scoring, mss) = (&evaluator.scoring, evaluator.base.mss);
        EvalOutcome::from_multi_flow_result(scoring, result, mss, self.traffic.as_ref(), scratch)
    }

    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload {
        SnapshotPayload::Scenario(snapshot)
    }

    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String> {
        match payload {
            SnapshotPayload::Scenario(s) => Ok(s),
            other => Err(other.mismatch::<Self>()),
        }
    }

    fn wrap(self) -> GenomePayload {
        GenomePayload::Scenario(self)
    }

    fn set_primary_cca(&mut self, cca: CcaKind) {
        self.flows[0].cca = cca;
    }

    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        Some(self.flows.iter().map(|f| f.cca).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: SimDuration = SimDuration::from_secs(5);

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    fn base() -> ScenarioGenome {
        let mut rng = rng();
        ScenarioGenome::generate(&[CcaKind::Bbr, CcaKind::Reno], 4, DUR, 500, &mut rng)
    }

    #[test]
    fn generation_produces_valid_scenarios() {
        let g = base();
        g.validate().unwrap();
        assert_eq!(g.flow_count(), 2);
        assert_eq!(g.flows[0].cca, CcaKind::Bbr);
        assert_eq!(g.flows[1].cca, CcaKind::Reno);
        assert_eq!(g.flows[0].start, SimTime::ZERO, "flow 0 is always-on");
        assert!(g.traffic.is_some());
    }

    #[test]
    fn generation_without_traffic_budget_has_no_traffic() {
        let mut rng = rng();
        let g = ScenarioGenome::generate(&[CcaKind::Reno, CcaKind::Reno], 3, DUR, 0, &mut rng);
        assert!(g.traffic.is_none());
        assert_eq!(g.packet_count(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn mutation_keeps_invariants_and_explores() {
        let g = base();
        let mut rng = rng();
        let mut saw_flow_count_change = false;
        let mut saw_schedule_change = false;
        let mut current = g.clone();
        for _ in 0..100 {
            current = current.mutate(&mut rng);
            current.validate().unwrap();
            assert!(current.flow_count() >= MIN_FAIRNESS_FLOWS);
            assert!(current.flow_count() <= 4);
            if current.flow_count() != g.flow_count() {
                saw_flow_count_change = true;
            }
            if current.flows[..2.min(current.flows.len())]
                .iter()
                .zip(&g.flows)
                .any(|(a, b)| a.start != b.start || a.stop != b.stop)
            {
                saw_schedule_change = true;
            }
        }
        assert!(saw_flow_count_change, "mutation should add/remove flows");
        assert!(saw_schedule_change, "mutation should perturb schedules");
    }

    #[test]
    fn crossover_combines_parents() {
        let mut rng = rng();
        let a = ScenarioGenome::generate(&[CcaKind::Bbr, CcaKind::Reno], 4, DUR, 300, &mut rng);
        let b = ScenarioGenome::generate(&[CcaKind::Cubic, CcaKind::Vegas], 4, DUR, 300, &mut rng);
        for _ in 0..20 {
            let child = a.crossover(&b, &mut rng).unwrap();
            child.validate().unwrap();
            assert!(child.flow_count() >= MIN_FAIRNESS_FLOWS);
            assert_eq!(child.flows[0].start, SimTime::ZERO);
            for f in &child.flows {
                assert!(
                    a.flows.iter().any(|x| x.cca == f.cca)
                        || b.flows.iter().any(|x| x.cca == f.cca),
                    "child CCAs come from a parent"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_bad_schedules() {
        let mut g = base();
        g.flows[1].stop = Some(g.flows[1].start);
        assert!(g.validate().is_err());
        let mut g = base();
        g.flows[1].start = SimTime::ZERO + DUR + SimDuration::from_secs(1);
        assert!(g.validate().is_err());
        let mut g = base();
        g.flows.clear();
        assert!(g.validate().is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let g = base();
        let json = serde_json::to_string(&g).unwrap();
        let back: ScenarioGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn fairness_genome_serde_omits_aqm_fields() {
        // Fairness genomes (min_flows = 2, no qdisc gene) must serialize
        // exactly as before the qdisc layer existed: scenario findings from
        // older corpora re-serialize byte-identically.
        let g = base();
        let json = serde_json::to_string(&g).unwrap();
        assert!(!json.contains("min_flows"));
        assert!(!json.contains("qdisc"));
        // Pre-AQM JSON (no such fields) parses to the defaults.
        let back: ScenarioGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.min_flows, MIN_FAIRNESS_FLOWS);
        assert!(back.qdisc.is_none());
    }

    fn aqm_base() -> ScenarioGenome {
        let mut rng = rng();
        ScenarioGenome::generate_aqm(CcaKind::Reno, DUR, 500, QdiscChoice::Any, &mut rng)
    }

    #[test]
    fn aqm_generation_produces_valid_single_flow_scenarios() {
        let g = aqm_base();
        g.validate().unwrap();
        assert_eq!(g.flow_count(), 1);
        assert_eq!(g.min_flows, 1);
        assert_eq!(g.flows[0].cca, CcaKind::Reno);
        assert_eq!(g.flows[0].start, SimTime::ZERO);
        let gene = g.qdisc.expect("aqm genomes carry a qdisc gene");
        gene.discipline.validate().unwrap();
        assert!(g.traffic.is_some());
    }

    #[test]
    fn aqm_genome_serde_roundtrips_with_qdisc_fields() {
        let g = aqm_base();
        let json = serde_json::to_string(&g).unwrap();
        assert!(json.contains("min_flows"));
        assert!(json.contains("qdisc"));
        let back: ScenarioGenome = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn qdisc_choice_restriction_is_honoured_across_mutation() {
        for (choice, expect) in [(QdiscChoice::Red, "red"), (QdiscChoice::CoDel, "codel")] {
            let mut rng = rng();
            let mut g = ScenarioGenome::generate_aqm(CcaKind::Bbr, DUR, 200, choice, &mut rng);
            for _ in 0..200 {
                g = g.mutate(&mut rng);
                g.validate().unwrap();
                let gene = g.qdisc.expect("mutation never loses the qdisc gene");
                assert_eq!(
                    gene.discipline.name(),
                    expect,
                    "restricted hunt escaped its discipline"
                );
            }
        }
    }

    #[test]
    fn aqm_mutation_explores_disciplines_params_and_ecn() {
        let mut rng = rng();
        let g = aqm_base();
        let mut saw_red = false;
        let mut saw_codel = false;
        let mut saw_ecn_both = (false, false);
        let mut saw_param_change = false;
        let mut current = g.clone();
        for _ in 0..300 {
            let next = current.mutate(&mut rng);
            next.validate().unwrap();
            assert_eq!(next.flow_count(), 1, "max_flows=1 keeps the flow solo");
            let gene = next.qdisc.unwrap();
            match gene.discipline {
                Qdisc::Red { .. } => saw_red = true,
                Qdisc::CoDel { .. } => saw_codel = true,
                Qdisc::DropTail => {}
            }
            if gene.ecn {
                saw_ecn_both.0 = true;
            } else {
                saw_ecn_both.1 = true;
            }
            if let (Some(a), Some(b)) = (current.qdisc, next.qdisc) {
                if a.discipline.name() == b.discipline.name() && a.discipline != b.discipline {
                    saw_param_change = true;
                }
            }
            current = next;
        }
        assert!(saw_red && saw_codel, "Any must explore both disciplines");
        assert!(saw_ecn_both.0 && saw_ecn_both.1, "ECN must toggle");
        assert!(saw_param_change, "parameters must be perturbed in place");
    }

    #[test]
    fn aqm_crossover_inherits_a_parent_gene() {
        let mut rng = rng();
        let a = ScenarioGenome::generate_aqm(CcaKind::Reno, DUR, 200, QdiscChoice::Red, &mut rng);
        let b = ScenarioGenome::generate_aqm(CcaKind::Reno, DUR, 200, QdiscChoice::CoDel, &mut rng);
        let mut saw = (false, false);
        for _ in 0..40 {
            let child = a.crossover(&b, &mut rng).unwrap();
            child.validate().unwrap();
            assert_eq!(child.flow_count(), 1, "min_flows=1: no padding to 2 flows");
            let gene = child.qdisc.expect("child inherits a qdisc gene");
            assert!(
                gene == a.qdisc.unwrap() || gene == b.qdisc.unwrap(),
                "gene comes from a parent"
            );
            match gene.discipline {
                Qdisc::Red { .. } => saw.0 = true,
                Qdisc::CoDel { .. } => saw.1 = true,
                Qdisc::DropTail => {}
            }
        }
        assert!(saw.0 && saw.1, "both parents' genes get inherited");
    }
}
