//! Ready-made fuzzing campaigns matching the paper's evaluation setup.
//!
//! A *campaign* bundles the network scenario (§3.1/§4: 12 Mbps bottleneck,
//! 20 ms propagation delay, SACK + delayed ACKs, 1 s min-RTO), a CCA under
//! test, a scoring configuration and the GA parameters, and runs any of the
//! fuzzing modes end to end through [`Campaign::run`]. The `paper` table,
//! the examples and the integration tests all go through this module, and
//! replay the crafted §4 traces defined here, so the experiment definitions
//! live in exactly one place.

use crate::checkpoint::ControlledRun;
use crate::evaluate::SimEvaluator;
use crate::fuzzer::{FuzzResult, Fuzzer, FuzzerSnapshot, GaParams};
use crate::genome::{LinkGenome, TrafficGenome};
use crate::mode::{served_names, ModeGenome};
use crate::scenario::{QdiscChoice, ScenarioGenome};
use crate::scoring::ScoringConfig;
use crate::shard::{run_lanes, LoopControl};
use crate::trace_gen::packets_for_rate;
use crate::workload::WorkloadGenome;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::queue::QueueCapacity;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_obs::{HuntTelemetry, Phase};
use serde::{Deserialize, Serialize};

/// The paper's bottleneck rate (12 Mbps).
pub const PAPER_LINK_RATE_BPS: u64 = 12_000_000;
/// The paper's one-way propagation delay (20 ms).
pub const PAPER_PROP_DELAY_MS: u64 = 20;
/// The paper's aggregation threshold for DIST_PACKETS (50 ms).
pub const PAPER_K_AGG_MS: u64 = 50;

/// Which fuzzing mode a campaign uses: the paper's two single-flow modes
/// (§3.1) plus the four built on the multi-flow, multi-hop, dynamic-arrival
/// engine. [`crate::mode::dispatch`] maps each to the genome type it evolves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FuzzMode {
    /// Evolve bottleneck service curves (fixed cross traffic = none).
    Link,
    /// Evolve cross-traffic patterns (fixed-rate bottleneck).
    Traffic,
    /// Evolve multi-flow scenarios (flow mix, schedules, optional cross
    /// traffic) hunting for unfairness/starvation between concurrent CCAs.
    Fairness,
    /// Evolve gateway queue disciplines (RED/CoDel parameters, ECN on/off)
    /// plus cross traffic, hunting for AQM configurations that break a CCA.
    Aqm,
    /// Evolve multi-hop topologies (per-hop rate/delay/buffer/qdisc,
    /// per-flow parking-lot paths) plus cross traffic, hunting for hop
    /// chains that break flows.
    Topology,
    /// Evolve dynamic-arrival workloads (arrival process, heavy-tailed flow
    /// sizes, background elephant mix) hunting for flow-churn patterns that
    /// inflate the tail latency of short flows.
    Workload,
}

impl FuzzMode {
    /// Short name used in reports, corpus buckets and finding ids.
    pub fn name(&self) -> &'static str {
        match self {
            FuzzMode::Link => "link",
            FuzzMode::Traffic => "traffic",
            FuzzMode::Fairness => "fairness",
            FuzzMode::Aqm => "aqm",
            FuzzMode::Topology => "topology",
            FuzzMode::Workload => "workload",
        }
    }

    /// Every mode, in CLI/documentation order.
    pub const ALL: [FuzzMode; 6] = [
        FuzzMode::Traffic,
        FuzzMode::Link,
        FuzzMode::Fairness,
        FuzzMode::Aqm,
        FuzzMode::Topology,
        FuzzMode::Workload,
    ];

    /// Parses a CLI name as produced by [`FuzzMode::name`].
    pub fn from_name(name: &str) -> Option<FuzzMode> {
        FuzzMode::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// A complete campaign description.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Fuzzing mode.
    pub mode: FuzzMode,
    /// Algorithm under test (the primary flow's algorithm in fairness mode).
    pub cca: CcaKind,
    /// Scenario duration per simulation.
    pub duration: SimDuration,
    /// Scoring configuration.
    pub scoring: ScoringConfig,
    /// Genetic-algorithm parameters.
    pub ga: GaParams,
    /// Base simulation settings.
    pub sim: SimConfig,
    /// Bottleneck rate (fixed rate in traffic mode, average rate in link mode).
    pub link_rate_bps: u64,
    /// Cross-traffic packet budget for traffic genomes.
    pub traffic_max_packets: usize,
    /// Initial per-flow algorithms for fairness mode (empty otherwise).
    /// Flow 0 always equals `cca`.
    pub flow_ccas: Vec<CcaKind>,
    /// Maximum concurrent flows fairness mutation may grow to.
    pub max_flows: usize,
    /// Disciplines AQM-mode genomes may draw from (ignored elsewhere).
    pub qdisc_choice: QdiscChoice,
    /// Initial hop count of topology-mode genomes (ignored elsewhere).
    pub topology_hops: usize,
}

impl Campaign {
    /// Builds the paper's standard scenario for one of the paper's two
    /// single-flow modes (link or traffic), CCA, duration and GA parameters,
    /// with the low-throughput objective. Panics for the other four modes,
    /// which need flow mixes, qdisc/hop genes or objectives this preset does
    /// not configure — each has its own `paper_*` preset.
    pub fn paper_standard(
        mode: FuzzMode,
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
    ) -> Self {
        assert!(
            matches!(mode, FuzzMode::Link | FuzzMode::Traffic),
            "paper_standard/paper_high_delay build link and traffic campaigns only; \
             use Campaign::paper_{0} for {0} mode",
            mode.name()
        );
        let low_throughput = ScoringConfig::low_throughput_default(PAPER_LINK_RATE_BPS as f64);
        let base = Self::paper_base(mode, cca, duration, ga, low_throughput);
        Campaign {
            // Enough cross traffic to fully occupy the link.
            traffic_max_packets: packets_for_rate(PAPER_LINK_RATE_BPS, base.sim.mss, duration),
            ..base
        }
    }

    /// What every preset shares: the paper's 12 Mbps bottleneck and base
    /// simulation settings, a single flow of `cca`, and a cross-traffic
    /// helper capped at half the link's packet budget.
    fn paper_base(
        mode: FuzzMode,
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
        scoring: ScoringConfig,
    ) -> Self {
        let sim = paper_sim_base(duration);
        Campaign {
            mode,
            cca,
            duration,
            scoring,
            ga,
            traffic_max_packets: packets_for_rate(PAPER_LINK_RATE_BPS, sim.mss, duration) / 2,
            sim,
            link_rate_bps: PAPER_LINK_RATE_BPS,
            flow_ccas: vec![cca],
            max_flows: 1,
            qdisc_choice: QdiscChoice::Any,
            topology_hops: 1,
        }
    }

    /// The fairness campaign preset: the paper's standard scenario (12 Mbps
    /// bottleneck, 20 ms propagation delay) shared by the given flows, with
    /// the unfairness objective. The GA evolves the flow schedule, the flow
    /// mix (drawing replacements from `flow_ccas`) and an optional
    /// cross-traffic helper capped at half the link's packet budget.
    pub fn paper_fairness(flow_ccas: Vec<CcaKind>, duration: SimDuration, ga: GaParams) -> Self {
        assert!(
            flow_ccas.len() >= crate::scenario::MIN_FAIRNESS_FLOWS,
            "fairness campaigns need at least two flows"
        );
        let scoring = ScoringConfig::fairness_default(PAPER_LINK_RATE_BPS as f64);
        let base = Self::paper_base(FuzzMode::Fairness, flow_ccas[0], duration, ga, scoring);
        Campaign {
            max_flows: flow_ccas.len().max(4),
            flow_ccas,
            ..base
        }
    }

    /// The AQM campaign preset: the paper's standard single-flow scenario,
    /// but the GA additionally evolves the gateway queue discipline
    /// (RED/CoDel parameters and ECN negotiation) alongside the cross
    /// traffic, hunting for AQM configurations that break `cca`. `choice`
    /// restricts the disciplines explored (the CLI's `--qdisc` flag).
    pub fn paper_aqm(
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
        choice: QdiscChoice,
    ) -> Self {
        let scoring = ScoringConfig::aqm_default(PAPER_LINK_RATE_BPS as f64);
        Campaign {
            qdisc_choice: choice,
            ..Self::paper_base(FuzzMode::Aqm, cca, duration, ga, scoring)
        }
    }

    /// The topology campaign preset: the GA evolves a chain of `hops`
    /// bottleneck hops (rates bracketing the paper's 12 Mbps, per-hop
    /// delays/buffers/qdiscs), parking-lot competitor flows drawn from
    /// `cca` + Reno, and a cross-traffic helper at the head of the chain,
    /// hunting for hop chains that break `cca`.
    pub fn paper_topology(cca: CcaKind, hops: usize, duration: SimDuration, ga: GaParams) -> Self {
        let scoring = ScoringConfig::topology_default(PAPER_LINK_RATE_BPS as f64);
        Campaign {
            flow_ccas: vec![cca, CcaKind::Reno],
            max_flows: 3,
            topology_hops: hops.max(1),
            ..Self::paper_base(FuzzMode::Topology, cca, duration, ga, scoring)
        }
    }

    /// The workload campaign preset: the paper's standard bottleneck, but
    /// the GA evolves a dynamic-arrival workload — Poisson or ON/OFF flow
    /// arrivals with bounded-Pareto sizes, a concurrency cap, and a
    /// background elephant mix drawn from `cca_pool` — hunting for churn
    /// patterns that inflate the p99 flow-completion time of short flows
    /// through `cca`'s elephants. `max_elephants` bounds the background mix
    /// (stored in the campaign's `max_flows` field). There is no
    /// cross-traffic helper.
    pub fn paper_workload(
        cca: CcaKind,
        cca_pool: Vec<CcaKind>,
        max_elephants: usize,
        duration: SimDuration,
        ga: GaParams,
    ) -> Self {
        assert!(!cca_pool.is_empty(), "workload campaigns need a CCA pool");
        let scoring = ScoringConfig::workload_default(PAPER_LINK_RATE_BPS as f64);
        Campaign {
            traffic_max_packets: 0,
            flow_ccas: cca_pool,
            max_flows: max_elephants.max(crate::workload::MIN_ELEPHANTS),
            ..Self::paper_base(FuzzMode::Workload, cca, duration, ga, scoring)
        }
    }

    /// Same scenario (link or traffic mode only) but hunting for high
    /// queuing delay (§4.3 / Figure 4e).
    pub fn paper_high_delay(
        mode: FuzzMode,
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
    ) -> Self {
        let mut c = Self::paper_standard(mode, cca, duration, ga);
        c.scoring = ScoringConfig::high_delay_default(PAPER_LINK_RATE_BPS as f64);
        c
    }

    /// The evaluator this campaign uses.
    pub fn evaluator(&self) -> SimEvaluator {
        SimEvaluator::new(self.sim.clone(), self.cca, self.scoring, self.link_rate_bps)
    }

    /// Runs the campaign to completion over genome type `G`, with an
    /// optional telemetry observer. The observer is passive — population
    /// evolution and results are identical with or without it. Panics if
    /// `G` does not serve the campaign's mode.
    pub fn run<G: ModeGenome>(&self, obs: Option<&HuntTelemetry>) -> FuzzResult<G> {
        let ctl = LoopControl {
            obs,
            ..LoopControl::default()
        };
        self.run_controlled(None, &ctl, None)
            .expect("uncontrolled campaign runs cannot fail to start")
            .result
    }

    /// [`Campaign::run`] under a [`LoopControl`] (shutdown flag, checkpoint
    /// cadence, panic budget, observer), fresh or resumed from `resume`
    /// (refusing a snapshot whose GA parameters do not match the
    /// campaign's); `on_checkpoint` receives the snapshot of every
    /// checkpoint boundary.
    pub fn run_controlled<G: ModeGenome>(
        &self,
        resume: Option<FuzzerSnapshot<G>>,
        ctl: &LoopControl<'_, G>,
        on_checkpoint: Option<&mut dyn FnMut(FuzzerSnapshot<G>)>,
    ) -> Result<ControlledRun<G>, String> {
        let evaluator = self.evaluator();
        let mut fuzzer = self.build_fuzzer(&evaluator, resume, ctl.obs, 0, self.ga.islands)?;
        // The same loop a fleet runs, over one in-process lane.
        run_lanes(std::slice::from_mut(&mut fuzzer), ctl, on_checkpoint)
    }

    /// Builds this campaign's fuzzer over genome type `G` for the shard that
    /// owns islands `start..end` (`0..islands` is the whole campaign): fresh
    /// from the campaign seed or restored from `resume`, that slice (refusing
    /// checkpoints whose GA parameters do not match), with the annealing
    /// hook attached when `ga.anneal` is set and `G` has one. Every run and
    /// shard worker goes through this one constructor, so a worker's islands
    /// are the whole build's, byte for byte. Panics if `G` does not serve the
    /// campaign's mode.
    pub fn build_fuzzer<'e, G: ModeGenome>(
        &self,
        evaluator: &'e SimEvaluator,
        resume: Option<FuzzerSnapshot<G>>,
        obs: Option<&'e HuntTelemetry>,
        start: usize,
        end: usize,
    ) -> Result<Fuzzer<'e, G, SimEvaluator>, String> {
        assert!(
            G::serves(self.mode),
            "campaign is in {} mode, but this genome type serves {}",
            self.mode.name(),
            served_names(G::serves)
        );
        let mut fuzzer = match resume {
            Some(snapshot) if snapshot.params != self.ga => {
                return Err(
                    "checkpoint GA parameters do not match the campaign's configuration".into(),
                );
            }
            Some(snapshot) => Fuzzer::restore_shard(evaluator, snapshot, start, end)?,
            None => {
                let _timer = obs.map(|o| o.profiler.scope(Phase::Generate));
                Fuzzer::new_shard(self.ga, evaluator, |rng| G::generate(self, rng), start, end)
            }
        };
        if let (true, Some(anneal)) = (self.ga.anneal, G::annealer()) {
            fuzzer = fuzzer.with_annealing(anneal);
        }
        if let Some(obs) = obs {
            fuzzer = fuzzer.with_observer(obs);
        }
        Ok(fuzzer)
    }

    /// [`Campaign::build_fuzzer`] for link genomes. This and its three
    /// siblings are the monomorphic names the benchmark harness compiles
    /// against.
    pub fn build_link_fuzzer<'e>(
        &self,
        evaluator: &'e SimEvaluator,
        resume: Option<FuzzerSnapshot<LinkGenome>>,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, LinkGenome, SimEvaluator>, String> {
        self.build_fuzzer(evaluator, resume, obs, 0, self.ga.islands)
    }

    /// [`Campaign::build_fuzzer`] for traffic genomes.
    pub fn build_traffic_fuzzer<'e>(
        &self,
        evaluator: &'e SimEvaluator,
        resume: Option<FuzzerSnapshot<TrafficGenome>>,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, TrafficGenome, SimEvaluator>, String> {
        self.build_fuzzer(evaluator, resume, obs, 0, self.ga.islands)
    }

    /// [`Campaign::build_fuzzer`] for scenario genomes.
    pub fn build_fairness_fuzzer<'e>(
        &self,
        evaluator: &'e SimEvaluator,
        resume: Option<FuzzerSnapshot<ScenarioGenome>>,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, ScenarioGenome, SimEvaluator>, String> {
        self.build_fuzzer(evaluator, resume, obs, 0, self.ga.islands)
    }

    /// [`Campaign::build_fuzzer`] for workload genomes.
    pub fn build_workload_fuzzer<'e>(
        &self,
        evaluator: &'e SimEvaluator,
        resume: Option<FuzzerSnapshot<WorkloadGenome>>,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, WorkloadGenome, SimEvaluator>, String> {
        self.build_fuzzer(evaluator, resume, obs, 0, self.ga.islands)
    }
}

/// The paper's base simulation settings (§4) for a scenario of `duration`:
/// 12 Mbps bottleneck, 20 ms propagation delay, SACK and delayed ACKs
/// enabled, 1 s minimum RTO, and a bottleneck queue of roughly 2.5 BDP.
pub fn paper_sim_base(duration: SimDuration) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.duration = duration;
    cfg.cross_traffic = ccfuzz_netsim::trace::TrafficTrace::empty(duration);
    cfg.propagation_delay = SimDuration::from_millis(PAPER_PROP_DELAY_MS);
    cfg.queue_capacity = QueueCapacity::Packets(100);
    cfg.min_rto = SimDuration::from_secs(1);
    cfg.sack_enabled = true;
    cfg.delayed_ack = true;
    cfg.flow_start = SimTime::ZERO;
    cfg
}

/// Cross traffic of sustained pulses at twice the paper's link rate (one
/// packet every 500 µs, against the ~1 ms the 12 Mbps link needs per
/// packet), one per `[start_ms, end_ms)` window, keeping the drop-tail queue
/// pinned full while each pulse lasts. The budget is twice the pulses' size.
fn pulses(duration: SimDuration, windows_ms: &[(u64, u64)]) -> TrafficGenome {
    let timestamps: Vec<SimTime> = windows_ms
        .iter()
        .flat_map(|&(start, end)| (start * 1_000..end * 1_000).step_by(500))
        .map(SimTime::from_micros)
        .collect();
    TrafficGenome {
        max_packets: timestamps.len() * 2,
        timestamps,
        duration,
    }
}

/// The §4.1 (Figure 4c) trace that breaks BBR's probe-round clocking, 5 s.
/// Pulse 1 (1.00–1.25 s) keeps the queue full for ~350 ms, so a window of
/// BBR packets is dropped *and* the fast retransmission of the first hole,
/// leaving it to the RTO (armed at the last cumulative-ACK advance, ~1.1 s,
/// plus the 1 s min-RTO). Pulse 2 (2.00–2.30 s) pins the queue full around
/// that RTO, so the packets BBR sent just before it are still queued when it
/// fires: BBR retransmits them spuriously and their SACKs arrive right after,
/// each ending a probe round on a retransmitted sample.
pub fn bbr_stall_trace() -> TrafficGenome {
    pulses(SimDuration::from_secs(5), &[(1_000, 1_250), (2_000, 2_300)])
}

/// The §4.2 trace for the ns-3 CUBIC slow-start bug, 5 s: one 400 ms pulse
/// long enough that a lost packet's fast retransmission is lost too, forcing
/// an RTO; the retransmission after it fills a large hole and the cumulative
/// ACK jumps by hundreds of packets.
pub fn cubic_pulse_trace() -> TrafficGenome {
    pulses(SimDuration::from_secs(5), &[(1_000, 1_400)])
}

/// The §4.3 low-rate attack (Kuzmanovic & Knightly, SIGCOMM 2003), 6 s: a
/// 300 ms pulse roughly every second, aligned with the 1 s min-RTO, that
/// loses both the original packets and their fast retransmissions and so
/// forces Reno into RTO over and over.
pub fn lowrate_pulse_trace() -> TrafficGenome {
    pulses(
        SimDuration::from_secs(6),
        &[
            (1_000, 1_300),
            (2_100, 2_400),
            (3_200, 3_500),
            (4_300, 4_600),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SnapshotPayload;
    use crate::evaluate::{EvalScratch, Evaluator};
    use crate::fuzzer::StopReason;
    use crate::genome::Genome;
    use crate::mode::{dispatch, GenomePayload, ModeVisitor};
    use crate::scoring::ScoreScratch;

    #[test]
    fn paper_base_matches_paper_settings() {
        let cfg = paper_sim_base(SimDuration::from_secs(5));
        assert_eq!(cfg.propagation_delay, SimDuration::from_millis(20));
        assert_eq!(cfg.min_rto, SimDuration::from_secs(1));
        assert!(cfg.sack_enabled && cfg.delayed_ack);
        cfg.validate().unwrap();
    }

    #[test]
    fn standard_campaign_has_consistent_budgets() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        // The traffic budget equals the number of packets the 12 Mbps link
        // can carry over the scenario (enough to fully occupy it).
        assert_eq!(
            c.traffic_max_packets,
            packets_for_rate(PAPER_LINK_RATE_BPS, c.sim.mss, SimDuration::from_secs(5))
        );
        assert!(c.traffic_max_packets > 4_000);
        assert_eq!(c.link_rate_bps, PAPER_LINK_RATE_BPS);
    }

    #[test]
    fn high_delay_campaign_switches_objective() {
        let c = Campaign::paper_high_delay(
            FuzzMode::Traffic,
            CcaKind::Bbr,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        match c.scoring.objective {
            crate::scoring::Objective::HighDelay { percentile } => assert_eq!(percentile, 10.0),
            other => panic!("unexpected objective {other:?}"),
        }
    }

    #[test]
    fn fairness_campaign_preset_is_consistent() {
        let c = Campaign::paper_fairness(
            vec![CcaKind::Bbr, CcaKind::Reno],
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        assert_eq!(c.mode, FuzzMode::Fairness);
        assert_eq!(c.cca, CcaKind::Bbr);
        assert_eq!(c.flow_ccas, vec![CcaKind::Bbr, CcaKind::Reno]);
        assert!(c.max_flows >= 2);
        match c.scoring.objective {
            crate::scoring::Objective::Unfairness { .. } => {}
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Fairness.name(), "fairness");
    }

    #[test]
    fn aqm_campaign_preset_is_consistent() {
        let c = Campaign::paper_aqm(
            CcaKind::Cubic,
            SimDuration::from_secs(5),
            GaParams::quick(),
            QdiscChoice::Red,
        );
        assert_eq!(c.mode, FuzzMode::Aqm);
        assert_eq!(c.cca, CcaKind::Cubic);
        assert_eq!(c.max_flows, 1);
        assert_eq!(c.qdisc_choice, QdiscChoice::Red);
        match c.scoring.objective {
            crate::scoring::Objective::AqmBreakage {
                mark_weight,
                delay_weight,
                ..
            } => {
                assert_eq!(mark_weight, 0.5);
                assert_eq!(delay_weight, 0.5);
            }
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Aqm.name(), "aqm");
    }

    #[test]
    fn topology_campaign_preset_is_consistent() {
        let c = Campaign::paper_topology(
            CcaKind::Bbr,
            3,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        assert_eq!(c.mode, FuzzMode::Topology);
        assert_eq!(c.cca, CcaKind::Bbr);
        assert_eq!(c.topology_hops, 3);
        assert!(c.flow_ccas.contains(&CcaKind::Bbr));
        match c.scoring.objective {
            crate::scoring::Objective::MultiBottleneck {
                cascade_weight,
                collapse_weight,
                ..
            } => {
                assert_eq!(cascade_weight, 0.5);
                assert_eq!(collapse_weight, 0.5);
            }
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Topology.name(), "topology");
        assert_eq!(FuzzMode::from_name("topology"), Some(FuzzMode::Topology));
        assert_eq!(FuzzMode::from_name("nope"), None);
        assert_eq!(FuzzMode::ALL.len(), 6);
    }

    #[test]
    fn workload_campaign_preset_is_consistent() {
        let c = Campaign::paper_workload(
            CcaKind::Cubic,
            vec![CcaKind::Cubic, CcaKind::Reno],
            3,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        assert_eq!(c.mode, FuzzMode::Workload);
        assert_eq!(c.cca, CcaKind::Cubic);
        assert_eq!(c.flow_ccas, vec![CcaKind::Cubic, CcaKind::Reno]);
        assert_eq!(c.max_flows, 3);
        match c.scoring.objective {
            crate::scoring::Objective::TailLatency { percentile, .. } => {
                assert_eq!(percentile, 99.0);
            }
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Workload.name(), "workload");
        assert_eq!(FuzzMode::from_name("workload"), Some(FuzzMode::Workload));
    }

    #[test]
    fn paper_standard_rejects_the_modes_it_cannot_configure() {
        for mode in FuzzMode::ALL {
            let built = std::panic::catch_unwind(|| {
                Campaign::paper_high_delay(
                    mode,
                    CcaKind::Reno,
                    SimDuration::from_secs(2),
                    GaParams::quick(),
                )
            });
            match mode {
                FuzzMode::Link | FuzzMode::Traffic => assert_eq!(built.unwrap().mode, mode),
                _ => {
                    let panic = built.expect_err("must be rejected at construction");
                    let message = panic.downcast_ref::<String>().expect("formatted panic");
                    let preset = format!("Campaign::paper_{}", mode.name());
                    assert!(message.contains(&preset), "{message}");
                }
            }
        }
    }

    /// GA settings of the tiny conformance campaigns.
    fn tiny_ga(mode: FuzzMode) -> GaParams {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        ga.anneal = mode == FuzzMode::Link;
        ga
    }

    /// A minimal end-to-end campaign per mode (kept tiny so the unit-test
    /// suite stays fast; the integration tests run bigger ones).
    fn tiny_campaign(mode: FuzzMode) -> Campaign {
        let ga = tiny_ga(mode);
        let duration = SimDuration::from_secs(2);
        match mode {
            FuzzMode::Traffic | FuzzMode::Link => {
                Campaign::paper_standard(mode, CcaKind::Reno, duration, ga)
            }
            FuzzMode::Fairness => {
                Campaign::paper_fairness(vec![CcaKind::Bbr, CcaKind::Reno], duration, ga)
            }
            FuzzMode::Aqm => Campaign::paper_aqm(CcaKind::Reno, duration, ga, QdiscChoice::Any),
            FuzzMode::Topology => Campaign::paper_topology(CcaKind::Reno, 3, duration, ga),
            FuzzMode::Workload => Campaign::paper_workload(
                CcaKind::Reno,
                vec![CcaKind::Reno, CcaKind::Cubic],
                2,
                duration,
                ga,
            ),
        }
    }

    /// The per-mode body of the conformance test, run for the genome type
    /// [`dispatch`] picks.
    struct Conformance(Campaign);

    impl ModeVisitor for Conformance {
        type Out = ();

        fn visit<G: ModeGenome>(self) {
            let campaign = self.0;
            let mode = campaign.mode;

            // (i) The tiny campaign runs end to end, checkpointing its one
            // boundary.
            let mut checkpoints = Vec::new();
            let mut capture = |snapshot: FuzzerSnapshot<G>| checkpoints.push(snapshot);
            let ctl = LoopControl {
                checkpoint_every: 1,
                ..LoopControl::default()
            };
            let run = campaign
                .run_controlled::<G>(None, &ctl, Some(&mut capture))
                .unwrap();
            let result = &run.result;
            assert_eq!(run.stop, StopReason::Completed);
            assert_eq!(result.history.len(), 2, "{mode:?}");
            assert!(result.total_evaluations >= 6, "{mode:?}");
            assert!(result.best_outcome.score.is_finite(), "{mode:?}");
            result.best_genome.validate().unwrap();
            match (mode, result.best_genome.clone().wrap()) {
                (FuzzMode::Traffic, GenomePayload::Traffic(_)) => {
                    assert!(result.best_outcome.score > 0.0);
                }
                (FuzzMode::Link, GenomePayload::Link(g)) => {
                    let expected =
                        packets_for_rate(PAPER_LINK_RATE_BPS, campaign.sim.mss, campaign.duration);
                    assert_eq!(g.packet_count(), expected, "annealing keeps the count");
                }
                (FuzzMode::Fairness, GenomePayload::Scenario(g)) => {
                    assert!(g.flow_count() >= 2);
                    assert!(g.qdisc.is_none());
                }
                (FuzzMode::Aqm, GenomePayload::Scenario(g)) => {
                    assert_eq!(g.flow_count(), 1);
                    assert!(g.qdisc.is_some(), "aqm genomes always carry a qdisc gene");
                    assert!(result.best_outcome.score > 0.0);
                }
                (FuzzMode::Topology, GenomePayload::Topology(g)) => {
                    assert!(g.hop_count() >= 1);
                    assert!(result.best_outcome.score > 0.0);
                }
                (FuzzMode::Workload, GenomePayload::Workload(g)) => {
                    assert!(g.elephant_count() >= 1);
                }
                (_, other) => panic!("{mode:?} campaign evolved {other:?}"),
            }

            // (ii) A cold scratch and a warm one score identically, and
            // (iii) recording the run log never moves the run's digest, and
            // a recorded run scores what `evaluate` scored (an objective
            // that reads the log records it on every run).
            let evaluator = campaign.evaluator();
            let mut warm = EvalScratch::new();
            let population = run.final_snapshot.islands.iter().flatten();
            for individual in population.take(4) {
                let genome = &individual.genome;
                let cold = evaluator.evaluate(genome);
                assert_eq!(
                    cold,
                    evaluator.evaluate_reusing(genome, &mut warm),
                    "{mode:?}"
                );
                let plain = evaluator.simulate(genome, &mut warm, false);
                let recorded = evaluator.simulate(genome, &mut warm, true);
                assert_eq!(recorded.stats.digest(), plain.stats.digest(), "{mode:?}");
                assert!(!recorded.stats.log.is_empty(), "{mode:?}");
                let rescored = genome.score(&evaluator, &recorded, &mut ScoreScratch::default());
                assert_eq!(rescored, cold, "{mode:?}");
            }

            // (iv) The final snapshot round-trips through the mode-erased
            // payload and its JSON form.
            let payload = G::wrap_snapshot(run.final_snapshot.clone());
            assert!(payload.matches_mode(mode));
            let json = serde_json::to_string(&payload).unwrap();
            let back: SnapshotPayload = serde_json::from_str(&json).unwrap();
            assert_eq!(back, payload);
            let typed = G::unwrap_snapshot(back).unwrap();
            assert_eq!(G::wrap_snapshot(typed), payload);
            // Restoring the checkpoint or the final snapshot splits it into
            // a fuzzer's coordinator, islands and RNG streams; snapshotting
            // that fuzzer joins them again without moving a byte.
            assert_eq!(checkpoints.len(), 1, "{mode:?}");
            for snapshot in checkpoints.iter().chain([&run.final_snapshot]) {
                let again = Fuzzer::restore(&evaluator, snapshot.clone())
                    .unwrap()
                    .snapshot();
                assert_eq!(
                    serde_json::to_string(&again).unwrap(),
                    serde_json::to_string(snapshot).unwrap(),
                    "{mode:?}"
                );
            }

            // ...and (v) a genome type that does not serve the mode can
            // neither unwrap that payload nor build the campaign's fuzzer.
            if G::serves(FuzzMode::Traffic) {
                refuses::<LinkGenome>(&campaign, payload);
            } else {
                refuses::<TrafficGenome>(&campaign, payload);
            }
        }
    }

    fn refuses<Wrong: ModeGenome>(campaign: &Campaign, payload: SnapshotPayload) {
        assert!(!Wrong::serves(campaign.mode));
        assert!(Wrong::unwrap_snapshot(payload).is_err());
        let evaluator = campaign.evaluator();
        let built = std::panic::catch_unwind(|| {
            campaign
                .build_fuzzer::<Wrong>(&evaluator, None, None, 0, campaign.ga.islands)
                .map(|_| ())
        });
        let panic = built.expect_err("building a fuzzer over the wrong genome type panics");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(
            message.contains(&format!("campaign is in {} mode", campaign.mode.name())),
            "{message}"
        );
    }

    #[test]
    fn every_mode_conforms_end_to_end() {
        // Every mode, plus the one objective that scores the run log.
        let high_delay = Campaign::paper_high_delay(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            tiny_ga(FuzzMode::Traffic),
        );
        for campaign in FuzzMode::ALL
            .map(tiny_campaign)
            .into_iter()
            .chain([high_delay])
        {
            dispatch(campaign.mode, Conformance(campaign));
        }
    }
}
