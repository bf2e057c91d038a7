//! The four benchmark workloads: what each one runs and why it exists.
//!
//! Every hunt uses the paper's population shape (20 islands x 25 traces);
//! the other GA parameters are whatever `ccfuzz hunt` resolves for those
//! flags. Generation counts come in three sizes: the end-to-end size that
//! fits the contract's time cap, the paper-scale size of the traced run, and
//! the `--quick` smoke size.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::FuzzMode;
use ccfuzz_corpus::hunt::HuntConfig;
use ccfuzz_netsim::time::SimDuration;

/// Islands of every benchmark campaign (paper §4).
pub const ISLANDS: usize = 20;
/// Traces per island (paper §4: 20 x 25 = population 500).
pub const POPULATION: usize = 25;
/// Traces per island of the `--quick` smoke run: snapshot encode/decode
/// grows faster than linearly with the population, so only a small one
/// walks every code path in seconds.
pub const QUICK_POPULATION: usize = 6;
/// Worker processes of the fleet workload.
pub const FLEET_WORKERS: usize = 2;
/// Simulation budget handed to `ccfuzz minimize` during triage.
pub const MINIMIZE_BUDGET: usize = 300;
/// Distinct GA seeds one run cycles through; session `k` uses
/// `sub_seed(seed, k % SUB_SEEDS)`, so a fourth session repeats the first
/// one's campaign and its payload must come out byte-identical.
pub const SUB_SEEDS: u64 = 3;

/// Which generation count a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// End-to-end runs (`--trace 0`): scaled so the contract's 92 runs fit.
    EndToEnd,
    /// Traced runs (`--trace 1`): the issue's paper-scale generation counts,
    /// which give the per-generation percentiles their sample counts.
    PaperScale,
    /// `--quick`: every code path in seconds.
    Quick,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// One line on why it exists (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// Algorithm under test.
    pub cca: &'static str,
    /// `--mode`.
    pub mode: &'static str,
    /// `--flows`, when the mode takes it.
    pub flows: Option<&'static str>,
    /// `--seconds`: simulated scenario length.
    pub sim_seconds: u64,
    /// Generations at paper scale; the other sizes derive from it.
    pub paper_generations: u32,
    /// Runs through `ccfuzzd` with [`FLEET_WORKERS`] single-threaded workers
    /// instead of one in-process `ccfuzz hunt`.
    pub fleet: bool,
    /// Rough wall seconds per generation on the reference box, used only to
    /// size child timeouts (3x the expected wall).
    pub nominal_gen_s: f64,
    /// Rough measured seconds (hunt + triage) of one end-to-end session on
    /// the reference box: `--seconds S` buys `S / nominal_session_s`
    /// sessions, at least three.
    pub nominal_session_s: f64,
}

const FLOWS_16: &str = "bbr,reno,cubic,vegas,bbr,reno,cubic,vegas,\
bbr,reno,cubic,vegas,bbr,reno,cubic,vegas";

/// The benchmark's workloads, in the order runs interleave them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hunt_link_bbr",
        why: "paper headline (BBR stall, link fuzzing): one flow, netsim event loop + cca::bbr dominate, GA operators at their largest share",
        cca: "bbr",
        mode: "link",
        flows: None,
        sim_seconds: 5,
        paper_generations: 50,
        fleet: false,
        nominal_gen_s: 0.7,
        nominal_session_s: 4.0,
    },
    Workload {
        name: "hunt_fairness_16flow",
        why: "sixteen static mixed-CCA flows on one bottleneck: per-flow FlowTable/dispatch/Jain-scoring cost dominates; a single-flow fast path shows nothing here",
        cca: "bbr",
        mode: "fairness",
        flows: Some(FLOWS_16),
        sim_seconds: 3,
        paper_generations: 50,
        fleet: false,
        nominal_gen_s: 0.7,
        nominal_session_s: 4.0,
    },
    Workload {
        name: "hunt_workload_churn",
        why: "flow churn (slab create/recycle, arrivals, FCT histograms, tail-latency scoring): exposes a static-flow gain that churn pays for",
        cca: "reno",
        mode: "workload",
        flows: Some("reno,cubic"),
        sim_seconds: 5,
        paper_generations: 50,
        fleet: false,
        nominal_gen_s: 0.7,
        nominal_session_s: 4.0,
    },
    Workload {
        name: "fleet_w2_ckpt",
        why: "ccfuzzd with 2 workers, short sims and a two-phase checkpoint per generation: daemon/worker/proto/checkpoint/serde_json/fsync dominate, netsim is the minority",
        cca: "reno",
        mode: "traffic",
        flows: None,
        sim_seconds: 1,
        paper_generations: 150,
        fleet: true,
        // Most of a fleet session is decoding the workers' final
        // snapshots, which does not shrink with the generation count.
        nominal_gen_s: 0.25,
        nominal_session_s: 9.0,
    },
];

/// The flags of one campaign that vary between runs.
#[derive(Clone, Copy, Debug)]
pub struct CampaignShape {
    /// `--generations`.
    pub generations: u32,
    /// `--population`.
    pub population: usize,
    /// `--seed`: the GA master seed.
    pub ga_seed: u64,
    /// `--threads`.
    pub threads: usize,
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Evaluation threads: `min(nproc, 4)`, never more than the box has.
pub fn eval_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// The GA master seed of session slot `k` of a run started with `--seed`.
/// Runs with different seeds never share a campaign.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed * 1000 + k % SUB_SEEDS
}

impl Workload {
    /// Generations at `size`. All four workloads scale by the same factor
    /// (0.10 end to end, 0.06 quick), frozen here.
    pub fn generations(&self, size: Size) -> u32 {
        match size {
            Size::PaperScale => self.paper_generations,
            Size::EndToEnd => self.paper_generations * 10 / 100,
            Size::Quick => self.paper_generations * 6 / 100,
        }
    }

    /// Traces per island at `size`.
    pub fn population(&self, size: Size) -> usize {
        match size {
            Size::Quick => QUICK_POPULATION,
            Size::EndToEnd | Size::PaperScale => POPULATION,
        }
    }

    /// End-to-end sessions a run measuring for about `seconds` makes.
    pub fn sessions_for(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_session_s).round() as usize).max(3)
    }

    /// Threads each evaluating process uses: the fleet's workers are
    /// single-threaded (two of them fill this box), hunts use `T`.
    pub fn hunt_threads(&self) -> usize {
        if self.fleet {
            1
        } else {
            eval_threads()
        }
    }

    /// The campaign flags shared by `ccfuzz hunt` and `ccfuzz submit`.
    pub fn campaign_args(&self, shape: &CampaignShape) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--cca".into(),
            self.cca.into(),
            "--mode".into(),
            self.mode.into(),
        ];
        if let Some(flows) = self.flows {
            args.extend(["--flows".to_string(), flows.to_string()]);
        }
        for (flag, value) in [
            ("--generations", shape.generations.to_string()),
            ("--seconds", self.sim_seconds.to_string()),
            ("--islands", ISLANDS.to_string()),
            ("--population", shape.population.to_string()),
            ("--threads", shape.threads.to_string()),
            ("--seed", shape.ga_seed.to_string()),
        ] {
            args.extend([flag.to_string(), value]);
        }
        args
    }

    /// The `HuntConfig` the CLI resolves for [`Self::campaign_args`]; the
    /// traced run re-drives exactly this campaign in-process.
    pub fn hunt_config(&self, shape: &CampaignShape) -> HuntConfig {
        let cca = CcaKind::from_name(self.cca).expect("workload table names a known CCA");
        let mode = FuzzMode::from_name(self.mode).expect("workload table names a known mode");
        let mut config = HuntConfig::quick(cca, mode, shape.generations, shape.ga_seed);
        config.duration = SimDuration::from_secs(self.sim_seconds);
        if let Some(flows) = self.flows {
            config.flow_ccas = CcaKind::parse_list(flows).expect("workload table flows parse");
        }
        config.ga.threads = shape.threads;
        config.ga.islands = ISLANDS;
        config.ga.population_per_island = shape.population;
        config
    }

    /// Hard timeout for a child expected to run `generations` generations.
    pub fn hunt_timeout(&self, generations: u32) -> std::time::Duration {
        std::time::Duration::from_secs_f64(3.0 * (self.nominal_gen_s * generations as f64 + 3.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_all_workloads_by_one_factor() {
        for w in &WORKLOADS {
            assert_eq!(
                w.generations(Size::EndToEnd) * 100 / w.paper_generations,
                10
            );
            assert_eq!(w.generations(Size::Quick) * 100 / w.paper_generations, 6);
        }
        assert_eq!(
            by_name("hunt_link_bbr")
                .unwrap()
                .generations(Size::EndToEnd),
            5
        );
        assert_eq!(
            by_name("fleet_w2_ckpt")
                .unwrap()
                .generations(Size::EndToEnd),
            15
        );
        assert!(by_name("nope").is_none());
        assert_eq!(by_name("hunt_link_bbr").unwrap().sessions_for(20), 5);
        assert_eq!(by_name("fleet_w2_ckpt").unwrap().sessions_for(20), 3);
        assert_eq!(by_name("fleet_w2_ckpt").unwrap().sessions_for(60), 7);
    }

    #[test]
    fn sub_seeds_repeat_within_a_run_and_never_across_runs() {
        assert_eq!(sub_seed(1, 0), sub_seed(1, 3));
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        let one: Vec<u64> = (0..SUB_SEEDS).map(|k| sub_seed(1, k)).collect();
        let two: Vec<u64> = (0..SUB_SEEDS).map(|k| sub_seed(2, k)).collect();
        assert!(one.iter().all(|s| !two.contains(s)));
    }

    #[test]
    fn hunt_config_mirrors_the_cli_flags() {
        let w = by_name("hunt_fairness_16flow").unwrap();
        let shape = CampaignShape {
            generations: 6,
            population: POPULATION,
            ga_seed: 1000,
            threads: 2,
        };
        let config = w.hunt_config(&shape);
        assert_eq!(config.flow_ccas.len(), 16);
        assert_eq!(config.ga.total_population(), 500);
        assert_eq!(config.ga.generations, 6);
        assert_eq!(config.ga.seed, 1000);
        let args = w.campaign_args(&shape).join(" ");
        assert!(args.contains("--mode fairness --flows bbr,reno"));
        assert!(args.ends_with("--threads 2 --seed 1000"));
    }
}
