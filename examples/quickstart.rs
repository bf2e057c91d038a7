//! Quickstart: run a tiny CC-Fuzz traffic-fuzzing campaign against TCP Reno
//! and replay the worst trace it finds.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cc_fuzz::analysis::report::one_line_summary;
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::{Campaign, FuzzMode};
use cc_fuzz::fuzz::evaluate::EvalScratch;
use cc_fuzz::fuzz::genome::TrafficGenome;
use cc_fuzz::fuzz::GaParams;
use cc_fuzz::netsim::time::SimDuration;

fn main() {
    // 1. Describe the campaign: the paper's standard scenario (12 Mbps
    //    bottleneck, 20 ms delay, SACK + delayed ACKs, 1 s min-RTO), traffic
    //    fuzzing against Reno, hunting for low throughput.
    let duration = SimDuration::from_secs(5);
    let mut ga = GaParams::quick();
    ga.generations = 12;
    ga.seed = 42;
    let campaign = Campaign::paper_standard(FuzzMode::Traffic, CcaKind::Reno, duration, ga);

    println!(
        "CC-Fuzz quickstart: traffic fuzzing vs {}",
        campaign.cca.name()
    );
    println!(
        "population = {} across {} islands, {} generations\n",
        campaign.ga.total_population(),
        campaign.ga.islands,
        campaign.ga.generations
    );

    // 2. Run the genetic algorithm.
    let result = campaign.run::<TrafficGenome>(None);
    for summary in &result.history {
        println!(
            "gen {:>3}: best score {:.3}, mean score {:.3}, top-{} mean delivered {:>6.0} pkts",
            summary.generation,
            summary.best_score,
            summary.mean_score,
            campaign.ga.report_top_k,
            summary.top_k_mean_delivered
        );
    }

    // 3. Replay the best adversarial trace, recording its run log, and
    //    print what it does to the flow.
    let evaluator = campaign.evaluator();
    let replay = evaluator.simulate(&result.best_genome, &mut EvalScratch::new(), true);
    println!(
        "\nworst trace found ({} cross-traffic packets):",
        result.best_genome.timestamps.len()
    );
    println!(
        "  {}",
        one_line_summary(&replay.stats, duration.as_secs_f64(), campaign.sim.mss)
    );
    println!(
        "  fitness {:.3} (performance {:.3}, trace minimality {:.3})",
        result.best_outcome.score,
        result.best_outcome.performance_score,
        result.best_outcome.trace_score
    );
    println!("\ntotal simulations: {}", result.total_evaluations);
}
