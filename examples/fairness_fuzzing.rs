//! Fairness fuzzing: evolve multi-flow scenarios where heterogeneous CCAs
//! share the paper's 12 Mbps / 20 ms bottleneck badly.
//!
//! ```sh
//! cargo run --release --example fairness_fuzzing
//! ```
//!
//! The GA controls the flow mix (BBR vs. Reno to start), each flow's
//! start/stop schedule and an optional unresponsive cross-traffic helper,
//! and maximises `(1 - Jain's index) + 0.5 * starvation fraction`.

use cc_fuzz::analysis::table::per_flow_table;
use cc_fuzz::cca::CcaKind;
use cc_fuzz::fuzz::campaign::Campaign;
use cc_fuzz::fuzz::evaluate::EvalScratch;
use cc_fuzz::fuzz::genome::Genome;
use cc_fuzz::fuzz::mode::RunOpts;
use cc_fuzz::fuzz::scenario::ScenarioGenome;
use cc_fuzz::fuzz::scoring::fairness_breakdown;
use cc_fuzz::fuzz::GaParams;
use cc_fuzz::netsim::time::SimDuration;

fn main() {
    // 1. The fairness campaign preset: BBR competing with Reno.
    let duration = SimDuration::from_secs(5);
    let mut ga = GaParams::quick();
    ga.generations = 10;
    ga.seed = 7;
    let campaign = Campaign::paper_fairness(vec![CcaKind::Bbr, CcaKind::Reno], duration, ga);

    println!("CC-Fuzz fairness fuzzing: BBR vs. Reno on a shared bottleneck");
    println!(
        "population = {} across {} islands, {} generations\n",
        campaign.ga.total_population(),
        campaign.ga.islands,
        campaign.ga.generations
    );

    // 2. Run the genetic algorithm over scenario genomes.
    let result = campaign.run::<ScenarioGenome>(None);
    for summary in &result.history {
        println!(
            "gen {:>3}: best unfairness {:.3}, mean {:.3}",
            summary.generation, summary.best_score, summary.mean_score
        );
    }

    // 3. Replay the most unfair scenario found and print the flow split.
    let best = &result.best_genome;
    let evaluator = campaign.evaluator();
    let replay = evaluator
        .simulate(best, &mut EvalScratch::new(), RunOpts::default())
        .0;
    let breakdown = fairness_breakdown(&replay, campaign.sim.mss);

    println!("\nworst scenario found ({} flows):", best.flow_count());
    for (i, flow) in best.flows.iter().enumerate() {
        println!(
            "  flow {i}: {:<6} start {:.2}s stop {}",
            flow.cca.name(),
            flow.start.as_secs_f64(),
            flow.stop
                .map(|t| format!("{:.2}s", t.as_secs_f64()))
                .unwrap_or_else(|| "end".to_string())
        );
    }
    println!(
        "  cross traffic: {} packets\n",
        best.traffic.as_ref().map(|t| t.packet_count()).unwrap_or(0)
    );
    let ccas: Vec<String> = best
        .flows
        .iter()
        .map(|f| f.cca.name().to_string())
        .collect();
    print!(
        "{}",
        per_flow_table(
            &ccas,
            &breakdown.per_flow_goodput_bps,
            &breakdown.per_flow_delivered,
        )
    );
    println!(
        "\njain index = {:.4}, max starvation = {:.3}s, unfairness score = {:.6}",
        breakdown.jain_index, breakdown.max_starvation_secs, result.best_outcome.score
    );
}
