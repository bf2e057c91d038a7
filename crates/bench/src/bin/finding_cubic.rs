//! §4.2 finding: the NS3 CUBIC slow-start window-update bug.
//!
//! Runs traffic fuzzing against the bug-compatible CUBIC, replays the best
//! trace against both the buggy and the fixed (Linux-like) CUBIC, and shows
//! the signature of the bug: after an RTO, a retransmission that fills a
//! large hole makes the buggy CUBIC blow its window far past ssthresh,
//! burst ~1 RTO of data and suffer catastrophic losses.

use ccfuzz_analysis::report::one_line_summary;
use ccfuzz_bench::{print_table, replay_recorded, Scale};
use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let scale = Scale::from_args();
    let duration = SimDuration::from_secs(5);
    let ga = scale.ga(23, 18, 40);
    let campaign =
        Campaign::paper_standard(FuzzMode::Traffic, CcaKind::CubicNs3Buggy, duration, ga);

    eprintln!(
        "running traffic fuzzing vs the NS3-buggy CUBIC ({:?} scale)...",
        scale
    );
    let result = campaign.run::<TrafficGenome>(None);

    // Replay the same trace against buggy and fixed CUBIC.
    let buggy_run = replay_recorded(&campaign.evaluator(), &result.best_genome);
    let mut fixed_campaign = campaign.clone();
    fixed_campaign.cca = CcaKind::Cubic;
    let fixed_run = replay_recorded(&fixed_campaign.evaluator(), &result.best_genome);

    print_table(
        "Best adversarial trace",
        &[
            (
                "cross-traffic packets",
                result.best_genome.timestamps.len().to_string(),
            ),
            ("fitness score", format!("{:.3}", result.best_outcome.score)),
        ],
    );
    print_table(
        "CUBIC with the NS3 slow-start bug",
        &[
            (
                "summary",
                one_line_summary(&buggy_run.stats, duration.as_secs_f64(), campaign.sim.mss),
            ),
            (
                "queue drops (self-inflicted bursts)",
                buggy_run.stats.flow().queue_drops.to_string(),
            ),
            ("RTOs", buggy_run.stats.flow().rto_count.to_string()),
        ],
    );
    print_table(
        "CUBIC with the Linux-correct slow-start cap",
        &[
            (
                "summary",
                one_line_summary(&fixed_run.stats, duration.as_secs_f64(), campaign.sim.mss),
            ),
            (
                "queue drops",
                fixed_run.stats.flow().queue_drops.to_string(),
            ),
            ("RTOs", fixed_run.stats.flow().rto_count.to_string()),
        ],
    );
    println!("\nExpected shape (paper): on the same trace the buggy CUBIC suffers far more");
    println!("self-inflicted losses (a burst of roughly one RTO's worth of data after each");
    println!("large cumulative-ACK jump), while the capped CUBIC recovers normally.");
}
