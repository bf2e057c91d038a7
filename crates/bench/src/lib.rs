//! Shared helpers for the figure-regeneration binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one figure (or textual finding)
//! from the paper. They all follow the same pattern: build a
//! [`Campaign`](ccfuzz_core::campaign::Campaign) (scaled down by default,
//! paper-scale with `--paper-scale`), run it, replay the best trace with full
//! event recording, and print both an ASCII chart and CSV series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ccfuzz_analysis::figures::FigureSeries;
use ccfuzz_analysis::plot::{ascii_chart, to_csv};
use ccfuzz_core::evaluate::{EvalScratch, SimEvaluator};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::mode::{ModeGenome, RunOpts};
use ccfuzz_netsim::sim::SimResult;

/// Scale of a figure run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small populations / few generations: completes in seconds to a couple
    /// of minutes; preserves the qualitative shape of every figure.
    Quick,
    /// The paper's §4 settings (population 500, 20 islands). Slow.
    Paper,
}

impl Scale {
    /// Reads the scale from the process arguments (`--paper-scale` selects
    /// [`Scale::Paper`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper-scale") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }

    /// GA parameters for this scale with a fixed seed, `generations`
    /// generations at quick scale and `paper_generations` at paper scale.
    pub fn ga(&self, seed: u64, generations: u32, paper_generations: u32) -> GaParams {
        let mut ga = match self {
            Scale::Quick => GaParams::quick(),
            Scale::Paper => GaParams::paper_default(),
        };
        ga.seed = seed;
        ga.generations = match self {
            Scale::Quick => generations,
            Scale::Paper => paper_generations,
        };
        ga
    }
}

/// Replays `genome` in a fresh simulation with full event recording — the
/// step every figure binary performs on its campaign's best trace.
pub fn replay_recorded<G: ModeGenome>(evaluator: &SimEvaluator, genome: &G) -> SimResult {
    let opts = RunOpts {
        record_events: true,
        trace: false,
    };
    evaluator.simulate(genome, &mut EvalScratch::new(), opts).0
}

/// Prints a figure as an ASCII chart followed by its CSV series, under a
/// heading — the uniform output format of all figure binaries.
pub fn print_figure(heading: &str, series: &[&FigureSeries]) {
    println!("\n################################################################");
    println!("# {heading}");
    println!("################################################################");
    println!("{}", ascii_chart(heading, series, 90, 18));
    println!("--- CSV ---");
    println!("{}", to_csv(series));
}

/// Prints a small key/value table (used for textual findings).
pub fn print_table(heading: &str, rows: &[(&str, String)]) {
    println!("\n=== {heading} ===");
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<width$} : {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        let quick = Scale::Quick.ga(3, 10, 40);
        assert_eq!(quick.generations, 10);
        assert_eq!(quick.seed, 3);
        let paper = Scale::Paper.ga(3, 10, 40);
        assert_eq!(paper.generations, 40);
        assert_eq!(paper.total_population(), 500);
    }

    #[test]
    fn print_helpers_do_not_panic() {
        let s = FigureSeries::new("x", vec![(0.0, 1.0), (1.0, 2.0)]);
        print_figure("test figure", &[&s]);
        print_table("test table", &[("key", "value".to_string())]);
    }
}
