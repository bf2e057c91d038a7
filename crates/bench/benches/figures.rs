//! Criterion benchmarks for the per-figure building blocks that are cheap
//! enough to benchmark directly: the Figure 3 trace-generation sweep, the
//! Figure 4c hand-crafted adversarial replay against both BBR variants, and
//! the Figure 5 realism scoring of one trace.
//!
//! (The GA-driven figures 4a/4b/4d/4e are regenerated by the `fig4*`
//! binaries; benchmarking whole campaigns is not meaningful.)

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{paper_sim_base, PAPER_LINK_RATE_BPS};
use ccfuzz_core::evaluate::EvalScratch;
use ccfuzz_core::genome::{LinkGenome, TrafficGenome};
use ccfuzz_core::mode::RunOpts;
use ccfuzz_core::realism::RealismScorer;
use ccfuzz_core::scoring::ScoringConfig;
use ccfuzz_core::trace_gen::{dist_packets, packets_for_rate, DistPacketsParams};
use ccfuzz_core::SimEvaluator;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use criterion::{criterion_group, criterion_main, Criterion};

fn fig3_trace_sweep(c: &mut Criterion) {
    c.bench_function("fig3_generate_30_traces", |b| {
        let duration = SimDuration::from_secs(5);
        let total = packets_for_rate(12_000_000, 1500, duration);
        let params = DistPacketsParams::default();
        let mut rng = SimRng::new(3);
        b.iter(|| {
            let mut count = 0usize;
            for _ in 0..30 {
                count += dist_packets(
                    total,
                    SimTime::ZERO,
                    SimTime::ZERO + duration,
                    &params,
                    &mut rng,
                )
                .len();
            }
            std::hint::black_box(count)
        });
    });
}

fn fig4c_adversarial_replay(c: &mut Criterion) {
    let duration = SimDuration::from_secs(5);
    let mut timestamps = Vec::new();
    for (start_ms, count) in [(1_000u64, 140u64), (1_090, 140), (2_020, 130)] {
        for i in 0..count {
            timestamps.push(SimTime::from_micros(start_ms * 1_000 + i * 50));
        }
    }
    let genome = TrafficGenome {
        max_packets: timestamps.len() * 2,
        timestamps,
        duration,
    };
    let base = paper_sim_base(duration);
    let scoring = ScoringConfig::low_throughput_default(PAPER_LINK_RATE_BPS as f64);

    let mut group = c.benchmark_group("fig4c_replay");
    group.sample_size(10);
    for cca in [CcaKind::Bbr, CcaKind::BbrProbeRttOnRto] {
        group.bench_function(cca.name(), |b| {
            let evaluator = SimEvaluator::new(base.clone(), cca, scoring, PAPER_LINK_RATE_BPS);
            b.iter(|| {
                let run = evaluator
                    .simulate(&genome, &mut EvalScratch::new(), RunOpts::default())
                    .0;
                std::hint::black_box(run.stats.flow().delivered_packets)
            });
        });
    }
    group.finish();
}

fn fig5_realism_scoring(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_realism");
    group.sample_size(10);
    group.bench_function("score_one_trace_4ccas", |b| {
        let duration = SimDuration::from_secs(3);
        let base = paper_sim_base(duration);
        let total = packets_for_rate(12_000_000, base.mss, duration);
        let params = DistPacketsParams {
            enforce_rate_bounds: false,
            ..Default::default()
        };
        let mut rng = SimRng::new(17);
        let scorer = RealismScorer::standard(base);
        let timestamps = dist_packets(
            total,
            SimTime::ZERO,
            SimTime::ZERO + duration,
            &params,
            &mut rng,
        );
        let genome = LinkGenome {
            timestamps,
            duration,
            k_agg: SimDuration::from_millis(50),
        };
        b.iter(|| std::hint::black_box(scorer.score_link(&genome).score));
    });
    group.finish();
}

criterion_group!(
    benches,
    fig3_trace_sweep,
    fig4c_adversarial_replay,
    fig5_realism_scoring
);
criterion_main!(benches);
