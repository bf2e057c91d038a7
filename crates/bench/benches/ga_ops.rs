//! Criterion benchmark for a full GA generation step (evaluation + evolution)
//! at quick scale, against Reno — this is the unit of work the paper's
//! population-of-500, tens-of-generations campaigns repeat.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::time::SimDuration;
use criterion::{criterion_group, criterion_main, Criterion};

fn ga_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_generation");
    group.sample_size(10);
    group.bench_function("traffic_reno_2islands_x4_2s", |b| {
        b.iter(|| {
            let mut ga = GaParams::quick();
            ga.islands = 2;
            ga.population_per_island = 4;
            ga.generations = 1;
            ga.seed = 9;
            let campaign = Campaign::paper_standard(
                FuzzMode::Traffic,
                CcaKind::Reno,
                SimDuration::from_secs(2),
                ga,
            );
            let result = campaign.run::<TrafficGenome>(None);
            std::hint::black_box(result.total_evaluations)
        });
    });
    group.finish();
}

criterion_group!(benches, ga_generation);
criterion_main!(benches);
