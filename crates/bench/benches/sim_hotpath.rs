//! Hot-path benchmarks tracked by `BENCH_sim.json`.
//!
//! Three fixed workloads bound the fuzzer's evaluations-per-second:
//! a single-flow paper scenario, an 8-flow mixed-CCA fairness run, and a
//! 2-generation mini GA campaign. `bench_report` times the same workloads
//! and records them as JSON; this criterion suite exists for interactive
//! `cargo bench` runs and to keep the workloads compiling under CI's
//! `cargo bench --no-run`.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{paper_sim_base, Campaign, FuzzMode};
use ccfuzz_core::evaluate::{EvalScratch, Evaluator};
use ccfuzz_core::fuzzer::GaParams;
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::{run_multi_flow_simulation, run_simulation, FlowSpec};
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_netsim::trace::TrafficTrace;
use criterion::{criterion_group, criterion_main, Criterion};

fn single_flow_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_single_flow_5s");
    group.sample_size(10);
    group.bench_function("reno", |b| {
        b.iter(|| {
            let mut cfg = paper_sim_base(SimDuration::from_secs(5));
            cfg.record_events = false;
            let result = run_simulation(cfg, CcaKind::Reno.build(10));
            std::hint::black_box(result.stats.events_processed)
        });
    });
    group.finish();
}

fn fairness_8flow_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_fairness_8flow_5s");
    group.sample_size(10);
    let duration = SimDuration::from_secs(5);
    let kinds = [
        CcaKind::Bbr,
        CcaKind::Reno,
        CcaKind::Cubic,
        CcaKind::Vegas,
        CcaKind::Reno,
        CcaKind::Bbr,
        CcaKind::Cubic,
        CcaKind::Reno,
    ];
    let injections: Vec<SimTime> = (0..1_000)
        .map(|i| SimTime::from_micros(i * 5_000))
        .collect();
    group.bench_function("mixed_ccas", |b| {
        b.iter(|| {
            let mut cfg = paper_sim_base(duration);
            cfg.record_events = false;
            cfg.cross_traffic = TrafficTrace::new(injections.clone(), duration);
            let specs: Vec<FlowSpec<_>> = kinds
                .iter()
                .enumerate()
                .map(|(i, kind)| FlowSpec {
                    cc: kind.build(10),
                    start: SimTime::from_millis(i as u64 * 250),
                    stop: None,
                })
                .collect();
            let result = run_multi_flow_simulation(cfg, specs);
            std::hint::black_box(result.stats.events_processed)
        });
    });
    group.finish();
}

fn aqm_gateway_run(c: &mut Criterion) {
    // The qdisc layer's hot path: the same single-flow scenario behind RED
    // and CoDel gateways with ECN on. Comparing against
    // `hotpath_single_flow_5s` shows what the AQM dispatch costs (drop-tail
    // itself pays only an enum discriminant check per packet).
    use ccfuzz_netsim::queue::Qdisc;
    let mut group = c.benchmark_group("hotpath_aqm_5s");
    group.sample_size(10);
    for (label, qdisc) in [
        ("red_ecn", Qdisc::red_default(100)),
        ("codel_ecn", Qdisc::codel_default()),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut cfg = paper_sim_base(SimDuration::from_secs(5));
                cfg.record_events = false;
                cfg.qdisc = qdisc;
                cfg.ecn_enabled = true;
                let result = run_simulation(cfg, CcaKind::Reno.build(10));
                std::hint::black_box(result.stats.events_processed)
            });
        });
    }
    group.finish();
}

fn multihop_chain_run(c: &mut Criterion) {
    // The topology engine's hot path: a 3-hop parking lot (long Reno flow
    // over the whole chain, short competitor on the middle bottleneck).
    // Comparing against `hotpath_single_flow_5s` shows what hop-by-hop
    // routing costs per event.
    use ccfuzz_netsim::topology::{HopConfig, HopRange, Topology};
    let mut group = c.benchmark_group("hotpath_multihop_5s");
    group.sample_size(10);
    group.bench_function("parking_lot_3hop", |b| {
        b.iter(|| {
            let mut cfg = paper_sim_base(SimDuration::from_secs(5));
            cfg.record_events = false;
            let mut topology = Topology::chain(vec![
                HopConfig::fixed_rate(12_000_000, SimDuration::from_millis(10), 100),
                HopConfig::fixed_rate(8_000_000, SimDuration::from_millis(5), 60),
                HopConfig::fixed_rate(10_000_000, SimDuration::from_millis(5), 80),
            ]);
            topology.paths = vec![HopRange::full(3), HopRange::new(1, 1)];
            cfg.topology = Some(topology);
            let specs: Vec<FlowSpec<_>> = vec![
                FlowSpec {
                    cc: CcaKind::Reno.build(10),
                    start: SimTime::ZERO,
                    stop: None,
                },
                FlowSpec {
                    cc: CcaKind::Reno.build(10),
                    start: SimTime::from_millis(500),
                    stop: None,
                },
            ];
            let result = run_multi_flow_simulation(cfg, specs);
            std::hint::black_box(result.stats.events_processed)
        });
    });
    group.finish();
}

fn mini_campaign_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_mini_campaign");
    group.sample_size(10);
    let mut ga = GaParams::quick();
    ga.islands = 4;
    ga.population_per_island = 8;
    ga.generations = 2;
    ga.threads = 1;
    ga.seed = 7;
    let campaign = Campaign::paper_standard(
        FuzzMode::Traffic,
        CcaKind::Reno,
        SimDuration::from_secs(3),
        ga,
    );
    group.bench_function("traffic_2gen_4x8", |b| {
        b.iter(|| {
            let result = campaign.run::<TrafficGenome>(None);
            std::hint::black_box(result.total_evaluations)
        });
    });
    // The per-evaluation primitive the campaign amortises: one genome
    // evaluated with reusable scratch (what a steady-state worker does).
    let evaluator = campaign.evaluator();
    let genome = {
        let mut rng = SimRng::new(7);
        TrafficGenome::generate(campaign.traffic_max_packets, campaign.duration, &mut rng)
    };
    group.bench_function("single_eval_scratch_reuse", |b| {
        let mut scratch = EvalScratch::new();
        b.iter(|| std::hint::black_box(evaluator.evaluate_reusing(&genome, &mut scratch).score));
    });
    group.finish();
}

criterion_group!(
    benches,
    single_flow_run,
    fairness_8flow_run,
    aqm_gateway_run,
    multihop_chain_run,
    mini_campaign_run
);
criterion_main!(benches);
